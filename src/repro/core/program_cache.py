"""The one compiler of the execution stages: an LRU cache of NOR programs.

Compiling a predicate into a NOR program is deterministic in the predicate
and the row layout, so every caller — the query stages, ``compile_delete``
and a service replaying similar WHERE clauses — takes its compiled
:class:`~repro.pim.logic.Program` from a :class:`ProgramCache` keyed by
``(predicate, layout)``: layouts compare by identity, predicates by value
(the IR dataclasses are frozen).  An engine built without one gets a
private cache; the service shares one across all of its engines.

The batched pim-gb of every configuration asks for *templates*
(:class:`~repro.db.compiler.GroupMaskTemplate`, which price every key's
mask program and compile none), not per-subgroup programs.
A template key is ``(attribute names, filter column, include_remote,
layout)`` — it holds no group values, so a GROUP-BY costs one entry per
partition it touches however many subgroups it has, and the capacity a
workload needs is its number of distinct WHERE clauses and GROUP-BY column
sets, not its subgroup count.  The value-keyed ``group_program`` /
``combine_program`` entries serve only the ``dispatch`` oracle's loop.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from collections.abc import Callable, Hashable, Sequence
from typing import ClassVar, TypeVar

from repro.db.compiler import (
    GroupMaskTemplate,
    compile_group_combine,
    compile_group_predicate,
    compile_predicate,
)
from repro.db.encoding import RowLayout
from repro.db.query import Predicate
from repro.db.schema import Schema
from repro.obs.metrics import sub_stats
from repro.pim.logic import Program

_Entry = TypeVar("_Entry", Program, GroupMaskTemplate)


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of a :class:`ProgramCache`.

    ``capacity`` and ``entries`` describe the cache the counters came from —
    they are carried by :meth:`ProgramCache.snapshot` (and preserved across
    the ``-`` used to delta two snapshots) so reports can show the occupancy
    next to the hit rate.
    """

    GAUGES: ClassVar[tuple[str, ...]] = ("capacity", "entries", "hit_rate")

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    capacity: int | None = None
    entries: int | None = None

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> CacheStats:
        """An immutable-in-spirit copy taken at a point in time."""
        return CacheStats(
            self.hits, self.misses, self.evictions, self.capacity, self.entries
        )

    def __sub__(self, other: CacheStats) -> CacheStats:
        return sub_stats(self, other)


class ProgramCache:
    """Compiles, and LRU-caches, the NOR programs the execution stages need.

    Programs are immutable once built (the executor only reads their
    operation list), so one cache can safely serve every engine of a
    :class:`~repro.service.service.QueryService` — distinct relations have
    distinct layouts and therefore distinct keys.
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.stats = CacheStats()
        self._entries: OrderedDict[Hashable, Program | GroupMaskTemplate] = (
            OrderedDict()
        )
        # Shards execute on the calling thread; the only concurrent compiles
        # come from ``repro.core.batched``, whose ``pool.map`` builds the
        # group-mask templates of two or more remote partitions at once.  The
        # lock keeps the LRU bookkeeping (and the hit/miss counters)
        # consistent.  Compilation itself is pure, so holding the lock across
        # ``build()`` only serialises genuinely duplicate work.
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._entries)

    def snapshot(self) -> CacheStats:
        """A point-in-time :class:`CacheStats` including capacity/occupancy."""
        with self._lock:
            stats = self.stats.snapshot()
            stats.capacity = self.capacity
            stats.entries = len(self._entries)
            return stats

    def clear(self) -> None:
        """Drop every cached program (the counters are kept)."""
        with self._lock:
            self._entries.clear()

    def fused_kernels(self) -> int:
        """Cached programs whose kernel has been compiled.

        Programs memoize their optimized NOR DAG and fused kernel on first
        fused execution (see :meth:`repro.pim.logic.Program.fused_kernel`),
        so a cache hit reuses the kernel along with the entry and an
        eviction drops both — this counts how many entries currently carry
        one.  A template compiles nothing.
        """
        with self._lock:
            return sum(
                1
                for entry in self._entries.values()
                if isinstance(entry, Program) and entry._kernel is not None
            )

    def _lookup(self, key: Hashable, build: Callable[[], _Entry]) -> _Entry:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry
            self.stats.misses += 1
            program = build()
            self._entries[key] = program
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
            return program

    # ----------------------------------------------------------- compilers
    def filter_program(
        self, predicate: Predicate, schema: Schema, layout: RowLayout
    ) -> Program:
        """WHERE-clause program leaving its result in the filter column."""
        return self._lookup(
            ("filter", predicate, layout),
            lambda: compile_predicate(predicate, schema, layout),
        )

    def group_program(self, group_values: dict[str, int], layout: RowLayout) -> Program:
        """Remote-partition subgroup equality program (per-subgroup pim-gb)."""
        return self._lookup(
            ("group", tuple(sorted(group_values.items())), layout),
            lambda: compile_group_predicate(group_values, layout),
        )

    def combine_program(
        self, group_values: dict[str, int], layout: RowLayout, include_remote: bool
    ) -> Program:
        """Primary-partition subgroup mask program (per-subgroup pim-gb)."""
        key = (
            "combine",
            tuple(sorted(group_values.items())),
            include_remote,
            layout,
        )
        return self._lookup(
            key, lambda: compile_group_combine(group_values, layout, include_remote)
        )

    def group_template(
        self,
        attributes: Sequence[str],
        layout: RowLayout,
        filter_column: int,
        include_remote: bool = False,
    ) -> GroupMaskTemplate:
        """Value-free twin of the two methods above (batched pim-gb): the
        per-key op counts of their programs, no program.

        ``filter_column`` is the layout's valid column for what
        :meth:`group_program` specialises per subgroup and its filter column
        for :meth:`combine_program`.
        """
        key = (
            "template", tuple(sorted(attributes)), filter_column,
            include_remote, layout,
        )
        return self._lookup(
            key, lambda: GroupMaskTemplate(attributes, layout, filter_column, include_remote)
        )
