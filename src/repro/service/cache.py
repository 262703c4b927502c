"""LRU cache of compiled NOR programs.

Compiling a predicate into a NOR program is deterministic in the predicate
and the row layout, so a service replaying similar WHERE clauses can reuse
the compiled :class:`~repro.pim.logic.Program` verbatim.
:class:`ProgramCache` is a drop-in
:class:`~repro.core.stages.ProgramCompiler` with an LRU keyed by
``(predicate, layout)`` — layouts compare by identity, predicates by value
(the IR dataclasses are frozen).

The batched pim-gb path asks for *templates*
(:class:`~repro.db.compiler.GroupMaskTemplate`), not per-subgroup programs.
A template key is ``(attribute names, filter column, include_remote,
layout)`` — it holds no group values, so a GROUP-BY costs one entry per
partition it touches however many subgroups it has, and the capacity a
workload needs is its number of distinct WHERE clauses and GROUP-BY column
sets, not its subgroup count.  The value-keyed ``group_program`` /
``combine_program`` entries serve the per-subgroup ``dispatch`` reference.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from collections.abc import Callable, Hashable, Sequence
from typing import ClassVar, TypeVar

from repro.core.stages import ProgramCompiler
from repro.db.compiler import GroupMaskTemplate
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


class ProgramCache(ProgramCompiler):
    """An LRU-cached :class:`~repro.core.stages.ProgramCompiler`.

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
        # Sharded scatter execution may compile from several shard threads at
        # once; the lock keeps the LRU bookkeeping (and the hit/miss counters)
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
        """Cached programs and templates whose kernel has been compiled.

        Programs memoize their optimized NOR DAG and fused kernel on first
        fused execution (see :meth:`repro.pim.logic.Program.fused_kernel`),
        templates their batch kernel on first batched group-by, so a cache
        hit reuses the kernel along with the entry and an eviction drops
        both — this counts how many entries currently carry one.
        """
        with self._lock:
            return sum(
                1
                for program in self._entries.values()
                if program._kernel is not None
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

    # ----------------------------------------------- ProgramCompiler interface
    def filter_program(
        self, predicate: Predicate, schema: Schema, layout: RowLayout
    ) -> Program:
        build = super().filter_program
        return self._lookup(
            ("filter", predicate, layout),
            lambda: build(predicate, schema, layout),
        )

    def group_program(self, group_values: dict[str, int], layout: RowLayout) -> Program:
        key = ("group", tuple(sorted(group_values.items())), layout)
        build = super().group_program
        return self._lookup(key, lambda: build(group_values, layout))

    def combine_program(
        self, group_values: dict[str, int], layout: RowLayout, include_remote: bool
    ) -> Program:
        key = (
            "combine",
            tuple(sorted(group_values.items())),
            include_remote,
            layout,
        )
        build = super().combine_program
        return self._lookup(
            key, lambda: build(group_values, layout, include_remote)
        )

    def group_template(
        self,
        attributes: Sequence[str],
        layout: RowLayout,
        filter_column: int,
        include_remote: bool = False,
    ) -> GroupMaskTemplate:
        key = (
            "template", tuple(sorted(attributes)), filter_column,
            include_remote, layout,
        )
        build = super().group_template
        return self._lookup(
            key, lambda: build(attributes, layout, filter_column, include_remote)
        )
