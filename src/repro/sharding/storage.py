"""Horizontal sharding of a PIM-resident relation.

A :class:`ShardedStoredRelation` splits a relation's records into ``K``
contiguous horizontal shards and stores each shard in its own crossbar
allocation (its own run of 2 MB huge pages) inside one PIM module.  Every
shard is a full :class:`~repro.db.storage.StoredRelation` — same schema, same
vertical partitioning, and crucially the *same* :class:`~repro.db.encoding.RowLayout`
objects — so

* a NOR program compiled once against the shared layout executes verbatim on
  every shard (the :class:`~repro.service.cache.ProgramCache` keys on layout
  identity and therefore hits across shards), and
* the per-shard results merge through the existing partial-aggregate
  machinery with bit-exact global answers.

The shard relations start out as NumPy *views* into the parent relation's
columns, so at load time the parent is the single functional ground truth:
an in-memory UPDATE applied through one shard (see
:func:`repro.sharding.dml.execute_sharded_update`) is immediately visible in
the parent relation and vice versa.  DML (:mod:`repro.sharding.dml`) can grow a shard — a tail
INSERT or a compaction reallocates that shard's columns, decoupling it from
the parent — after which :meth:`ShardedStoredRelation.live_relation` is the
authoritative ground truth and ``self.relation`` is just the load-time
snapshot.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from collections.abc import Sequence

import numpy as np

from repro.db.relation import Relation, concatenate
from repro.db.storage import StoredRelation
from repro.pim.controller import PimExecutor
from repro.pim.module import PimModule


def shard_bounds(num_records: int, shards: int) -> list[tuple[int, int]]:
    """Balanced contiguous ``[start, stop)`` record ranges for ``shards``.

    The first ``num_records % shards`` shards receive one extra record, so
    shard sizes differ by at most one and every shard is non-empty.
    """
    if num_records <= 0:
        raise ValueError("num_records must be positive")
    if shards <= 0:
        raise ValueError("shards must be positive")
    if shards > num_records:
        raise ValueError(
            f"cannot split {num_records} records into {shards} non-empty shards"
        )
    base, extra = divmod(num_records, shards)
    bounds: list[tuple[int, int]] = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


class ShardedStoredRelation:
    """A relation split into K horizontal shards of PIM memory."""

    def __init__(
        self,
        relation: Relation,
        module: PimModule,
        shards: int = 2,
        label: str | None = None,
        partitions: Sequence[Sequence[str]] | None = None,
        aggregation_width: int | None = None,
        reserve_bulk_aggregation: bool = True,
    ) -> None:
        """Store ``relation`` as ``shards`` horizontal shards in ``module``.

        Args:
            relation: The full relation; it remains the functional ground
                truth shared (by view) with every shard.
            module: PIM module receiving one allocation per shard (per
                vertical partition).
            shards: Number of horizontal shards (``1 <= shards <= records``).
            label: Base label; shard ``k`` is stored as ``"{label}/s{k}"``.
            partitions / aggregation_width / reserve_bulk_aggregation:
                Forwarded to every shard's :class:`StoredRelation`; all
                shards share one layout per vertical partition.
        """
        self.relation = relation
        self.module = module
        self.label = label or relation.schema.name
        self.initial_records = len(relation)
        self.bounds = shard_bounds(self.initial_records, shards)
        self._stops = [stop for _, stop in self.bounds]
        self.num_shards = len(self.bounds)

        self.shards: list[StoredRelation] = []
        shared_layouts = None
        for index, (start, stop) in enumerate(self.bounds):
            shard_relation = Relation(
                relation.schema,
                {name: relation.columns[name][start:stop]
                 for name in relation.schema.names},
            )
            stored = StoredRelation(
                shard_relation,
                module,
                label=f"{self.label}/s{index}",
                partitions=partitions,
                aggregation_width=aggregation_width,
                reserve_bulk_aggregation=reserve_bulk_aggregation,
                layouts=shared_layouts,
            )
            if shared_layouts is None:
                shared_layouts = stored.layouts
            self.shards.append(stored)

    # ------------------------------------------------------------- geometry
    @property
    def num_records(self) -> int:
        """Slots in use across all shards (grows/shrinks with DML)."""
        return sum(shard.num_records for shard in self.shards)

    @property
    def live_count(self) -> int:
        """Live (non-tombstoned) records across all shards."""
        return sum(shard.live_count for shard in self.shards)

    @property
    def tombstone_count(self) -> int:
        return sum(shard.tombstone_count for shard in self.shards)

    @property
    def free_slots(self) -> int:
        return sum(shard.free_slots for shard in self.shards)

    @property
    def fragmentation(self) -> float:
        """Tombstoned fraction of the slots in use, over all shards."""
        slots = self.num_records
        return self.tombstone_count / slots if slots else 0.0

    @property
    def layouts(self):
        """The layouts shared by every shard (one per vertical partition)."""
        return self.shards[0].layouts

    @property
    def partitions(self) -> int:
        """Number of vertical partitions within each shard."""
        return self.shards[0].partitions

    @property
    def pages(self) -> int:
        """Total huge pages across all shards (per vertical partition)."""
        return sum(shard.pages for shard in self.shards)

    def state_digest(self) -> str:
        """sha256 over every shard's :meth:`StoredRelation.state_digest`, in order."""
        return hashlib.sha256(
            "".join(shard.state_digest() for shard in self.shards).encode()
        ).hexdigest()

    def shard_of_record(self, record_index: int) -> int:
        """Index of the shard a record of the *loaded* relation was placed in.

        Defined over the load-time contiguous bounds (DML inserts are routed
        by :meth:`route_insert` instead).  Binary search over the shard
        ``stop`` offsets: stops are exclusive, so the number of stops at or
        below the index is exactly its shard.
        """
        if not 0 <= record_index < self._stops[-1]:
            raise IndexError(f"record {record_index} out of range")
        return bisect_right(self._stops, record_index)

    def route_insert(self, free_slots: Sequence[int] | None = None) -> int:
        """Shard index an INSERT should target: the least-full shard.

        "Least full" means the most free slots (tombstones plus spare
        capacity tail); ties resolve to the lowest shard index, keeping the
        routing deterministic.  ``free_slots`` substitutes the live per-shard
        counts — the batch router simulates the routing ahead of the actual
        inserts with it.
        """
        free = (
            list(free_slots) if free_slots is not None
            else [shard.free_slots for shard in self.shards]
        )
        return int(max(range(len(free)), key=lambda i: (free[i], -i)))

    # ------------------------------------------------------------- executors
    def make_executors(self, config=None) -> list[PimExecutor]:
        """One executor per shard, forked from a shared prototype.

        Scatter execution (queries and per-shard DML alike) gives every
        shard its own executor so per-shard stats never race.
        """
        base = PimExecutor(config if config is not None else self.module.system_config)
        return [base.fork() for _ in self.shards]

    def resolve_executors(
        self, executors: Sequence[PimExecutor] | None, config=None
    ) -> list[PimExecutor]:
        """Validate a caller-supplied executor set, or build a fresh one."""
        if executors is None:
            return self.make_executors(config)
        executors = list(executors)
        if len(executors) != self.num_shards:
            raise ValueError(
                f"need one executor per shard ({self.num_shards}), "
                f"got {len(executors)}"
            )
        return executors

    # ------------------------------------------------------------ functional
    def decode_column(self, attribute: str) -> np.ndarray:
        """Decode an attribute of every slot in use, concatenated across shards."""
        return np.concatenate(
            [shard.decode_column(attribute) for shard in self.shards]
        )

    def live_relation(self) -> Relation:
        """The live ground truth: every shard's live rows, in shard order.

        After DML the parent ``self.relation`` is only the load-time
        snapshot — a shard that grew its columns (tail INSERT or compaction)
        reallocates them and stops aliasing the parent — so this concatenation
        over the shard relations is the authoritative functional reference.
        """
        return concatenate([shard.live_relation() for shard in self.shards])

    # ------------------------------------------------------------------ wear
    def wear_snapshot(self) -> list[list[np.ndarray]]:
        """Per-shard wear snapshots (each a per-partition list)."""
        return [shard.wear_snapshot() for shard in self.shards]

    def max_writes_since(self, snapshots: list[list[np.ndarray]]) -> int:
        """Worst per-row write count over all shards since the snapshots."""
        return max(
            shard.max_writes_since(snapshot)
            for shard, snapshot in zip(self.shards, snapshots)
        )

    def writes_per_shard_since(self, snapshots: list[list[np.ndarray]]) -> list[int]:
        """Worst per-row write count of each shard since the snapshots."""
        return [
            shard.max_writes_since(snapshot)
            for shard, snapshot in zip(self.shards, snapshots)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedStoredRelation({self.label!r}, records={self.num_records}, "
            f"shards={self.num_shards}, pages={self.pages})"
        )
