"""DML over a horizontally sharded relation.

* **INSERT** has a natural routing decision where UPDATE/DELETE do not: each
  record goes to the *least-full* shard (most free slots — tombstones plus
  spare capacity tail), re-evaluated record by record so a large batch
  spreads across shards instead of piling onto one.
* **DELETE** and **UPDATE** have no routing key in the paper's pre-joined
  layout — the predicate may select records in any shard — so the
  statement's programs are compiled **once** against the shared layouts
  (:func:`repro.db.dml.compile_delete` /
  :func:`repro.db.update.compile_update`) and run on every shard, each
  charging its own executor and pruned through its *own* zone maps: a shard
  whose statistics prove the predicate empty runs no program (the sharded
  analogue of skipping crossbars).  Every shard's relation is a view into
  the parent relation's columns, so the single functional ground truth
  stays in sync.
* **Compaction** is per shard — each shard rewrites its own live rows when
  its own fragmentation crosses the threshold (a churn workload rarely
  fragments all shards equally).

Per-shard stats stay on the per-shard executors, exactly like the sharded
query scatter; callers that want one roll-up can merge them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Mapping, Sequence

from repro.db.dml import (
    DEFAULT_COMPACTION_THRESHOLD,
    CompactionResult,
    DeleteResult,
    InsertResult,
    compile_delete,
    execute_compaction,
    execute_delete,
    execute_insert,
)
from repro.db.query import Predicate
from repro.db.storage import RelationFullError, StoredRelation
from repro.db.update import UpdateResult, compile_update, execute_update
from repro.pim.controller import PimExecutor
from repro.sharding.storage import ShardedStoredRelation


@dataclass
class ShardedInsertResult:
    """Outcome of an INSERT batch routed across the shards."""

    #: ``(shard, slot)`` of every inserted record, in input order.
    placements: list[tuple] = field(default_factory=list)
    #: Per-shard insert outcomes (shards that received nothing are absent).
    shard_results: dict[int, InsertResult] = field(default_factory=dict)

    @property
    def records_inserted(self) -> int:
        return len(self.placements)


@dataclass
class ShardedDeleteResult:
    """Outcome of a DELETE run on every shard."""

    records_deleted: int
    shard_results: list[DeleteResult]
    #: NOR cycles of the (shared) filter program, per shard.
    filter_cycles: int
    #: NOR cycles of the (shared) valid-clearing programs, per shard.
    clear_cycles: int

    @property
    def shards_with_matches(self) -> int:
        return sum(1 for result in self.shard_results if result.records_deleted)


@dataclass
class ShardedUpdateResult:
    """Outcome of an in-memory UPDATE run on every shard."""

    #: Total records updated across all shards.
    records_updated: int
    #: Per-shard outcomes, in shard order.
    shard_results: list[UpdateResult]
    #: NOR cycles of the (shared) filter program, per shard.
    filter_cycles: int
    #: NOR cycles of the (shared) Algorithm 1 mux program, per shard.
    update_cycles: int

    @property
    def shards_with_matches(self) -> int:
        """Number of shards in which at least one record was rewritten."""
        return sum(1 for result in self.shard_results if result.records_updated)


@dataclass
class ShardedCompactionResult:
    """Per-shard compaction outcomes."""

    shard_results: list[CompactionResult]

    @property
    def shards_compacted(self) -> int:
        return sum(1 for result in self.shard_results if result.performed)

    @property
    def slots_reclaimed(self) -> int:
        return sum(result.slots_reclaimed for result in self.shard_results)


def execute_sharded_insert(
    sharded: ShardedStoredRelation,
    records: Sequence[Mapping[str, object]],
    executors: Sequence[PimExecutor] | None = None,
) -> ShardedInsertResult:
    """Insert ``records``, routing each to the currently least-full shard.

    Like the unsharded path, the batch is all-or-nothing against caller
    errors: capacity and every record's encoding are validated before the
    first record is routed, so a bad record anywhere in the batch raises
    with no shard touched.
    """
    records = list(records)
    if len(records) > sharded.free_slots:
        raise RelationFullError(
            f"cannot insert {len(records)} records into {sharded.label!r}: "
            f"only {sharded.free_slots} free slots across "
            f"{sharded.num_shards} shards"
        )
    # The shards share one schema; encoding through the first shard's
    # relation validates the whole batch up-front (all-or-nothing).
    columns = sharded.shards[0].relation.encode_records(records)
    executors = sharded.resolve_executors(executors)

    # Simulate the record-by-record least-full routing over a local copy of
    # the free counts, then execute one sub-batch per shard — each shard
    # grows its ground-truth columns at most once per call.
    free = [shard.free_slots for shard in sharded.shards]
    assignments: list[int] = []
    for _ in records:
        shard_index = sharded.route_insert(free)
        assignments.append(shard_index)
        free[shard_index] -= 1

    result = ShardedInsertResult()
    result.placements = [None] * len(records)
    by_shard: dict[int, list[int]] = {}
    for index, shard_index in enumerate(assignments):
        by_shard.setdefault(shard_index, []).append(index)
    for shard_index, indices in sorted(by_shard.items()):
        shard_result = execute_insert(
            sharded.shards[shard_index],
            {name: column[indices] for name, column in columns.items()},
            executors[shard_index],
            encoded=True,
        )
        for index, slot in zip(indices, shard_result.slots):
            result.placements[index] = (shard_index, slot)
        result.shard_results[shard_index] = shard_result
    return result


def _run_per_shard(
    sharded: ShardedStoredRelation,
    executors: Sequence[PimExecutor] | None,
    statement: Callable[[StoredRelation, PimExecutor], object],
) -> list:
    """Run one compiled statement on every shard, in shard order.

    ``executors`` supplies one :class:`PimExecutor` per shard (each shard's
    traffic and wear are charged to its own); fresh executors are created
    when omitted.
    """
    executors = sharded.resolve_executors(executors)
    return [
        statement(shard, executor)
        for shard, executor in zip(sharded.shards, executors)
    ]


def execute_sharded_delete(
    sharded: ShardedStoredRelation,
    predicate: Predicate,
    executors: Sequence[PimExecutor] | None = None,
    compiler=None,
) -> ShardedDeleteResult:
    """Tombstone the selected records of every shard.

    The filter and valid-clearing programs are compiled once — through
    ``compiler`` (e.g. the service's program cache) when given — and run on
    every shard, each pruned through its own zone maps.
    """
    compiled = compile_delete(sharded.shards[0], predicate, compiler=compiler)
    shard_results = _run_per_shard(
        sharded, executors,
        lambda shard, executor: execute_delete(
            shard, predicate, executor, compiled=compiled
        ),
    )
    return ShardedDeleteResult(
        records_deleted=sum(r.records_deleted for r in shard_results),
        shard_results=shard_results,
        filter_cycles=shard_results[0].filter_cycles,
        clear_cycles=shard_results[0].clear_cycles,
    )


def execute_sharded_update(
    sharded: ShardedStoredRelation,
    predicate: Predicate,
    assignments: dict[str, object],
    executors: Sequence[PimExecutor] | None = None,
) -> ShardedUpdateResult:
    """Update ``assignments`` on the selected records of every shard.

    The filter and mux programs are compiled once and run on every shard,
    each pruned through its own zone maps.  The parent relation's columns
    are updated through the shard views, so subsequent queries — sharded or
    not — see the new values.
    """
    compiled = compile_update(sharded.shards[0], predicate, assignments)
    shard_results = _run_per_shard(
        sharded, executors,
        lambda shard, executor: execute_update(
            shard, predicate, assignments, executor, compiled=compiled
        ),
    )
    return ShardedUpdateResult(
        records_updated=sum(r.records_updated for r in shard_results),
        shard_results=shard_results,
        filter_cycles=shard_results[0].filter_cycles,
        update_cycles=shard_results[0].update_cycles,
    )


def execute_sharded_compaction(
    sharded: ShardedStoredRelation,
    executors: Sequence[PimExecutor] | None = None,
    threshold: float = DEFAULT_COMPACTION_THRESHOLD,
    force: bool = False,
    cluster_by: str | None = None,
) -> ShardedCompactionResult:
    """Compact every shard whose own fragmentation crosses ``threshold``.

    Each shard re-clusters independently (``cluster_by`` defaults to the
    shard's own hottest column — shards of one relation converge to the
    same one, since the scatter sends every query to all of them).
    """
    executors = sharded.resolve_executors(executors)
    return ShardedCompactionResult(
        shard_results=[
            execute_compaction(
                shard, executor, threshold=threshold, force=force,
                cluster_by=cluster_by,
            )
            for shard, executor in zip(sharded.shards, executors)
        ]
    )
