"""UPDATE statements over a horizontally sharded relation.

An UPDATE has no natural routing key in the paper's pre-joined layout — the
predicate may select records in any shard — so the update is broadcast:
every shard runs the Algorithm 1 filter-then-mux program on its own pages
(accumulating wear there), and the per-shard record counts are summed.
Because every shard's relation is a view into the parent relation's columns,
the single functional ground truth stays in sync automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.db.query import Predicate
from repro.db.update import UpdateResult, compile_update, execute_update
from repro.pim.controller import PimExecutor
from repro.sharding.storage import ShardedStoredRelation


@dataclass
class ShardedUpdateResult:
    """Outcome of an in-memory UPDATE broadcast to every shard."""

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


def execute_sharded_update(
    sharded: ShardedStoredRelation,
    predicate: Predicate,
    assignments: dict[str, object],
    executors: Sequence[PimExecutor] | None = None,
    pruned: bool = True,
) -> ShardedUpdateResult:
    """Update ``assignments`` on the selected records of every shard.

    ``executors`` supplies one :class:`PimExecutor` per shard (wear and
    update traffic are charged per shard); fresh executors are created when
    omitted.  The parent relation's columns are updated through the shard
    views, so subsequent queries — sharded or not — see the new values.
    In pruned mode each shard consults its own zone maps and may skip its
    broadcast entirely when they prove the predicate empty there.
    """
    executors = sharded.resolve_executors(executors)
    # The shards share layout objects, so the filter and mux programs are
    # compiled once and broadcast verbatim to every shard.
    compiled = compile_update(sharded.shards[0], predicate, assignments)
    shard_results = [
        execute_update(
            stored, predicate, assignments, executor,
            compiled=compiled, pruned=pruned,
        )
        for stored, executor in zip(sharded.shards, executors)
    ]
    return ShardedUpdateResult(
        records_updated=sum(result.records_updated for result in shard_results),
        shard_results=shard_results,
        filter_cycles=shard_results[0].filter_cycles,
        update_cycles=shard_results[0].update_cycles,
    )
