"""Horizontal sharding with scatter-gather execution.

Scaling the paper's single-relation engine to a serving workload means the
classic next move: split the pre-joined relation into ``K`` horizontal
shards, give each shard its own crossbar allocation, run one query as
*scatter* (compile once through the shared program cache, execute on every
shard, each on a fresh executor) then *gather* (merge the per-shard partial
aggregates).  Results are bit-exact with the unsharded engine; the modelled
end-to-end latency is max-over-shards plus a merge term, never the sum.
:class:`ShardedQueryEngine` is the service's one engine type: a
:class:`~repro.db.storage.StoredRelation` is its own single store, served at
K = 1 with nothing to gather.  DML goes through the service, which runs each
statement on every store of a relation (:meth:`repro.service.QueryService.insert`
and its siblings).
"""

from repro.sharding.executor import ShardedQueryEngine, ShardedQueryExecution
from repro.sharding.storage import ShardedStoredRelation, shard_bounds

__all__ = [
    "ShardedQueryEngine",
    "ShardedQueryExecution",
    "ShardedStoredRelation",
    "shard_bounds",
]
