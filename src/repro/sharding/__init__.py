"""Horizontal sharding with scatter-gather execution.

Scaling the paper's single-relation engine to a serving workload means the
classic next move: split the pre-joined relation into ``K`` horizontal
shards, give each shard its own crossbar allocation and executor, run one
query as *scatter* (compile once through the shared program cache, execute
on every shard — optionally on a thread pool) then *gather* (merge the
per-shard partial aggregates).  Results are bit-exact with the unsharded
engine; the modelled end-to-end latency is max-over-shards plus a merge
term, never the sum.  DML goes through the service, which runs each
statement on every store of a relation (:meth:`repro.service.QueryService.insert`
and its siblings), K = 1 being the unsharded case.
"""

from repro.sharding.executor import ShardedQueryEngine, ShardedQueryExecution
from repro.sharding.storage import ShardedStoredRelation, shard_bounds

__all__ = [
    "ShardedQueryEngine",
    "ShardedQueryExecution",
    "ShardedStoredRelation",
    "shard_bounds",
]
