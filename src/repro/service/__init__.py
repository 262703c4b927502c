"""Batched query serving over PIM-resident relations.

The service layer amortises per-query planning and compilation across a
multi-query workload: a shared LRU :class:`~repro.service.cache.ProgramCache`
for compiled NOR programs, zone-map pruning and batch scheduling through
shared per-relation executors.
"""

from repro.service.cache import CacheStats, ProgramCache
from repro.service.service import BatchResult, DmlOutcome, QueryRequest, QueryService
from repro.service.stats import DmlStats, PlannerStats, ServiceStats, ShardStats

__all__ = [
    "BatchResult",
    "CacheStats",
    "DmlOutcome",
    "DmlStats",
    "PlannerStats",
    "ProgramCache",
    "QueryRequest",
    "QueryService",
    "ServiceStats",
    "ShardStats",
]
