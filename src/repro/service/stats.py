"""Aggregate statistics of a batch served by the query service.

The individual :class:`~repro.core.executor.QueryExecution` objects carry the
device-accurate modelled latency/energy of each query; :class:`ServiceStats`
condenses a batch of them into the operational numbers a serving system is
judged by — throughput and tail latency.

Two clocks are reported side by side:

* **modelled** — the simulated PIM latency of the paper's timing model
  (p50/p95 over the batch, plus the serial sum);
* **wall** — how long the functional simulation itself took, which is what
  the service's program cache and pruning optimise.

Batches served by a sharded relation additionally report the scatter-gather
figures: per-shard latency percentiles, the modelled parallel speedup
(serial sum of the shard latencies over the max-over-shards critical path)
and the worst per-shard wear.

Every section declares its point-in-time fields once, in a class-level
``GAUGES`` tuple; :meth:`ServiceStats.metrics` exports the sections through
:func:`~repro.obs.metrics.register_fields`, and :meth:`ServiceStats.describe`,
JSON and Prometheus exposition all render that one registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import ClassVar

import numpy as np

from repro.core.executor import QueryExecution
from repro.obs.metrics import MetricsRegistry, register_fields
from repro.planner.adaptive import AdaptiveSnapshot
from repro.planner.candidates import CandidateCacheStats
from repro.service.cache import CacheStats
from repro.sharding.executor import ShardedQueryExecution


@dataclass(frozen=True)
class ShardStats:
    """Scatter-gather summary of the sharded executions of one batch."""

    GAUGES: ClassVar[tuple[str, ...]] = (
        "shards", "shard_p50_s", "shard_p95_s", "parallel_speedup",
        "max_shard_writes_per_row",
    )

    #: Sharded executions contributing to this summary.
    executions: int
    #: Largest shard fan-out seen in the batch.
    shards: int
    #: p50/p95 of the *per-shard* modelled latencies (the scatter phase).
    shard_p50_s: float
    shard_p95_s: float
    #: Serial sum of shard latencies over the parallel critical path,
    #: averaged over the batch's sharded executions.
    parallel_speedup: float
    #: Total modelled time spent merging per-shard partial results.
    merge_time_s: float
    #: Worst per-row write count observed by any single shard.
    max_shard_writes_per_row: int

    @classmethod
    def from_executions(
        cls, executions: Sequence[ShardedQueryExecution]
    ) -> ShardStats | None:
        """Summarise the sharded executions of a batch (``None`` if none)."""
        if not executions:
            return None
        # A sharded execution whose shards were all pruned out reports no
        # per-shard latencies or wear; the percentiles/max must not choke on
        # those empty sequences.
        shard_latencies = np.array(
            [t for e in executions for t in e.shard_times_s], dtype=float
        )
        return cls(
            executions=len(executions),
            shards=max(e.shards for e in executions),
            shard_p50_s=(
                float(np.percentile(shard_latencies, 50))
                if shard_latencies.size else 0.0
            ),
            shard_p95_s=(
                float(np.percentile(shard_latencies, 95))
                if shard_latencies.size else 0.0
            ),
            parallel_speedup=float(
                np.mean([e.parallel_speedup for e in executions])
            ),
            merge_time_s=float(sum(e.merge_time_s for e in executions)),
            max_shard_writes_per_row=max(
                (max(e.shard_writes_per_row, default=0) for e in executions),
                default=0,
            ),
        )


@dataclass(frozen=True)
class DmlStats:
    """Data-lifecycle counters of the service's registered relations.

    ``live_rows``/``tombstones``/``slots_in_use`` are a point-in-time
    snapshot of the storage state; the remaining fields count DML executed
    through the service since it was created.
    """

    GAUGES: ClassVar[tuple[str, ...]] = (
        "live_rows", "tombstones", "slots_in_use", "capacity", "fragmentation",
    )

    live_rows: int = 0
    tombstones: int = 0
    slots_in_use: int = 0
    capacity: int = 0
    inserted: int = 0
    deleted: int = 0
    compactions: int = 0
    slots_reclaimed: int = 0

    @property
    def fragmentation(self) -> float:
        """Tombstoned fraction of the slots in use."""
        return self.tombstones / self.slots_in_use if self.slots_in_use else 0.0


@dataclass(frozen=True)
class PlannerStats:
    """Planning summary of one served batch.

    Crossbar counts come from the executions' pruning metadata (scanned ==
    total when pruning is disabled); the routing counters record how the
    cost planner split the batch between the PIM engines and the host-scan
    path; the selectivity pair compares the planner's estimates with the
    fractions the executions actually selected.
    """

    GAUGES: ClassVar[tuple[str, ...]] = (
        "estimated_selectivity", "actual_selectivity", "skip_rate",
    )

    #: Queries at least one engine (a shard, or the relation's one engine)
    #: executed on PIM.
    pim_queries: int
    #: *Engines* served through the host scan: one per host-routed query of
    #: a plain relation, one per host-scanned shard of a sharded one.
    host_routed: int
    #: Crossbars a full broadcast would have touched across the batch.
    crossbars_total: int
    #: Crossbars the filters actually scanned.
    crossbars_scanned: int
    #: Mean estimated and actual selected fractions (queries with estimates).
    estimated_selectivity: float
    actual_selectivity: float
    #: Semantic candidate-set cache counters of the batch (summed over the
    #: registered relations' caches); ``None`` when nothing was looked up.
    candidates: CandidateCacheStats | None = None

    @property
    def crossbars_skipped(self) -> int:
        return self.crossbars_total - self.crossbars_scanned

    @property
    def skip_rate(self) -> float:
        if self.crossbars_total == 0:
            return 0.0
        return self.crossbars_skipped / self.crossbars_total

    @classmethod
    def from_executions(
        cls,
        executions: Sequence[QueryExecution],
        candidates: CandidateCacheStats | None = None,
    ) -> PlannerStats | None:
        """Summarise the planner's work over a batch (``None`` if idle)."""
        # Per query, whether each engine serving it (its shards, or the one
        # engine) streamed through the host scan.
        host_scanned = [
            [
                engine.route == "host"
                for engine in (
                    e.shard_executions
                    if isinstance(e, ShardedQueryExecution) else [e]
                )
            ]
            for e in executions
        ]
        host_routed = sum(map(sum, host_scanned))
        estimated = [
            e for e in executions if e.estimated_selectivity is not None
        ]
        if not estimated and host_routed == 0:
            return None
        if candidates is not None and candidates.lookups == 0:
            candidates = None
        return cls(
            pim_queries=sum(not all(engines) for engines in host_scanned),
            host_routed=host_routed,
            crossbars_total=sum(e.crossbars_total for e in executions),
            crossbars_scanned=sum(e.crossbars_scanned for e in executions),
            estimated_selectivity=(
                float(np.mean([e.estimated_selectivity for e in estimated]))
                if estimated else 0.0
            ),
            actual_selectivity=(
                float(np.mean([e.selectivity for e in estimated]))
                if estimated else 0.0
            ),
            candidates=candidates,
        )


@dataclass(frozen=True)
class ServiceStats:
    """Throughput and latency summary of one served batch."""

    GAUGES: ClassVar[tuple[str, ...]] = (
        "wall_qps", "modelled_qps", "modelled_p50_s", "modelled_p95_s",
    )

    queries: int
    wall_time_s: float
    wall_qps: float
    modelled_time_s: float
    modelled_qps: float
    modelled_p50_s: float
    modelled_p95_s: float
    modelled_energy_j: float
    cache: CacheStats | None = None
    #: Scatter-gather figures; ``None`` when no execution was sharded.
    sharded: ShardStats | None = None
    #: Data-lifecycle state/counters; ``None`` for a service without DML.
    dml: DmlStats | None = None
    #: Crossbar-skipping and routing figures; ``None`` without a planner.
    planner: PlannerStats | None = None
    #: Feedback-loop snapshot (observations, pair sketches built, hot column
    #: and pair) summed over the registered relations; ``None`` while no
    #: execution has fed it.
    adaptive: AdaptiveSnapshot | None = None

    @classmethod
    def from_executions(
        cls,
        executions: Sequence[QueryExecution],
        wall_time_s: float,
        cache: CacheStats | None = None,
        dml: DmlStats | None = None,
        candidates: CandidateCacheStats | None = None,
        adaptive: AdaptiveSnapshot | None = None,
    ) -> ServiceStats:
        """Summarise a batch of executions measured over ``wall_time_s``."""
        latencies = np.array([e.time_s for e in executions], dtype=float)
        count = len(latencies)
        modelled_total = float(latencies.sum()) if count else 0.0
        sharded: list[ShardedQueryExecution] = [
            e for e in executions if isinstance(e, ShardedQueryExecution)
        ]
        return cls(
            queries=count,
            wall_time_s=float(wall_time_s),
            wall_qps=count / wall_time_s if wall_time_s > 0 else 0.0,
            modelled_time_s=modelled_total,
            modelled_qps=count / modelled_total if modelled_total > 0 else 0.0,
            modelled_p50_s=float(np.percentile(latencies, 50)) if count else 0.0,
            modelled_p95_s=float(np.percentile(latencies, 95)) if count else 0.0,
            modelled_energy_j=float(sum(e.energy_j for e in executions)),
            cache=cache,
            sharded=ShardStats.from_executions(sharded),
            dml=dml,
            planner=PlannerStats.from_executions(executions, candidates),
            adaptive=(
                adaptive if adaptive is not None and adaptive.observations else None
            ),
        )

    def _sections(self) -> list[tuple[str, object]]:
        """``(prefix, section)`` of every section this batch reports."""
        sections = [
            ("service", self),
            ("program_cache", self.cache),
            ("planner", self.planner),
            ("candidate_cache", self.planner and self.planner.candidates),
            ("adaptive", self.adaptive),
            ("sharded", self.sharded),
            ("dml", self.dml),
        ]
        return [(prefix, s) for prefix, s in sections if s is not None]

    def metrics(self) -> MetricsRegistry:
        """Every section as one :class:`MetricsRegistry` (JSON / Prometheus)."""
        registry = MetricsRegistry()
        for prefix, section in self._sections():
            register_fields(registry, section, prefix)
        return registry

    def describe(self) -> str:
        """The series of :meth:`metrics` as text, one line per section."""
        lines = []
        for prefix, section in self._sections():
            registry = MetricsRegistry()
            register_fields(registry, section, prefix)
            lines.append(f"{prefix}: {registry.render_text()}")
        return "\n".join(lines)
