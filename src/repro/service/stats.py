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
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

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
class AdaptiveStats:
    """Feedback-loop counters of the registered relations' statistics.

    A point-in-time roll-up of the per-relation
    :class:`~repro.planner.adaptive.AdaptiveController` snapshots (summed
    over engines and shards): how many executions fed the loop, how many
    error-triggered equi-depth rebuilds and correlated-pair sketches it
    applied, the error still accumulating, and the current hottest
    column/pair that the next re-clustering compaction would use.
    """

    observations: int = 0
    rebuilds: int = 0
    pair_sketches: int = 0
    accumulated_error: float = 0.0
    hot_column: str | None = None
    hot_pair: tuple | None = None

    @classmethod
    def from_snapshot(
        cls, snapshot: AdaptiveSnapshot | None
    ) -> AdaptiveStats | None:
        """Wrap a (possibly summed) snapshot; ``None`` when the loop is idle."""
        if snapshot is None or snapshot.observations == 0:
            return None
        return cls(
            observations=snapshot.observations,
            rebuilds=snapshot.rebuilds,
            pair_sketches=snapshot.pair_sketches,
            accumulated_error=snapshot.accumulated_error,
            hot_column=snapshot.hot_column,
            hot_pair=snapshot.hot_pair,
        )


@dataclass(frozen=True)
class PlannerStats:
    """Planning summary of one served batch.

    Crossbar counts come from the executions' pruning metadata (scanned ==
    total when pruning is disabled); the routing counters record how many
    queries the cost planner sent to the PIM engines versus the host-scan
    path; the selectivity pair compares the planner's estimates with the
    fractions the executions actually selected.
    """

    #: Queries executed on the PIM engines / routed to the host scan.
    pim_queries: int
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
        host_routed: int = 0,
        candidates: CandidateCacheStats | None = None,
    ) -> PlannerStats | None:
        """Summarise the planner's work over a batch (``None`` if idle)."""
        estimated = [
            e for e in executions if e.estimated_selectivity is not None
        ]
        if not estimated and host_routed == 0:
            return None
        if candidates is not None and candidates.lookups == 0:
            candidates = None
        return cls(
            pim_queries=len(executions) - host_routed,
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
    #: Feedback-loop counters; ``None`` while no execution has fed it.
    adaptive: AdaptiveStats | None = None

    @classmethod
    def from_executions(
        cls,
        executions: Sequence[QueryExecution],
        wall_time_s: float,
        cache: CacheStats | None = None,
        dml: DmlStats | None = None,
        host_routed: int = 0,
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
            planner=PlannerStats.from_executions(
                executions, host_routed, candidates=candidates
            ),
            adaptive=AdaptiveStats.from_snapshot(adaptive),
        )

    def metrics(self) -> MetricsRegistry:
        """Every section's numeric fields as one :class:`MetricsRegistry`.

        This is the machine-parseable counterpart of :meth:`describe`: each
        section registers through the same
        :func:`~repro.obs.metrics.register_fields` path (counters for the
        accumulating fields, gauges for point-in-time ones), so the JSON and
        Prometheus renderings stay in lockstep with the dataclass fields
        without a hand-written formatter per section.
        """
        registry = MetricsRegistry()
        register_fields(
            registry,
            self,
            "service",
            gauges=(
                "wall_qps", "modelled_qps", "modelled_p50_s", "modelled_p95_s"
            ),
        )
        if self.cache is not None:
            register_fields(
                registry,
                self.cache,
                "program_cache",
                gauges=("capacity", "entries"),
            )
        if self.planner is not None:
            register_fields(
                registry,
                self.planner,
                "planner",
                gauges=("estimated_selectivity", "actual_selectivity"),
            )
            if self.planner.candidates is not None:
                register_fields(
                    registry,
                    self.planner.candidates,
                    "candidate_cache",
                    gauges=("entries", "capacity"),
                )
        if self.adaptive is not None:
            a = self.adaptive
            labels: dict[str, str] = {}
            if a.hot_column is not None:
                labels["hot_column"] = a.hot_column
            if a.hot_pair is not None:
                labels["hot_pair"] = "x".join(a.hot_pair)
            register_fields(
                registry,
                a,
                "adaptive",
                labels=labels or None,
                gauges=("accumulated_error",),
            )
        if self.sharded is not None:
            register_fields(
                registry,
                self.sharded,
                "sharded",
                gauges=(
                    "shards",
                    "shard_p50_s",
                    "shard_p95_s",
                    "parallel_speedup",
                    "max_shard_writes_per_row",
                ),
            )
        if self.dml is not None:
            register_fields(
                registry,
                self.dml,
                "dml",
                gauges=("live_rows", "tombstones", "slots_in_use", "capacity"),
            )
        return registry

    def to_json(self) -> dict:
        """JSON-serialisable export of every section (via :meth:`metrics`)."""
        return self.metrics().to_json()

    def render_json(self) -> str:
        """:meth:`to_json` as an indented JSON document."""
        return self.metrics().render_json()

    def render_prometheus(self) -> str:
        """Prometheus-style text exposition of the batch's metrics."""
        return self.metrics().render_prometheus()

    def describe(self) -> str:
        """One-paragraph human-readable summary."""
        lines = [
            f"{self.queries} queries in {self.wall_time_s:.3f}s wall "
            f"({self.wall_qps:.1f} q/s)",
            f"modelled: {self.modelled_time_s * 1e3:.3f} ms serial "
            f"({self.modelled_qps:.1f} q/s), "
            f"p50 {self.modelled_p50_s * 1e3:.3f} ms, "
            f"p95 {self.modelled_p95_s * 1e3:.3f} ms, "
            f"{self.modelled_energy_j * 1e3:.3f} mJ",
        ]
        if self.cache is not None:
            cache_line = (
                f"program cache: {self.cache.hits} hits / "
                f"{self.cache.misses} misses ({self.cache.hit_rate:.0%}), "
                f"{self.cache.evictions} evictions"
            )
            if self.cache.capacity is not None:
                occupancy = (
                    f"{self.cache.entries}/" if self.cache.entries is not None else ""
                )
                cache_line += f" (capacity {occupancy}{self.cache.capacity})"
            lines.append(cache_line)
        if self.planner is not None:
            p = self.planner
            lines.append(
                f"planner: {p.pim_queries} pim / {p.host_routed} host-routed, "
                f"scanned {p.crossbars_scanned} of {p.crossbars_total} "
                f"crossbars ({p.skip_rate:.0%} skipped), "
                f"selectivity est {p.estimated_selectivity:.4f} vs "
                f"actual {p.actual_selectivity:.4f}"
            )
            if p.candidates is not None:
                c = p.candidates
                lines.append(
                    f"candidate cache: {c.hits} hits / {c.misses} misses / "
                    f"{c.revalidations} re-validations "
                    f"({c.stale_crossbars} stale crossbars re-checked), "
                    f"{c.entries_checked} zone-map entries consulted, "
                    f"{c.evictions} evictions "
                    f"(capacity {c.entries}/{c.capacity})"
                )
        if self.adaptive is not None:
            a = self.adaptive
            hot = a.hot_column if a.hot_column is not None else "-"
            pair = (
                "x".join(a.hot_pair) if a.hot_pair is not None else "-"
            )
            lines.append(
                f"adaptive: {a.observations} observations, "
                f"{a.rebuilds} equi-depth rebuilds, "
                f"{a.pair_sketches} pair sketches, "
                f"error {a.accumulated_error:.2f} accumulating, "
                f"hot column {hot}, hot pair {pair}"
            )
        if self.sharded is not None:
            s = self.sharded
            lines.append(
                f"sharded (K={s.shards}): shard p50 {s.shard_p50_s * 1e3:.3f} ms, "
                f"p95 {s.shard_p95_s * 1e3:.3f} ms, "
                f"{s.parallel_speedup:.2f}x parallel speedup, "
                f"merge {s.merge_time_s * 1e6:.3f} us, "
                f"max shard wear {s.max_shard_writes_per_row} writes/row"
            )
        if self.dml is not None:
            d = self.dml
            lines.append(
                f"dml: {d.live_rows} live rows, {d.tombstones} tombstones "
                f"({d.fragmentation:.0%} fragmentation), "
                f"{d.inserted} inserted / {d.deleted} deleted, "
                f"{d.compactions} compactions ({d.slots_reclaimed} slots reclaimed)"
            )
        return "\n".join(lines)
