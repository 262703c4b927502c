"""Throughput of the batched query service on the SSB workload.

The 13 SSB queries are replayed as a mixed workload at several batch sizes
through :class:`~repro.service.service.QueryService` (zone-map pruning,
cost-based routing and the shared compiled-program cache) and compared
against the per-query baseline: one
:meth:`~repro.core.executor.PimQueryEngine.execute` call per query with no
pruning and no program reuse — the seed's only execution path.

Every batch is replayed twice, mirroring a steady-state service: the first
replay warms the program cache, the second is measured.  The results of the
measured replay are checked bit-exact against the sequential baseline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from collections.abc import Sequence

from repro.config import SystemConfig
from repro.db.query import Query
from repro.experiments.common import build_setup, format_table
from repro.service import QueryService
from repro.ssb import ALL_QUERIES, QUERY_ORDER


@dataclass
class ThroughputPoint:
    """One measured (batch size, replay) service data point."""

    batch_size: int
    wall_time_s: float
    wall_qps: float
    modelled_p50_s: float
    modelled_p95_s: float
    cache_hits: int
    cache_misses: int


@dataclass
class ThroughputResults:
    """Everything the benchmark reports."""

    scale_factor: float
    sequential_batch: int
    sequential_wall_s: float
    sequential_qps: float
    cold_points: list[ThroughputPoint]
    warm_points: list[ThroughputPoint]
    speedup: float
    bit_exact: bool

    def warm_point(self, batch_size: int) -> ThroughputPoint:
        for point in self.warm_points:
            if point.batch_size == batch_size:
                return point
        raise KeyError(f"no measured batch of size {batch_size}")

    def measured_point(self) -> ThroughputPoint:
        """The warm point the speedup is quoted for.

        The warm replay matching the sequential baseline's batch size, or the
        largest measured batch when the sweep does not include it.
        """
        try:
            return self.warm_point(self.sequential_batch)
        except KeyError:
            return self.warm_points[-1]


def _workload(batch_size: int) -> list[Query]:
    """A mixed workload cycling through the 13 SSB queries."""
    return [ALL_QUERIES[QUERY_ORDER[i % len(QUERY_ORDER)]] for i in range(batch_size)]


def run_throughput(
    scale_factor: float | None = None,
    batch_sizes: Sequence[int] = (1, 4, 13, 26),
    config: SystemConfig | None = None,
    baseline_batch: int = 13,
) -> ThroughputResults:
    """Measure service throughput against the per-query baseline."""
    setup = build_setup(scale_factor=scale_factor, configs=("one_xb",), config=config)
    baseline_engine = setup.pim_engines["one_xb"]
    stored = baseline_engine.stored

    # Per-query baseline: gate-level simulation, fresh compilation per query.
    baseline_queries = _workload(baseline_batch)
    start = time.perf_counter()
    baseline_executions = [baseline_engine.execute(q) for q in baseline_queries]
    sequential_wall = time.perf_counter() - start
    # Sequential reference rows for every distinct query of the workload
    # (computed untimed for queries the baseline batch did not reach).
    reference_rows = {
        q.name: e.rows for q, e in zip(baseline_queries, baseline_executions)
    }
    for name in QUERY_ORDER:
        if name not in reference_rows:
            reference_rows[name] = baseline_engine.execute(ALL_QUERIES[name]).rows

    service = QueryService()
    service.register(
        "ssb", stored,
        config=setup.config,
        label="service",
        timing_scale=baseline_engine.timing_scale,
    )

    cold_points: list[ThroughputPoint] = []
    warm_points: list[ThroughputPoint] = []
    bit_exact = True
    for batch_size in batch_sizes:
        queries = _workload(batch_size)
        service.cache.clear()  # each batch size starts from a genuinely cold cache
        for points in (cold_points, warm_points):
            result = service.execute_batch(queries)
            stats = result.stats
            points.append(ThroughputPoint(
                batch_size=batch_size,
                wall_time_s=stats.wall_time_s,
                wall_qps=stats.wall_qps,
                modelled_p50_s=stats.modelled_p50_s,
                modelled_p95_s=stats.modelled_p95_s,
                cache_hits=stats.cache.hits,
                cache_misses=stats.cache.misses,
            ))
            for execution in result:
                if execution.rows != reference_rows[execution.query.name]:
                    bit_exact = False

    results = ThroughputResults(
        scale_factor=setup.dataset.scale_factor,
        sequential_batch=baseline_batch,
        sequential_wall_s=sequential_wall,
        sequential_qps=baseline_batch / sequential_wall if sequential_wall else 0.0,
        cold_points=cold_points,
        warm_points=warm_points,
        speedup=0.0,
        bit_exact=bit_exact,
    )
    # Per-query wall-clock ratio, so a sweep that skips the baseline batch
    # size still compares like with like.
    measured = results.measured_point()
    sequential_per_query = sequential_wall / baseline_batch
    measured_per_query = (
        measured.wall_time_s / measured.batch_size if measured.batch_size else 0.0
    )
    results.speedup = (
        sequential_per_query / measured_per_query if measured_per_query else 0.0
    )
    return results


def render(results: ThroughputResults) -> str:
    """Render the benchmark's report table."""
    headers = (
        "batch", "replay", "wall s", "q/s",
        "p50 ms", "p95 ms", "hits", "misses",
    )
    rows: list[tuple] = []
    for label, points in (("cold", results.cold_points), ("warm", results.warm_points)):
        for point in points:
            rows.append((
                point.batch_size, label,
                point.wall_time_s, point.wall_qps,
                point.modelled_p50_s * 1e3, point.modelled_p95_s * 1e3,
                point.cache_hits, point.cache_misses,
            ))
    lines = [
        f"SSB mixed workload, scale factor {results.scale_factor}",
        f"sequential per-query baseline: {results.sequential_batch} queries in "
        f"{results.sequential_wall_s:.3f}s ({results.sequential_qps:.2f} q/s)",
        f"service per-query speedup at batch "
        f"{results.measured_point().batch_size} (warm cache): "
        f"{results.speedup:.1f}x, bit-exact: {results.bit_exact}",
        "",
        format_table(headers, rows),
    ]
    return "\n".join(lines)
