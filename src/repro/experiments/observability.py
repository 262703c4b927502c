"""Observability acceptance: trace completeness, null-path cost, explain goldens.

The telemetry layer's contract has three legs, and this experiment gates all
of them on the 13-query SSB workload:

* **Trace completeness** — with tracing enabled, every query's span tree
  must account for 100% of the modelled execution: re-folding the charge
  events of the trace (:func:`~repro.obs.trace.fold_trace_charges`) must
  reproduce the execution's ``time_by_phase`` and ``energy_by_component``
  **bit-for-bit**.  A near-match would mean some stage charges outside any
  span (or twice); exact float equality holds because the stats object is
  an exact multiset and the fold rebuilds that same multiset.
* **Disabled-path cost** — tracing off must be practically free.  The
  instrumentation cannot be compiled out, so the gate measures the two
  things the disabled path actually executes — entering the shared no-op
  span and the ``trace_hook is None`` branch — and projects their cost over
  the span/charge volume of a real traced replay.  That projection must
  stay under :data:`MAX_DISABLED_OVERHEAD` of the measured warm replay.
  The measured enabled-tracing overhead is recorded alongside (it is not
  gated: it pays for the retained span trees).
* **Explain stability** — :meth:`~repro.service.service.QueryService.explain`
  renders modelled quantities only, so its text must be identical on the
  packed and boolean simulation backends for the same query.

``render`` produces the human-readable report and ``artifact`` the
``BENCH_obs.json`` trajectory record consumed by CI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.config import DEFAULT_CONFIG
from repro.db.storage import StoredRelation
from repro.experiments import emit
from repro.experiments.common import default_scale_factor
from repro.obs.trace import SpanTracer, fold_trace_charges
from repro.pim.module import PimModule
from repro.service import QueryService
from repro.ssb import ALL_QUERIES, QUERY_ORDER, build_ssb_prejoined, generate
from repro.ssb.prejoined import max_aggregated_width

#: Projected fraction of the warm replay the disabled tracer may cost.
MAX_DISABLED_OVERHEAD = 0.02

#: SSB queries whose ``explain()`` rendering is compared across backends —
#: a scalar-filter query and a deep GROUP-BY.
EXPLAIN_QUERIES = ("Q1.1", "Q3.2")

#: Iterations of the null-span / null-hook microbenchmark loops.
_MICRO_ITERS = 200_000


@dataclass
class TraceCompleteness:
    """One query's trace-vs-stats reconciliation."""

    query: str
    time_match: bool
    energy_match: bool
    spans: int
    charges: int
    modelled_s: float

    @property
    def complete(self) -> bool:
        return self.time_match and self.energy_match


@dataclass
class ObservabilityResults:
    """Everything ``bench_observability`` reports and gates on."""

    scale_factor: float
    records: int
    repeats: int
    #: Warm 13-query replay wall time, tracing disabled (best of repeats).
    disabled_wall_s: float
    #: The same warm replay with tracing enabled (best of repeats).
    traced_wall_s: float
    #: Cost of one ``with NULL_SPAN`` entry/exit on this host.
    null_span_cost_s: float
    #: Cost of one ``trace_hook is None`` branch on this host.
    null_hook_cost_s: float
    #: Span/charge volume of one traced replay (what the null costs scale by).
    spans_per_replay: int = 0
    charges_per_replay: int = 0
    completeness: list[TraceCompleteness] = field(default_factory=list)
    explain_queries: tuple[str, ...] = EXPLAIN_QUERIES
    explain_stable: bool = True
    #: The packed backend's rendering of the first explain query (golden).
    explain_text: str = ""

    @property
    def traced_overhead(self) -> float:
        """Measured fractional overhead of tracing *enabled* (not gated)."""
        if self.disabled_wall_s <= 0:
            return 0.0
        return self.traced_wall_s / self.disabled_wall_s - 1.0

    @property
    def projected_disabled_overhead(self) -> float:
        """Projected fractional cost of the disabled path on a warm replay."""
        if self.disabled_wall_s <= 0:
            return 0.0
        projected = (
            self.spans_per_replay * self.null_span_cost_s
            + self.charges_per_replay * self.null_hook_cost_s
        )
        return projected / self.disabled_wall_s

    @property
    def null_overhead_ok(self) -> bool:
        return self.projected_disabled_overhead < MAX_DISABLED_OVERHEAD

    @property
    def trace_complete(self) -> bool:
        """Every query's trace reproduced its stats bit-for-bit."""
        return bool(self.completeness) and all(
            c.complete for c in self.completeness
        )


def _build_service(backend: str, prejoined, tracing: bool) -> QueryService:
    config = DEFAULT_CONFIG.with_backend(backend)
    stored = StoredRelation(
        prejoined,
        PimModule(config),
        label=f"obs/{backend}",
        aggregation_width=max_aggregated_width(prejoined),
        reserve_bulk_aggregation=False,
    )
    service = QueryService(tracing=tracing, trace_sink=None)
    service.register("ssb", stored, config=config, label="ssb")
    return service


def _workload():
    return [ALL_QUERIES[name] for name in QUERY_ORDER]


def _best_replay_wall(service: QueryService, repeats: int) -> float:
    """Best-of-``repeats`` wall time of the warm 13-query replay."""
    workload = _workload()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for query in workload:
            service.execute(query)
        best = min(best, time.perf_counter() - start)
    return best


def _null_span_cost() -> float:
    """Per-entry cost of the disabled tracer's shared no-op span."""
    tracer = SpanTracer(enabled=False)
    start = time.perf_counter()
    for _ in range(_MICRO_ITERS):
        with tracer.span("x"):
            pass
    return (time.perf_counter() - start) / _MICRO_ITERS


def _null_hook_cost() -> float:
    """Per-charge cost of the ``trace_hook is None`` branch."""
    hook = None
    start = time.perf_counter()
    for _ in range(_MICRO_ITERS):
        if hook is not None:  # pragma: no cover - never taken
            hook("time", "x", 0.0)
    return (time.perf_counter() - start) / _MICRO_ITERS


def _reconcile(service: QueryService) -> list[TraceCompleteness]:
    """Execute every SSB query traced and fold each trace against its stats."""
    records: list[TraceCompleteness] = []
    service.tracer.enabled = True
    try:
        service.tracer.clear()
        for name in QUERY_ORDER:
            execution = service.execute(ALL_QUERIES[name])
            root = service.tracer.pop_trace()
            folded = fold_trace_charges(root)
            spans = sum(1 for _ in root.iter_spans())
            charges = sum(len(s.charges) for s in root.iter_spans())
            records.append(TraceCompleteness(
                query=name,
                time_match=folded["time"] == dict(execution.stats.time_by_phase),
                energy_match=(
                    folded["energy"] == dict(execution.stats.energy_by_component)
                ),
                spans=spans,
                charges=charges,
                modelled_s=execution.time_s,
            ))
    finally:
        service.tracer.enabled = False
    return records


def run_observability(
    scale_factor: float | None = None, repeats: int = 3
) -> ObservabilityResults:
    """Run the three-legged observability acceptance experiment."""
    scale_factor = (
        default_scale_factor() if scale_factor is None else scale_factor
    )
    dataset = generate(scale_factor=scale_factor)
    prejoined = build_ssb_prejoined(dataset.database)

    service = _build_service("packed", prejoined, tracing=False)
    for query in _workload():  # warm programs, plans, adaptive state
        service.execute(query)

    disabled_wall = _best_replay_wall(service, repeats)

    completeness = _reconcile(service)
    spans = sum(c.spans for c in completeness)
    charges = sum(c.charges for c in completeness)

    service.tracer.enabled = True
    try:
        traced_wall = _best_replay_wall(service, repeats)
    finally:
        service.tracer.enabled = False
        service.tracer.clear()

    # Explain goldens: fresh per-backend services so both render from an
    # identical (cold) adaptive/cache state.
    renders: dict[str, list[str]] = {}
    for backend in ("packed", "bool"):
        golden = _build_service(backend, prejoined, tracing=False)
        renders[backend] = [
            golden.explain(ALL_QUERIES[name]).render()
            for name in EXPLAIN_QUERIES
        ]
    explain_stable = renders["packed"] == renders["bool"]

    return ObservabilityResults(
        scale_factor=scale_factor,
        records=len(prejoined),
        repeats=repeats,
        disabled_wall_s=disabled_wall,
        traced_wall_s=traced_wall,
        null_span_cost_s=_null_span_cost(),
        null_hook_cost_s=_null_hook_cost(),
        spans_per_replay=spans,
        charges_per_replay=charges,
        completeness=completeness,
        explain_stable=explain_stable,
        explain_text=renders["packed"][0],
    )


def render(results: ObservabilityResults) -> str:
    """The human-readable report."""
    lines = [
        f"observability acceptance (SF={results.scale_factor}, "
        f"{results.records} rows, best of {results.repeats})",
        f"warm replay: {results.disabled_wall_s:.4f}s off / "
        f"{results.traced_wall_s:.4f}s traced "
        f"({results.traced_overhead:+.1%} enabled overhead, not gated)",
        f"disabled path: {results.spans_per_replay} spans x "
        f"{results.null_span_cost_s * 1e9:.0f}ns + "
        f"{results.charges_per_replay} charges x "
        f"{results.null_hook_cost_s * 1e9:.0f}ns = "
        f"{results.projected_disabled_overhead:.3%} of the replay "
        f"(gate <{MAX_DISABLED_OVERHEAD:.0%}): "
        f"{'ok' if results.null_overhead_ok else 'FAIL'}",
        f"trace completeness ({len(results.completeness)} queries):",
    ]
    for c in results.completeness:
        lines.append(
            f"  {c.query}: {c.spans} spans, {c.charges} charges, "
            f"{c.modelled_s * 1e3:.3f} ms modelled — "
            f"time {'ok' if c.time_match else 'DIFF'}, "
            f"energy {'ok' if c.energy_match else 'DIFF'}"
        )
    lines.append(
        f"explain golden ({', '.join(results.explain_queries)}): "
        f"packed vs bool "
        f"{'identical' if results.explain_stable else 'DIFFER'}"
    )
    return "\n".join(lines)


def artifact(results: ObservabilityResults) -> dict:
    """The ``BENCH_obs.json`` trajectory record."""
    return {
        "scale_factor": results.scale_factor,
        "records": results.records,
        "repeats": results.repeats,
        "disabled_wall_s": results.disabled_wall_s,
        "traced_wall_s": results.traced_wall_s,
        "traced_overhead": results.traced_overhead,
        "null_span_cost_s": results.null_span_cost_s,
        "null_hook_cost_s": results.null_hook_cost_s,
        "spans_per_replay": results.spans_per_replay,
        "charges_per_replay": results.charges_per_replay,
        "projected_disabled_overhead": results.projected_disabled_overhead,
        "completeness": [
            {
                "query": c.query,
                "time_match": c.time_match,
                "energy_match": c.energy_match,
                "spans": c.spans,
                "charges": c.charges,
                "modelled_s": c.modelled_s,
            }
            for c in results.completeness
        ],
        "explain_queries": list(results.explain_queries),
        "explain_stable": results.explain_stable,
        "explain_text": results.explain_text,
    }


def write_artifact(results: ObservabilityResults, path) -> None:
    """Persist the schema-versioned trajectory artifact as JSON."""
    emit.write_artifact(
        path,
        "observability",
        artifact(results),
        gates={
            "trace_complete": results.trace_complete,
            "null_overhead_ok": results.null_overhead_ok,
            "explain_stable": results.explain_stable,
        },
    )
