"""Tests of the telemetry layer: tracer, metrics registry, explain, wear."""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DEFAULT_CONFIG
from repro.core.executor import PimQueryEngine
from repro.db.query import Aggregate, Comparison, Query
from repro.db.storage import StoredRelation
from repro.obs.metrics import (
    MetricsRegistry,
    add_stats,
    register_fields,
    sub_stats,
)
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    SpanTracer,
    fold_trace_charges,
    tracer_from_config,
)
from repro.pim.module import PimModule
from repro.pim.stats import PimStats
from repro.planner.adaptive import AdaptiveSnapshot
from repro.planner.candidates import CandidateCacheStats
from repro.service import QueryService
from repro.service.stats import ServiceStats
from repro.ssb import ALL_QUERIES, QUERY_ORDER
from repro.ssb.prejoined import max_aggregated_width

FILTER_QUERY = Query(
    "filter", Comparison("region", "==", "ASIA"),
    (Aggregate("sum", "price"), Aggregate("count")),
)
GROUP_QUERY = Query(
    "gb", Comparison("year", ">=", 1995),
    (Aggregate("sum", "price"),), group_by=("region",),
)


def _store(relation, label="obs"):
    return StoredRelation(
        relation, PimModule(DEFAULT_CONFIG), label=label,
        aggregation_width=22, reserve_bulk_aggregation=False,
    )


# ------------------------------------------------------------------- tracer

def test_spans_nest_and_carry_attributes():
    tracer = SpanTracer(enabled=True)
    with tracer.span("root", label="x") as root:
        with tracer.span("child") as child:
            child.set(depth=1)
        assert tracer.current() is root
    trace = tracer.pop_trace()
    assert trace is root
    assert trace.attributes == {"label": "x"}
    assert [c.name for c in trace.children] == ["child"]
    assert trace.children[0].attributes == {"depth": 1}
    assert trace.wall_s >= trace.children[0].wall_s >= 0.0
    assert tracer.pop_trace() is None


def test_disabled_tracer_returns_the_shared_null_span():
    tracer = SpanTracer(enabled=False)
    span = tracer.span("anything", attr=1)
    assert span is NULL_SPAN
    with span as inner:
        inner.set(ignored=True)  # no-op, no error
    assert tracer.traces == []


def test_null_tracer_refuses_to_enable():
    with pytest.raises(ValueError):
        NULL_TRACER.enabled = True
    assert tracer_from_config(DEFAULT_CONFIG) is NULL_TRACER


def test_charges_attach_to_the_innermost_span():
    tracer = SpanTracer(enabled=True)
    stats = PimStats()
    tracer.bind(stats)
    with tracer.span("outer"):
        stats.add_time("a", 1.0)
        with tracer.span("inner"):
            stats.add_time("b", 2.0)
            stats.add_energy("e", 0.5)
        stats.add_time("a", 3.0)
    trace = tracer.pop_trace()
    outer_keys = [(c.kind, c.key) for c in trace.charges]
    inner = trace.children[0]
    assert outer_keys == [("time", "a"), ("time", "a")]
    assert [(c.kind, c.key) for c in inner.charges] == [
        ("time", "b"), ("energy", "e")
    ]
    folded = fold_trace_charges(trace)
    assert folded["time"] == dict(stats.time_by_phase)
    assert folded["energy"] == dict(stats.energy_by_component)


def test_unbound_stats_charge_without_a_hook():
    stats = PimStats()
    assert stats.trace_hook is None
    stats.add_time("a", 1.0)  # must not raise
    assert stats.time_by_phase["a"] == 1.0


def test_trace_jsonl_sink(tmp_path, toy_relation):
    sink = tmp_path / "trace.jsonl"
    service = QueryService(tracing=True, trace_sink=sink)
    service.register("toy", _store(toy_relation))
    service.execute(FILTER_QUERY)
    lines = sink.read_text().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["name"] == "query"
    names = set()
    stack = [record]
    while stack:
        node = stack.pop()
        names.add(node["name"])
        stack.extend(node["children"])
    assert "plan" in names


# ------------------------------------------------- engine trace completeness

@pytest.fixture(scope="module")
def traced_ssb_engine(ssb_prejoined):
    stored = StoredRelation(
        ssb_prejoined, PimModule(DEFAULT_CONFIG), label="obs-ssb",
        aggregation_width=max_aggregated_width(ssb_prejoined),
        reserve_bulk_aggregation=False,
    )
    return PimQueryEngine(stored, tracer=SpanTracer(enabled=True))


@pytest.mark.parametrize("query", [
    FILTER_QUERY, GROUP_QUERY,
    *(pytest.param(ALL_QUERIES[name], id=name) for name in QUERY_ORDER),
])
def test_engine_trace_folds_bit_exact(request, query):
    if query.name in ALL_QUERIES:
        engine = request.getfixturevalue("traced_ssb_engine")
    else:
        toy = request.getfixturevalue("toy_relation")
        engine = PimQueryEngine(_store(toy), tracer=SpanTracer(enabled=True))
    execution = engine.execute(query)
    trace = engine.tracer.pop_trace()
    folded = fold_trace_charges(trace)
    assert folded["time"] == dict(execution.stats.time_by_phase)
    assert folded["energy"] == dict(execution.stats.energy_by_component)
    # The subtree sum adds per-span read-outs, each rounded once, so it is
    # equal up to that rounding only.
    assert trace.subtree_time_s() == pytest.approx(
        execution.stats.total_time_s, rel=1e-12
    )


def test_service_trace_covers_dml(toy_relation):
    from repro.db.relation import Relation

    service = QueryService(tracing=True, trace_sink=None)
    relation = Relation(
        toy_relation.schema,
        {n: c.copy() for n, c in toy_relation.columns.items()},
    )
    service.register("toy", _store(relation))
    service.delete(Comparison("region", "==", "AFRICA"), relation="toy")
    trace = service.tracer.pop_trace()
    assert trace.name == "dml-delete"
    assert trace.attributes["deleted"] > 0
    assert trace.modelled_time_s > 0.0


# ------------------------------------------------------------------ explain

def test_explain_executes_once_and_renders(toy_relation):
    service = QueryService()  # tracing off by default
    service.register("toy", _store(toy_relation))
    result = service.explain(FILTER_QUERY)
    assert service.tracer.enabled is False
    assert service.tracer.traces == []
    text = result.render()
    assert "EXPLAIN ANALYZE" in text
    for name in ("query", "plan"):
        assert name in text
    assert f"{result.execution.time_s * 1e3:.6f}" in text


def test_explain_golden_stable_across_backends(ssb_prejoined):
    renders = {}
    for backend in ("packed", "bool"):
        config = DEFAULT_CONFIG.with_backend(backend)
        stored = StoredRelation(
            ssb_prejoined, PimModule(config), label=backend,
            aggregation_width=max_aggregated_width(ssb_prejoined),
            reserve_bulk_aggregation=False,
        )
        service = QueryService()
        service.register("ssb", stored, config=config, label="ssb")
        renders[backend] = [
            service.explain(ALL_QUERIES[name]).render()
            for name in ("Q1.1", "Q3.2")
        ]
    assert renders["packed"] == renders["bool"]


# --------------------------------------------------------------------- wear

def test_wear_report_renders_a_heatmap(toy_relation):
    from repro.db.relation import Relation

    service = QueryService()
    relation = Relation(
        toy_relation.schema,
        {n: c.copy() for n, c in toy_relation.columns.items()},
    )
    service.register("toy", _store(relation))
    # The initial bulk store does not count as endurance wear; DML and the
    # compaction rewrite do.
    service.delete(Comparison("region", "==", "AFRICA"), relation="toy")
    service.compact(relation="toy", force=True)
    report = service.wear_report()
    assert report.total_writes > 0
    text = report.heatmap()
    assert "writes/row" in text


# ----------------------------------------------------------------- registry

def test_registry_counters_gauges_histograms():
    registry = MetricsRegistry()
    registry.counter("reqs", 2, labels={"route": "pim"})
    registry.counter("reqs", 3, labels={"route": "pim"})
    registry.gauge("occupancy", 7)
    registry.gauge("occupancy", 9)
    registry.histogram("latency", [1.0, 2.0, 3.0])
    assert registry.value("reqs", labels={"route": "pim"}) == 5
    assert registry.value("occupancy") == 9
    assert registry.value("latency") == 3
    with pytest.raises(ValueError):
        registry.gauge("reqs", 1, labels={"route": "pim"})


def test_registry_renders_prometheus_and_json():
    registry = MetricsRegistry()
    registry.counter("hits", 4, labels={"cache": "program"}, help="cache hits")
    registry.histogram("lat", [2.0, 4.0])
    text = registry.render_prometheus()
    assert "# TYPE hits counter" in text
    assert 'hits{cache="program"} 4.0' in text
    assert "lat_count 2" in text
    record = json.loads(registry.render_json())
    names = {m["name"] for m in record["metrics"]}
    assert names == {"hits", "lat"}


def test_register_fields_splits_counters_and_gauges():
    registry = MetricsRegistry()
    stats = CandidateCacheStats(hits=3, misses=1, entries=5, capacity=8)
    register_fields(registry, stats, "cc", gauges=("entries", "capacity"))
    assert registry.value("cc_hits") == 3
    assert registry.value("cc_entries") == 5
    merged = registry.merge(registry)
    assert merged.value("cc_hits") == 6          # counters sum
    assert merged.value("cc_entries") == 10      # gauges roll up on merge


# ------------------------------------------------------ property: algebra

adaptive_snapshots = st.builds(
    AdaptiveSnapshot,
    observations=st.integers(0, 1000),
    rebuilds=st.integers(0, 50),
    pair_sketches=st.integers(0, 50),
    # Integer-valued floats keep the sum exactly associative; float
    # re-association is covered by the registry canonicalisation test.
    accumulated_error=st.integers(0, 100).map(float),
    hot_column=st.one_of(st.none(), st.sampled_from(["a", "b"])),
    hot_pair=st.one_of(st.none(), st.just(("a", "b"))),
)

candidate_stats = st.builds(
    CandidateCacheStats,
    hits=st.integers(0, 1000),
    misses=st.integers(0, 1000),
    revalidations=st.integers(0, 1000),
    stale_crossbars=st.integers(0, 1000),
    evictions=st.integers(0, 1000),
    entries_checked=st.integers(0, 10_000),
    entries=st.integers(0, 256),
    capacity=st.integers(1, 256),
)


@settings(max_examples=50, deadline=None)
@given(a=adaptive_snapshots, b=adaptive_snapshots, c=adaptive_snapshots)
def test_adaptive_snapshot_add_is_associative_with_identity(a, b, c):
    assert (a + b) + c == a + (b + c)
    zero = AdaptiveSnapshot()
    assert a + zero == a
    added = a + b
    assert added.observations == a.observations + b.observations
    expected_hot = a.hot_column if a.hot_column is not None else b.hot_column
    assert added.hot_column == expected_hot


@settings(max_examples=50, deadline=None)
@given(a=candidate_stats, b=candidate_stats)
def test_candidate_stats_delta_inverts_counter_growth(a, b):
    total = a + b
    for f in dataclasses.fields(CandidateCacheStats):
        assert getattr(total, f.name) == getattr(a, f.name) + getattr(b, f.name)
    delta = total - a
    # Counters return to b's values; occupancy/capacity stay point-in-time.
    assert delta.hits == b.hits and delta.misses == b.misses
    assert delta.entries == total.entries
    assert delta.capacity == total.capacity


@settings(max_examples=50, deadline=None)
@given(a=candidate_stats, b=candidate_stats)
def test_shared_algebra_matches_handwritten_semantics(a, b):
    assert add_stats(a, b) == a + b
    assert sub_stats(a, b, keep=("entries", "capacity")) == a - b
    with pytest.raises(TypeError):
        add_stats(a, AdaptiveSnapshot())


metric_updates = st.lists(
    st.tuples(
        st.sampled_from(["counter", "gauge", "histogram"]),
        st.sampled_from(["m1", "m2", "m3"]),
        st.floats(-100, 100, allow_nan=False),
    ),
    max_size=8,
)


def _registry(updates):
    registry = MetricsRegistry()
    for kind, name, value in updates:
        # Prefix by kind so one name never mixes kinds across registries.
        if kind == "histogram":
            registry.histogram(f"{kind}_{name}", [value])
        elif kind == "gauge":
            registry.gauge(f"{kind}_{name}", value)
        else:
            registry.counter(f"{kind}_{name}", value)
    return registry


def _canonical(registry):
    record = registry.to_json()
    for metric in record["metrics"]:
        if "value" in metric:
            metric["value"] = round(metric["value"], 9)
        for key in ("sum", "p50", "p95"):
            if key in metric:
                metric[key] = round(metric[key], 9)
    return record


@settings(max_examples=50, deadline=None)
@given(a=metric_updates, b=metric_updates, c=metric_updates)
def test_registry_merge_is_associative_commutative_with_identity(a, b, c):
    ra, rb, rc = _registry(a), _registry(b), _registry(c)
    left = ra.merge(rb).merge(rc)
    right = ra.merge(rb.merge(rc))
    assert _canonical(left) == _canonical(right)
    assert _canonical(ra.merge(rb)) == _canonical(rb.merge(ra))
    assert _canonical(ra.merge(MetricsRegistry())) == _canonical(ra)


# ------------------------------------------------------------ service stats

def test_service_stats_empty_batch_describes_and_exports():
    stats = ServiceStats.from_executions([], wall_time_s=0.0)
    assert stats.queries == 0
    text = stats.describe()
    assert "0 queries" in text
    assert len(stats.metrics()) > 0
    assert stats.render_prometheus().startswith("# TYPE")


def test_service_batch_exports_metrics(toy_relation):
    service = QueryService()
    service.register("toy", _store(toy_relation))
    batch = service.execute_batch([FILTER_QUERY, GROUP_QUERY])
    registry = batch.stats.metrics()
    assert registry.value("service_queries") == 2
    assert registry.value("program_cache_misses") > 0
    record = batch.stats.to_json()
    assert any(m["name"] == "planner_host_routed" for m in record["metrics"])
    assert "service_queries" in batch.stats.render_prometheus()
