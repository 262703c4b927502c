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
from repro.service import CacheStats, QueryService
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


def test_explain_shows_the_group_plan_memo_decision(toy_relation_factory):
    """A replayed GROUP-BY reuses its plan; the first one after an INSERT
    (a new data version) plans afresh — and the explain text says which."""
    service = QueryService(planner=False)       # always the PIM engine
    service.register("toy", _store(toy_relation_factory()))

    def memo():
        result = service.explain(GROUP_QUERY)
        decision = result.trace.find("group-plan").attributes["memo"]
        assert f"memo={decision}" in result.render()
        return decision

    assert memo() == "miss"
    assert memo() == "hit"
    row = {
        "key": 4000, "price": 7, "discount": 1, "quantity": 2,
        "city": "CITY1", "region": "EUROPE", "year": 1996,
    }
    service.insert([row], relation="toy")
    assert memo() == "miss"
    assert memo() == "hit"


@pytest.mark.parametrize("planner", [False, True])
def test_explain_of_a_replay_differs_only_in_memo(toy_relation, planner):
    """The second ``explain()`` replays the first one's decision (estimate,
    zone-map plan, route, GROUP-BY plan) and still shows it: its text differs
    from the first only in ``memo=``.  A twin of the query (another name,
    so another memo key) runs first and warms the program and candidate
    caches, so the first explain's miss walks no zone map.  With the router
    on, that miss also priced the PIM route: one program-cache lookup the
    replay does not make, on the root span."""
    service = QueryService(planner=planner)
    service.register("toy", _store(toy_relation))
    service.execute(dataclasses.replace(GROUP_QUERY, name="twin"))
    first, second = (service.explain(GROUP_QUERY).render() for _ in range(2))
    # Host-routed with the router on: no GROUP-BY plan, one memo line.
    assert first.count("memo=miss") == (1 if planner else 2)
    assert "memo=miss" not in second
    differing = [
        (ours, theirs)
        for ours, theirs in zip(first.splitlines(), second.splitlines())
        if ours.replace("memo=miss", "memo=hit") != theirs
    ]
    if planner:
        ((ours, theirs),) = differing
        assert ours.startswith("query ")
        assert ours.replace("cache_hits=1", "cache_hits=0") == theirs
    else:
        assert differing == []
    assert len(first.splitlines()) == len(second.splitlines())


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

def test_registry_counters_and_gauges():
    registry = MetricsRegistry()
    registry.counter("reqs", 2, labels={"route": "pim"})
    registry.counter("reqs", 3, labels={"route": "pim"})
    registry.gauge("occupancy", 7)
    registry.gauge("occupancy", 9)
    assert registry.value("reqs", labels={"route": "pim"}) == 5
    assert registry.value("occupancy") == 9
    with pytest.raises(ValueError):
        registry.gauge("reqs", 1, labels={"route": "pim"})


def test_registry_renders_prometheus_and_json():
    registry = MetricsRegistry()
    registry.counter("hits", 4, labels={"cache": "program"})
    registry.gauge("occupancy", 2)
    text = registry.render_prometheus()
    assert "# TYPE hits counter" in text
    assert 'hits{cache="program"} 4.0' in text
    assert "# TYPE occupancy gauge" in text
    record = json.loads(registry.render_json())
    names = {m["name"] for m in record["metrics"]}
    assert names == {"hits", "occupancy"}


def test_register_fields_splits_counters_and_gauges():
    registry = MetricsRegistry()
    stats = CandidateCacheStats(hits=3, misses=1, entries=5, capacity=8)
    register_fields(registry, stats, "cc")
    assert registry.value("cc_hits") == 3
    assert registry.value("cc_entries") == 5
    kinds = {m["name"]: m["kind"] for m in registry.to_json()["metrics"]}
    # The class's GAUGES tuple is the one place the split is declared.
    assert {name for name, kind in kinds.items() if kind == "gauge"} == {
        f"cc_{name}" for name in CandidateCacheStats.GAUGES
    }
    # Derived ratios named in GAUGES export too; labels come from str fields.
    register_fields(registry, CacheStats(hits=3, misses=1), "pc")
    assert registry.value("pc_hit_rate") == 0.75
    register_fields(registry, AdaptiveSnapshot(observations=2, hot_column="a"), "ad")
    assert registry.value("ad_observations", labels={"hot_column": "a"}) == 2


# ------------------------------------------------------ property: algebra

adaptive_snapshots = st.builds(
    AdaptiveSnapshot,
    observations=st.integers(0, 1000),
    rebuilds=st.integers(0, 50),
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
    assert sub_stats(a, b) == a - b
    with pytest.raises(TypeError):
        add_stats(a, AdaptiveSnapshot())


# ------------------------------------------------------------ service stats

def test_service_stats_empty_batch_describes_and_exports():
    stats = ServiceStats.from_executions([], wall_time_s=0.0)
    assert stats.queries == 0
    text = stats.describe()
    assert "service_queries=0" in text
    assert len(stats.metrics()) > 0
    assert stats.metrics().render_prometheus().startswith("# TYPE")


def test_service_batch_exports_metrics(toy_relation):
    service = QueryService()
    service.register("toy", _store(toy_relation))
    batch = service.execute_batch([FILTER_QUERY, GROUP_QUERY])
    registry = batch.stats.metrics()
    assert registry.value("service_queries") == 2
    assert registry.value("program_cache_misses") > 0
    record = registry.to_json()
    assert any(m["name"] == "planner_host_routed" for m in record["metrics"])
    assert "service_queries" in registry.render_prometheus()


def test_describe_json_and_prometheus_render_one_registry(toy_relation):
    """describe(), JSON and Prometheus all render ``ServiceStats.metrics()``.

    A K = 4 sharded batch after INSERT/DELETE, with the planner routing and
    the adaptive loop fed, reports every section at once.
    """
    service = QueryService()
    service.register_sharded(
        "toy", toy_relation, shards=4, timing_scale=64.0,
        aggregation_width=22, reserve_bulk_aggregation=False,
    )
    service.insert([{
        "key": 1, "price": 7, "discount": 2, "quantity": 3,
        "city": toy_relation.schema.attribute("city").dictionary.decode(0),
        "region": toy_relation.schema.attribute("region").dictionary.decode(0),
        "year": 1995,
    }] * 3)
    service.delete(Comparison("price", "<", 1000))
    stats = service.execute_batch([FILTER_QUERY, GROUP_QUERY, FILTER_QUERY]).stats
    for section in (stats.cache, stats.planner, stats.adaptive, stats.sharded,
                    stats.dml):
        assert section is not None
    assert stats.planner.candidates is not None
    assert stats.adaptive.hot_column is not None

    registry = stats.metrics()
    series = {}
    for m in registry.to_json()["metrics"]:
        labels = ",".join(f'{k}="{v}"' for k, v in sorted(m["labels"].items()))
        series[m["name"] + (f"{{{labels}}}" if labels else "")] = m["value"]
    printed = {}
    for line in stats.describe().splitlines():
        section, pairs = line.split(": ", 1)
        for pair in pairs.split(" "):
            key, value = pair.rsplit("=", 1)
            assert key.startswith(section + "_")
            printed[key] = float(value)
    assert printed.keys() == series.keys()
    for key, value in series.items():
        assert printed[key] == pytest.approx(value, rel=1e-5, abs=1e-12), key
    names = {m["name"] for m in registry.to_json()["metrics"]}
    assert {key.partition("{")[0] for key in printed} == names
    assert names >= {
        "program_cache_hit_rate", "planner_skip_rate", "dml_fragmentation",
        "adaptive_observations", "sharded_parallel_speedup",
        "candidate_cache_hits",
    }
    exposition = registry.render_prometheus()
    for name in names:
        assert f"# TYPE {name} " in exposition
