"""Zone-map statistics, crossbar skipping and cost-based routing.

The contract under test: zone maps are *conservative, never wrong* — a
crossbar they prune provably holds no matching live row — so pruned
execution is bit-exact with the full broadcast on every path (packed and
boolean backends, unsharded and sharded), across the
full SSB suite and under arbitrary interleavings of DML with queries, while
scanning strictly fewer crossbars and charging less modelled time on
selective queries.  The cost planner's host-scan route must return the same
rows as the PIM engines.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import BACKENDS, DEFAULT_CONFIG
from repro.core.executor import PimQueryEngine
from repro.db.dml import execute_compaction, execute_delete, execute_insert
from repro.db.query import (
    Aggregate,
    And,
    Comparison,
    Or,
    Query,
    evaluate_predicate,
)
from repro.db.relation import Relation
from repro.db.schema import Schema, dict_attribute, int_attribute
from repro.db.storage import StoredRelation
from repro.db.update import execute_update
from repro.pim.controller import PimExecutor
from repro.pim.module import PimModule
from repro.planner import (
    CandidateSetCache,
    CostPlanner,
    execute_host_scan,
    normalize_fragment,
)
from repro.planner.planner import cold_walk
from repro.planner.selectivity import SelectivityModel
from repro.planner.zonemap import ZoneMaps
from repro.service import QueryService

CITIES = ["LYON", "OSLO", "PERTH", "QUITO"]


def planner_schema() -> Schema:
    return Schema("pl", [
        int_attribute("key", 12, source="fact"),
        int_attribute("value", 10, source="fact"),
        dict_attribute("city", CITIES, source="dim"),
    ])


def clustered_relation(records: int = 4000, seed: int = 5) -> Relation:
    """Sorted by ``key``: each crossbar covers a narrow key range."""
    rng = np.random.default_rng(seed)
    return Relation(planner_schema(), {
        "key": np.sort(rng.integers(0, 1 << 12, records).astype(np.uint64)),
        "value": rng.integers(0, 1 << 10, records).astype(np.uint64),
        "city": rng.integers(0, len(CITIES), records).astype(np.uint64),
    })


def _store(relation, backend="packed", **kwargs):
    config = DEFAULT_CONFIG.with_backend(backend)
    return StoredRelation(
        relation, PimModule(config), label=kwargs.pop("label", "pl"), **kwargs
    )


POINT = Query(
    "point", Comparison("key", "==", 1234),
    (Aggregate("sum", "value"), Aggregate("count")),
)
RANGE = Query(
    "range", And((
        Comparison("key", "between", low=100, high=400),
        Comparison("city", "==", "OSLO"),
    )),
    (Aggregate("sum", "value"), Aggregate("min", "value")),
    group_by=("city",),
)
NOTHING = Query(
    "nothing", Comparison("key", "==", (1 << 12) - 1),
    (Aggregate("sum", "value"), Aggregate("count")),
)


def day_clustered_relation(records: int = 65536, seed: int = 23) -> Relation:
    """Orders sorted by ``day``: each crossbar covers a few of 2 048 days."""
    rng = np.random.default_rng(seed)
    schema = Schema("orders", [
        int_attribute("day", 16, source="fact"),
        int_attribute("amount", 20, source="fact"),
        dict_attribute("region", [f"R{i}" for i in range(8)], source="dim"),
    ])
    return Relation(schema, {
        "day": np.sort(rng.integers(0, 2048, records).astype(np.uint64)),
        "amount": rng.integers(0, 1 << 20, records).astype(np.uint64),
        "region": rng.integers(0, 8, records).astype(np.uint64),
    })


DAY_POINT = Query(
    "day-point", Comparison("day", "==", 777),
    (Aggregate("sum", "amount"), Aggregate("count")),
)
DAY_RANGE = Query(
    "day-range", Comparison("day", "between", low=700, high=760),
    (Aggregate("sum", "amount"), Aggregate("min", "amount")),
)


# ----------------------------------------------------------------- zone maps
def test_zonemaps_are_conservative_for_random_predicates():
    """A pruned crossbar never holds a matching live row (the soundness core)."""
    relation = clustered_relation()
    stored = _store(relation)
    maps = stored.statistics.zonemaps
    rows = stored.rows_per_crossbar
    rng = np.random.default_rng(11)
    comparisons = [
        Comparison("key", op, int(rng.integers(0, 1 << 12)))
        for op in ("==", "!=", "<", "<=", ">", ">=")
    ] + [
        Comparison("key", "between", low=700, high=900),
        Comparison("value", "in", values=(3, 900, 1023)),
        Or((Comparison("key", "==", 10), Comparison("city", "==", "LYON"))),
        And((Comparison("key", "<", 2000), Comparison("value", ">=", 512))),
    ]
    for predicate in comparisons:
        check = maps.check([predicate], DEFAULT_CONFIG.pim.crossbars_per_page)
        matches = evaluate_predicate(predicate, relation)
        padded = np.zeros(maps.crossbars * rows, dtype=bool)
        padded[: len(matches)] = matches
        per_crossbar = padded.reshape(maps.crossbars, rows).any(axis=1)
        assert not np.any(per_crossbar & ~check.candidates), predicate


def test_zonemaps_match_constants_like_the_compiler():
    """Out-of-domain constants follow the compiler's const-fold semantics."""
    stored = _store(clustered_relation())
    maps = stored.statistics.zonemaps
    cp = DEFAULT_CONFIG.pim.crossbars_per_page
    # An unknown dictionary value selects nothing -> no candidates at all.
    none = maps.check([Comparison("city", "==", "ATLANTIS")], cp)
    assert not none.candidates.any()
    # ... except for NE, which the compiler folds to const True.
    everything = maps.check([Comparison("city", "!=", "ATLANTIS")], cp)
    assert everything.candidates.sum() == (maps.live > 0).sum()


def test_zonemaps_maintenance_under_dml_stays_conservative_and_charged():
    relation = clustered_relation(records=3000)
    stored = _store(relation)
    executor = PimExecutor(DEFAULT_CONFIG)
    maps = stored.statistics.zonemaps
    live_before = maps.live.copy()

    # DELETE decrements the live counters, bounds stay wide.
    predicate = Comparison("key", "<", 500)
    doomed = int(evaluate_predicate(predicate, relation).sum())
    execute_delete(stored, predicate, executor)
    assert int(live_before.sum() - maps.live.sum()) == doomed

    # INSERT with a brand-new maximum widens the target crossbar's bounds.
    record = {"key": (1 << 12) - 1, "value": 7, "city": "LYON"}
    result = execute_insert(stored, [record], executor)
    slot = result.slots[0]
    crossbar = slot // stored.rows_per_crossbar
    assert maps.maxs["key"][crossbar] == (1 << 12) - 1

    # UPDATE widens with the assigned constant.
    execute_update(stored, Comparison("city", "==", "OSLO"), {"value": 1023}, executor)
    updated = evaluate_predicate(Comparison("city", "==", "OSLO"), stored.relation)
    updated &= stored.valid_mask()
    touched = np.unique(np.nonzero(updated)[0] // stored.rows_per_crossbar)
    assert (maps.maxs["value"][touched] == 1023).all()

    # Compaction rebuilds exactly: equal to a from-scratch rebuild.
    execute_compaction(stored, executor, force=True)
    fresh = ZoneMaps.from_stored(stored)
    assert (maps.live == fresh.live).all()
    for name in stored.relation.schema.names:
        live = maps.live > 0
        assert (maps.mins[name][live] == fresh.mins[name][live]).all()
        assert (maps.maxs[name][live] == fresh.maxs[name][live]).all()

    # Every maintenance path charged modelled host time.
    assert executor.stats.time_by_phase["zonemap-maintain"] > 0


# --------------------------------------------------------------- selectivity
def test_histogram_estimates_track_actual_fractions():
    relation = clustered_relation(records=4000)
    model = SelectivityModel.from_relation(relation)
    for predicate, tolerance in [
        (Comparison("key", "<", 2048), 0.1),
        (Comparison("value", ">=", 512), 0.1),
        (Comparison("city", "==", "OSLO"), 0.1),
        (And((Comparison("key", "<", 2048), Comparison("value", "<", 512))), 0.15),
    ]:
        actual = float(evaluate_predicate(predicate, relation).mean())
        estimate = model.estimate(predicate)
        assert abs(estimate - actual) < tolerance, predicate
    assert model.estimate(None) == 1.0
    assert model.estimate(Comparison("city", "==", "ATLANTIS")) == 0.0


def test_conjunct_ordering_puts_the_most_selective_first():
    relation = clustered_relation()
    model = SelectivityModel.from_relation(relation)
    predicate = And((
        Comparison("value", ">=", 0),            # ~everything
        Comparison("key", "==", 7),              # ~nothing
        Comparison("city", "==", "OSLO"),        # ~quarter
    ))
    ordered = model.order_conjuncts(predicate)
    estimates = [model.estimate(conjunct) for conjunct in ordered]
    assert estimates == sorted(estimates)
    assert ordered[0].attribute == "key"


# ------------------------------------------------- pruned execution, bit-exact
@pytest.mark.parametrize("backend", ["packed", "bool"])
@pytest.mark.parametrize("ground_truth", [True, False])
def test_pruned_execution_bit_exact_and_cheaper(
    backend, ground_truth, ground_truth_oracle
):
    full_engine = PimQueryEngine(
        _store(clustered_relation(), backend), timing_scale=64.0,
    )
    pruned_engine = PimQueryEngine(
        _store(clustered_relation(), backend), pruning=True, timing_scale=64.0,
    )
    for query in (POINT, RANGE, NOTHING):
        full = full_engine.execute(query)
        pruned = pruned_engine.execute(query)
        if ground_truth:
            ground_truth_oracle.query(full_engine, full)
            ground_truth_oracle.query(pruned_engine, pruned)
        assert pruned.rows == full.rows, query.name
        assert pruned.crossbars_scanned < pruned.crossbars_total
        assert pruned.time_s < full.time_s
    # The provably-empty query skips execution entirely.
    empty = pruned_engine.execute(NOTHING)
    assert empty.rows == {} and empty.crossbars_scanned == 0
    # At serving scale (64 crossbars modelled as 2 048 pages) skipping cuts
    # the modelled latency of the selective queries at least 2x.
    engines = [
        PimQueryEngine(
            _store(day_clustered_relation(), backend, aggregation_width=20,
                   reserve_bulk_aggregation=False),
            pruning=pruning, timing_scale=1024.0,
        )
        for pruning in (False, True)
    ]
    for query in (DAY_POINT, DAY_RANGE):
        full, pruned = (engine.execute(query) for engine in engines)
        if ground_truth:
            ground_truth_oracle.query(engines[0], full)
            ground_truth_oracle.query(engines[1], pruned)
        assert pruned.rows == full.rows, query.name
        assert full.time_s >= 2.0 * pruned.time_s, query.name


REGIONS = ["EU", "NA", "SA", "APAC"]


def partitioned_relation(records: int = 3000, seed: int = 9) -> Relation:
    """Clustered keys plus two dimension attributes for three-way partitioning."""
    rng = np.random.default_rng(seed)
    schema = Schema("pl3", [
        int_attribute("key", 12, source="fact"),
        int_attribute("value", 10, source="fact"),
        dict_attribute("city", CITIES, source="dim"),
        dict_attribute("region", REGIONS, source="dim2"),
    ])
    return Relation(schema, {
        "key": np.sort(rng.integers(0, 1 << 12, records).astype(np.uint64)),
        "value": rng.integers(0, 1 << 10, records).astype(np.uint64),
        "city": rng.integers(0, len(CITIES), records).astype(np.uint64),
        "region": rng.integers(0, len(REGIONS), records).astype(np.uint64),
    })


def _all_pim_cost_model():
    """Host-gb absurdly expensive: every subgroup goes through pim-gb."""
    from repro.core.latency_model import (
        GroupByCostModel, HostGbLatencyModel, PimGbLatencyModel,
    )

    return GroupByCostModel(
        HostGbLatencyModel({2: 1.0}, {2: 1.0}),
        PimGbLatencyModel({2: 0.0}, {2: 0.0}),
    )


@pytest.mark.parametrize("backend", ["packed", "bool"])
def test_pruned_group_by_across_partitions_bit_exact_and_cost_identical(
    backend, ground_truth_oracle
):
    """Remote-partition subgroup mask programs prune to their own candidates.

    Three vertical partitions force the remote-fold path (two remote
    partitions ship bit-vectors per subgroup); the per-partition candidate
    sets differ (only the key conjunct is selective), so this exercises the
    candidate-masking of the parked running product.
    """
    partitions = [["key", "value"], ["city"], ["region"]]
    query = Query(
        "span",
        And((
            Comparison("key", "between", low=100, high=600),
            Comparison("city", "==", "OSLO"),
        )),
        (Aggregate("sum", "value"), Aggregate("count")),
        group_by=("city", "region"),
    )
    results = {}
    for pruning in (False, True):
        engine = PimQueryEngine(
            _store(partitioned_relation(), backend,
                   partitions=partitions, label="three_xb"),
            pruning=pruning, cost_model=_all_pim_cost_model(), timing_scale=64.0,
        )
        results[pruning] = engine.execute(query)
        ground_truth_oracle.query(engine, results[pruning])
    rows = results[False].rows
    assert rows, "query must select records for the test to mean anything"
    assert results[True].rows == rows
    # pim-gb handled every subgroup, so the pruned mask path really ran.
    assert results[True].pim_subgroups > 0
    # Pruning the subgroup programs saves modelled time on a selective query.
    assert results[True].time_s < results[False].time_s


def test_pruned_ssb_suite_bit_exact_both_backends(ssb_prejoined):
    """The full SSB query suite: pruned == unpruned rows on both backends."""
    from repro.ssb import ALL_QUERIES, QUERY_ORDER
    from repro.ssb.prejoined import max_aggregated_width

    width = max_aggregated_width(ssb_prejoined)
    reference_rows = {}
    for backend in BACKENDS:
        config = DEFAULT_CONFIG.with_backend(backend)
        engines = {}
        for pruning in (False, True):
            module = PimModule(config)
            stored = StoredRelation(
                ssb_prejoined, module, label=f"ssb/{backend}/{pruning}",
                aggregation_width=width, reserve_bulk_aggregation=False,
            )
            engines[pruning] = PimQueryEngine(
                stored, config=config, pruning=pruning
            )
        for name in QUERY_ORDER:
            query = ALL_QUERIES[name]
            full = engines[False].execute(query)
            pruned = engines[True].execute(query)
            assert pruned.rows == full.rows, (backend, name)
            assert pruned.crossbars_scanned <= pruned.crossbars_total
            if name not in reference_rows:
                reference_rows[name] = pruned.rows
            else:
                assert pruned.rows == reference_rows[name], (backend, name)


@pytest.mark.parametrize("shards", [1, 4])
def test_pruned_sharded_service_bit_exact(shards):
    """K=1 and K=4 service pruning vs an unpruned service, SSB point/range."""
    pruned = QueryService(planner=False)
    unpruned = QueryService(pruning=False, planner=False)
    pruned.register_sharded("pl", clustered_relation(), shards=shards)
    unpruned.register_sharded("pl", clustered_relation(), shards=shards)
    for query in (POINT, RANGE, NOTHING):
        a = pruned.execute(query)
        b = unpruned.execute(query)
        assert a.rows == b.rows, query.name
    if shards > 1:
        execution = pruned.execute(POINT)
        assert execution.shards_skipped >= shards - 1


# --------------------------------------------- hypothesis: DML x query churn
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "update", "compact"]),
        st.integers(0, (1 << 12) - 1),
        st.integers(0, (1 << 10) - 1),
    ),
    min_size=1, max_size=6,
)


@pytest.mark.parametrize("backend", ["packed", "bool"])
@pytest.mark.parametrize("shards", [1, 4])
@settings(max_examples=12, deadline=None)
@given(ops=_OPS, probe_key=st.integers(0, (1 << 12) - 1))
def test_pruned_bit_exact_under_interleaved_dml(backend, shards, ops, probe_key):
    """Any DML interleaving: pruned rows == unpruned rows after every op."""
    services = {}
    for pruning in (False, True):
        service = QueryService(planner=False, pruning=pruning)
        service.register_sharded(
            "pl", clustered_relation(records=640, seed=3), shards=shards,
            config=DEFAULT_CONFIG.with_backend(backend),
        )
        services[pruning] = service

    probes = [
        Query("probe-point", Comparison("key", "==", probe_key),
              (Aggregate("sum", "value"), Aggregate("count"))),
        Query("probe-range", Comparison("key", "between",
                                        low=probe_key // 2, high=probe_key),
              (Aggregate("max", "value"), Aggregate("count")),
              group_by=("city",)),
    ]
    for op, key, value in ops:
        for service in services.values():
            if op == "insert":
                records = [
                    {"key": key, "value": value, "city": CITIES[key % len(CITIES)]}
                ]
                service.insert(records)
            elif op == "delete":
                service.delete(Comparison("key", "between", low=key,
                                          high=min(key + 64, (1 << 12) - 1)))
            elif op == "update":
                service.update(Comparison("key", ">=", key), {"value": value})
            else:
                service.compact(force=True)
        for probe in probes:
            full = services[False].execute(probe)
            pruned = services[True].execute(probe)
            assert pruned.rows == full.rows, (op, probe.name)
            assert pruned.crossbars_scanned <= full.crossbars_scanned


# --------------------------------------------------------- cost-based routing
def _route(query, engine):
    """The router's decision, priced from the engine's estimate and a
    side-effect-free zone-map plan (``None`` without pruning)."""
    stored = engine.stored
    prune = cold_walk(
        stored.statistics, query.predicate, stored.partition_attributes,
        engine.config.pim.crossbars_per_page,
    ) if engine.pruning else None
    return CostPlanner().route(
        query, engine, stored.statistics.estimate(query.predicate), prune
    )


def test_host_scan_route_matches_pim_rows():
    engine = PimQueryEngine(_store(clustered_relation()))
    for query in (POINT, RANGE, NOTHING):
        host = execute_host_scan(engine, query, _route(query, engine))
        pim = engine.execute(query)
        assert host.rows == pim.rows, query.name
        assert host.label.endswith("/host-scan")
        assert host.time_s > 0 or query is NOTHING


def test_cost_planner_prefers_pim_at_scale_and_host_for_small_scans():
    # Serving scale: the PIM path wins on a selective query.
    big = PimQueryEngine(
        _store(clustered_relation()), pruning=True,
        timing_scale=1024.0,
    )
    decision = _route(POINT, big)
    assert decision.target == "pim"
    assert decision.est_pim_time_s < decision.est_host_time_s
    # A small, unscaled relation with a near-unselective scan: the host wins.
    small = PimQueryEngine(_store(clustered_relation()))
    broad = Query(
        "broad", Comparison("value", ">=", 0),
        (Aggregate("sum", "value"), Aggregate("count")),
    )
    decision = _route(broad, small)
    assert decision.target == "host"
    assert 0.9 <= decision.estimated_selectivity <= 1.0


def test_cost_planner_routes_group_by_across_vertical_partitions():
    """The PIM estimator must tolerate attributes spread over partitions.

    Regression: a GROUP-BY whose referenced attributes live in different
    vertical partitions used to KeyError in ``_estimate_pim`` (the host-gb
    residual looked every attribute up in the primary layout).
    """
    engine = PimQueryEngine(
        _store(
            partitioned_relation(),
            partitions=[["key", "value"], ["city"], ["region"]],
        ), pruning=True, timing_scale=64.0,
    )
    grouped = Query(
        "grouped", Comparison("key", "<", 2048),
        (Aggregate("sum", "value"), Aggregate("count")),
        group_by=("city", "region"),
    )
    decision = _route(grouped, engine)
    assert decision.target in ("pim", "host")
    assert decision.est_pim_time_s > 0.0
    assert decision.est_host_time_s > 0.0


def test_pim_estimate_prices_the_aggregation_on_the_primary_partition():
    """The router prices the circuit passes and the result reads where the
    engine aggregates — the partition holding ``value`` — so listing the
    same vertical partitions in another order leaves the estimate alone."""
    query = Query(
        "primary", Comparison("key", "<", 600),
        (Aggregate("sum", "value"), Aggregate("count")),
    )
    estimates = []
    for partitions in (
        [["key", "value", "city"], ["region"]],    # 3 result words, then 2
        [["region"], ["key", "value", "city"]],
    ):
        engine = PimQueryEngine(
            _store(partitioned_relation(), partitions=partitions),
            pruning=True, timing_scale=64.0,
        )
        estimates.append(_route(query, engine).est_pim_time_s)
    assert estimates[0] == pytest.approx(estimates[1], rel=1e-12, abs=0)


def test_service_routes_and_reports_planner_stats():
    service = QueryService()
    service.register("pl", _store(clustered_relation()), timing_scale=1024.0)
    reference = PimQueryEngine(_store(clustered_relation()), timing_scale=1024.0)
    batch = service.execute_batch([POINT, RANGE, NOTHING])
    for execution, query in zip(batch, (POINT, RANGE, NOTHING)):
        assert execution.rows == reference.execute(query).rows
    stats = batch.stats
    assert stats.planner is not None
    assert stats.planner.crossbars_scanned < stats.planner.crossbars_total
    assert stats.planner.pim_queries + stats.planner.host_routed == 3
    assert "planner_pim_queries=" in stats.describe()
    assert "planner_skip_rate=" in stats.describe()


@pytest.mark.parametrize("shards", [1, 4])
def test_each_store_execution_estimates_plans_and_observes_once(
    monkeypatch, shards
):
    """The engine decides a store execution once: one ``estimate``, one
    ``plan`` and one ``observe_execution`` per store, whichever route it
    takes — PIM, host scan or a shard the zone maps rule out."""
    from repro.planner.planner import RelationStatistics

    calls = []
    for method in ("plan", "estimate", "observe_execution"):
        inner = getattr(RelationStatistics, method)
        monkeypatch.setattr(
            RelationStatistics, method,
            lambda self, *args, inner=inner, method=method, **kwargs: (
                calls.append((method, id(self))) or inner(self, *args, **kwargs)
            ),
        )
    broad = Query(
        "broad", Comparison("value", ">=", 0),
        (Aggregate("sum", "value"), Aggregate("count")),
    )
    cases = [
        (POINT, 1024.0, {"pim", "pruned-out"} if shards > 1 else {"pim"}),
        (NOTHING, 1024.0, {"pruned-out"}),
        (broad, 1.0, {"host"}),     # small, unscaled, near-unselective
    ]
    for query, timing_scale, expected_routes in cases:
        service = QueryService()
        service.register_sharded(
            "pl", clustered_relation(), shards=shards, timing_scale=timing_scale
        )
        stores = service.engine().sharded.shards
        calls.clear()
        execution = service.execute(query)
        executions = getattr(execution, "shard_executions", [execution])
        routes = {
            "host" if e.label.endswith("/host-scan")
            else "pruned-out" if e.crossbars_scanned == 0 else "pim"
            for e in executions
        }
        assert routes == expected_routes, query.name
        for stored in stores:
            mine = sorted(m for m, owner in calls if owner == id(stored.statistics))
            assert mine == ["estimate", "observe_execution", "plan"], query.name
        assert len(calls) == 3 * shards
        service.close()


# ----------------------------------------------------------------- satellites
def test_register_sharded_validates_backend_early():
    service = QueryService()
    with pytest.raises(ValueError, match=r"backend='qbit' is not a backend"):
        service.register_sharded(
            "pl", clustered_relation(), config=DEFAULT_CONFIG.with_backend("qbit")
        )
    assert service.relations == []


def test_cache_snapshot_and_describe_report_evictions_and_capacity():
    service = QueryService(cache_capacity=2)
    service.register("pl", _store(clustered_relation()))
    batch = service.execute_batch([POINT, RANGE, POINT])
    snapshot = service.cache_stats()
    assert snapshot.capacity == 2
    assert snapshot.entries is not None and snapshot.entries <= 2
    assert snapshot.lookups > 0
    described = batch.stats.describe()
    assert "program_cache_evictions=" in described
    assert "program_cache_capacity=2" in described

# ----------------------------------------- semantic candidate-set cache (PR 7)
def test_decision_masks_are_read_only_and_memo_uncorrupted():
    """Mutating a returned candidate mask raises; the memo stays intact.

    Decisions are shared with the plan memo, so an engine combining a mask
    in place would silently corrupt every later replay of the predicate.
    """
    cp = DEFAULT_CONFIG.pim.crossbars_per_page
    stored = _store(clustered_relation())
    decision = stored.statistics.plan(
        RANGE.predicate, stored.partition_attributes, cp
    )
    with pytest.raises(ValueError):
        decision.candidates[0][:] = False
    replay = stored.statistics.plan(
        RANGE.predicate, stored.partition_attributes, cp
    )
    cold = cold_walk(
        stored.statistics, RANGE.predicate, stored.partition_attributes, cp
    )
    assert np.array_equal(replay.candidates[0], cold.candidates[0])


def test_candidate_cache_counters_and_replay_billing():
    stored = _store(clustered_relation())
    statistics = stored.statistics
    cp = DEFAULT_CONFIG.pim.crossbars_per_page
    before = statistics.candidate_stats()

    cold = statistics.plan(RANGE.predicate, stored.partition_attributes, cp)
    after_cold = statistics.candidate_stats() - before
    assert cold.entries_checked > 0
    assert after_cold.misses > 0 and after_cold.hits == 0

    replay = statistics.plan(RANGE.predicate, stored.partition_attributes, cp)
    assert replay.entries_checked == 0
    assert np.array_equal(replay.candidates[0], cold.candidates[0])


def test_ssb_replay_under_churn_bills_5x_fewer_entries_than_cold_walk():
    """The 13 SSB templates replayed after each of four rounds of DELETE,
    INSERT and UPDATE: the executions bill >= 5x fewer zone-map entries
    than the uncached cold walk consults for the same templates."""
    from repro.planner.zonemap import CHECK_CYCLES
    from repro.ssb import ALL_QUERIES, QUERY_ORDER, build_ssb_prejoined, generate
    from repro.ssb.prejoined import max_aggregated_width

    relation = build_ssb_prejoined(generate(scale_factor=0.01, skew=0.5, seed=42).database)
    stored = _store(
        relation, aggregation_width=max_aggregated_width(relation),
        reserve_bulk_aggregation=False,
    )
    engine = PimQueryEngine(stored, pruning=True)
    queries = [ALL_QUERIES[name] for name in QUERY_ORDER]
    for query in queries:   # the cold round
        engine.execute(query)
    orderdate = relation.schema.attribute("lo_orderdate")
    orderdates = np.unique(relation.column("lo_orderdate"))
    rng = np.random.default_rng(23)
    billed_s = 0.0
    walked = 0
    for index in range(4):
        # Copies of 8 stored rows, a rotating 2-4 % quantity slice, and one
        # order date x one quantity: each INSERT and UPDATE bumps few epochs.
        records = [
            {name: int(relation.column(name)[i]) for name in relation.schema.names}
            for i in rng.integers(0, len(relation), 8)
        ]
        low = 1 + (index * 11) % 45
        date = orderdate.decode_value(int(orderdates[rng.integers(0, len(orderdates))]))
        update = And((
            Comparison("lo_orderdate", "==", date),
            Comparison("lo_quantity", "==", int(rng.integers(1, 51))),
        ))
        executor = PimExecutor(DEFAULT_CONFIG)
        execute_delete(
            stored, Comparison("lo_quantity", "between", low=low, high=low + 1), executor
        )
        execute_insert(stored, records, executor)
        execute_update(stored, update, {"lo_tax": int(rng.integers(0, 9))}, executor)
        for query in queries:
            billed_s += engine.execute(query).stats.time_by_phase.get("zonemap-check", 0.0)
        walked += sum(
            cold_walk(stored.statistics, query.predicate, stored.partition_attributes,
                      DEFAULT_CONFIG.pim.crossbars_per_page).entries_checked
            for query in queries
        )
    billed = billed_s * DEFAULT_CONFIG.host.frequency_hz / CHECK_CYCLES
    assert walked >= 5 * billed


def test_insert_bumps_only_the_touched_crossbar_epoch():
    stored = _store(clustered_relation())
    statistics = stored.statistics
    cp = DEFAULT_CONFIG.pim.crossbars_per_page
    statistics.plan(RANGE.predicate, stored.partition_attributes, cp)
    epochs_before = statistics.candidates.epochs.copy()

    executor = PimExecutor(DEFAULT_CONFIG)
    execute_insert(stored, [{"key": 101, "value": 3, "city": "OSLO"}], executor)
    changed = np.nonzero(statistics.candidates.epochs != epochs_before)[0]
    assert changed.size == 1

    counters_before = statistics.candidate_stats()
    revalidated = statistics.plan(
        RANGE.predicate, stored.partition_attributes, cp
    )
    delta = statistics.candidate_stats() - counters_before
    # Re-validation re-checks only the one stale crossbar per consulted
    # fragment -- far below the cold walk's pages + surviving * cp entries.
    assert 0 < revalidated.entries_checked <= delta.revalidations
    assert delta.stale_crossbars == revalidated.entries_checked
    cold = cold_walk(statistics, RANGE.predicate, stored.partition_attributes, cp)
    assert revalidated.entries_checked < cold.entries_checked
    assert np.array_equal(revalidated.candidates[0], cold.candidates[0])


def test_delete_invalidates_nothing_yet_narrows_the_live_prefilter():
    """A cached replay after DELETE bills zero entries and still excludes
    the crossbars the DELETE emptied (the live prefilter is applied fresh)."""
    relation = clustered_relation()
    stored = _store(relation)
    statistics = stored.statistics
    cp = DEFAULT_CONFIG.pim.crossbars_per_page
    rows = stored.rows_per_crossbar
    boundary = int(relation.column("key")[rows - 1])
    query = Query(
        "head", Comparison("key", "between", low=0, high=boundary),
        (Aggregate("count"),),
    )
    cold = statistics.plan(query.predicate, stored.partition_attributes, cp)
    assert cold.candidates[0][0]

    executor = PimExecutor(DEFAULT_CONFIG)
    execute_delete(stored, query.predicate, executor)
    counters_before = statistics.candidate_stats()
    replay = statistics.plan(query.predicate, stored.partition_attributes, cp)
    delta = statistics.candidate_stats() - counters_before
    assert replay.entries_checked == 0
    assert delta.revalidations == 0 and delta.stale_crossbars == 0
    assert not replay.candidates[0][0]
    assert int(statistics.zonemaps.live[0]) == 0


def test_note_delete_rejects_negative_live_counts():
    stored = _store(clustered_relation())
    maps = stored.statistics.zonemaps
    slots = np.zeros(int(maps.live[0]) + 1, dtype=np.int64)
    with pytest.raises(AssertionError, match="negative"):
        maps.note_delete(slots)


def test_fragment_cache_lru_eviction():
    stored = _store(clustered_relation())
    cache = CandidateSetCache(stored.statistics.zonemaps, capacity=2)
    cp = DEFAULT_CONFIG.pim.crossbars_per_page
    fragments = [Comparison("key", "<", bound) for bound in (100, 200, 300)]
    for fragment in fragments:
        cache.lookup(fragment, cp)
    stats = cache.stats()
    assert stats.misses == 3 and stats.evictions == 1
    assert len(cache) == 2
    # The evicted (oldest) fragment misses again; the newest still hits.
    _, entries = cache.lookup(fragments[-1], cp)
    assert entries == 0
    _, entries = cache.lookup(fragments[0], cp)
    assert entries > 0


def test_normalize_fragment_canonicalizes_equivalent_predicates():
    swapped = (
        And((Comparison("key", "<", 5), Comparison("value", ">", 1))),
        And((Comparison("value", ">", 1), Comparison("key", "<", 5))),
    )
    assert normalize_fragment(swapped[0]) == normalize_fragment(swapped[1])
    assert normalize_fragment(
        Comparison("value", "in", values=(3, 1, 3))
    ) == normalize_fragment(Comparison("value", "in", values=(1, 3)))
    assert normalize_fragment(
        Comparison("key", "<", 5)
    ) != normalize_fragment(Comparison("key", "<=", 5))


def test_host_scan_selectivity_normalized_by_live_rows():
    """After a DELETE, both routes report the live-row selected fraction."""
    stored = _store(clustered_relation())
    engine = PimQueryEngine(
        stored, config=DEFAULT_CONFIG, pruning=True
    )
    executor = PimExecutor(DEFAULT_CONFIG)
    execute_delete(
        stored, Comparison("value", ">=", 512), executor
    )
    query = Query(
        "q", Comparison("value", "<", 100),
        (Aggregate("sum", "value"), Aggregate("count")),
    )
    live = stored.live_relation()
    expected = float(
        evaluate_predicate(query.predicate, live).sum() / len(live)
    )
    host = execute_host_scan(engine, query, _route(query, engine))
    assert host.selectivity == pytest.approx(expected)
    pim = engine.execute(query)
    assert pim.selectivity == pytest.approx(expected)
    assert host.rows == pim.rows


def test_service_batch_reports_candidate_cache_counters():
    service = QueryService()
    service.register("pl", _store(clustered_relation()), timing_scale=1024.0)
    first = service.execute_batch([POINT, RANGE, NOTHING])
    assert first.stats.planner is not None
    assert first.stats.planner.candidates is not None
    assert first.stats.planner.candidates.misses > 0
    assert "candidate_cache_hits=" in first.stats.describe()
    cold_entries = first.stats.planner.candidates.entries_checked
    # A clean replay never reaches the fragment cache (the whole-plan memo
    # answers), so its batch delta reports no candidate activity at all.
    clean = service.execute_batch([POINT, RANGE, NOTHING])
    assert clean.stats.planner.candidates is None
    # After an INSERT the replay re-assembles, re-validating only the one
    # bumped crossbar per fragment.
    service.insert([{"key": 7, "value": 9, "city": "LYON"}])
    churned = service.execute_batch([POINT, RANGE, NOTHING])
    candidates = churned.stats.planner.candidates
    assert candidates is not None
    assert candidates.misses == 0 and candidates.revalidations > 0
    assert 0 < candidates.entries_checked < cold_entries


# ------------------------------------------- decided once per version: memos
MEMO_QUERY = Query(
    "memo", And((
        Comparison("key", "between", low=0, high=4000),     # fact: no bearing
        Comparison("city", "!=", "LYON"),                   # dim: restricts
    )),
    (Aggregate("sum", "value"), Aggregate("count")),
    group_by=("city",),
)


def _memo_service(shards):
    """A relation holding LYON and OSLO only, unsharded or as four shards."""
    relation = clustered_relation()
    relation.columns["city"] %= 2
    service = QueryService(planner=False)       # always the PIM engines
    if shards == 1:
        engine = service.register("pl", _store(relation), timing_scale=1024.0)
    else:
        engine = service.register_sharded(
            "pl", relation, shards=shards, timing_scale=1024.0
        )
    return service, engine.sharded.shards, engine.shard_engines


def _fresh_candidate_groups(stored, query):
    """``_candidate_groups`` of a new engine over a new store of the same
    slot-aligned ground truth: nothing memoised anywhere."""
    truth = Relation(stored.relation.schema, {
        name: column.copy() for name, column in stored.relation.columns.items()
    })
    return PimQueryEngine(_store(truth))._candidate_groups(query)


@pytest.mark.parametrize("shards", [1, 4])
def test_candidate_domains_follow_every_ground_truth_writer(shards):
    """INSERT of a never-held value, UPDATE to a new value, DELETE + forced
    compaction of a value's last row, DELETE alone: the memoised candidate
    list is the freshly computed one (same order) and the rows are the
    columnar reference's over the live relation."""
    from repro.columnar.engine import ColumnarEngine

    service, stores, engines = _memo_service(shards)
    code = {city: planner_schema().attribute("city").encode_value(city) for city in CITIES}

    def check(expected_cities):
        for _ in range(2):                                  # miss, then hit
            union = set()
            for stored, engine in zip(stores, engines):
                groups = engine._candidate_groups(MEMO_QUERY)
                assert groups == _fresh_candidate_groups(stored, MEMO_QUERY)
                union.update(groups)
            assert union == {(code[city],) for city in expected_cities}
            reference = ColumnarEngine().execute_prejoined(
                MEMO_QUERY, service.engine().sharded.live_relation()
            )
            assert service.execute(MEMO_QUERY).rows == reference.rows

    check({"OSLO"})
    service.insert([{"key": 77, "value": 5, "city": "PERTH"}])
    check({"OSLO", "PERTH"})
    service.update(Comparison("city", "==", "OSLO"), {"city": "QUITO"})
    check({"PERTH", "QUITO"})
    service.delete(Comparison("city", "==", "PERTH"))
    service.compact(force=True)
    check({"QUITO"})
    service.delete(Comparison("key", "<", 500))
    check({"QUITO"})
    service.close()


@pytest.mark.parametrize("shards", [1, 4])
def test_replay_scans_no_catalogue_and_estimates_once(monkeypatch, shards):
    """Between two DML statements a GROUP-BY replay evaluates no ground-truth
    predicate for its candidate domains (the plan memo hits) and does not
    estimate its predicate again; an adaptive histogram rebuild retires the
    estimates and leaves the plans alone."""
    from repro.db import storage

    service, stores, _ = _memo_service(shards)
    scans = []
    monkeypatch.setattr(
        storage, "evaluate_predicate",
        lambda *args, inner=storage.evaluate_predicate: scans.append(1) or inner(*args),
    )
    estimates = []
    for stored in stores:
        model = stored.statistics.selectivity
        monkeypatch.setattr(
            model, "estimate",
            lambda predicate, inner=model.estimate: (
                estimates.append(predicate is MEMO_QUERY.predicate)
                or inner(predicate)
            ),
        )
    first = service.execute(MEMO_QUERY)
    assert len(scans) == len(stores) and sum(estimates) == len(stores)
    replay = service.execute(MEMO_QUERY)
    assert replay.rows == first.rows
    assert replay.total_subgroups == first.total_subgroups
    assert len(scans) == len(stores) and sum(estimates) == len(stores)

    statistics = stores[0].statistics
    probe = Comparison("key", "<", 5)
    before = statistics.estimate(probe)
    while not statistics.observe_execution(probe, 1.0, 0.0, 1, stored=stores[0]):
        pass
    assert statistics.estimate(probe) == statistics.selectivity.estimate(probe) != before
    assert statistics.estimate(MEMO_QUERY.predicate) > 0
    assert sum(estimates) == len(stores) + 1                # re-estimated once
    assert service.execute(MEMO_QUERY).rows == first.rows
    assert len(scans) == len(stores)                        # plans stand
    service.close()


@pytest.mark.parametrize("counted_below", [1 << 16, 0])
def test_group_domain_is_the_sorted_distinct_selected_values(
    monkeypatch, counted_below
):
    """Counted (``bincount``) or sorted (``np.unique``): the domain is the
    sorted distinct values under the conjuncts, the whole column's when they
    select nothing."""
    from repro.db import storage

    monkeypatch.setattr(storage, "_COUNTED_DOMAIN", counted_below)
    relation = clustered_relation()
    stored = _store(relation)
    for attribute, conjuncts in [
        ("city", ()),
        ("city", (Comparison("key", "<", 40),)),
        ("key", (Comparison("city", "==", "PERTH"),)),
        ("value", (Comparison("key", ">", 1 << 13),)),      # selects nothing
    ]:
        selected = evaluate_predicate(And(conjuncts), relation) if conjuncts else (
            np.ones(len(relation), dtype=bool)
        )
        values = relation.column(attribute)[selected]
        expected = np.unique(values if values.size else relation.column(attribute))
        assert stored.group_domain(attribute, conjuncts) == tuple(expected.tolist())


def test_memos_stay_within_their_capacity():
    from repro.core.executor import _PLAN_MEMO_CAPACITY
    from repro.planner.planner import _PLAN_CACHE_CAPACITY

    stored = _store(clustered_relation())
    statistics = stored.statistics
    predicates = [Comparison("key", "<=", bound) for bound in range(1000)]
    for predicate in predicates:
        assert statistics.estimate(predicate) == statistics.selectivity.estimate(predicate)
        assert len(statistics._estimate_cache) <= _PLAN_CACHE_CAPACITY
    assert len(statistics._estimate_cache) == _PLAN_CACHE_CAPACITY

    engine = PimQueryEngine(stored)
    queries = [
        Query(f"memo{bound}", Comparison("key", "<=", 50 * bound),
              MEMO_QUERY.aggregates, group_by=("city",))
        for bound in range(_PLAN_MEMO_CAPACITY + 8)
    ]
    for query in queries:
        engine.execute(query)
        assert len(engine._plans) <= _PLAN_MEMO_CAPACITY
    assert len(engine._plans) == _PLAN_MEMO_CAPACITY
    memoised = {key[1] for key in engine._plans}
    assert queries[-1].predicate in memoised
    assert queries[0].predicate not in memoised


#: Two GROUP-BY probes of the hit-equals-miss test, on different columns.
MEMO_PROBES = (
    MEMO_QUERY,
    Query(
        "memo-value", Comparison("key", "<", 3000),
        (Aggregate("max", "value"), Aggregate("count")),
        group_by=("city",),
    ),
)


@pytest.mark.parametrize("shards", [1, 4])
def test_plan_memo_hit_equals_miss_under_every_writer(monkeypatch, shards):
    """Two services with one op history, one of them planning every
    execution afresh (its engines' plan memos cleared before each): after
    every INSERT, UPDATE, DELETE, forced compaction and GROUP-BY probe they
    agree on rows, ``PimStats``, plan and state digest.  Over three replays
    the memoising service samples once per (store, query, data version):
    again only on the stores whose data version a statement moved."""
    from repro.core import executor as core_executor

    memo, memo_stores, _ = _memo_service(shards)
    cold, cold_stores, cold_engines = _memo_service(shards)
    probing = [None]
    sampled = {id(memo): [], id(cold): []}
    owner = {id(s): (id(memo), i) for i, s in enumerate(memo_stores)}
    owner.update({id(s): (id(cold), i) for i, s in enumerate(cold_stores)})

    def counting(stored, *args, inner=core_executor.estimate_subgroups, **kwargs):
        service, index = owner[id(stored)]
        sampled[service].append((index, stored._data_version, probing[0]))
        return inner(stored, *args, **kwargs)

    monkeypatch.setattr(core_executor, "estimate_subgroups", counting)

    def agree():
        assert memo.state_digest("pl") == cold.state_digest("pl")
        for query in MEMO_PROBES:
            probing[0] = query.name
            for _ in range(3):
                for engine in cold_engines:
                    engine._plans.clear()
                hit, miss = memo.execute(query), cold.execute(query)
                assert hit.rows == miss.rows
                assert hit.stats == miss.stats
                assert hit.plan == miss.plan
                assert memo.state_digest("pl") == cold.state_digest("pl")

    statements = [
        lambda s: s.insert([{"key": 77, "value": 5, "city": "PERTH"}]),
        lambda s: s.update(Comparison("city", "==", "OSLO"), {"city": "QUITO"}),
        lambda s: s.delete(Comparison("key", "<", 500)),
        lambda s: s.compact(force=True),
        lambda s: s.delete(Comparison("city", "==", "PERTH")),
    ]
    agree()
    planned = sampled[id(memo)]
    moved_some = False
    for statement in statements:
        before = [stored._data_version for stored in memo_stores]
        statement(memo)
        statement(cold)
        moved = {
            index for index, stored in enumerate(memo_stores)
            if stored._data_version != before[index]
        }
        moved_some |= 0 < len(moved) < shards
        count = len(planned)
        agree()
        assert {index for index, _, _ in planned[count:]} <= moved
    if shards > 1:
        assert moved_some                   # some statement left a store alone
    assert len(planned) == len(set(planned))
    assert set(sampled[id(cold)]) == set(planned)
    memo.close()
    cold.close()
