"""Property-based tests of storage round-trips and planner invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from twins import reference_group_aggregate

from repro.config import DEFAULT_CONFIG
from repro.core.groupby import GroupByPlanner
from repro.core.latency_model import GroupByCostModel, HostGbLatencyModel, PimGbLatencyModel
from repro.core.sampling import SubgroupEstimate
from repro.db.query import (
    Aggregate,
    Comparison,
    Query,
    evaluate_predicate,
)
from repro.db.relation import Relation
from repro.db.schema import Schema, int_attribute
from repro.db.storage import StoredRelation
from repro.pim.module import PimModule
from repro.planner.planner import cold_walk
from repro.service import QueryService


# --------------------------------------------------------- storage round-trip
widths_strategy = st.lists(st.integers(min_value=1, max_value=32), min_size=1, max_size=6)


@settings(max_examples=15, deadline=None)
@given(widths=widths_strategy, records=st.integers(min_value=1, max_value=300),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_store_and_decode_roundtrip(widths, records, seed):
    rng = np.random.default_rng(seed)
    attributes = [int_attribute(f"a{i}", width) for i, width in enumerate(widths)]
    columns = {
        f"a{i}": (rng.integers(0, 1 << 32, records).astype(np.uint64)
                  & np.uint64((1 << width) - 1))
        for i, width in enumerate(widths)
    }
    relation = Relation(Schema("prop", attributes), columns)
    module = PimModule(DEFAULT_CONFIG)
    stored = StoredRelation(relation, module, label="prop")
    for name in relation.schema.names:
        assert np.array_equal(stored.decode_column(name), relation.column(name))
    assert stored.valid_mask().sum() == records


# ----------------------------------------------------------- r(k) monotonicity
fractions_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=20
)


def _estimate_from(fractions, selectivity):
    total = sum(fractions)
    if total > 0:
        fractions = [f / total for f in fractions]
    ordered = sorted(range(len(fractions)), key=lambda i: fractions[i], reverse=True)
    groups = [(i,) for i in ordered]
    return SubgroupEstimate(
        ordered_groups=groups,
        group_fractions={(i,): fractions[i] for i in ordered},
        selectivity=selectivity,
        sample_size=1000,
        sample_selected=int(1000 * selectivity),
        observed_subgroups=len(groups),
    )


@settings(max_examples=40, deadline=None)
@given(fractions=fractions_strategy,
       selectivity=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_remaining_ratio_is_monotone_and_bounded(fractions, selectivity):
    estimate = _estimate_from(fractions, selectivity)
    previous = estimate.remaining_ratio(0)
    assert previous == pytest.approx(selectivity)
    for k in range(1, len(fractions) + 2):
        current = estimate.remaining_ratio(k)
        assert 0.0 <= current <= previous + 1e-12
        previous = current


# --------------------------------------------------------- planner optimality
@settings(max_examples=30, deadline=None)
@given(fractions=fractions_strategy,
       selectivity=st.floats(min_value=0.001, max_value=0.5, allow_nan=False),
       pim_slope=st.floats(min_value=1e-9, max_value=1e-5),
       host_a=st.floats(min_value=1e-7, max_value=1e-3))
def test_planner_choice_is_no_worse_than_extremes(fractions, selectivity, pim_slope, host_a):
    estimate = _estimate_from(fractions, selectivity)
    model = GroupByCostModel(
        HostGbLatencyModel({4: host_a}, {4: host_a / 10}),
        PimGbLatencyModel({2: pim_slope}, {2: 1e-5}),
    )
    planner = GroupByPlanner(model)
    plan = planner.plan(estimate, pages=500, aggregation_reads=2, reads_per_record=4)
    assert plan.k <= plan.total_subgroups
    assert plan.predicted_time_s <= plan.predicted_host_only_s + 1e-12
    assert plan.predicted_time_s <= plan.predicted_pim_only_s + 1e-12
    assert plan.host_pass_needed == (plan.k < plan.total_subgroups)
    # The chosen subgroups are the largest estimated ones.
    chosen = plan.pim_groups
    if chosen:
        chosen_fracs = [estimate.group_fractions.get(key, 0.0) for key in chosen]
        remaining = [estimate.group_fractions.get(key, 0.0)
                     for key in estimate.ordered_groups[plan.k:]]
        if remaining:
            assert min(chosen_fracs) >= max(remaining) - 1e-12


# --------------------------------------- semantic candidate cache under churn
CHURN_RECORDS = 900

CHURN_PROBES = (
    Query(
        "scalar",
        Comparison("value", "<", 2000),
        (Aggregate("sum", "value"), Aggregate("count")),
    ),
    Query(
        "by-flag",
        Comparison("value", "between", low=500, high=3500),
        (Aggregate("sum", "value"), Aggregate("min", "value"),
         Aggregate("count")),
        group_by=("flag",),
    ),
)

churn_op_strategy = st.one_of(
    st.tuples(st.just("insert"), st.integers(min_value=1, max_value=4),
              st.integers(min_value=0, max_value=2 ** 16)),
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=3800),
              st.integers(min_value=50, max_value=600)),
    st.tuples(st.just("update"), st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=4095)),
    st.tuples(st.just("compact")),
)


def _churn_relation(seed: int) -> Relation:
    rng = np.random.default_rng(seed)
    schema = Schema("churn", [
        int_attribute("key", 16),
        int_attribute("value", 12),
        int_attribute("flag", 2),
    ])
    return Relation(schema, {
        "key": rng.integers(0, 1 << 16, CHURN_RECORDS).astype(np.uint64),
        "value": rng.integers(0, 1 << 12, CHURN_RECORDS).astype(np.uint64),
        "flag": rng.integers(0, 4, CHURN_RECORDS).astype(np.uint64),
    })


def _churn_storeds(service, shards):
    return list(service.engine().sharded.shards)


def _assert_cached_plan_matches_cold_walk(service, shards) -> None:
    """Cached/re-validated decisions == a cold walk of the same zone maps."""
    for stored in _churn_storeds(service, shards):
        statistics = stored.statistics
        crossbars_per_page = (
            stored.module.system_config.pim.crossbars_per_page
        )
        assert int(statistics.zonemaps.live.min()) >= 0
        for query in CHURN_PROBES:
            cached = statistics.plan(
                query.predicate, stored.partition_attributes,
                crossbars_per_page,
            )
            cold = cold_walk(
                statistics, query.predicate, stored.partition_attributes,
                crossbars_per_page,
            )
            assert len(cached.candidates) == len(cold.candidates)
            for have, want in zip(cached.candidates, cold.candidates):
                assert np.array_equal(have, want)


def _apply_churn_op(service, shards, op) -> None:
    kind = op[0]
    if kind == "insert":
        _, count, value_seed = op
        storeds = _churn_storeds(service, shards)
        free = sum(s.free_slots for s in storeds)
        record_rng = np.random.default_rng(value_seed)
        records = [
            {
                "key": int(record_rng.integers(0, 1 << 16)),
                "value": int(record_rng.integers(0, 1 << 12)),
                "flag": int(record_rng.integers(0, 4)),
            }
            for _ in range(min(count, free))
        ]
        if records:
            service.insert(records)
    elif kind == "delete":
        _, low, span = op
        service.delete(Comparison("value", "between", low=low, high=low + span))
    elif kind == "update":
        _, flag, new_value = op
        service.update(Comparison("flag", "==", flag), {"value": new_value})
    else:
        service.compact(force=True)


@settings(max_examples=6, deadline=None)
@given(ops=st.lists(churn_op_strategy, min_size=3, max_size=6),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_candidate_cache_bit_exact_under_churn(ops, seed):
    """INSERT/DELETE/UPDATE/compaction churn at K=1 and K=4, both backends.

    After every op, on every backend and shard count: the probe rows are
    bit-exact with a reference aggregation over the live ground truth, an
    immediate replay (the cached decision) returns identical rows, every
    cached/re-validated plan equals a cold walk over the same maintained
    zone maps, and no live counter ever goes negative.
    """
    rows_by_backend = {}
    for backend in ("packed", "bool"):
        trace = []
        for shards in (1, 4):
            service = QueryService()
            relation = _churn_relation(seed)
            if shards == 1:
                system = DEFAULT_CONFIG.with_backend(backend)
                stored = StoredRelation(
                    relation, PimModule(system), label="churn"
                )
                service.register("churn", stored, config=system)
            else:
                service.register_sharded(
                    "churn", relation, shards=shards,
                    config=DEFAULT_CONFIG.with_backend(backend),
                )
            for op in ops:
                _apply_churn_op(service, shards, op)
                live = service.engine().sharded.live_relation()
                for query in CHURN_PROBES:
                    execution = service.execute(query)
                    expected = reference_group_aggregate(
                        live, evaluate_predicate(query.predicate, live),
                        query.group_by, query.aggregates,
                    )
                    assert execution.rows == expected
                    replay = service.execute(query)
                    assert replay.rows == execution.rows
                    trace.append(sorted(execution.rows.items()))
                _assert_cached_plan_matches_cold_walk(service, shards)
        rows_by_backend[backend] = trace
    assert rows_by_backend["packed"] == rows_by_backend["bool"]
