"""Tests of the end-to-end PIM query engine on the toy relation."""

import pytest
from twins import all_pim_cost_model, reference_group_aggregate

from repro.config import DEFAULT_CONFIG
from repro.core.executor import PimQueryEngine
from repro.db.query import (
    Aggregate,
    And,
    BETWEEN,
    Comparison,
    EQ,
    IN,
    Query,
    evaluate_predicate,
)
from repro.db.storage import StoredRelation
from repro.pim.module import PimModule


FILTER = And((
    Comparison("region", IN, values=("ASIA", "EUROPE")),
    Comparison("year", BETWEEN, low=1993, high=1996),
    Comparison("discount", ">=", 2),
))


def _engine(relation, partitions=None, config=None, **kwargs):
    system = config if config is not None else DEFAULT_CONFIG
    module = PimModule(system)
    stored = StoredRelation(
        relation, module, label="engine-test",
        partitions=partitions, aggregation_width=22,
        reserve_bulk_aggregation=not system.pim.aggregation_circuit.enabled,
    )
    return PimQueryEngine(stored, config=system, **kwargs)


TWO_XB = [["key", "price", "discount", "quantity"], ["city", "region", "year"]]


def _reference(relation, query):
    mask = evaluate_predicate(query.predicate, relation)
    return reference_group_aggregate(relation, mask, query.group_by, query.aggregates)


def test_scalar_aggregation_matches_reference(toy_relation):
    query = Query("scalar", FILTER,
                  (Aggregate("sum", "price"), Aggregate("count"),
                   Aggregate("min", "price"), Aggregate("max", "price")))
    engine = _engine(toy_relation)
    execution = engine.execute(query)
    reference = _reference(toy_relation, query)[()]
    assert execution.rows[()] == reference
    assert execution.scalar("count") == reference["count"]
    assert 0 < execution.selectivity < 1
    assert execution.time_s > 0 and execution.energy_j > 0
    assert execution.max_writes_per_row > 0
    with pytest.raises(ValueError):
        # decoded access of grouped results on a scalar query is fine, but
        # scalar() on a grouped query is not; exercise the error path below.
        _engine(toy_relation).execute(
            Query("g", FILTER, (Aggregate("sum", "price"),), group_by=("city",))
        ).scalar()


@pytest.mark.parametrize("partitions", [None, TWO_XB])
def test_group_by_matches_reference(toy_relation, partitions):
    query = Query("groupby", FILTER, (Aggregate("sum", "price"), Aggregate("count")),
                  group_by=("city", "year"))
    engine = _engine(toy_relation, partitions=partitions,
                     label="two_xb" if partitions else "one_xb")
    execution = engine.execute(query)
    assert execution.rows == _reference(toy_relation, query)
    assert execution.total_subgroups >= execution.subgroups_in_sample
    assert execution.pim_subgroups <= execution.total_subgroups
    assert execution.plan is not None


def test_group_by_without_aggregation_circuit(toy_relation):
    query = Query("pimdb-like", FILTER, (Aggregate("sum", "price"),), group_by=("region",))
    engine = _engine(toy_relation, config=DEFAULT_CONFIG.without_aggregation_circuit(),
                     label="pimdb")
    execution = engine.execute(query)
    assert execution.rows == _reference(toy_relation, query)


def test_timing_scale_changes_costs_not_results(toy_relation):
    query = Query("scaled", FILTER, (Aggregate("sum", "price"),), group_by=("city",))
    small = _engine(toy_relation, timing_scale=1.0).execute(query)
    large = _engine(toy_relation, timing_scale=500.0).execute(query)
    assert small.rows == large.rows
    assert large.time_s > small.time_s
    assert large.energy_j > small.energy_j
    with pytest.raises(ValueError):
        _engine(toy_relation, timing_scale=0.0)


def test_forced_pim_only_and_host_only_plans(toy_relation):
    """Degenerate cost models force all-PIM or all-host plans; both are exact."""
    from repro.core.latency_model import GroupByCostModel, HostGbLatencyModel, PimGbLatencyModel

    query = Query("forced", FILTER, (Aggregate("sum", "price"),), group_by=("city",))
    reference = _reference(toy_relation, query)

    all_pim = _engine(toy_relation, cost_model=all_pim_cost_model()).execute(query)
    assert all_pim.pim_subgroups == all_pim.total_subgroups
    assert all_pim.rows == reference

    all_host_model = GroupByCostModel(
        HostGbLatencyModel({2: 0.0}, {2: 0.0}),      # host free
        PimGbLatencyModel({2: 1.0}, {2: 1.0}),       # PIM absurdly expensive
    )
    all_host = _engine(toy_relation, cost_model=all_host_model).execute(query)
    assert all_host.pim_subgroups == 0
    assert all_host.rows == reference


def test_empty_result_query(toy_relation):
    query = Query("empty", Comparison("city", EQ, "CITYX"),
                  (Aggregate("sum", "price"),), group_by=("year",))
    execution = _engine(toy_relation).execute(query)
    assert execution.rows == {}
    assert execution.selectivity == 0.0


def test_aggregates_across_partitions_rejected(toy_relation):
    query = Query("bad", FILTER,
                  (Aggregate("sum", "price"), Aggregate("sum", "year")))
    engine = _engine(toy_relation, partitions=TWO_XB)
    with pytest.raises(NotImplementedError):
        engine.execute(query)


def test_decoded_rows_translate_group_keys(toy_relation):
    query = Query("decode", FILTER, (Aggregate("sum", "price"),), group_by=("region",))
    execution = _engine(toy_relation).execute(query)
    decoded = execution.decoded_rows(toy_relation.schema)
    assert all(key[0] in ("ASIA", "EUROPE") for key in decoded)
    assert sum(v["sum_price"] for v in decoded.values()) == sum(
        v["sum_price"] for v in execution.rows.values()
    )
