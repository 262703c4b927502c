"""Tests of the columnar baseline engine and the PIMDB baseline wrapper."""

import pytest
from twins import reference_group_aggregate

from repro.baselines import build_pimdb_engine
from repro.columnar import ColumnarEngine
from repro.columnar.cost import ColumnarCost
from repro.config import DEFAULT_CONFIG
from repro.db.query import (
    Aggregate,
    Comparison,
    EQ,
    Query,
    evaluate_predicate,
)
from repro.ssb import ALL_QUERIES
from repro.ssb.prejoined import DERIVED_ATTRIBUTES


def test_columnar_cost_model_arithmetic():
    cost = ColumnarCost(bytes_scanned=1e9, values_touched=1e8, hash_probes=1e7,
                        group_updates=1e6)
    server = DEFAULT_CONFIG.columnar
    assert cost.memory_time_s(server) == pytest.approx(1e9 / server.dram_bw_bytes_per_s)
    assert cost.cpu_time_s(server) > 0
    assert cost.time_s(server) == max(cost.memory_time_s(server), cost.cpu_time_s(server))
    doubled = cost.scaled(2.0)
    assert doubled.bytes_scanned == 2e9
    merged = ColumnarCost().add(cost).add(cost)
    assert merged.hash_probes == 2e7
    assert "time_s" in cost.breakdown(server)


def test_prejoined_and_star_agree_with_reference(ssb_dataset, ssb_prejoined):
    engine = ColumnarEngine(DEFAULT_CONFIG, derived=DERIVED_ATTRIBUTES)
    for name in ("Q1.1", "Q2.1", "Q3.2", "Q4.1"):
        query = ALL_QUERIES[name]
        mask = evaluate_predicate(query.predicate, ssb_prejoined)
        reference = reference_group_aggregate(
            ssb_prejoined, mask, query.group_by, query.aggregates
        )
        flat = engine.execute_prejoined(query, ssb_prejoined)
        star = engine.execute_star(query, ssb_dataset.database)
        assert flat.rows == reference, name
        assert star.rows == reference, name
        assert flat.time_s > 0 and star.time_s > 0
        # The star plan pays for the joins the pre-joined plan avoids.
        assert star.cost.hash_probes > flat.cost.hash_probes


def test_workload_scale_only_scales_cost(ssb_prejoined):
    query = ALL_QUERIES["Q1.1"]
    base = ColumnarEngine(DEFAULT_CONFIG, derived=DERIVED_ATTRIBUTES)
    scaled = ColumnarEngine(DEFAULT_CONFIG, derived=DERIVED_ATTRIBUTES, workload_scale=100)
    a = base.execute_prejoined(query, ssb_prejoined)
    b = scaled.execute_prejoined(query, ssb_prejoined)
    assert a.rows == b.rows
    assert b.time_s > a.time_s
    with pytest.raises(ValueError):
        ColumnarEngine(workload_scale=0)


def test_star_plan_requires_single_relation_conjuncts(ssb_dataset):
    engine = ColumnarEngine(DEFAULT_CONFIG)
    bad = Query(
        "bad",
        Comparison("lo_quantity", "<", 10),
        (Aggregate("sum", "lo_revenue"),),
    )
    # A valid fact-only query works...
    result = engine.execute_star(bad, ssb_dataset.database)
    assert result.rows
    # ...but a conjunct spanning relations is rejected.
    from repro.db.query import Or

    spanning = Query(
        "spanning",
        Or((Comparison("lo_quantity", "<", 10), Comparison("c_region", EQ, "ASIA"))),
        (Aggregate("sum", "lo_revenue"),),
    )
    with pytest.raises(ValueError):
        engine.execute_star(spanning, ssb_dataset.database)


def test_pimdb_engine_configuration(ssb_prejoined):
    engine, stored = build_pimdb_engine(ssb_prejoined, aggregation_width=28)
    assert engine.label == "pimdb"
    assert not engine.use_aggregation_circuit
    assert stored.layouts[0].operand_offset is not None
    query = ALL_QUERIES["Q1.2"]
    execution = engine.execute(query)
    mask = evaluate_predicate(query.predicate, ssb_prejoined)
    expected = int(ssb_prejoined.column("lo_revenue_discounted")[mask].sum())
    assert execution.scalar("revenue") == expected
