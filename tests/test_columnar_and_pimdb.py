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


@pytest.mark.parametrize("name", ["Q1.1", "Q2.3", "Q3.4"])
def test_pimdb_reduction_decodes_no_field(ssb_prejoined, ssb_one_xb_engine, monkeypatch, name):
    """Every subgroup through pim-gb on pimdb: no ``read_field_all`` call
    during the whole execution — the bulk-bitwise reduction, and the batched
    pim-gb that charges it, read the masked cells only — and the rows equal
    one_xb's."""
    from twins import all_pim_cost_model

    from repro.core.executor import PimQueryEngine
    from repro.pim.crossbar import CrossbarBank
    from repro.pim.packed import PackedCrossbarBank
    from repro.ssb.prejoined import max_aggregated_width

    _, stored = build_pimdb_engine(
        ssb_prejoined, aggregation_width=max_aggregated_width(ssb_prejoined)
    )
    engine = PimQueryEngine(
        stored, config=DEFAULT_CONFIG.without_aggregation_circuit(), label="pimdb",
        cost_model=all_pim_cost_model(), timing_scale=100.0,
    )
    decodes = []
    for bank_type in (CrossbarBank, PackedCrossbarBank):
        def counted(bank, *args, _read=bank_type.read_field_all):
            decodes.append(args)
            return _read(bank, *args)
        monkeypatch.setattr(bank_type, "read_field_all", counted)

    query = ALL_QUERIES[name]
    execution = engine.execute(query)
    assert execution.pim_subgroups == execution.total_subgroups > 0
    assert decodes == []
    assert execution.rows == ssb_one_xb_engine.execute(query).rows


def test_pimdb_harness_builds_no_per_subgroup_program(monkeypatch):
    """pimdb's ``run_all_queries`` (SF 0.002, seed 42) runs the batched
    pim-gb: no per-key ``group_program`` or ``combine_program`` is compiled,
    and every program lowered is a WHERE clause's (the per-subgroup loop
    lowered one program per subgroup and partition)."""
    from repro.core.program_cache import ProgramCache
    from repro.experiments.common import build_setup, run_all_queries
    from repro.pim import ir

    setup = build_setup(scale_factor=0.002, seed=42, configs=("pimdb",))
    built = {"group": 0, "combine": 0}
    handed_out = set()
    lowered = []

    def counting(kind, method):
        def wrapper(cache, *args, **kwargs):
            built[kind] += 1
            return method(cache, *args, **kwargs)
        return wrapper

    def recording(method):
        def wrapper(cache, *args, **kwargs):
            program = method(cache, *args, **kwargs)
            handed_out.add(id(program))
            return program
        return wrapper

    def lower(program, _lower=ir.lower_program):
        lowered.append(program)
        return _lower(program)

    monkeypatch.setattr(ProgramCache, "group_program",
                        counting("group", ProgramCache.group_program))
    monkeypatch.setattr(ProgramCache, "combine_program",
                        counting("combine", ProgramCache.combine_program))
    monkeypatch.setattr(ProgramCache, "filter_program",
                        recording(ProgramCache.filter_program))
    monkeypatch.setattr(ir, "lower_program", lower)

    records = run_all_queries(setup)
    assert sum(record.pim_subgroups for record in records) > 100
    assert built == {"group": 0, "combine": 0}
    assert lowered and all(id(program) in handed_out for program in lowered)
