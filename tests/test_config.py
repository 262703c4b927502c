"""Tests of the Table I configuration objects."""

import dataclasses

import pytest

from repro.config import DEFAULT_CONFIG, EXECUTIONS, SystemConfig, table1_rows


def test_crossbar_geometry_matches_table1():
    xbar = DEFAULT_CONFIG.pim.crossbar
    assert xbar.rows == 1024
    assert xbar.columns == 512
    assert xbar.read_width_bits == 16
    assert xbar.logic_cycle_s == pytest.approx(30e-9)
    assert xbar.bits == 1024 * 512
    assert xbar.row_bytes == 64


def test_module_derived_geometry():
    pim = DEFAULT_CONFIG.pim
    assert pim.crossbars_per_page == 32
    assert pim.records_per_page == 32 * 1024
    assert pim.pages_total == 32 * 1024 ** 3 // (2 * 1024 ** 2)


def test_host_and_columnar_configuration():
    host = DEFAULT_CONFIG.host
    assert host.cores == 6
    assert host.query_threads == 4
    assert host.dram_bw_bytes_per_s < host.dram_peak_bw_bytes_per_s
    columnar = DEFAULT_CONFIG.columnar
    assert columnar.total_cores == 32
    assert columnar.dram_bw_bytes_per_s > 0


def test_without_aggregation_circuit_only_changes_the_circuit():
    pimdb = DEFAULT_CONFIG.without_aggregation_circuit()
    assert not pimdb.pim.aggregation_circuit.enabled
    assert DEFAULT_CONFIG.pim.aggregation_circuit.enabled
    assert pimdb.pim.crossbar == DEFAULT_CONFIG.pim.crossbar
    assert pimdb.host == DEFAULT_CONFIG.host


def test_replace_returns_modified_copy():
    changed = DEFAULT_CONFIG.replace(host=dataclasses.replace(DEFAULT_CONFIG.host, cores=8))
    assert changed.host.cores == 8
    assert DEFAULT_CONFIG.host.cores == 6


def test_table1_rows_cover_both_sections():
    rows = table1_rows()
    sections = {section for section, _, _ in rows}
    assert sections == {"Single RRAM PIM Module", "Evaluation System"}
    parameters = {parameter for _, parameter, _ in rows}
    assert "Crossbar read" in parameters
    assert "Coherence protocol" in parameters


def test_execution_has_exactly_two_bundles():
    assert EXECUTIONS == ("batched", "dispatch")
    for execution in EXECUTIONS:
        assert SystemConfig(execution=execution).execution == execution
    with pytest.raises(ValueError, match=r"'fused'.*'batched', 'dispatch'"):
        SystemConfig(execution="fused")


def test_retired_environment_switches_change_no_default(
    monkeypatch, toy_relation_factory
):
    """``REPRO_EXECUTION``/``REPRO_DML`` used to pick the strategy and the
    DML mode; neither is read any more — whatever they hold."""
    from repro.db.dml import execute_delete
    from repro.db.query import Comparison
    from repro.db.storage import StoredRelation
    from repro.pim.controller import PimExecutor
    from repro.pim.module import PimModule

    for execution, dml in (("dispatch", "broadcast"), ("no-such", "no-such")):
        monkeypatch.setenv("REPRO_EXECUTION", execution)
        monkeypatch.setenv("REPRO_DML", dml)
        config = SystemConfig()
        assert config.execution == "batched"
        assert PimExecutor(config).batched
    # DML runs pruned: it consults (and bills) the zone maps.
    toy_stored = StoredRelation(
        toy_relation_factory(), PimModule(DEFAULT_CONFIG), label="toy"
    )
    executor = PimExecutor(DEFAULT_CONFIG)
    execute_delete(toy_stored, Comparison("key", "<", 10), executor)
    assert executor.stats.time_by_phase["zonemap-check"] > 0


_REMOVED_KEYWORDS = [
    ("QueryService", "vectorized"),
    ("PimQueryEngine", "vectorized"),
    ("ShardedQueryEngine", "vectorized"),
    ("execute_delete", "vectorized"),
    ("PimQueryEngine", "filter_stage"),
    ("PimQueryEngine", "group_stage"),
    ("PimQueryEngine", "aggregation_stage"),
    ("execute_delete", "timing_scale"),
    ("execute_compaction", "timing_scale"),
    ("QueryService", "cache"),
    ("compile_predicate", "combine_with_valid"),
    ("run_program_pruned", "clear_phase"),
    ("charge_pruned_program_cost", "clear_phase"),
    ("charge_pim_reads", "component"),
    ("register_sharded", "backend"),
    ("aggregate_bulk_bitwise", "gate_level"),
    ("execute_delete", "pruned"),
    ("execute_update", "pruned"),
    ("QueryService.delete", "pruned"),
    ("QueryService.update", "pruned"),
    ("execute_insert", "phase"),
    ("PimExecutor", "tracer"),
    ("PimQueryEngine.execute", "executor"),
    ("ShardedQueryEngine.execute", "executor"),
    ("ShardedQueryEngine", "max_workers"),
    ("RelationStatistics.plan", "peek"),
]


@pytest.mark.parametrize(
    ("target", "keyword"),
    [
        # The first four keep their historical ids (the ``vectorized`` mode).
        pytest.param(target, keyword, id=target if keyword == "vectorized"
                     else f"{target}-{keyword}")
        for target, keyword in _REMOVED_KEYWORDS
    ],
)
def test_vectorized_keyword_is_removed_not_ignored(target, keyword):
    """Removed keywords raise instead of being silently ignored.

    ``vectorized``: there is one evaluator per program.  ``pruned``: DELETE
    and UPDATE always run zone-map-pruned.  ``executor``: every execution
    makes its own executors.  ``max_workers``: the sharded engine runs its
    shards as a loop and takes the service's pool or none.  ``peek``: the
    engine plans once per execution, so no caller defers the billing.  The others were
    settable values no caller set; each is now a constant.  Python rejects an unknown
    keyword before the body runs, so placeholders suffice.
    """
    from repro.core.executor import PimQueryEngine
    from repro.db.compiler import compile_predicate
    from repro.db.dml import execute_compaction, execute_delete, execute_insert
    from repro.db.update import execute_update
    from repro.pim.controller import PimExecutor
    from repro.planner.planner import RelationStatistics
    from repro.service import QueryService
    from repro.sharding import ShardedQueryEngine

    executor = PimExecutor(DEFAULT_CONFIG)
    calls = {
        "QueryService": QueryService,
        "PimQueryEngine": lambda **kw: PimQueryEngine(None, **kw),
        "ShardedQueryEngine": lambda **kw: ShardedQueryEngine(None, **kw),
        "PimQueryEngine.execute": lambda **kw: PimQueryEngine.execute(None, None, **kw),
        "ShardedQueryEngine.execute": lambda **kw: ShardedQueryEngine.execute(
            None, None, **kw
        ),
        "execute_delete": lambda **kw: execute_delete(None, None, None, **kw),
        "execute_compaction": lambda **kw: execute_compaction(None, None, **kw),
        "execute_update": lambda **kw: execute_update(None, None, None, None, **kw),
        "QueryService.delete": lambda **kw: QueryService().delete(None, **kw),
        "QueryService.update": lambda **kw: QueryService().update(None, None, **kw),
        "execute_insert": lambda **kw: execute_insert(None, None, None, **kw),
        "PimExecutor": lambda **kw: PimExecutor(DEFAULT_CONFIG, **kw),
        "compile_predicate": lambda **kw: compile_predicate(None, None, None, **kw),
        "run_program_pruned": lambda **kw: executor.run_program_pruned(
            None, None, None, 1, "filter", **kw
        ),
        "charge_pruned_program_cost": lambda **kw: executor.charge_pruned_program_cost(
            None, None, None, 1, "filter", **kw
        ),
        "charge_pim_reads": lambda **kw: executor.charge_pim_reads(8, **kw),
        "register_sharded": lambda **kw: QueryService().register_sharded(
            "toy", None, **kw
        ),
        "aggregate_bulk_bitwise": lambda **kw: executor.aggregate_bulk_bitwise(
            None, None, 1, **kw
        ),
        "RelationStatistics.plan": lambda **kw: RelationStatistics.plan(
            None, None, None, 1, **kw
        ),
    }
    with pytest.raises(TypeError, match=keyword):
        calls[target](**{keyword: True})
