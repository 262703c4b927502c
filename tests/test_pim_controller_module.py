"""Tests of the PIM executor accounting and the module allocator."""

import numpy as np
import pytest
from twins import aggregation_pass

from repro.config import DEFAULT_CONFIG
from repro.pim.arithmetic import aggregate_reference
from repro.pim.controller import PimExecutor, every_crossbar
from repro.pim.logic import ProgramBuilder
from repro.pim.packed import GATHER_MAX_SHARE, make_bank
from repro.pim.module import OutOfPimMemoryError, PimModule
from repro.pim.stats import PimStats


def _bank(count=2, rows=16, columns=128, seed=0, backend="bool"):
    bank = make_bank(backend, count=count, rows=rows, columns=columns)
    rng = np.random.default_rng(seed)
    bank.write_field_column(0, 12, rng.integers(0, 1 << 12, (count, rows)).astype(np.uint64))
    bank.write_bool_column(20, rng.integers(0, 2, (count, rows)).astype(bool))
    return bank


def test_run_program_accounts_time_energy_and_requests():
    bank = _bank()
    executor = PimExecutor(DEFAULT_CONFIG)
    builder = ProgramBuilder(range(100, 128))
    result = builder.eq_const(list(range(12)), 100)
    builder.store(result, 90)
    program = builder.build()
    executor.run_program(bank, program, pages=8, phase="filter")

    stats = executor.stats
    xbar = DEFAULT_CONFIG.pim.crossbar
    expected_time = 8 * DEFAULT_CONFIG.pim.request_issue_gap_s + program.cycles * xbar.logic_cycle_s
    assert stats.time_by_phase["filter"] == pytest.approx(expected_time)
    assert stats.pim_requests == 8
    assert stats.logic_ops == program.cycles * 8 * DEFAULT_CONFIG.pim.crossbars_per_page
    assert stats.energy_by_component["logic"] > 0
    assert stats.energy_by_component["controller"] > 0
    assert stats.peak_chip_power_w > 0


def test_aggregate_with_circuit_matches_reference_and_charges_reads():
    bank = _bank(seed=3)
    executor = PimExecutor(DEFAULT_CONFIG)
    values = bank.read_field_all(0, 12)
    mask = bank.read_column(20)
    results = executor.aggregate_with_circuit(
        bank, field_offset=0, field_width=12, mask_column=20,
        destination_offset=40, pages=1, crossbars=every_crossbar(bank),
        operation="sum",
    )
    assert np.array_equal(results, (values * mask).sum(axis=1))
    assert executor.stats.bits_read > 0
    assert executor.stats.energy_by_component["agg_circuit"] > 0
    # The result was written back into row 0 of each crossbar.
    width = 12 + 4  # log2(16 rows)
    assert bank.read_field(0, 0, 40, width) == int(results[0])


@pytest.mark.parametrize("backend", ["packed", "bool"])
@pytest.mark.parametrize("operation", ["sum", "min", "max"])
@pytest.mark.parametrize("subset", [False, True])
@pytest.mark.parametrize("selected", [0, 1, 12, 13, 16, 17, 200])
def test_aggregate_with_circuit_gathers_sparse_masks(backend, operation, subset, selected):
    """Sparse and dense masks, on every crossbar or a subset: the partials
    equal ``aggregate_reference`` and land in row 0 (the bank picks gather or
    bounded decode: ``test_packed_backend.py``)."""
    count, rows, width = 4, 128, 12
    bank = make_bank(backend, count=count, rows=rows, columns=128)
    rng = np.random.default_rng(selected)
    values = rng.integers(0, 1 << width, (count, rows)).astype(np.uint64)
    bank.write_field_column(0, width, values)
    crossbars = np.array([True, False, True, True]) if subset else np.ones(count, bool)
    streamed = np.flatnonzero(crossbars) if subset else np.arange(count)
    # ``selected`` cells of the first two streamed crossbars, the others empty.
    cells = rng.choice(2 * rows, min(selected, 2 * rows), replace=False)
    mask = np.zeros((count, rows), dtype=bool)
    mask[streamed[cells // rows], cells % rows] = True
    bank.write_bool_column(20, mask)
    executor = PimExecutor(DEFAULT_CONFIG)
    results = executor.aggregate_with_circuit(
        bank, 0, width, 20, 40, pages=1, operation=operation,
        result_width=width + 7, crossbars=crossbars,
    )
    expected = aggregate_reference(values, mask, operation, width + 7)[streamed]
    assert np.array_equal(results, expected)
    for position, xbar in enumerate(streamed):
        assert bank.read_field(int(xbar), 0, 40, width + 7) == int(results[position])


def _thousands_bank(selected):
    """A 2 x 128 packed bank of 10-bit 1000s, ``selected`` cells masked (spread
    over both crossbars): 2 cells take the gather branch, 100 the decode."""
    bank = make_bank("packed", count=2, rows=128, columns=128)
    bank.write_field_column(0, 10, np.full((2, 128), 1000, dtype=np.uint64))
    mask = np.zeros((2, 128), dtype=bool)
    mask.reshape(-1)[:: 256 // selected][:selected] = True
    bank.write_bool_column(20, mask)
    assert (selected <= 256 * GATHER_MAX_SHARE) == (selected == 2)
    return bank, mask


@pytest.mark.parametrize("operation", ["max", "min"])
@pytest.mark.parametrize("selected", [2, 100])
def test_aggregate_with_circuit_rejects_a_narrow_min_max(selected, operation):
    """A min / max into a result narrower than its field cannot be right:
    both branches raise before anything is read, written or charged."""
    bank, _ = _thousands_bank(selected)
    words, wear = bank.words.copy(), bank.writes_per_row
    reads = []
    read_column = bank.read_column
    bank.read_column = lambda *args, **kwargs: reads.append(args) or read_column(
        *args, **kwargs
    )
    executor = PimExecutor(DEFAULT_CONFIG)
    with pytest.raises(ValueError, match="10-bit field does not fit a 8-bit result"):
        executor.aggregate_with_circuit(
            bank, 0, 10, 20, 40, 1, every_crossbar(bank), operation=operation,
            result_width=8,
        )
    assert reads == []
    assert np.array_equal(bank.words, words)
    assert np.array_equal(bank.writes_per_row, wear)
    assert executor.stats == PimStats()


@pytest.mark.parametrize("selected", [2, 100])
def test_aggregate_with_circuit_wraps_a_narrow_sum(selected):
    """A sum keeps wrapping modulo ``2**result_width`` on both branches."""
    bank, mask = _thousands_bank(selected)
    executor = PimExecutor(DEFAULT_CONFIG)
    results = executor.aggregate_with_circuit(
        bank, 0, 10, 20, 40, 1, every_crossbar(bank), operation="sum",
        result_width=8,
    )
    expected = mask.sum(axis=1) * 1000 % 256
    assert results.tolist() == expected.tolist()
    assert [bank.read_field(xbar, 0, 40, 8) for xbar in range(2)] == expected.tolist()


def test_aggregate_with_circuit_requires_enabled_circuit():
    bank = _bank()
    executor = PimExecutor(DEFAULT_CONFIG.without_aggregation_circuit())
    with pytest.raises(RuntimeError):
        executor.aggregate_with_circuit(bank, 0, 12, 20, 40, 1, every_crossbar(bank))


def test_bulk_bitwise_aggregation_costs_more_than_circuit():
    """The engine's pass over the same records, with the circuit and with the
    bulk-bitwise reduction: the same partials in row 0 and the same answer,
    at a higher modelled time and energy without the circuit."""
    rng = np.random.default_rng(5)
    values = rng.integers(0, 1 << 12, (2, 16)).astype(np.uint64)
    mask = rng.integers(0, 2, (2, 16)).astype(bool)
    circuit = aggregation_pass(values, mask, "sum", 12, "packed", circuit=True)
    bulk = aggregation_pass(values, mask, "sum", 12, "packed")
    layout = circuit.layout
    expected = (values * mask).sum(axis=1)
    assert np.array_equal(
        circuit.bank.read_field_all(layout.result_offset, layout.accumulator_width)[:, 0],
        expected,
    )
    assert np.array_equal(bulk.row0, expected)
    assert bulk.execution.rows == circuit.execution.rows == {
        (): {"sum_v": int(expected.sum())}
    }
    assert bulk.execution.stats.total_time_s > circuit.execution.stats.total_time_s
    assert bulk.execution.stats.total_energy_j > circuit.execution.stats.total_energy_j


@pytest.mark.parametrize(
    "backend", ["packed", pytest.param("bool", marks=pytest.mark.slow)]
)
def test_gate_level_and_functional_bulk_aggregation_agree(backend):
    rng = np.random.default_rng(8)
    values = rng.integers(0, 1 << 12, (2, 16)).astype(np.uint64)
    mask = rng.integers(0, 2, (2, 16)).astype(bool)
    production = aggregation_pass(values, mask, "sum", 12, backend)
    assert np.array_equal(production.gate, (values * mask).sum(axis=1))
    # The engine's pass leaves row 0's accumulator bits as the NOR gates do.
    assert np.array_equal(production.row0, production.gate)
    assert np.array_equal(production.gate_row0, production.gate)


def test_module_allocation_and_capacity():
    module = PimModule(DEFAULT_CONFIG)
    allocation = module.allocate_for_records(100_000, "relation")
    assert allocation.pages == 4  # ceil(100000 / 32768)
    assert allocation.record_capacity >= 100_000
    assert allocation.crossbar_of_record(1024) == 1
    assert allocation.row_of_record(1025) == 1
    assert module.pages_used == 4
    with pytest.raises(ValueError):
        module.allocate_pages(1, "relation")
    module.free("relation")
    assert module.pages_used == 0
    with pytest.raises(OutOfPimMemoryError):
        module.allocate_pages(module.config.pages_total + 1, "too-big")


def test_stats_merge_and_parallel_combine():
    first, second = PimStats(), PimStats()
    first.add_time("filter", 1.0)
    first.add_energy("logic", 2.0)
    first.observe_writes_per_row(10)
    second.add_time("filter", 3.0)
    second.add_energy("read", 1.0)
    second.observe_writes_per_row(4)

    merged = PimStats().merge(first).merge(second)
    assert merged.total_time_s == pytest.approx(4.0)
    assert merged.total_energy_j == pytest.approx(3.0)
    assert merged.max_writes_per_row == 10

    parallel = PimStats().merge_parallel([first, second], phase="threads")
    assert parallel.time_by_phase["threads"] == pytest.approx(3.0)
    assert parallel.total_energy_j == pytest.approx(3.0)

    with pytest.raises(ValueError):
        first.add_time("bad", -1.0)
    with pytest.raises(ValueError):
        first.add_energy("bad", -1.0)


def test_executor_fork(toy_stored, made_executors):
    """Executors are made per call: two executions of one engine run on two
    fresh executors that share only the configuration, each charging the
    stats its own execution reports."""
    from repro.core.executor import PimQueryEngine
    from repro.db.query import Aggregate, Comparison, Query

    engine = PimQueryEngine(toy_stored)
    query = Query("q", Comparison("key", "<", 100), (Aggregate("count"),))
    first, second = engine.execute(query), engine.execute(query)
    assert len(made_executors) == 2
    assert made_executors[0] is not made_executors[1]
    assert all(executor.config is DEFAULT_CONFIG for executor in made_executors)
    assert made_executors[0].stats is first.stats
    assert made_executors[1].stats is second.stats
    assert first.stats is not second.stats
    assert first.scalar("count") == second.scalar("count") == 100
