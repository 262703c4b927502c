"""Tests of in-row arithmetic circuits and the bulk-bitwise reduction."""

import numpy as np
import pytest
from twins import aggregation_pass

from repro.pim.arithmetic import (
    BulkAggregationPlan,
    aggregate_reference,
    build_lt_fields,
    build_multiply,
    build_mux_fields,
    build_ripple_add,
    build_subtract,
)
from repro.pim.crossbar import CrossbarBank
from repro.pim.packed import make_bank
from repro.pim.logic import ProgramBuilder


A_COLS = list(range(0, 10))
B_COLS = list(range(10, 20))
DEST = list(range(20, 31))
SCRATCH = list(range(96, 128))


@pytest.fixture()
def bank():
    bank = CrossbarBank(count=2, rows=16, columns=128)
    rng = np.random.default_rng(5)
    bank.write_field_column(0, 10, rng.integers(0, 1 << 10, (2, 16)).astype(np.uint64))
    bank.write_field_column(10, 10, rng.integers(0, 1 << 10, (2, 16)).astype(np.uint64))
    return bank


def _ab(bank):
    return bank.read_field_all(0, 10), bank.read_field_all(10, 10)


def test_ripple_add(bank):
    a, b = _ab(bank)
    builder = ProgramBuilder(SCRATCH)
    build_ripple_add(builder, A_COLS, B_COLS, DEST)
    builder.build().execute(bank)
    assert np.array_equal(bank.read_field_all(20, 11), a + b)


def test_subtract_two_complement(bank):
    a, b = _ab(bank)
    builder = ProgramBuilder(SCRATCH)
    build_subtract(builder, A_COLS, B_COLS, DEST[:10])
    builder.build().execute(bank)
    assert np.array_equal(bank.read_field_all(20, 10), (a - b) & np.uint64(1023))


def test_multiply(bank):
    a, b = _ab(bank)
    builder = ProgramBuilder(SCRATCH)
    build_multiply(builder, A_COLS, B_COLS, list(range(30, 50)), list(range(60, 80)))
    builder.build().execute(bank)
    assert np.array_equal(bank.read_field_all(30, 20), a * b)


def test_lt_and_mux_fields(bank):
    a, b = _ab(bank)
    builder = ProgramBuilder(SCRATCH)
    lt = build_lt_fields(builder, A_COLS, B_COLS)
    builder.store(lt, 90)
    build_mux_fields(builder, 90, A_COLS, B_COLS, list(range(30, 40)))
    builder.build().execute(bank)
    assert np.array_equal(bank.read_column(90), a < b)
    assert np.array_equal(bank.read_field_all(30, 10), np.minimum(a, b))


@pytest.mark.parametrize(
    "backend", ["packed", pytest.param("bool", marks=pytest.mark.slow)]
)
@pytest.mark.parametrize("operation", ["sum", "min", "max", "count"])
def test_bulk_aggregation_gate_level_matches_reference(operation, backend):
    rng = np.random.default_rng(9)
    bank = make_bank(backend, count=3, rows=32, columns=220)
    values = rng.integers(0, 1 << 12, (3, 32)).astype(np.uint64)
    mask = rng.integers(0, 2, (3, 32)).astype(bool)
    bank.write_field_column(0, 12, values)
    bank.write_bool_column(20, mask)
    plan = BulkAggregationPlan(
        rows=32, field_offset=0, field_width=12, mask_column=20,
        acc_offset=30, operand_offset=60,
        scratch_columns=range(150, 220), operation=operation,
    )
    expected = aggregate_reference(values, mask, operation, plan.acc_width)
    assert np.array_equal(plan.run_gate_level(bank), expected)

    # The engine's pass over the same records computes the same partials
    # without the gates and leaves them in row 0's accumulator, as the gates
    # do on a copy of its bank.
    production = aggregation_pass(values, mask, operation, 12, backend)
    assert production.plan.acc_width == plan.acc_width
    assert np.array_equal(production.row0, expected)
    assert np.array_equal(production.gate, expected)
    assert np.array_equal(production.gate_row0, expected)


def test_bulk_aggregation_cost_structure():
    plan = BulkAggregationPlan(
        rows=1024, field_offset=0, field_width=28, mask_column=40,
        acc_offset=50, operand_offset=100, scratch_columns=range(150, 200),
    )
    cost = plan.cost()
    # SUM accumulators grow by log2(rows) bits.
    assert plan.acc_width == 28 + 10
    # The reduction needs one copy per non-root row and ten combine levels.
    assert cost.total_row_copies == 1023
    assert cost.copy_cycles == 2 * 1023
    assert cost.program_cycles > 10 * plan.acc_width  # at least adder work
    assert cost.total_cycles == cost.program_cycles + cost.copy_cycles
    assert cost.writes_per_row > cost.program_cycles  # copies add wear too


def test_bulk_aggregation_rejects_unknown_operation():
    with pytest.raises(ValueError):
        BulkAggregationPlan(
            rows=16, field_offset=0, field_width=8, mask_column=10,
            acc_offset=20, operand_offset=40, scratch_columns=range(60, 80),
            operation="avg",
        )
