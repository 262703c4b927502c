"""Property-based tests of the arithmetic circuits and reductions (hypothesis)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from twins import aggregation_pass

from repro.pim.arithmetic import BulkAggregationPlan, build_ripple_add, build_subtract
from repro.pim.crossbar import CrossbarBank
from repro.pim.logic import ProgramBuilder
from repro.pim.packed import make_bank


WIDTH = 9
A_COLS = list(range(0, WIDTH))
B_COLS = list(range(WIDTH, 2 * WIDTH))
DEST = list(range(2 * WIDTH, 3 * WIDTH + 1))
SCRATCH = list(range(80, 112))

pair_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=(1 << WIDTH) - 1),
        st.integers(min_value=0, max_value=(1 << WIDTH) - 1),
    ),
    min_size=1, max_size=16,
)


def _bank_with(pairs):
    a = np.array([[p[0] for p in pairs]], dtype=np.uint64)
    b = np.array([[p[1] for p in pairs]], dtype=np.uint64)
    bank = CrossbarBank(count=1, rows=len(pairs), columns=112)
    bank.write_field_column(0, WIDTH, a)
    bank.write_field_column(WIDTH, WIDTH, b)
    return bank, a[0], b[0]


@settings(max_examples=30, deadline=None)
@given(pairs=pair_lists)
def test_ripple_add_matches_integer_addition(pairs):
    bank, a, b = _bank_with(pairs)
    builder = ProgramBuilder(SCRATCH)
    build_ripple_add(builder, A_COLS, B_COLS, DEST)
    builder.build().execute(bank)
    assert np.array_equal(bank.read_field_all(DEST[0], WIDTH + 1)[0], a + b)


@settings(max_examples=30, deadline=None)
@given(pairs=pair_lists)
def test_subtract_matches_modular_subtraction(pairs):
    bank, a, b = _bank_with(pairs)
    builder = ProgramBuilder(SCRATCH)
    build_subtract(builder, A_COLS, B_COLS, DEST[:WIDTH])
    builder.build().execute(bank)
    modulus = np.uint64((1 << WIDTH) - 1)
    assert np.array_equal(bank.read_field_all(DEST[0], WIDTH)[0], (a - b) & modulus)


#: Mask shapes besides a drawn one: no row, a single row (within the packed
#: bank's gather share at 32 rows), one row in 16 and every row.
MASK_SHAPES = ("drawn", "empty", "single", "sparse", "full")

aggregation_cases = st.tuples(
    st.lists(st.integers(min_value=0, max_value=(1 << WIDTH) - 1),
             min_size=2, max_size=32),
    st.lists(st.booleans(), min_size=2, max_size=32),
    st.sampled_from(["sum", "min", "max", "count"]),
    st.sampled_from(MASK_SHAPES),
)


def _shaped(mask, shape):
    """``mask`` itself, or a mask of its length in one of :data:`MASK_SHAPES`."""
    if shape == "drawn":
        return mask
    rows = len(mask)
    shaped = [shape == "full"] * rows
    if shape == "single":
        shaped[rows // 2] = True
    elif shape == "sparse":
        shaped[::16] = [True] * len(shaped[::16])
    return shaped


@pytest.mark.parametrize(
    "backend", ["packed", pytest.param("bool", marks=pytest.mark.slow)]
)
@settings(max_examples=30, deadline=None)
@given(case=aggregation_cases)
@example(case=(list(range(0, 512, 16)), [False] * 32, "sum", "empty"))
@example(case=(list(range(0, 512, 16)), [False] * 32, "min", "single"))
@example(case=(list(range(0, 512, 16)), [False] * 32, "max", "sparse"))
@example(case=(list(range(0, 512, 16)), [False] * 32, "count", "full"))
@example(case=(list(range(511, 0, -16)), [False] * 32, "count", "sparse"))
@example(case=(list(range(511, 0, -16)), [False] * 32, "min", "full"))
@example(case=(list(range(511, 0, -16)), [False] * 32, "max", "empty"))
@example(case=(list(range(511, 0, -16)), [False] * 32, "sum", "single"))
def test_gate_level_reduction_equals_functional_reduction(case, backend):
    values, mask, operation, shape = case
    rows = min(len(values), len(mask))
    values, mask = values[:rows], _shaped(mask[:rows], shape)
    plan = BulkAggregationPlan(
        rows=rows, field_offset=0, field_width=WIDTH, mask_column=25,
        acc_offset=30, operand_offset=55,
        scratch_columns=range(80, 140), operation=operation,
    )

    bank = make_bank(backend, count=1, rows=rows, columns=140)
    bank.write_field_column(0, WIDTH, np.array([values], dtype=np.uint64))
    bank.write_bool_column(25, np.array([mask], dtype=bool))
    gate = plan.run_gate_level(bank)
    # The engine's pass over the same records: the same partial, in row 0's
    # accumulator of its bank and of the copy the gates ran on.
    production = aggregation_pass([values], [mask], operation, WIDTH, backend)
    assert production.plan.acc_width == plan.acc_width
    assert np.array_equal(production.row0, gate)
    assert np.array_equal(production.gate, gate)
    assert np.array_equal(production.gate_row0, gate)

    stored = np.array(values, dtype=np.uint64)
    chosen = stored[np.array(mask, dtype=bool)]
    if operation == "sum":
        expected = int(chosen.sum())
    elif operation == "count":
        expected = int(np.count_nonzero(mask))
    elif operation == "min":
        expected = int(chosen.min()) if chosen.size else (1 << plan.acc_width) - 1
    else:
        expected = int(chosen.max()) if chosen.size else 0
    assert int(gate[0]) == expected
    name = production.execution.query.aggregates[0].name
    assert production.execution.rows == ({(): {name: expected}} if chosen.size else {})
