"""The bank's two wear counters against a dense per-row reference.

A bank keeps wear where it is written: ``xbar_wear`` for writes to every row
of a crossbar (charges, bulk primitives) and ``row_wear`` for writes to single
rows.  These tests drive random sequences of charges and row writes on both
backends and compare ``writes_per_row`` and ``max_writes_since`` with a plain
``int64`` matrix updated the obvious way, and check that a program charge
never touches the row matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DEFAULT_CONFIG
from repro.pim.controller import PimExecutor
from repro.pim.logic import ProgramBuilder
from repro.pim.packed import make_bank

COUNT, ROWS, COLUMNS = 5, 70, 24          # 70 rows cross a 64-row word
WIDTH = 4


def _op(draw):
    kind = draw(st.sampled_from([
        "charge-all", "charge-mask", "charge-index", "write_field",
        "write_field_row", "write_field_rows", "copy_row_pairs", "slots",
        "reset", "snapshot",
    ]))
    writes = draw(st.integers(0, 40))
    if kind == "charge-all":
        return kind, writes
    if kind == "charge-mask":
        return kind, writes, np.array(draw(st.lists(
            st.booleans(), min_size=COUNT, max_size=COUNT)))
    if kind == "charge-index":
        # Duplicates on purpose: a crossbar listed twice is charged once.
        return kind, writes, np.array(draw(st.lists(
            st.integers(0, COUNT - 1), max_size=2 * COUNT)), dtype=np.int64)
    if kind == "write_field":
        return kind, draw(st.integers(0, COUNT - 1)), draw(st.integers(0, ROWS - 1))
    if kind == "write_field_row":
        xbars = draw(st.none() | st.lists(
            st.integers(0, COUNT - 1), min_size=1, max_size=COUNT, unique=True))
        return kind, draw(st.integers(0, ROWS - 1)), xbars
    if kind == "write_field_rows":
        return kind, np.array(draw(st.lists(
            st.integers(0, ROWS - 1), max_size=8, unique=True)), dtype=np.int64)
    if kind == "copy_row_pairs":
        pairs = draw(st.lists(
            st.tuples(st.integers(0, ROWS - 1), st.integers(0, ROWS - 1)),
            max_size=8))
        return kind, np.array([s for s, _ in pairs], dtype=np.int64), \
            np.array([d for _, d in pairs], dtype=np.int64)
    if kind == "slots":
        return kind, writes, draw(st.integers(0, COUNT * ROWS))
    return (kind,)


@st.composite
def _ops(draw):
    return [_op(draw) for _ in range(draw(st.integers(1, 25)))]


def _step(bank, dense, op) -> None:
    """Apply ``op`` to the bank and, by hand, to the dense reference."""
    kind = op[0]
    if kind == "charge-all":
        bank.add_wear(op[1])
        dense += op[1]
    elif kind in ("charge-mask", "charge-index"):
        bank.add_wear(op[1], op[2])
        dense[np.unique(np.arange(COUNT)[op[2]])] += op[1]
    elif kind == "write_field":
        bank.write_field(op[1], op[2], 0, WIDTH, 9)
        dense[op[1], op[2]] += WIDTH
    elif kind == "write_field_row":
        _, row, xbars = op
        targets = COUNT if xbars is None else len(xbars)
        bank.write_field_row(
            row, 0, WIDTH, np.arange(targets, dtype=np.uint64), xbars=xbars
        )
        dense[slice(None) if xbars is None else xbars, row] += WIDTH
    elif kind == "write_field_rows":
        bank.write_field_rows(op[1], WIDTH, WIDTH, 5)
        dense[:, op[1]] += WIDTH
    elif kind == "copy_row_pairs":
        bank.copy_row_pairs(op[1], op[2], 0, 2 * WIDTH, WIDTH)
        dense[:, np.unique(op[2])] += WIDTH
    elif kind == "slots":
        bank.add_slot_wear(op[1], op[2])
        for slot in range(op[2]):
            dense[slot // ROWS, slot % ROWS] += op[1]
    elif kind == "reset":
        bank.reset_wear()
        dense[:] = 0


@pytest.mark.parametrize("backend", ["packed", "bool"])
@settings(max_examples=60, deadline=None)
@given(ops=_ops())
def test_wear_counters_equal_a_dense_reference(backend, ops):
    bank = make_bank(backend, COUNT, ROWS, COLUMNS)
    dense = np.zeros((COUNT, ROWS), dtype=np.int64)
    snapshot, dense_snapshot = bank.wear_snapshot(), dense.copy()
    for op in ops:
        if op[0] == "snapshot":
            snapshot, dense_snapshot = bank.wear_snapshot(), dense.copy()
        else:
            _step(bank, dense, op)
        assert np.array_equal(bank.writes_per_row, dense)
        assert bank.writes_per_row.dtype == np.int64
        assert bank.max_writes_since() == dense.max()
        assert bank.max_writes_since(snapshot) == (dense - dense_snapshot).max()


@pytest.mark.parametrize("backend", ["packed", "bool"])
def test_writes_per_row_rejects_in_place_writes(backend):
    """An in-place write raises instead of vanishing into a temporary."""
    bank = make_bank(backend, COUNT, ROWS, COLUMNS)
    with pytest.raises(ValueError):
        bank.writes_per_row[0, 0] += 1
    with pytest.raises(ValueError):
        bank.writes_per_row += 1
    with pytest.raises(AttributeError):
        bank.writes_per_row = np.zeros((COUNT, ROWS), dtype=np.int64)
    assert not bank.writes_per_row.any()


def _program():
    builder = ProgramBuilder(range(16, COLUMNS))
    column = builder.nor(0, 1)
    builder.nor(column, 2)
    return builder.build(result_column=column)


@pytest.mark.parametrize("backend", ["packed", "bool"])
@pytest.mark.parametrize("pruned", [False, True])
def test_a_charge_never_touches_the_row_matrix(backend, pruned):
    """Charged and pruned runs add wear per crossbar: ``row_wear`` stays
    bit-identical and only the crossbars run (and the prune-clear's) move."""
    bank = make_bank(backend, COUNT, ROWS, COLUMNS)
    bank.write_field(1, 3, 0, WIDTH, 7)                 # some row wear to keep
    rows_before = bank.row_wear.copy()
    candidates = np.zeros(COUNT, dtype=bool)
    candidates[[1, 3]] = pruned
    if not pruned:
        candidates[:] = True
    clear = ~candidates
    program = _program()
    executor = PimExecutor(DEFAULT_CONFIG)

    before = bank.xbar_wear.copy()
    executor.charge_program_cost(bank, program.cycles, candidates, 1, "filter", count=3)
    assert np.array_equal(bank.row_wear, rows_before)
    assert np.array_equal(
        bank.xbar_wear - before, np.where(candidates, 3 * program.cycles, 0)
    )

    before = bank.xbar_wear.copy()
    executor.run_program_pruned(bank, program, candidates, 1, "filter", clear)
    assert np.array_equal(bank.row_wear, rows_before)
    assert np.array_equal(
        bank.xbar_wear - before,
        np.where(candidates, program.writes_per_row, np.where(clear, 1, 0)),
    )
