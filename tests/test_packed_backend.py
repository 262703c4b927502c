"""Bit-exactness of the packed crossbar backend against the boolean reference.

The packed backend (:mod:`repro.pim.packed`) stores each column as row-packed
uint64 words and must be indistinguishable from the byte-per-bit
:class:`~repro.pim.crossbar.CrossbarBank`: identical stored bits, decoded
fields, wear counters, error behaviour — and, because stats are charged from
program metadata only, identical :class:`~repro.pim.stats.PimStats` for every
query execution.  This module locks all of that in:

* a hypothesis property test drives random programs (NOR / init / field IO /
  row copies / broadcast writes) against both backends in lock step;
* the 13 SSB queries run on both backends at K=1 and sharded K=4 and must
  produce bit-identical rows and bit-identical stats (the gate-level NOR
  path for a representative subset in the default tier, the full sweep
  behind the ``slow`` marker).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from twins import assert_banks_equal, assert_same_execution

from repro.config import DEFAULT_CONFIG
from repro.core.executor import PimQueryEngine
from repro.db.storage import StoredRelation
from repro.pim.crossbar import CrossbarBank
from repro.pim.module import PimModule
from repro.pim.packed import PackedCrossbarBank, make_bank
from repro.sharding import ShardedQueryEngine, ShardedStoredRelation
from repro.ssb import ALL_QUERIES, QUERY_ORDER
from repro.ssb.prejoined import max_aggregated_width

ROWS = 70          # crosses the 64-row word boundary
COLUMNS = 48
COUNT = 2

#: Queries exercising the three execution shapes (scalar aggregate,
#: pim-gb/host-gb mix, multi-attribute GROUP-BY) in the default tier.
REPRESENTATIVE = ("Q1.1", "Q2.1", "Q4.1")


# ------------------------------------------------------- random program ops
def _apply(op, bank):
    kind = op[0]
    if kind == "nor":
        bank.nor_columns(op[1], op[2], op[3])
    elif kind == "init":
        bank.set_column(op[1], op[2], op[3])
    elif kind == "write_field":
        bank.write_field(op[1], op[2], op[3], op[4], op[5])
    elif kind == "write_field_column":
        bank.write_field_column(op[1], op[2], op[3])
    elif kind == "write_bool_column":
        bank.write_bool_column(op[1], op[2])
    elif kind == "copy_row_pairs":
        bank.copy_row_pairs(op[1], op[2], op[3], op[4], op[5])
    elif kind == "write_field_rows":
        bank.write_field_rows(op[1], op[2], op[3], op[4])
    elif kind == "write_field_row":
        bank.write_field_row(op[1], op[2], op[3], op[4])
    elif kind == "write_field_cells":
        bank.write_field_cells(op[1], op[2], op[3])
    elif kind == "read_field_cells":
        return bank.read_field_cells(op[1], op[2], op[3], op[4])
    else:  # pragma: no cover - defensive
        raise AssertionError(kind)
    return None


def _disjoint_fields(rng, n, columns, max_width):
    """``n`` non-overlapping ``(offset, width)`` fields, in random order: one
    per ``columns // n`` slice, so neighbours may touch but never overlap."""
    span = columns // n
    fields = []
    for k in range(n):
        width = int(rng.integers(1, min(max_width, span) + 1))
        fields.append((k * span + int(rng.integers(0, span - width + 1)), width))
    return [fields[k] for k in rng.permutation(n)]


@st.composite
def bank_ops(draw):
    column = st.integers(0, COLUMNS - 1)
    row = st.integers(0, ROWS - 1)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    kind = draw(st.sampled_from([
        "nor", "init", "write_field", "write_field_column",
        "write_bool_column", "copy_row_pairs", "write_field_rows",
        "write_field_row", "write_field_cells", "read_field_cells",
    ]))
    # Every crossbar (``None``) or an index subset, possibly empty.
    xbars = draw(st.none() | st.lists(st.integers(0, COUNT - 1), max_size=COUNT,
                                      unique=True).map(np.array))
    if kind == "nor":
        srcs = tuple(draw(st.lists(column, min_size=1, max_size=2)))
        return ("nor", draw(column), srcs, xbars)
    if kind == "init":
        return ("init", draw(column), draw(st.booleans()), xbars)
    width = draw(st.integers(1, 12))
    offset = draw(st.integers(0, COLUMNS - width))
    if kind == "write_field":
        value = draw(st.integers(0, (1 << width) - 1))
        return ("write_field", draw(st.integers(0, COUNT - 1)), draw(row),
                offset, width, value)
    if kind == "write_field_column":
        values = rng.integers(0, 1 << width, (COUNT, ROWS)).astype(np.uint64)
        return ("write_field_column", offset, width, values)
    if kind == "write_bool_column":
        values = rng.integers(0, 2, (COUNT, ROWS)).astype(bool)
        return ("write_bool_column", draw(column), values)
    if kind == "copy_row_pairs":
        pairs = draw(st.integers(1, ROWS // 2))
        rows = rng.permutation(ROWS)[: 2 * pairs]
        dst_offset = draw(st.integers(0, COLUMNS - width))
        return ("copy_row_pairs", rows[:pairs], rows[pairs:],
                offset, dst_offset, width)
    if kind == "write_field_rows":
        n = draw(st.integers(0, ROWS))
        value = draw(st.integers(0, (1 << width) - 1))
        return ("write_field_rows", rng.permutation(ROWS)[:n], offset, width, value)
    if kind == "write_field_cells":
        cells = rng.permutation(COUNT * ROWS)[: draw(st.integers(0, 2 * ROWS))]
        fields = [
            (field_offset, field_width,
             rng.integers(0, 1 << field_width, len(cells)).astype(np.uint64))
            for field_offset, field_width in _disjoint_fields(
                rng, draw(st.integers(1, 3)), COLUMNS, 12
            )
        ]
        return ("write_field_cells", cells // ROWS, cells % ROWS, fields)
    if kind == "read_field_cells":   # a gather mid-program, duplicates allowed
        cells = rng.integers(0, COUNT * ROWS, draw(st.integers(0, 2 * ROWS)))
        return ("read_field_cells", cells // ROWS, cells % ROWS, offset, width)
    values = rng.integers(0, 1 << width, COUNT).astype(np.uint64)
    return ("write_field_row", draw(row), offset, width, values)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(bank_ops(), min_size=1, max_size=12),
       probe=st.integers(0, 2 ** 31))
def test_random_programs_bit_exact_across_backends(ops, probe):
    """Random op sequences leave both backends in bit-identical states."""
    ref = CrossbarBank(COUNT, ROWS, COLUMNS)
    packed = PackedCrossbarBank(COUNT, ROWS, COLUMNS)
    for op in ops:
        expected, actual = _apply(op, ref), _apply(op, packed)
        if expected is not None:
            assert actual.dtype == expected.dtype == np.uint64
            assert np.array_equal(actual, expected)
    assert_banks_equal(ref, packed)
    rng = np.random.default_rng(probe)
    for _ in range(4):
        width = int(rng.integers(1, 13))
        offset = int(rng.integers(0, COLUMNS - width + 1))
        assert np.array_equal(
            ref.read_field_all(offset, width), packed.read_field_all(offset, width)
        )
        xbar, row = int(rng.integers(COUNT)), int(rng.integers(ROWS))
        assert ref.read_field(xbar, row, offset, width) == \
            packed.read_field(xbar, row, offset, width)


# ---------------------------------------------------------- field codec
def _assert_rejected_without_mutation(bank, call) -> None:
    """``call(bank)`` raises ``ValueError`` and leaves cells and wear alone."""
    cells = [bank.read_column(c).copy() for c in range(bank.columns)]
    wear = bank.writes_per_row
    with pytest.raises(ValueError):
        call(bank)
    for column, before in enumerate(cells):
        assert np.array_equal(bank.read_column(column), before)
    assert np.array_equal(bank.writes_per_row, wear)


@settings(max_examples=120, deadline=None)
@given(
    count=st.sampled_from([1, 3]),
    rows=st.sampled_from([1, 8, 63, 64, 70, 128]),
    width=st.sampled_from([1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64]),
    data=st.data(),
)
def test_field_codec_roundtrip_at_dtype_boundaries(count, rows, width, data):
    """Bulk field encode/decode across every accumulator-dtype boundary."""
    columns = 80
    offset = data.draw(st.integers(0, columns - width), label="offset")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31), label="seed"))
    top = (1 << width) - 1
    values = rng.integers(0, top, (count, rows), dtype=np.uint64, endpoint=True)
    values.flat[int(rng.integers(values.size))] = top   # 2**64 - 1 at width 64
    background = rng.integers(0, 2, (columns, count, rows)).astype(bool)

    ref = CrossbarBank(count, rows, columns)
    packed = PackedCrossbarBank(count, rows, columns)
    for bank in (ref, packed):
        for column in range(columns):
            bank.write_bool_column(column, background[column])
        bank.write_field_column(offset, width, values)

    decoded = packed.read_field_all(offset, width)
    assert np.array_equal(decoded, values)
    assert np.array_equal(ref.read_field_all(offset, width), values)
    assert decoded.dtype == np.uint64 and decoded.shape == (count, rows)
    assert decoded.flags.c_contiguous and decoded.flags.writeable
    assert_banks_equal(ref, packed)
    # Neighbouring columns keep the background; padding bits stay zero.
    for column in (*range(offset), *range(offset + width, columns)):
        assert np.array_equal(packed.read_column(column), background[column])
    assert not np.any(packed.words & ~packed._row_mask)

    # The scalar cell path agrees with the bulk path.
    for _ in range(3):
        xbar, row = int(rng.integers(count)), int(rng.integers(rows))
        for bank in (ref, packed):
            assert bank.read_field(xbar, row, offset, width) == int(values[xbar, row])
        value = int(rng.integers(0, top, dtype=np.uint64, endpoint=True))
        for bank in (ref, packed):
            bank.write_field(xbar, row, offset, width, value)
        values[xbar, row] = value
    # Scalar stores around the signed-shift limit (a Python int >= 2**63
    # used to overflow the reference bank's shift), immediates included.
    for value in (2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1):
        if value > top:
            continue
        xbar, row = int(rng.integers(count)), int(rng.integers(rows))
        for bank in (ref, packed):
            bank.write_field(xbar, row, offset, width, value)
            assert bank.read_field(xbar, row, offset, width) == value
        values[xbar, row] = value
        row = int(rng.integers(rows))
        for bank in (ref, packed):
            bank.write_field_rows([row], offset, width, value)
            assert bank.read_field(count - 1, row, offset, width) == value
        values[:, row] = value
    assert np.array_equal(packed.read_field_all(offset, width), values)
    assert_banks_equal(ref, packed)
    assert not np.any(packed.words & ~packed._row_mask)

    # Bad input is rejected before anything is written, on both banks.
    one = np.ones(count, dtype=np.uint64)
    bad_calls = [
        lambda b: b.write_field_column(offset, width, values[:, : rows - 1]),
        lambda b: b.write_field_column(offset, width, values[None]),
        lambda b: b.write_field(0, rows, offset, width, 1),
        lambda b: b.write_field(0, np.int64(-1), offset, width, 1),
        lambda b: b.read_field(0, rows, offset, width),
        lambda b: b.write_field_rows(np.array([0, rows]), offset, width, 1),
        lambda b: b.write_field_rows([-1], offset, width, 1),
        lambda b: b.write_field_row(rows, offset, width, one),
        lambda b: b.write_field_column(columns - width + 1, width, values),
    ]
    if width < 64:
        too_big = values.copy()
        too_big[-1, -1] = top + 1
        bad_calls += [
            lambda b: b.write_field_column(offset, width, too_big),
            lambda b: b.write_field(0, 0, offset, width, top + 1),
            lambda b: b.write_field_rows(np.array([0]), offset, width, top + 1),
            lambda b: b.write_field_row(0, offset, width, one * np.uint64(top + 1)),
        ]
    for call in bad_calls:
        for bank in (ref, packed):
            _assert_rejected_without_mutation(bank, call)


UNSIGNED = (np.uint8, np.uint16, np.uint32, np.uint64)


@settings(max_examples=150, deadline=None)
@given(
    count=st.integers(1, 5),
    rows=st.integers(1, 200),
    width=st.integers(1, 64),
    data=st.data(),
)
def test_byte_lane_encode_equals_the_bool_bank_in_every_input_dtype(
    count, rows, width, data
):
    """``write_field_column`` encodes any unsigned input dtype as the bool bank
    does, whole words or not — from the narrowest that holds the width up to
    ``uint64``, and narrower ones, whose missing high planes are zero; an
    over-width value is refused before any word changes, in every input
    dtype that can hold it."""
    dtype = data.draw(st.sampled_from(UNSIGNED), label="dtype")
    columns = width + 2
    offset = data.draw(st.integers(0, 2), label="offset")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31), label="seed"))
    top = (1 << width) - 1
    values = rng.integers(0, top, (count, rows), dtype=np.uint64, endpoint=True)
    values.flat[int(rng.integers(values.size))] = top
    values &= np.uint64(np.iinfo(dtype).max)
    background = rng.integers(0, 2, (columns, count, rows)).astype(bool)

    ref = CrossbarBank(count, rows, columns)
    packed = PackedCrossbarBank(count, rows, columns)
    for bank in (ref, packed):
        for column in range(columns):
            bank.write_bool_column(column, background[column])
        bank.write_field_column(offset, width, values.astype(dtype))
    assert_banks_equal(ref, packed)
    assert np.array_equal(packed.read_field_all(offset, width), values)
    assert not np.any(packed.words & ~packed._row_mask)

    for wide in (d for d in UNSIGNED if width < 8 * np.dtype(d).itemsize):
        too_big = values.astype(wide)
        too_big.flat[int(rng.integers(too_big.size))] = rng.integers(
            top + 1, np.iinfo(wide).max, dtype=wide, endpoint=True
        )
        words = packed.words.copy()
        _assert_rejected_without_mutation(
            packed, lambda b, bad=too_big: b.write_field_column(offset, width, bad)
        )
        assert np.array_equal(packed.words, words)


@settings(max_examples=120, deadline=None)
@given(
    count=st.sampled_from([1, 3]),
    rows=st.sampled_from([1, 63, 64, 70, 128]),
    width=st.sampled_from([1, 7, 8, 9, 31, 32, 33, 63, 64]),
    data=st.data(),
)
def test_write_field_cells_equals_a_loop_of_write_field(count, rows, width, data):
    """The per-cell scatter is ``write_field`` per cell, on both banks."""
    columns = 80
    offset = data.draw(st.integers(0, columns - width), label="offset")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31), label="seed"))
    top = (1 << width) - 1
    background = rng.integers(0, 2, (columns, count, rows)).astype(bool)
    # Distinct cells, several of them sharing one crossbar and one 64-row
    # word whenever the geometry has room for it; sometimes none at all.
    n = data.draw(st.integers(0, min(count * rows, 24)), label="cells")
    cells = rng.permutation(count * rows)[:n]
    if n >= 3 and rows >= 3:
        cells[:3] = np.arange(3)    # crossbar 0, rows 0..2: one word
        cells = np.unique(cells)
    xbars, cell_rows = cells // rows, cells % rows
    values = rng.integers(0, top, len(cells), dtype=np.uint64, endpoint=True)
    if len(cells):
        values[-1] = top        # 2**64 - 1 at width 64

    oracle = CrossbarBank(count, rows, columns)
    ref = CrossbarBank(count, rows, columns)
    packed = PackedCrossbarBank(count, rows, columns)
    for bank in (oracle, ref, packed):
        for column in range(columns):
            bank.write_bool_column(column, background[column])
    for xbar, row, value in zip(xbars, cell_rows, values):
        oracle.write_field(int(xbar), int(row), offset, width, int(value))
    for bank in (ref, packed):
        bank.write_field_cells(xbars, cell_rows, [(offset, width, values)])
        assert_banks_equal(oracle, bank)       # cells *and* wear
        assert np.array_equal(
            bank.read_field_all(offset, width)[xbars, cell_rows], values
        )
    # Neighbouring columns keep the background; padding bits stay zero.
    for column in (*range(offset), *range(offset + width, columns)):
        assert np.array_equal(packed.read_column(column), background[column])
    assert not np.any(packed.words & ~packed._row_mask)

    # Bad input is rejected before anything is written, on both banks.
    one = np.ones(1, dtype=np.uint64)
    bad_calls = [
        lambda b: b.write_field_cells([0, 0], [0, 0], [(offset, width, [1, 1])]),
        lambda b: b.write_field_cells([0], [rows], [(offset, width, one)]),
        lambda b: b.write_field_cells([0], [-1], [(offset, width, one)]),
        lambda b: b.write_field_cells([count], [0], [(offset, width, one)]),
        lambda b: b.write_field_cells([-1], [0], [(offset, width, one)]),
        lambda b: b.write_field_cells([0, 0], [0], [(offset, width, one)]),
        lambda b: b.write_field_cells([0], [0], [(offset, width, [1, 1])]),
        lambda b: b.write_field_cells([[0]], [[0]], [(offset, width, [[1]])]),
        lambda b: b.write_field_cells([0], [0], [(columns - width + 1, width, one)]),
    ]
    if width < 64:
        bad_calls.append(
            lambda b: b.write_field_cells(
                [0], [0], [(offset, width, one * np.uint64(top + 1))]
            )
        )
    for call in bad_calls:
        for bank in (ref, packed):
            _assert_rejected_without_mutation(bank, call)


def _bank_state(bank):
    """The raw storage (words or bits) and the wear counters, copied."""
    raw = bank.words if isinstance(bank, PackedCrossbarBank) else bank.bits
    return raw.copy(), bank.writes_per_row.copy()


@settings(max_examples=120, deadline=None)
@given(
    count=st.sampled_from([1, 3]),
    rows=st.sampled_from([1, 63, 64, 70, 128]),
    widths=st.lists(
        st.sampled_from([1, 7, 8, 9, 31, 32, 33, 63, 64]), min_size=1, max_size=4
    ),
    data=st.data(),
)
def test_multi_field_write_equals_sequential_single_field_writes(
    count, rows, widths, data
):
    """One multi-field ``write_field_cells`` is the same fields written one
    call each: identical words / bits and ``writes_per_row`` on both banks,
    cells sharing a 64-row word and fields given in any order included; every
    rejected input raises and leaves the bank untouched."""
    columns = 100
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31), label="seed"))
    # Fields laid out left to right with random gaps, then shuffled.
    while sum(widths) > columns:
        widths = widths[:-1]
    gaps = np.sort(rng.integers(0, columns - sum(widths) + 1, len(widths)))
    offsets = gaps + np.cumsum([0, *widths[:-1]])
    n = data.draw(st.integers(0, min(count * rows, 24)), label="cells")
    cells = rng.permutation(count * rows)[:n]
    if n >= 3 and rows >= 3:
        cells[:3] = [2, 0, 1]       # crossbar 0, rows 0..2: one word, unsorted
        cells = rng.permutation(np.unique(cells))
    xbars, cell_rows = cells // rows, cells % rows
    fields = []
    for offset, width in zip(offsets.tolist(), widths):
        top = (1 << width) - 1
        values = rng.integers(0, top, len(cells), dtype=np.uint64, endpoint=True)
        if len(cells):
            values[-1] = top
        fields.append((offset, width, values))
    fields = [fields[k] for k in rng.permutation(len(fields))]
    background = rng.integers(0, 2, (columns, count, rows)).astype(bool)

    banks = []
    for make in (CrossbarBank, PackedCrossbarBank):
        multi, single = make(count, rows, columns), make(count, rows, columns)
        for bank in (multi, single):
            for column in range(columns):
                bank.write_bool_column(column, background[column])
        multi.write_field_cells(xbars, cell_rows, fields)
        for field in fields:
            single.write_field_cells(xbars, cell_rows, [field])
        for got, want in zip(_bank_state(multi), _bank_state(single)):
            assert np.array_equal(got, want)
        banks.append(multi)
    assert_banks_equal(*banks)
    assert not np.any(banks[1].words & ~banks[1]._row_mask)

    # Rejected before the first mutation, whatever field is at fault.
    offset, width, _ = fields[0]
    one = np.zeros(1, dtype=np.uint64)
    bad_calls = [
        # a duplicate cell
        lambda b: b.write_field_cells([0, 0], [0, 0], [(offset, width, [0, 0])]),
        # a row or a crossbar out of range
        lambda b: b.write_field_cells([0], [rows], [(offset, width, one)]),
        lambda b: b.write_field_cells([count], [0], [(offset, width, one)]),
        # two fields sharing a column, in either order
        lambda b: b.write_field_cells(
            [0], [0], [(offset, width, one), (offset + width - 1, 1, one)]
        ),
        lambda b: b.write_field_cells(
            [0], [0], [(offset + width - 1, 1, one), (offset, width, one)]
        ),
        # a field outside the bank, after a valid one
        lambda b: b.write_field_cells(
            [0], [0], [(offset, width, one), (columns, 1, one)]
        ),
    ]
    if len(cells):
        # a value too wide for the last field, the others fine
        last_offset, last_width, last_values = fields[-1]
        if last_width < 64:
            wide = last_values.copy()
            wide[0] = np.uint64(1 << last_width)
            bad_calls.append(lambda b: b.write_field_cells(
                xbars, cell_rows, [*fields[:-1], (last_offset, last_width, wide)]
            ))
        # a duplicate among otherwise valid cells
        bad_calls.append(lambda b: b.write_field_cells(
            np.append(xbars, xbars[0]), np.append(cell_rows, cell_rows[0]),
            [(o, w, np.append(v, v[0])) for o, w, v in fields],
        ))
    for bank in banks:
        before = _bank_state(bank)
        for call in bad_calls:
            _assert_rejected_without_mutation(bank, call)
        for got, want in zip(_bank_state(bank), before):
            assert np.array_equal(got, want)


@settings(max_examples=120, deadline=None)
@given(
    count=st.sampled_from([1, 3]),
    rows=st.sampled_from([1, 63, 64, 70, 128]),
    width=st.sampled_from([1, 7, 8, 9, 31, 32, 33, 63, 64]),
    data=st.data(),
)
def test_cell_gather_and_bounded_reads_equal_the_full_decode(count, rows, width, data):
    """``read_field_cells`` is ``read_field`` per cell, and ``read_field_all`` /
    ``read_column`` restricted to ``xbars`` are the full result indexed by it."""
    columns = 80
    offset = data.draw(st.integers(0, columns - width), label="offset")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31), label="seed"))
    top = (1 << width) - 1
    values = rng.integers(0, top, (count, rows), dtype=np.uint64, endpoint=True)
    values.flat[int(rng.integers(values.size))] = top
    background = rng.integers(0, 2, (columns, count, rows)).astype(bool)
    # Duplicates, several cells of crossbar 0 sharing its first word, or none.
    n = data.draw(st.integers(0, 24), label="cells")
    cells = rng.integers(0, count * rows, n)
    if n >= 4:
        cells[:4] = [0, min(1, rows - 1), min(2, rows - 1), 0]
    xbars, cell_rows = cells // rows, cells % rows
    selections = [
        slice(0, data.draw(st.integers(0, count), label="prefix")),
        slice(0, 0),
        rng.permutation(count),                          # unsorted
        rng.integers(0, count, count + 2),               # repeated
        np.array([], dtype=np.int64),
    ]

    for bank in (CrossbarBank(count, rows, columns),
                 PackedCrossbarBank(count, rows, columns)):
        for column in range(columns):
            bank.write_bool_column(column, background[column])
        bank.write_field_column(offset, width, values)
        cells_before = [bank.read_column(c) for c in range(columns)]
        wear = bank.writes_per_row

        gathered = bank.read_field_cells(xbars, cell_rows, offset, width)
        assert gathered.dtype == np.uint64 and gathered.shape == (n,)
        assert gathered.tolist() == [
            bank.read_field(int(x), int(r), offset, width)
            for x, r in zip(xbars, cell_rows)
        ]
        assert bank.read_field_cells([], [], offset, width).shape == (0,)

        full = bank.read_field_all(offset, width)
        probe = int(rng.integers(columns))
        for xbar_selection in selections:
            part = bank.read_field_all(offset, width, xbar_selection)
            assert part.dtype == np.uint64
            assert np.array_equal(part, full[xbar_selection])
            bits = bank.read_column(probe, xbar_selection)
            assert bits.dtype == np.bool_
            assert np.array_equal(bits, cells_before[probe][xbar_selection])

        bad_calls = [
            lambda b: b.read_field_cells([0, 0], [0], offset, width),
            lambda b: b.read_field_cells([[0]], [[0]], offset, width),
            lambda b: b.read_field_cells([0], [rows], offset, width),
            lambda b: b.read_field_cells([0], [-1], offset, width),
            lambda b: b.read_field_cells([count], [0], offset, width),
            lambda b: b.read_field_cells([-1], [0], offset, width),
            lambda b: b.read_field_cells([0], [0], columns - width + 1, width),
            lambda b: b.read_field_all(columns - width + 1, width, slice(0, 1)),
            lambda b: b.read_column(columns, slice(0, 1)),
        ]
        for call in bad_calls:
            with pytest.raises(ValueError):
                call(bank)
        # Reads leave the bank alone.
        for column, before in enumerate(cells_before):
            assert np.array_equal(bank.read_column(column), before)
        assert np.array_equal(bank.writes_per_row, wear)


@pytest.mark.parametrize("covered", ["all", "subset", "none"])
@pytest.mark.parametrize("keys", [1, 5])
@pytest.mark.parametrize("rows", [64, 100, 1024])    # 100: padding bits in the last word
def test_kernel_gather_equals_indexing_the_decoded_value(rows, keys, covered):
    """``kernel_gather(value, positions, rows)`` is
    ``kernel_to_bool(value)[:, positions, rows]`` on both banks — a stack of
    ``K`` values over all, some or none of the crossbars — and validates its
    index before reading anything."""
    count = 4
    rng = np.random.default_rng(rows * 10 + keys)
    xbars = np.array({"all": [0, 1, 2, 3], "subset": [1, 3], "none": []}[covered], dtype=int)
    n = len(xbars)
    bits = rng.random((keys, count, rows)) < 0.5
    # Row 0 and the last row of a crossbar, duplicates, unsorted; or no cell.
    positions = np.array([0, n - 1, n - 1, 0, *rng.integers(0, max(n, 1), 40)])
    cell_rows = np.array([0, rows - 1, 0, rows - 1, *rng.integers(0, rows, 40)])
    if n == 0:
        positions = cell_rows = np.array([], dtype=np.int64)
    results = []
    for bank in (CrossbarBank(count, rows, 2), PackedCrossbarBank(count, rows, 2)):
        value = bank.kernel_from_bool(bits)[:, xbars]
        decoded = bank.kernel_to_bool(value)
        assert np.array_equal(decoded, bits[:, xbars])
        gathered = bank.kernel_gather(value, positions, cell_rows)
        assert gathered.dtype == np.bool_ and gathered.shape == (keys, len(positions))
        assert np.array_equal(gathered, decoded[:, positions, cell_rows])
        assert bank.kernel_gather(value, [], []).shape == (keys, 0)
        results.append(gathered)

        before = value.copy()
        for bad_positions, bad_rows in (
            ([0], [rows]), ([0], [-1]), ([n], [0]), ([-1], [0]),
            ([0, 0], [0]), ([[0]], [[0]]),
        ):
            with pytest.raises(ValueError):
                bank.kernel_gather(value, bad_positions, bad_rows)
        assert np.array_equal(value, before)              # a read, even when refused
    assert np.array_equal(*results)


@pytest.mark.parametrize("backend", ["packed", "bool"])
@pytest.mark.parametrize("spread", [False, True])
@pytest.mark.parametrize("dense", [False, True])
def test_read_field_cells_decodes_only_the_spanned_range_above_the_share(
    backend, spread, dense
):
    """``read_field_cells`` equals ``read_field_all(...)[xbars, rows]`` at and
    just above ``GATHER_MAX_SHARE`` of the rows of the crossbar range its cells
    span — concentrated on crossbars 2-3 of 8 or spread over all 8, with a
    duplicate.  The packed bank decodes that range (and no more) only above
    the share; the bool bank always gathers."""
    from repro.pim.packed import GATHER_MAX_SHARE

    count, rows, offset, width = 8, 128, 3, 12
    bank = make_bank(backend, count, rows, 32)
    rng = np.random.default_rng(11)
    bank.write_field_column(
        offset, width, rng.integers(0, 1 << width, (count, rows)).astype(np.uint64)
    )
    low, high = (0, count) if spread else (2, 4)
    share = int((high - low) * rows * GATHER_MAX_SHARE)
    n = share + 1 if dense else share
    xbars = rng.integers(low, high, n)
    xbars[[0, -1]] = low, high - 1
    cell_rows = rng.integers(0, rows, n)
    xbars[1], cell_rows[1] = xbars[0], cell_rows[0]          # a duplicate
    expected = bank.read_field_all(offset, width)[xbars, cell_rows]
    decodes = []
    full = bank.read_field_all

    def recording(*args):
        decodes.append(args[2:])
        return full(*args)

    bank.read_field_all = recording
    values = bank.read_field_cells(xbars, cell_rows, offset, width)
    assert values.dtype == np.uint64 and np.array_equal(values, expected)
    decoded = backend == "packed" and dense
    assert decodes == ([(slice(low, high),)] if decoded else [])


@pytest.mark.parametrize("backend", ["packed", "bool"])
@pytest.mark.parametrize("tombstones", [False, True])
def test_decode_cells_equals_indexing_the_decoded_column(backend, tombstones):
    """``decode_cells`` returns ``decode_column(...)[slots]`` for slot counts
    around the bank's gather share (the bank picks gather or bounded decode)."""
    from repro.db.dml import execute_delete
    from repro.db.query import Comparison
    from repro.db.relation import Relation
    from repro.db.schema import Schema, int_attribute
    from repro.pim.controller import PimExecutor
    from repro.pim.packed import GATHER_MAX_SHARE

    config = DEFAULT_CONFIG.with_backend(backend)
    rows = config.pim.crossbar.rows
    records = 2 * rows + 64                  # the last crossbar is partly filled
    rng = np.random.default_rng(5)
    schema = Schema("cells", [int_attribute("a", 12), int_attribute("b", 33)])
    relation = Relation(schema, {
        "a": rng.integers(0, 1 << 12, records).astype(np.uint64),
        "b": rng.integers(0, 1 << 33, records).astype(np.uint64),
    })
    stored = StoredRelation(relation, PimModule(config), label="cells")
    if tombstones:
        execute_delete(
            stored, Comparison("a", "<", 1 << 10), PimExecutor(config),
        )
        assert 0 < stored.live_count < stored.num_records == records
    threshold = int(records * GATHER_MAX_SHARE)
    bank = stored.allocations[0].bank
    for n in (0, 1, threshold - 1, threshold, threshold + 1, records):
        slots = rng.integers(0, records, n)
        if n:
            slots[0] = records - 1            # the partly filled crossbar
        for name in ("a", "b"):
            values = stored.decode_cells(name, slots)
            assert values.dtype == np.uint64 and values.shape == (n,)
            assert np.array_equal(values, stored.decode_column(name)[slots])
            assert np.array_equal(values, relation.column(name)[slots])
    for bad in ([records], [0, records + 5], [-1]):
        with pytest.raises(IndexError):
            stored.decode_cells("a", bad)
    # A bounded decode unpacks the crossbars in use, not the allocation.
    assert bank.count > 3
    assert stored.decode_column("a").shape == (records,)
    assert stored.column_bit(0, stored.layouts[0].valid_column, limit=10).shape == (10,)


# ------------------------------------------------------------- unit checks
def test_padding_rows_stay_zero():
    """Bits beyond ``rows`` in the last packed word never leak into results."""
    bank = PackedCrossbarBank(1, 70, 8)
    bank.set_column(0, True)
    bank.nor_columns(1, (2,))   # NOR of zeros -> all ones
    assert bank.words[0, 0, 1] == np.uint64((1 << 6) - 1)
    assert bank.words[0, 1, 1] == np.uint64((1 << 6) - 1)
    assert bank.read_column(0).sum() == 70
    assert bank.read_field_all(0, 2).shape == (1, 70)


def test_validation_parity_with_reference():
    """Both backends raise the same errors on the same bad inputs."""
    for bank in (CrossbarBank(1, 8, 16), PackedCrossbarBank(1, 8, 16)):
        with pytest.raises(ValueError):
            bank.write_field(0, 0, offset=0, width=4, value=16)
        # Out-of-range rows fail loudly before any mutation (the packed
        # word arithmetic would otherwise silently target padding bits).
        for row in (8, -1):
            with pytest.raises(ValueError):
                bank.write_field(0, row, offset=0, width=4, value=1)
            with pytest.raises(ValueError):
                bank.read_field(0, row, offset=0, width=4)
            with pytest.raises(ValueError):
                bank.write_field_rows(np.array([0, row]), 0, 4, 1)
            with pytest.raises(ValueError):
                bank.write_field_row(row, 0, 4, np.array([1], dtype=np.uint64))
        assert bank.max_writes_since() == 0  # nothing was written
        with pytest.raises(ValueError):
            bank.write_field(0, 0, offset=14, width=4, value=1)
        with pytest.raises(ValueError):
            bank.read_field_all(0, 0)
        with pytest.raises(ValueError):
            bank.nor_columns(0, ())
        with pytest.raises(ValueError):
            bank.read_column(16)
        with pytest.raises(ValueError):
            bank.write_bool_column(3, np.zeros((2, 8), dtype=bool))
        with pytest.raises(ValueError):
            bank.write_field_row(0, 0, 4, np.array([16], dtype=np.uint64))
        with pytest.raises(ValueError):
            bank.copy_row_pairs(np.array([0]), np.array([1, 2]), 0, 8, 4)
    with pytest.raises(ValueError):
        PackedCrossbarBank(0, 8, 16)
    with pytest.raises(ValueError):
        make_bank("sparse", 1, 8, 16)


def test_make_bank_selects_backend():
    assert isinstance(make_bank("packed", 1, 8, 16), PackedCrossbarBank)
    assert isinstance(make_bank("bool", 1, 8, 16), CrossbarBank)
    assert make_bank(DEFAULT_CONFIG.backend, 1, 8, 16).backend == DEFAULT_CONFIG.backend


def test_module_allocates_configured_backend():
    packed_module = PimModule(DEFAULT_CONFIG.with_backend("packed"))
    bool_module = PimModule(DEFAULT_CONFIG.with_backend("bool"))
    assert isinstance(
        packed_module.allocate_pages(1, "a").bank, PackedCrossbarBank
    )
    assert isinstance(bool_module.allocate_pages(1, "a").bank, CrossbarBank)


# -------------------------------------------------------- SSB query parity
def _one_xb_engine(prejoined, backend):
    config = DEFAULT_CONFIG.with_backend(backend)
    module = PimModule(config)
    stored = StoredRelation(
        prejoined, module, label="one_xb",
        aggregation_width=max_aggregated_width(prejoined),
        reserve_bulk_aggregation=False,
    )
    return PimQueryEngine(stored, label="one_xb", timing_scale=100.0)


@pytest.fixture(scope="module")
def parity_engines(ssb_prejoined):
    """Gate-level one-xb engines on both backends (module-scoped)."""
    return {
        backend: _one_xb_engine(ssb_prejoined, backend)
        for backend in ("bool", "packed")
    }


@pytest.mark.parametrize("query_name", REPRESENTATIVE)
def test_ssb_gate_level_parity_representative(parity_engines, query_name):
    """Gate-level NOR execution: identical rows and stats on both backends."""
    query = ALL_QUERIES[query_name]
    assert_same_execution(
        parity_engines["packed"].execute(query), parity_engines["bool"].execute(query)
    )


@pytest.mark.slow
@pytest.mark.parametrize(
    "query_name", [q for q in QUERY_ORDER if q not in REPRESENTATIVE]
)
def test_ssb_gate_level_parity_full_sweep(parity_engines, query_name):
    """The remaining SSB queries, gate level on both backends."""
    query = ALL_QUERIES[query_name]
    assert_same_execution(
        parity_engines["packed"].execute(query), parity_engines["bool"].execute(query)
    )


@pytest.fixture(scope="module")
def sharded_parity_engines(ssb_prejoined):
    """Vectorized K=4 scatter-gather engines on both backends."""
    width = max_aggregated_width(ssb_prejoined)
    engines = {}
    for backend in ("bool", "packed"):
        module = PimModule(DEFAULT_CONFIG.with_backend(backend))
        sharded = ShardedStoredRelation(
            ssb_prejoined, module, shards=4, label=f"parity-{backend}",
            aggregation_width=width, reserve_bulk_aggregation=False,
        )
        engines[backend] = ShardedQueryEngine(
            sharded, label=f"parity-{backend}", timing_scale=100.0,
        )
    return engines


@pytest.mark.parametrize("query_name", QUERY_ORDER)
def test_ssb_sharded_parity_k4(sharded_parity_engines, query_name):
    """All 13 SSB queries sharded K=4: identical rows and stats per backend."""
    query = ALL_QUERIES[query_name]
    assert_same_execution(
        sharded_parity_engines["packed"].execute(query),
        sharded_parity_engines["bool"].execute(query),
    )
