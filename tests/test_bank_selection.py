"""The crossbar-selection contract of both bank backends.

A bank call's ``xbars`` is ``None`` (every crossbar), a ``slice`` (one
contiguous run) or an index array; :func:`~repro.pim.controller.crossbar_call`
turns a candidate mask into the cheapest of the three.  A slice must mean
exactly what the equal index array means — the same stored bits, decoded
values and wear — and on the packed bank, whose store is column-major, a
column of a slice of crossbars is a view of the bank rather than a copy.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pim.controller import crossbar_call
from repro.pim.packed import make_bank

ROWS = 70          # crosses the 64-row word boundary
COLUMNS = 16
FIELD = (4, 7)     # (offset, width) of the field the reads and writes use


def _raw(bank):
    return bank.words if bank.backend == "packed" else bank.bits


def _twin_banks(backend, count, seed):
    """Two identical banks holding random bits, with some wear already."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, (COLUMNS, count, ROWS)).astype(bool)
    banks = [make_bank(backend, count, ROWS, COLUMNS) for _ in range(2)]
    for bank in banks:
        for column in range(COLUMNS):
            bank.write_bool_column(column, bits[column])
        bank.add_row_wear(3, slice(None), np.arange(0, ROWS, 5))
    return banks


def _calls(count, lo, hi, seed):
    """Every bank method that takes ``xbars``, as ``(name, call(bank, xbars))``."""
    rng = np.random.default_rng(seed + 1)
    n = hi - lo
    offset, width = FIELD
    values = rng.integers(0, 1 << width, n).astype(np.uint64)
    words_of = lambda bank: bank.kernel_from_bool(  # noqa: E731
        rng.integers(0, 2, (n, ROWS)).astype(bool)
    )
    return [
        ("nor_columns", lambda bank, x: bank.nor_columns(0, (1, 2, 3), x)),
        ("set_column", lambda bank, x: bank.set_column(2, True, x)),
        ("write_field_row", lambda bank, x: bank.write_field_row(
            int(rng.integers(ROWS)), offset, width, values, xbars=x)),
        ("kernel_write", lambda bank, x: bank.kernel_write(1, words_of(bank), x)),
        ("add_wear", lambda bank, x: bank.add_wear(2, x)),
        ("add_row_wear", lambda bank, x: bank.add_row_wear(5, x, 0)),
        ("kernel_read", lambda bank, x: bank.kernel_to_bool(bank.kernel_read(3, x))),
        ("read_column", lambda bank, x: bank.read_column(5, x)),
        ("read_field_all", lambda bank, x: bank.read_field_all(offset, width, x)),
    ]


@settings(max_examples=40, deadline=None)
@given(
    backend=st.sampled_from(["packed", "bool"]),
    count=st.integers(1, 6),
    data=st.data(),
)
def test_a_slice_means_the_equal_index_array(backend, count, data):
    """Each method called with ``slice(lo, hi)`` on one bank and with
    ``arange(lo, hi)`` on its twin leaves identical bits and wear and returns
    identical values."""
    lo = data.draw(st.integers(0, count - 1))
    hi = data.draw(st.integers(lo + 1, count))
    seed = data.draw(st.integers(0, 2**16))
    sliced, indexed = _twin_banks(backend, count, seed)
    # The calls draw random operands: build them once, so both banks get the same.
    for (name, call), (_, twin) in zip(
        _calls(count, lo, hi, seed), _calls(count, lo, hi, seed)
    ):
        got = call(sliced, slice(lo, hi))
        want = twin(indexed, np.arange(lo, hi))
        if got is not None:
            assert np.array_equal(got, want), name
        assert np.array_equal(_raw(sliced), _raw(indexed)), name
        assert np.array_equal(sliced.xbar_wear, indexed.xbar_wear), name
        assert np.array_equal(sliced.row_wear, indexed.row_wear), name
    assert np.array_equal(
        sliced.read_field_all(*FIELD), indexed.read_field_all(*FIELD)
    )


@pytest.mark.parametrize(
    "mask,expected",
    [
        ([1, 1, 1, 1, 1], None),
        ([0, 1, 1, 1, 0], slice(1, 4)),
        ([1, 1, 1, 1, 0], slice(0, 4)),
        ([0, 0, 0, 0, 1], slice(4, 5)),
        ([1, 0, 1, 1, 0], [0, 2, 3]),
        ([0, 0, 0, 0, 0], []),
    ],
)
def test_crossbar_call_picks_none_a_slice_or_indices(mask, expected):
    bank = make_bank("packed", 5, ROWS, COLUMNS)
    idx, xbars = crossbar_call(bank, np.array(mask, dtype=bool))
    assert np.array_equal(idx, np.flatnonzero(mask))
    if expected is None or isinstance(expected, slice):
        assert xbars == expected
    else:
        assert isinstance(xbars, np.ndarray)
        assert np.array_equal(xbars, expected)


@pytest.mark.parametrize("xbars", [None, slice(0, 3), slice(2, 5)])
def test_packed_kernel_read_of_a_run_is_a_view(xbars):
    """The packed store is column-major, so a column of every crossbar or of
    one contiguous run is a contiguous view of ``words``; an index array
    copies."""
    bank = make_bank("packed", 5, ROWS, COLUMNS)
    value = bank.kernel_read(3, xbars)
    assert np.shares_memory(value, bank.words)
    assert value.flags.c_contiguous
    assert not np.shares_memory(bank.kernel_read(3, [0, 2]), bank.words)


@pytest.mark.parametrize("backend", ["packed", "bool"])
@pytest.mark.parametrize("xbars", [None, slice(1, 4), [0, 3]])
def test_kernel_read_of_a_column_slice_stacks_the_planes(backend, xbars):
    """A ``slice`` of columns reads a field's bit planes as one
    ``(width, n, ...)`` value: the single-column reads, stacked."""
    bank, _ = _twin_banks(backend, 5, 0)
    planes = bank.kernel_read(slice(4, 11), xbars)
    expected = np.stack([bank.kernel_read(column, xbars) for column in range(4, 11)])
    assert np.array_equal(planes, expected)
    for bad in (slice(-1, 2), slice(10, COLUMNS + 1), slice(3, 3)):
        with pytest.raises(ValueError, match="out of range"):
            bank.kernel_read(bad, xbars)
