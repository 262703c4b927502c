"""Functional model of a bank of memory crossbar arrays.

A :class:`CrossbarBank` holds the cell contents of ``count`` crossbars, each
``rows x columns`` single-bit cells, as one NumPy boolean array.  All
crossbars of a bank execute the same bulk-bitwise operation concurrently
(this is exactly how a relation stored across many crossbars behaves in the
paper: the host broadcasts the same PIM request to every page of the
relation), so the functional simulation applies each primitive to the whole
bank with one vectorised NumPy operation while the timing model charges the
cycle count of a single crossbar.

The bank also tracks *wear*: the number of cell writes experienced by every
crossbar row.  Fig. 9 of the paper reports the required cell endurance as the
maximum per-row write count divided by the cells of a row (assuming
wear-levelling inside the row), which :mod:`repro.memory.endurance` computes
from these counters.  Wear is kept where it is written: a write to every row
of a crossbar (a bulk primitive, a program run or charge, a whole column) adds
to that crossbar's entry of ``xbar_wear``, a write to single rows (a field
write, a row copy, a result row, a compaction rewrite) to ``row_wear``; the
read-only ``writes_per_row`` is their sum.

Bit order convention: a ``width``-bit field stored at column ``offset`` keeps
its least-significant bit in column ``offset`` and its most-significant bit in
column ``offset + width - 1``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def check_cell_index(bank, xbars, rows):
    """Validate per-cell ``(xbar, row)`` coordinates; returns both as arrays.

    Raises ``ValueError`` — before the caller touches the bank — on mismatched
    lengths, non-1-d input or a crossbar or row out of range."""
    xbars = np.asarray(xbars, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    if xbars.ndim != 1 or xbars.shape != rows.shape:
        raise ValueError("xbars and rows must be equally long 1-d arrays")
    bank._check_rows(rows)
    if xbars.size and (xbars.min() < 0 or xbars.max() >= bank.count):
        raise ValueError(f"crossbar index outside crossbars 0..{bank.count}")
    return xbars, rows


def check_cells(bank, xbars, rows, fields):
    """Validate a multi-field per-cell scatter on either bank.

    ``fields`` is a sequence of ``(offset, width, values)``, one value per
    cell each.  Raises ``ValueError`` — before the caller mutates anything —
    on whatever :func:`check_cell_index` rejects, a duplicate ``(xbar, row)``
    cell, a field outside the bank, two fields sharing a column, values not
    one per cell or a value that does not fit in its field.

    Returns ``(xbars, rows, columns, bits)``: the cells sorted by
    ``(xbar, row)``, every field's columns concatenated (``(C,)``) and the
    cells' bit in each of those columns (``(C, cells)`` ``uint64`` 0/1).
    """
    xbars, rows = check_cell_index(bank, xbars, rows)
    for offset, width, _ in fields:
        bank._check_field(offset, width)
    spans = sorted((offset, width) for offset, width, _ in fields)
    for (offset, width), (following, _) in zip(spans, spans[1:]):
        if following < offset + width:
            raise ValueError(
                f"fields overlap at column {following} in one scatter"
            )
    values = [np.asarray(v, dtype=np.uint64) for _, _, v in fields]
    if any(v.shape != xbars.shape for v in values):
        raise ValueError("values must hold one entry per (xbar, row) cell")
    cells = xbars * bank.rows + rows
    order = np.argsort(cells, kind="stable")
    if np.any(np.diff(cells[order]) == 0):
        raise ValueError("duplicate (xbar, row) cells in one scatter")
    stacked = np.array(values, dtype=np.uint64).reshape(len(values), len(cells))
    widths = np.array([width for _, width, _ in fields], dtype=np.int64)
    # ``2**width - 1`` is exact in uint64 for every width up to 64.
    tops = np.array([(1 << int(w)) - 1 for w in widths], dtype=np.uint64)
    too_wide = np.any(stacked > tops[:, None], axis=1)
    if np.any(too_wide):
        raise ValueError(
            f"some values do not fit in {widths[np.argmax(too_wide)]} bits"
        )
    # Row ``j`` of the bits is bit ``shifts[j]`` of field ``field_of[j]``;
    # shifted in place (fresh temporaries of this size cost more than the ops).
    field_of = np.repeat(np.arange(len(widths)), widths)
    shifts = np.arange(int(widths.sum())) - np.repeat(np.cumsum(widths) - widths, widths)
    offsets = np.array([offset for offset, _, _ in fields], dtype=np.int64)
    bits = stacked[:, order][field_of]
    bits >>= shifts.astype(np.uint64)[:, None]
    bits &= np.uint64(1)
    return xbars[order], rows[order], offsets[field_of] + shifts, bits


class BankBase:
    """The geometry, validation and wear counters both bank backends share.

    Wear lives in two counters that only the bank writes: ``xbar_wear``
    ``(count,)``, writes to every row of a crossbar, and ``row_wear``
    ``(count, rows)``, writes to single rows.  A charge to whole crossbars
    (:meth:`add_wear`) therefore costs O(crossbars) whatever its selection;
    :attr:`writes_per_row` is the per-row total, read-only.
    """

    def __init__(self, count: int, rows: int, columns: int) -> None:
        if count <= 0 or rows <= 0 or columns <= 0:
            raise ValueError("count, rows and columns must all be positive")
        self.count = int(count)
        self.rows = int(rows)
        self.columns = int(columns)
        self.xbar_wear = np.zeros(self.count, dtype=np.int64)
        self.row_wear = np.zeros((self.count, self.rows), dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(count={self.count}, rows={self.rows}, "
            f"columns={self.columns})"
        )

    def _check_field(self, offset: int, width: int) -> None:
        if width <= 0 or width > 64:
            raise ValueError(f"field width must be in [1, 64], got {width}")
        if offset < 0 or offset + width > self.columns:
            raise ValueError(
                f"field [{offset}, {offset + width}) outside crossbar columns "
                f"0..{self.columns}"
            )

    def _check_rows(self, rows) -> None:
        # Out-of-range rows must fail loudly (and before any mutation): the
        # packed word arithmetic would otherwise silently target padding bits.
        if isinstance(rows, (int, np.integer)):
            bad = rows < 0 or rows >= self.rows
        else:
            rows = np.asarray(rows)
            bad = rows.size and (np.any(rows < 0) or np.any(rows >= self.rows))
        if bad:
            raise ValueError(f"row index outside crossbar rows 0..{self.rows}")

    def _check_kernel_columns(self, column) -> None:
        """A kernel read's ``column``: one column, or a ``slice`` of them."""
        start, stop = (
            (column.start, column.stop) if isinstance(column, slice)
            else (column, column + 1)
        )
        if start < 0 or stop > self.columns or start >= stop:
            raise ValueError(f"column {column} out of range")

    @staticmethod
    def _selection(xbars):
        """A bank call's crossbars as an index: every crossbar
        (``slice(None)``, a view) for ``None``, a ``slice`` (one contiguous
        run, also a view) as it is, else ``int64`` indices."""
        if xbars is None:
            return slice(None)
        if isinstance(xbars, slice):
            return xbars
        return np.asarray(xbars, dtype=np.int64)

    def _targets(self, xbars) -> int:
        """How many crossbars ``xbars`` (``None``, a slice or indices) selects."""
        if xbars is None:
            return self.count
        if isinstance(xbars, slice):
            return len(range(*xbars.indices(self.count)))
        return len(np.asarray(xbars))

    # ---------------------------------------------------------------- wear
    @property
    def writes_per_row(self) -> np.ndarray:
        """Cell writes of every row, ``(count, rows)`` ``int64``: a fresh
        read-only array (an in-place write to it raises)."""
        total = self.row_wear + self.xbar_wear[:, None]
        total.flags.writeable = False
        return total

    def add_wear(self, writes: int, xbars=None) -> None:
        """Charge ``writes`` cell writes to every row of every crossbar, or of
        the crossbars ``xbars`` (a mask, a slice or an index array; a crossbar
        listed twice is charged once)."""
        if xbars is None:
            self.xbar_wear += int(writes)
        else:
            self.xbar_wear[xbars] += int(writes)

    def add_row_wear(self, writes: int, xbars, rows) -> None:
        """Charge ``writes`` cell writes to the rows ``row_wear[xbars, rows]``
        selects (a slice — ``slice(None)`` for every crossbar — or indices; a
        cell selected twice is charged once)."""
        self.row_wear[xbars, rows] += int(writes)

    def add_slot_wear(self, writes: int, slots: int) -> None:
        """Charge ``writes`` cell writes to each of the first ``slots`` rows
        in slot order (crossbar-major: slot ``s`` is row ``s % rows`` of
        crossbar ``s // rows``)."""
        self.row_wear.reshape(-1)[:slots] += int(writes)

    def wear_snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the two wear counters, for :meth:`max_writes_since`."""
        return self.xbar_wear.copy(), self.row_wear.copy()

    def max_writes_since(
        self, snapshot: tuple[np.ndarray, np.ndarray] | None = None
    ) -> int:
        """Maximum per-row write count, optionally relative to a snapshot.

        The row delta is reduced per crossbar before the crossbar delta is
        added, so no ``(count, rows)`` total is built."""
        xbar_wear, row_wear = (0, 0) if snapshot is None else snapshot
        row_delta = (self.row_wear - row_wear).max(axis=1)
        return int((row_delta + (self.xbar_wear - xbar_wear)).max())

    def reset_wear(self) -> None:
        """Zero the wear counters (used after the initial data load)."""
        self.xbar_wear[:] = 0
        self.row_wear[:] = 0


class CrossbarBank(BankBase):
    """A bank of identical memory crossbars operated in lock step.

    This is the byte-per-bit *reference* backend; the default simulation
    backend is the bit-packed :class:`~repro.pim.packed.PackedCrossbarBank`,
    which implements the identical surface (including the wear-counter side
    effects) on row-packed uint64 words.  Both are selected through
    :attr:`repro.config.SystemConfig.backend`.
    """

    backend = "bool"

    def __init__(self, count: int, rows: int, columns: int) -> None:
        super().__init__(count, rows, columns)
        self.bits = np.zeros((self.count, self.rows, self.columns), dtype=bool)

    @staticmethod
    def _value_bits(values, width: int) -> np.ndarray:
        """LSB-first bits of value(s), bool ``(..., width)``; shifted in ``uint64``
        (a Python int >= ``2**63`` overflows the default signed shift dtype)."""
        shifts = np.arange(width, dtype=np.uint64)
        values = np.asarray(values, dtype=np.uint64)[..., None]
        return ((values >> shifts) & np.uint64(1)).astype(bool)

    @staticmethod
    def _decode_bits(bits: np.ndarray) -> np.ndarray:
        """Unsigned values of LSB-first bit vectors along the last axis:
        packed into little-endian bytes, (padded) reinterpreted as ``uint64``."""
        packed = np.packbits(bits, axis=-1, bitorder="little")
        out = np.zeros(packed.shape[:-1] + (8,), dtype=np.uint8)
        out[..., : packed.shape[-1]] = packed
        return out.view("<u8")[..., 0]

    # -------------------------------------------------------------- load/read
    def write_field(self, xbar: int, row: int, offset: int, width: int, value: int) -> None:
        """Write an unsigned ``width``-bit ``value`` into one crossbar row."""
        self._check_field(offset, width)
        self._check_rows(row)
        if value < 0 or value >= (1 << width):
            raise ValueError(f"value {value} does not fit in {width} bits")
        self.bits[xbar, row, offset:offset + width] = self._value_bits(value, width)
        self.add_row_wear(width, xbar, row)

    def read_field(self, xbar: int, row: int, offset: int, width: int) -> int:
        """Read an unsigned ``width``-bit value from one crossbar row."""
        self._check_field(offset, width)
        self._check_rows(row)
        return int(self._decode_bits(self.bits[xbar, row, offset:offset + width]))

    def write_field_column(
        self, offset: int, width: int, values: np.ndarray, count_wear: bool = True
    ) -> None:
        """Write a field of every row of every crossbar in one shot.

        ``values`` must have shape ``(count, rows)``.  This is the bulk-load
        path used when a relation is first stored into the PIM module.
        """
        self._check_field(offset, width)
        values = np.asarray(values, dtype=np.uint64)
        if values.shape != (self.count, self.rows):
            raise ValueError(
                f"expected values of shape {(self.count, self.rows)}, "
                f"got {values.shape}"
            )
        if width < 64 and np.any(values >= np.uint64(1 << width)):
            raise ValueError(f"some values do not fit in {width} bits")
        # Fast path: explode the values into bits with one unpackbits call
        # (little-endian bytes, LSB-first bits — the row bit order).
        raw = np.ascontiguousarray(values, dtype="<u8").view(np.uint8)
        raw = raw.reshape(self.count, self.rows, 8)
        bits = np.unpackbits(raw, axis=-1, bitorder="little")[:, :, :width]
        self.bits[:, :, offset:offset + width] = bits.astype(bool)
        if count_wear:
            self.add_wear(width)

    def read_field_all(self, offset: int, width: int, xbars=None) -> np.ndarray:
        """Decode a field from every row of every crossbar.

        Returns an array of shape ``(count, rows)`` with dtype ``uint64``
        (``(len(xbars), rows)`` when ``xbars``, a slice or an index array,
        restricts the decode).  This is a *functional* helper (it does not
        model timing); callers in the host read path and the aggregation
        circuit account for the reads separately.
        """
        self._check_field(offset, width)
        xbars = slice(None) if xbars is None else xbars
        return self._decode_bits(self.bits[xbars, :, offset:offset + width])

    def read_field_cells(self, xbars, rows, offset: int, width: int) -> np.ndarray:
        """Read one value per listed ``(xbar, row)`` cell, 1-d ``uint64``: a loop
        of :meth:`read_field` (duplicates allowed) as one gather, validated first."""
        self._check_field(offset, width)
        xbars, rows = check_cell_index(self, xbars, rows)
        return self._decode_bits(self.bits[xbars, rows, offset:offset + width])

    def read_column(self, column: int, xbars=None) -> np.ndarray:
        """Return one bit column, shape ``(count, rows)`` (``xbars`` as above)."""
        if column < 0 or column >= self.columns:
            raise ValueError(f"column {column} out of range")
        xbars = slice(None) if xbars is None else xbars
        return np.array(self.bits[xbars, :, column])

    def write_bool_column(
        self, column: int, values: np.ndarray, count_wear: bool = True
    ) -> None:
        """Overwrite one bit column from booleans of shape ``(count, rows)``."""
        if column < 0 or column >= self.columns:
            raise ValueError(f"column {column} out of range")
        values = np.asarray(values, dtype=bool)
        if values.shape != (self.count, self.rows):
            raise ValueError(
                f"expected values of shape {(self.count, self.rows)}, "
                f"got {values.shape}"
            )
        self.bits[:, :, column] = values
        if count_wear:
            self.add_wear(1)

    def write_field_rows(
        self, rows: np.ndarray, offset: int, width: int, value: int
    ) -> None:
        """Write one immediate into a field of several (distinct) rows.

        A broadcast equivalent of calling :meth:`write_field` for every
        crossbar and every row of ``rows``, with identical wear accounting.
        """
        self._check_field(offset, width)
        self._check_rows(rows)
        if value < 0 or value >= (1 << width):
            raise ValueError(f"value {value} does not fit in {width} bits")
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return
        self.bits[:, rows, offset:offset + width] = self._value_bits(value, width)
        self.add_row_wear(width, slice(None), rows)

    def write_field_row(
        self,
        row: int,
        offset: int,
        width: int,
        values: np.ndarray,
        xbars: np.ndarray | None = None,
    ) -> None:
        """Write a per-crossbar value into a field of one row everywhere.

        A broadcast equivalent of ``write_field(xbar, row, ...)`` for every
        crossbar, with ``values`` of shape ``(count,)``.  With ``xbars`` the
        write (and its wear) is restricted to those crossbars — ``values``
        then carries one value per listed crossbar.
        """
        self._check_field(offset, width)
        self._check_rows(row)
        values = np.asarray(values, dtype=np.uint64)
        targets = self._targets(xbars)
        if values.shape != (targets,):
            raise ValueError(f"expected values of shape {(targets,)}, got {values.shape}")
        if width < 64 and np.any(values >= np.uint64(1 << width)):
            raise ValueError(f"some values do not fit in {width} bits")
        xbars = self._selection(xbars)
        self.bits[xbars, row, offset:offset + width] = self._value_bits(values, width)
        self.add_row_wear(width, xbars, row)

    def write_field_cells(self, xbars, rows, fields) -> None:
        """Write one value per ``(xbar, row)`` cell into each of ``fields`` —
        one scatter of ``(offset, width, values)`` fields.

        Equivalent to ``write_field(xbars[i], rows[i], offset, width,
        values[i])`` for every field and every ``i`` over *distinct* cells,
        with identical wear; everything is validated (:func:`check_cells`)
        before the first mutation.
        """
        xbars, rows, columns, bits = check_cells(self, xbars, rows, fields)
        self.bits[xbars, rows, columns[:, None]] = bits.astype(bool)
        self.add_row_wear(len(columns), xbars, rows)

    # ---------------------------------------------------- fused kernel surface
    def kernel_read(self, column: int, xbars: np.ndarray | None = None) -> np.ndarray:
        """Native value of one column for fused evaluation, ``(count, rows)``;
        of a ``slice`` of columns (a field's bit planes), ``(width, count,
        rows)``.

        Without ``xbars`` or with a ``slice`` this is a live view — the fused
        kernel snapshots any value it still needs before writing outputs back.
        """
        self._check_kernel_columns(column)
        value = self.bits[self._selection(xbars), :, column]
        return np.moveaxis(value, -1, 0) if isinstance(column, slice) else value

    def kernel_write(
        self, column: int, value, xbars: np.ndarray | None = None
    ) -> None:
        """Store a fused output value; wear is charged in bulk by the caller."""
        if column < 0 or column >= self.columns:
            raise ValueError(f"column {column} out of range")
        self.bits[self._selection(xbars), :, column] = value

    def kernel_ones(self):
        """The all-true value in this backend's native representation."""
        return np.True_

    def kernel_to_bool(self, value) -> np.ndarray:
        """Decode a kernel value into booleans of shape ``(..., n, rows)``."""
        return np.asarray(value, dtype=bool)

    def kernel_from_bool(self, values: np.ndarray):
        """Encode booleans of shape ``(..., n, rows)`` as a kernel value."""
        return np.asarray(values, dtype=bool)

    # ----------------------------------------------------- bulk primitives
    def nor_columns(self, dest: int, srcs: Sequence[int], xbars=None) -> None:
        """Stateful NOR: ``dest`` column of every row becomes NOR of ``srcs``.

        This is the MAGIC-style primitive; it executes on every row of every
        crossbar of the bank concurrently and writes the destination cell of
        every row (one cell write per row).  With ``xbars`` (a slice or an
        index array) only those crossbars run it — the functional side of
        crossbar skipping: the controller broadcasts the operation only to
        the pages holding candidate crossbars, so the other crossbars' cells
        and wear are untouched.
        """
        if not srcs:
            raise ValueError("NOR needs at least one source column")
        xbars = self._selection(xbars)
        acc = self.bits[xbars, :, srcs[0]].copy()
        for src in srcs[1:]:
            acc |= self.bits[xbars, :, src]
        self.bits[xbars, :, dest] = ~acc
        self.add_wear(1, xbars)

    def set_column(self, dest: int, value: bool, xbars=None) -> None:
        """Initialise a column of every row to a constant (a bulk write), of
        the crossbars ``xbars`` only if given."""
        xbars = self._selection(xbars)
        self.bits[xbars, :, dest] = bool(value)
        self.add_wear(1, xbars)

    def copy_row_pairs(
        self,
        src_rows: np.ndarray,
        dst_rows: np.ndarray,
        src_offset: int,
        dst_offset: int,
        width: int,
    ) -> None:
        """Copy a field from ``src_rows`` to the same field area of ``dst_rows``.

        Used by the in-crossbar reduction tree of
        :mod:`repro.pim.arithmetic`: at every reduction level the accumulator
        of the source row of each pair is copied into the operand slot of the
        destination row.  All crossbars perform the copy concurrently; the
        hardware performs the pairs serially, which the controller accounts
        for separately.
        """
        self._check_field(src_offset, width)
        self._check_field(dst_offset, width)
        src_rows = np.asarray(src_rows, dtype=np.int64)
        dst_rows = np.asarray(dst_rows, dtype=np.int64)
        if src_rows.shape != dst_rows.shape:
            raise ValueError("src_rows and dst_rows must have the same shape")
        src_block = self.bits[:, src_rows, src_offset:src_offset + width]
        self.bits[:, dst_rows, dst_offset:dst_offset + width] = src_block
        self.add_row_wear(width, slice(None), dst_rows)
