"""Bit-packed functional model of a crossbar bank.

:class:`PackedCrossbarBank` is a drop-in replacement for
:class:`~repro.pim.crossbar.CrossbarBank` that stores each *column* of the
bank as row-packed 64-bit words instead of one byte per cell: the cell at
``(xbar, row, column)`` lives in bit ``row % 64`` of
``words[xbar, column, row // 64]``.  A bulk-bitwise primitive — the paper's
column NOR executing concurrently on every row of every crossbar — then
becomes a whole-word bitwise operation (``~(a | b)`` folds 64 rows per
machine word), which is exactly the row parallelism the hardware model
assumes and makes the functional simulation 64x denser in memory and far
cheaper per primitive than the boolean reference backend.

Two invariants keep the backends interchangeable:

* **Bit exactness** — every method produces the same stored bits, decoded
  fields and error behaviour as :class:`CrossbarBank`; the padding bits of
  the last word of a column (rows beyond ``rows``) are always zero.
* **Stats are metadata** — timing, energy and wear are charged by
  :class:`~repro.pim.controller.PimExecutor` from *program* metadata (cycle
  counts, writes per row), never from backend internals, so both backends
  report identical :class:`~repro.pim.stats.PimStats`.  The bank itself only
  maintains the same per-row ``writes_per_row`` counters as the boolean
  backend.

**Field writes**: ``write_field`` (one cell), ``write_field_cells`` (a value
per listed ``(xbar, row)`` cell — the INSERT scatter), ``write_field_row`` (one
row, a value per crossbar), ``write_field_rows`` (one immediate, several rows
of every crossbar), ``write_field_column`` (every row of every crossbar); each
equals the corresponding loop of ``write_field``, wear included.

**Field reads**: ``read_field`` (one cell), ``read_field_cells`` (a value per
listed ``(xbar, row)`` cell, duplicates allowed — a loop of ``read_field`` as
one gather), ``read_field_all`` (every row) and ``read_column`` (a bit column);
the last two unpack and return only the crossbars ``xbars`` (a slice or an
index array, as for ``kernel_read`` / ``write_field_row``) when it is given.

**Field codec.**  A ``width``-bit field is ``width`` bit planes of shape
``(count, rows)``: bulk decode (``read_field_all``) unpacks the slab once
along rows and accumulates ``plane[b] << b`` in the narrowest unsigned dtype
holding the field, widened to ``uint64`` once at the end; bulk encode
(``write_field_column``) mirrors it, ``(value >> b) & 1`` per plane straight
into the layout that gets packed.  No transposed copy is made, and no decoded
column is cached: a 12-bit decode of 96 x 1024 rows costs ~0.4 ms, which does
not pay for write-invalidation state on the bank.  With ``xbars`` the decode
is *bounded* (3 crossbars in use of a page's 32 cost 3), and
``read_field_cells`` is the same fold over one word per (cell, plane) taken
straight from ``words``.  ``StoredRelation.decode_cells`` alone picks between
them (gather up to 1/32 of the slots in use), from this measurement — gather /
full decode + index, ms, 96 x 1 024 rows, min of 15, sorted distinct cells,
measured once on a 2-vCPU host (no gate re-times it)::

    cells read   0.5 %        3.1 %        8 %          20 %         100 %
    4-bit        0.03 / 0.11  0.07 / 0.11  0.16 / 0.11  1.00 / 0.13   4.1 / 0.22
    12-bit       0.05 / 0.41  0.14 / 0.40  0.30 / 0.36  0.80 / 0.42   6.1 / 0.50
    27-bit       0.08 / 1.44  0.28 / 1.44  0.64 / 1.43  1.63 / 1.48  12.6 / 1.56

The backend is selected by :attr:`repro.config.SystemConfig.backend`
(``"packed"`` by default, ``"bool"`` for the reference implementation) and
instantiated through :func:`make_bank` by
:meth:`repro.pim.module.PimModule.allocate_pages`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.config import validate_backend
from repro.pim.crossbar import CrossbarBank, check_cell_index, check_cells

_ONE = np.uint64(1)
_WORD_BITS = 64


def _field_dtype(width: int) -> np.dtype:
    """Narrowest unsigned dtype that holds a ``width``-bit field."""
    return np.dtype(next(t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                         if width <= 8 * np.dtype(t).itemsize))


def _fold_planes(planes: np.ndarray, dtype) -> np.ndarray:
    """``sum(planes[b] << b)`` over the leading axis, in ``dtype``: a Horner
    pass, MSB first (NumPy's narrow-integer shifts are not SIMD, adds are)."""
    out = planes[-1].astype(dtype)
    for plane in planes[-2::-1]:
        out += out
        out |= plane
    return out


class PackedCrossbarBank:
    """A bank of identical crossbars stored as row-packed uint64 words.

    The array layout is ``(count, columns, rows_words)`` with
    ``rows_words = ceil(rows / 64)``; bit ``row % 64`` of word ``row // 64``
    holds the cell of ``row``.  All methods mirror
    :class:`~repro.pim.crossbar.CrossbarBank` bit-exactly, including the
    wear-counter side effects and validation errors.
    """

    backend = "packed"

    def __init__(self, count: int, rows: int, columns: int) -> None:
        if count <= 0 or rows <= 0 or columns <= 0:
            raise ValueError("count, rows and columns must all be positive")
        self.count = int(count)
        self.rows = int(rows)
        self.columns = int(columns)
        self.rows_words = (self.rows + _WORD_BITS - 1) // _WORD_BITS
        self.words = np.zeros(
            (self.count, self.columns, self.rows_words), dtype=np.uint64
        )
        self.writes_per_row = np.zeros((self.count, self.rows), dtype=np.int64)
        # Valid-bit mask of each word of a column: all ones except the
        # padding bits of the last word, which stay zero forever.
        tail = np.full(self.rows_words, np.uint64(0xFFFFFFFFFFFFFFFF))
        spare = self.rows_words * _WORD_BITS - self.rows
        if spare:
            tail[-1] = np.uint64((1 << (_WORD_BITS - spare)) - 1)
        self._row_mask = tail

    # ------------------------------------------------------------------ misc
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackedCrossbarBank(count={self.count}, rows={self.rows}, "
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
        # word arithmetic would otherwise silently target padding bits.
        if isinstance(rows, (int, np.integer)):
            bad = rows < 0 or rows >= self.rows
        else:
            rows = np.asarray(rows)
            bad = rows.size and (np.any(rows < 0) or np.any(rows >= self.rows))
        if bad:
            raise ValueError(f"row index outside crossbar rows 0..{self.rows}")

    # ------------------------------------------------------- pack/unpack core
    def _unpack_columns(self, offset: int, width: int, xbars=None) -> np.ndarray:
        """Bit planes of a column slab, booleans of shape ``(count, width, rows)``.

        A writable zero-copy bool view of the freshly unpacked 0/1 bytes, of
        the crossbars ``xbars`` (a slice or an index array) if given.
        """
        xbars = slice(None) if xbars is None else xbars
        raw = np.ascontiguousarray(
            self.words[xbars, offset:offset + width, :], dtype="<u8"
        ).view(np.uint8)
        bits = np.unpackbits(raw, axis=-1, bitorder="little")
        return bits[:, :, : self.rows].view(np.bool_)

    def _pack_rows(self, planes: np.ndarray) -> np.ndarray:
        """Pack 0/1 planes of shape ``(..., rows)`` into ``(..., rows_words)`` words.

        Padding bits of the last word are zero; the zero-fill-and-copy is
        only needed when ``rows`` does not fill whole words.
        """
        packed = np.packbits(planes, axis=-1, bitorder="little")
        if packed.shape[-1] != self.rows_words * 8:
            out = np.zeros(
                packed.shape[:-1] + (self.rows_words * 8,), dtype=np.uint8
            )
            out[..., : packed.shape[-1]] = packed
            packed = out
        return packed.view("<u8")

    def _pack_columns(self, offset: int, width: int, slab: np.ndarray) -> None:
        """Store 0/1 bit planes of shape ``(count, width, rows)``."""
        self.words[:, offset:offset + width, :] = self._pack_rows(slab)

    @staticmethod
    def _value_bits(value: int, width: int) -> np.ndarray:
        """LSB-first bits of an immediate, shape ``(width,)`` uint64."""
        shifts = np.arange(width, dtype=np.uint64)
        return (np.uint64(value) >> shifts) & _ONE

    # -------------------------------------------------------------- load/read
    def write_field(self, xbar: int, row: int, offset: int, width: int, value: int) -> None:
        """Write an unsigned ``width``-bit ``value`` into one crossbar row."""
        self._check_field(offset, width)
        self._check_rows(row)
        if value < 0 or value >= (1 << width):
            raise ValueError(f"value {value} does not fit in {width} bits")
        word, bit = row // _WORD_BITS, np.uint64(row % _WORD_BITS)
        mask = _ONE << bit
        current = self.words[xbar, offset:offset + width, word]
        self.words[xbar, offset:offset + width, word] = (
            (current & ~mask) | (self._value_bits(value, width) << bit)
        )
        self.writes_per_row[xbar, row] += width

    def read_field(self, xbar: int, row: int, offset: int, width: int) -> int:
        """Read an unsigned ``width``-bit value from one crossbar row."""
        self._check_field(offset, width)
        self._check_rows(row)
        word, bit = row // _WORD_BITS, np.uint64(row % _WORD_BITS)
        bits = (self.words[xbar, offset:offset + width, word] >> bit) & _ONE
        weights = bits << np.arange(width, dtype=np.uint64)
        return int(np.bitwise_or.reduce(weights))

    def write_field_column(
        self, offset: int, width: int, values: np.ndarray, count_wear: bool = True
    ) -> None:
        """Write a field of every row of every crossbar in one shot."""
        self._check_field(offset, width)
        values = np.asarray(values, dtype=np.uint64)
        if values.shape != (self.count, self.rows):
            raise ValueError(
                f"expected values of shape {(self.count, self.rows)}, "
                f"got {values.shape}"
            )
        if width < 64 and np.any(values >= np.uint64(1 << width)):
            raise ValueError(f"some values do not fit in {width} bits")
        # Mirror of the decode: plane ``b`` is ``(narrow >> b) & 1``, written
        # straight into the ``(count, width, rows)`` layout that gets packed.
        narrow = values.astype(_field_dtype(width), copy=False)
        planes = np.empty((self.count, width, self.rows), dtype=np.uint8)
        for bit in range(width):
            np.right_shift(
                narrow, narrow.dtype.type(bit), out=planes[:, bit, :],
                casting="unsafe",
            )
        planes &= 1
        self._pack_columns(offset, width, planes)
        if count_wear:
            self.writes_per_row += width

    def read_field_all(self, offset: int, width: int, xbars=None) -> np.ndarray:
        """Decode a field from every row of every crossbar, ``(count, rows)``
        (of the crossbars ``xbars`` — a slice or an index array — if given)."""
        self._check_field(offset, width)
        # Folded in the narrowest dtype holding the field; widened once.
        planes = self._unpack_columns(offset, width, xbars).view(np.uint8)
        out = _fold_planes(planes.swapaxes(0, 1), _field_dtype(width))
        return out.astype(np.uint64, copy=False)

    def read_field_cells(self, xbars, rows, offset: int, width: int) -> np.ndarray:
        """Read one value per listed ``(xbar, row)`` cell, 1-d ``uint64``: a loop
        of :meth:`read_field` (duplicates allowed) as one gather, validated first."""
        self._check_field(offset, width)
        xbars, rows = check_cell_index(self, xbars, rows)
        # Plane ``b`` of cell ``i`` is one bit of the flat word ``first[i] +
        # b * rows_words``; the planes fold like the bulk decode's.
        first = (xbars * self.columns + offset) * self.rows_words + rows // _WORD_BITS
        planes = self.words.reshape(-1).take(
            first + (np.arange(width) * self.rows_words)[:, None]
        )                                                       # (width, cells)
        planes >>= (rows % _WORD_BITS).astype(np.uint64)
        planes &= _ONE
        return _fold_planes(planes, np.uint64)

    def read_column(self, column: int, xbars=None) -> np.ndarray:
        """Return one bit column, shape ``(count, rows)`` (``xbars`` as above)."""
        if column < 0 or column >= self.columns:
            raise ValueError(f"column {column} out of range")
        return self._unpack_columns(column, 1, xbars)[:, 0, :]

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
        self._pack_columns(column, 1, values[:, None, :])
        if count_wear:
            self.writes_per_row += 1

    # ------------------------------------------------- masked bulk primitives
    def nor_columns_at(self, dest: int, srcs: Sequence[int], xbars: np.ndarray) -> None:
        """:meth:`nor_columns` restricted to the crossbars in ``xbars``."""
        if not srcs:
            raise ValueError("NOR needs at least one source column")
        xbars = np.asarray(xbars, dtype=np.int64)
        if xbars.size == 0:
            return
        acc = self.words[xbars, srcs[0], :].copy()
        for src in srcs[1:]:
            np.bitwise_or(acc, self.words[xbars, src, :], out=acc)
        np.invert(acc, out=acc)
        np.bitwise_and(acc, self._row_mask, out=acc)
        self.words[xbars, dest, :] = acc
        self.writes_per_row[xbars] += 1

    def set_column_at(self, dest: int, value: bool, xbars: np.ndarray) -> None:
        """:meth:`set_column` restricted to the crossbars in ``xbars``."""
        xbars = np.asarray(xbars, dtype=np.int64)
        if xbars.size == 0:
            return
        if value:
            self.words[xbars, dest, :] = self._row_mask
        else:
            self.words[xbars, dest, :] = 0
        self.writes_per_row[xbars] += 1

    # ---------------------------------------------------- fused kernel surface
    def kernel_read(self, column: int, xbars: np.ndarray | None = None) -> np.ndarray:
        """Native value of one column for fused evaluation, packed words.

        Shape ``(count, rows_words)`` (or ``(len(xbars), rows_words)``); the
        unmasked form is a live view — the fused kernel snapshots any value
        it still needs before writing outputs back.  Padding bits are zero
        by bank invariant.
        """
        if column < 0 or column >= self.columns:
            raise ValueError(f"column {column} out of range")
        if xbars is None:
            return self.words[:, column, :]
        return self.words[xbars, column, :]

    def kernel_write(
        self, column: int, value, xbars: np.ndarray | None = None
    ) -> None:
        """Store a fused output value; wear is charged in bulk by the caller.

        Values produced by the fused kernel keep their padding bits zero
        (constants are built from the row mask and every NOR applies it), so
        the bank invariant is preserved without re-masking here.
        """
        if column < 0 or column >= self.columns:
            raise ValueError(f"column {column} out of range")
        if xbars is None:
            self.words[:, column, :] = value
        else:
            self.words[xbars, column, :] = value

    def kernel_ones(self) -> np.ndarray:
        """The all-true value: the row mask (padding bits stay zero)."""
        return self._row_mask

    def kernel_to_bool(self, value) -> np.ndarray:
        """Decode a kernel value into booleans of shape ``(..., n, rows)``.

        Leading axes (a stack of values) pass through.  The result is a
        zero-copy bool view of the unpacked 0/1 bytes.
        """
        value = np.atleast_2d(np.asarray(value, dtype=np.uint64))
        raw = np.ascontiguousarray(value, dtype="<u8").view(np.uint8)
        bits = np.unpackbits(raw, axis=-1, bitorder="little")
        return bits[..., : self.rows].view(np.bool_)

    def kernel_from_bool(self, values: np.ndarray) -> np.ndarray:
        """Encode booleans of shape ``(..., n, rows)`` as a kernel value.

        Padding bits of the last word are zero, preserving the bank
        invariant when the result flows through ``kernel_write``.
        """
        return self._pack_rows(np.asarray(values, dtype=bool))

    def kernel_gather(self, value, positions, rows) -> np.ndarray:
        """Cells ``(positions[i], rows[i])`` of each of the ``K`` stacked values
        ``(K, n, words)``: ``kernel_to_bool(value)[:, positions, rows]``, bool
        ``(K, len(rows))``, without unpacking the rest; validated first."""
        positions, rows = check_cell_index(self, positions, rows, value.shape[-2])
        words = value[:, positions, rows // _WORD_BITS]
        words &= _ONE << (rows % _WORD_BITS).astype(np.uint64)
        return words != 0

    def add_wear(self, writes: int, xbars: np.ndarray | None = None) -> None:
        """Charge ``writes`` cell writes to every row (of ``xbars`` if given)."""
        if xbars is None:
            self.writes_per_row += int(writes)
        else:
            self.writes_per_row[xbars] += int(writes)

    # ----------------------------------------------------- bulk primitives
    def nor_columns(self, dest: int, srcs: Sequence[int]) -> None:
        """Stateful NOR of whole columns — 64 rows per machine word."""
        if not srcs:
            raise ValueError("NOR needs at least one source column")
        acc = self.words[:, srcs[0], :].copy()
        for src in srcs[1:]:
            np.bitwise_or(acc, self.words[:, src, :], out=acc)
        np.invert(acc, out=acc)
        np.bitwise_and(acc, self._row_mask, out=acc)
        self.words[:, dest, :] = acc
        self.writes_per_row += 1

    def set_column(self, dest: int, value: bool) -> None:
        """Initialise a column of every row to a constant (a bulk write)."""
        if value:
            self.words[:, dest, :] = self._row_mask
        else:
            self.words[:, dest, :] = 0
        self.writes_per_row += 1

    def copy_row_pairs(
        self,
        src_rows: np.ndarray,
        dst_rows: np.ndarray,
        src_offset: int,
        dst_offset: int,
        width: int,
    ) -> None:
        """Copy a field from ``src_rows`` to the same field area of ``dst_rows``."""
        self._check_field(src_offset, width)
        self._check_field(dst_offset, width)
        src_rows = np.asarray(src_rows, dtype=np.int64)
        dst_rows = np.asarray(dst_rows, dtype=np.int64)
        if src_rows.shape != dst_rows.shape:
            raise ValueError("src_rows and dst_rows must have the same shape")
        src_slab = self._unpack_columns(src_offset, width)
        dst_slab = self._unpack_columns(dst_offset, width)
        dst_slab[:, :, dst_rows] = src_slab[:, :, src_rows]
        self._pack_columns(dst_offset, width, dst_slab)
        self.writes_per_row[:, dst_rows] += width

    # -------------------------------------------------- broadcast field writes
    def write_field_rows(
        self, rows: np.ndarray, offset: int, width: int, value: int
    ) -> None:
        """Write one immediate into a field of several (distinct) rows.

        Equivalent to calling :meth:`write_field` for every crossbar and
        every row of ``rows`` — one vectorised read-modify-write over the
        touched words instead.
        """
        self._check_field(offset, width)
        self._check_rows(rows)
        if value < 0 or value >= (1 << width):
            raise ValueError(f"value {value} does not fit in {width} bits")
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return
        touched = np.zeros(self.rows_words, dtype=np.uint64)
        np.bitwise_or.at(
            touched, rows // _WORD_BITS,
            _ONE << (rows % _WORD_BITS).astype(np.uint64),
        )
        vbits = self._value_bits(value, width)              # (width,)
        sub = self.words[:, offset:offset + width, :]
        sub &= ~touched
        sub |= vbits[None, :, None] * touched[None, None, :]
        self.writes_per_row[:, rows] += width

    def write_field_row(
        self,
        row: int,
        offset: int,
        width: int,
        values: np.ndarray,
        xbars: np.ndarray | None = None,
    ) -> None:
        """Write a per-crossbar value into a field of one row everywhere.

        Equivalent to ``write_field(xbar, row, ...)`` for every crossbar,
        with ``values`` of shape ``(count,)``.  With ``xbars`` the write (and
        its wear) is restricted to those crossbars — ``values`` then carries
        one value per listed crossbar.
        """
        self._check_field(offset, width)
        self._check_rows(row)
        values = np.asarray(values, dtype=np.uint64)
        targets = self.count if xbars is None else len(np.asarray(xbars))
        if values.shape != (targets,):
            raise ValueError(f"expected values of shape {(targets,)}, got {values.shape}")
        if width < 64 and np.any(values >= np.uint64(1 << width)):
            raise ValueError(f"some values do not fit in {width} bits")
        word, bit = row // _WORD_BITS, np.uint64(row % _WORD_BITS)
        mask = _ONE << bit
        shifts = np.arange(width, dtype=np.uint64)
        bits = (values[:, None] >> shifts[None, :]) & _ONE  # (targets, width)
        if xbars is None:
            current = self.words[:, offset:offset + width, word]
            self.words[:, offset:offset + width, word] = (
                (current & ~mask) | (bits << bit)
            )
            self.writes_per_row[:, row] += width
        else:
            xbars = np.asarray(xbars, dtype=np.int64)
            current = self.words[xbars, offset:offset + width, word]
            self.words[xbars, offset:offset + width, word] = (
                (current & ~mask) | (bits << bit)
            )
            self.writes_per_row[xbars, row] += width

    def write_field_cells(self, xbars, rows, offset: int, width: int, values) -> None:
        """Write one value per distinct ``(xbar, row)`` cell of a field.

        A loop of :meth:`write_field` as one scatter, validated up front.
        """
        self._check_field(offset, width)
        xbars, rows, values = check_cells(self, xbars, rows, width, values)
        bit = (rows % _WORD_BITS).astype(np.uint64)[:, None]
        shifts = np.arange(width, dtype=np.uint64)
        planes = ((values[:, None] >> shifts) & _ONE) << bit   # (cells, width)
        index = (
            xbars[:, None], offset + np.arange(width), rows[:, None] // _WORD_BITS
        )
        # Distinct cells may still share a 64-row word: unbuffered updates.
        np.bitwise_and.at(self.words, index, ~(_ONE << bit))
        np.bitwise_or.at(self.words, index, planes)
        self.writes_per_row[xbars, rows] += width

    # ---------------------------------------------------------------- wear
    def wear_snapshot(self) -> np.ndarray:
        """Return a copy of the per-row write counters."""
        return self.writes_per_row.copy()

    def max_writes_since(self, snapshot: np.ndarray | None = None) -> int:
        """Maximum per-row write count, optionally relative to a snapshot."""
        if snapshot is None:
            return int(self.writes_per_row.max())
        delta = self.writes_per_row - snapshot
        return int(delta.max())

    def reset_wear(self) -> None:
        """Zero the wear counters (used after the initial data load)."""
        self.writes_per_row[:] = 0


#: Either functional backend — they expose the identical bank surface.
AnyCrossbarBank = CrossbarBank | PackedCrossbarBank


def make_bank(backend: str, count: int, rows: int, columns: int) -> AnyCrossbarBank:
    """Instantiate the crossbar bank for a configured simulation backend."""
    validate_backend(backend)
    if backend == "packed":
        return PackedCrossbarBank(count=count, rows=rows, columns=columns)
    return CrossbarBank(count=count, rows=rows, columns=columns)
