"""Bit-packed functional model of a crossbar bank.

:class:`PackedCrossbarBank` is a drop-in replacement for
:class:`~repro.pim.crossbar.CrossbarBank` that stores each *column* of the
bank as row-packed 64-bit words instead of one byte per cell: the cell at
``(xbar, row, column)`` lives in bit ``row % 64`` of
``words[column, xbar, row // 64]``.  A bulk-bitwise primitive — the paper's
column NOR executing concurrently on every row of every crossbar — then
becomes a whole-word bitwise operation (``~(a | b)`` folds 64 rows per
machine word), which is exactly the row parallelism the hardware model
assumes and makes the functional simulation 64x denser in memory and far
cheaper per primitive than the boolean reference backend.  The store is
column-major: one column's words across all crossbars are contiguous, and
so are a field's bit planes, so a column of every crossbar — or of one
contiguous run of crossbars, passed as a ``slice`` — is a zero-copy view.

Two invariants keep the backends interchangeable:

* **Bit exactness** — every method produces the same stored bits, decoded
  fields and error behaviour as :class:`CrossbarBank`; the padding bits of
  the last word of a column (rows beyond ``rows``) are always zero.
* **Stats are metadata** — timing, energy and wear are charged by
  :class:`~repro.pim.controller.PimExecutor` from *program* metadata (cycle
  counts, writes per row), never from backend internals, so both backends
  report identical :class:`~repro.pim.stats.PimStats`.  The bank itself only
  maintains the same two wear counters as the boolean backend, both in
  :class:`~repro.pim.crossbar.BankBase`: ``xbar_wear`` (writes to every row
  of a crossbar) and ``row_wear`` (writes to single rows), read as their
  sum ``writes_per_row``.

**Field writes**: ``write_field`` (one cell), ``write_field_cells`` (a value
per listed ``(xbar, row)`` cell for each of several ``(offset, width,
values)`` fields — the INSERT scatter, one call per partition: cells,
fields, field overlaps and value widths validated once before the first
mutation, then the touched words of all field columns gathered, cleared, set
and scattered back once, cells sharing a 64-row word folded together first),
``write_field_row`` (one row, a value per crossbar), ``write_field_rows`` (one
immediate, several rows of every crossbar), ``write_field_column`` (every row
of every crossbar); each equals the corresponding loop of ``write_field``,
wear included.

**Field reads**: ``read_field`` (one cell), ``read_field_cells`` (a value per
listed ``(xbar, row)`` cell, duplicates allowed — a loop of ``read_field`` as
one gather or one bounded decode), ``read_field_all`` (every row) and
``read_column`` (a bit column); the last two unpack and return only the
crossbars ``xbars`` (a slice or an index array) when it is given.  Every
bulk primitive and kernel access takes the same optional ``xbars`` (a slice
or an index array; ``None`` is every crossbar).

**Field codec.**  A ``width``-bit field is ``width`` bit planes of shape
``(count, rows)``, stored plane after plane as the column-major layout has
them: bulk decode (``read_field_all``) unpacks the slab once along rows and
accumulates ``plane[b] << b`` in the narrowest unsigned dtype holding the
field, widened to ``uint64`` once at the end.  Bulk encode
(``write_field_column``) works on 8-row **byte lanes**: rows are padded with
zeros to whole 64-row words, byte ``k`` of 8 consecutive rows' values (in the
input's own unsigned dtype, never widened) is one little-endian ``uint64``
lane, and plane ``8k + b`` of those rows is the top byte of
``((lane >> b) & 0x0101010101010101) * 0x0102040810204080`` — bit ``i`` is
row ``i``'s bit, the byte ``packbits(bitorder="little")`` makes.  Five
whole-array passes per plane over one eighth of the cells, no ``packbits``.
Warm encode, 96 x 1 024 rows, min of 15, ms, on a 2-vCPU host (the bit-plane
encode it replaced -> byte lanes, ``uint64`` input / narrow input): 4-bit
0.32 / 0.36 -> 0.25 / 0.13, 12-bit 0.58 / 0.61 -> 0.52 / 0.40, 27-bit
1.51 / 1.56 -> 1.21 / 1.05; the 48 fields of the ``dml_churn`` partition
(64 x 1 024 rows, staged narrow) 11.0-11.6 -> 8.0-8.5 ms (sum of per-field
minima over 20 compactions).  No decoded column is cached: a 12-bit decode
of 96 x 1024 rows costs ~0.4 ms, which does not pay for write-invalidation
state on the bank.  With ``xbars`` the decode is *bounded* (3 crossbars in
use of a page's 32 cost 3), and ``read_field_cells``' gather is the same
fold over one word per (cell, plane) taken straight from ``words``.
``read_field_cells`` picks between them by :data:`GATHER_MAX_SHARE` (gather
up to 1/32 of the rows of the crossbar range the cells span, decode that
range above it), from this measurement — gather / full decode + index, ms,
96 x 1 024 rows, min of 15, sorted distinct cells, measured once on a 2-vCPU
host (no gate re-times it)::

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
from repro.pim.crossbar import BankBase, CrossbarBank, check_cell_index, check_cells

_ONE = np.uint64(1)
_WORD_BITS = 64
# Byte-lane encode: bit ``b`` of each of a lane's 8 bytes, masked, then
# gathered into the product's top byte (bit ``i`` from byte ``i``).
_BYTE_SHIFTS = np.arange(8, dtype=np.uint64)
_LANE_LOW_BITS = np.uint64(0x0101010101010101)
_LANE_GATHER = np.uint64(0x0102040810204080)

#: ``read_field_cells`` gathers cell by cell up to this share of the rows of
#: the crossbar range its cells span and decodes that range above it; the
#: bool bank always gathers.  Every sparse read goes through it:
#: ``StoredRelation.decode_cells`` and ``repro.pim.arithmetic.masked_partials``.
#: Measured once (the table in the module docstring): the gather wins up to
#: ~5 % of the cells for 4-bit fields, ~8 % for 12-bit, ~18 % for 27-bit and
#: loses 8-20x at 100 %.  A warm pass of each ``perf/`` workload asks
#: ``decode_cells`` for at most 3.1 % per call (medians <= 0.32 %);
#: ``fig4_model`` for 80 %.
GATHER_MAX_SHARE = 1 / 32


def field_dtype(width: int) -> np.dtype:
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


class PackedCrossbarBank(BankBase):
    """A bank of identical crossbars stored as row-packed uint64 words.

    The array layout is column-major, ``(columns, count, rows_words)`` with
    ``rows_words = ceil(rows / 64)``; bit ``row % 64`` of word ``row // 64``
    holds the cell of ``row``.  All methods mirror
    :class:`~repro.pim.crossbar.CrossbarBank` bit-exactly, including the
    wear-counter side effects and validation errors.
    """

    backend = "packed"

    def __init__(self, count: int, rows: int, columns: int) -> None:
        super().__init__(count, rows, columns)
        self.rows_words = (self.rows + _WORD_BITS - 1) // _WORD_BITS
        self.words = np.zeros(
            (self.columns, self.count, self.rows_words), dtype=np.uint64
        )
        # Valid-bit mask of each word of a column: all ones except the
        # padding bits of the last word, which stay zero forever.
        tail = np.full(self.rows_words, np.uint64(0xFFFFFFFFFFFFFFFF))
        spare = self.rows_words * _WORD_BITS - self.rows
        if spare:
            tail[-1] = np.uint64((1 << (_WORD_BITS - spare)) - 1)
        self._row_mask = tail

    # ------------------------------------------------------- pack/unpack core
    def _unpack_columns(self, offset: int, width: int, xbars=None) -> np.ndarray:
        """Bit planes of a column slab, booleans of shape ``(width, count, rows)``.

        A writable zero-copy bool view of the freshly unpacked 0/1 bytes, of
        the crossbars ``xbars`` (a slice or an index array) if given.
        """
        raw = np.ascontiguousarray(
            self.words[offset:offset + width, self._selection(xbars), :], dtype="<u8"
        ).view(np.uint8)
        bits = np.unpackbits(raw, axis=-1, bitorder="little")
        return bits[..., : self.rows].view(np.bool_)

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
        """Store 0/1 bit planes of shape ``(width, count, rows)``."""
        self.words[offset:offset + width] = self._pack_rows(slab)

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
        current = self.words[offset:offset + width, xbar, word]
        self.words[offset:offset + width, xbar, word] = (
            (current & ~mask) | (self._value_bits(value, width) << bit)
        )
        self.add_row_wear(width, xbar, row)

    def read_field(self, xbar: int, row: int, offset: int, width: int) -> int:
        """Read an unsigned ``width``-bit value from one crossbar row."""
        self._check_field(offset, width)
        self._check_rows(row)
        word, bit = row // _WORD_BITS, np.uint64(row % _WORD_BITS)
        bits = (self.words[offset:offset + width, xbar, word] >> bit) & _ONE
        weights = bits << np.arange(width, dtype=np.uint64)
        return int(np.bitwise_or.reduce(weights))

    def write_field_column(
        self, offset: int, width: int, values: np.ndarray, count_wear: bool = True
    ) -> None:
        """Write a field of every row of every crossbar in one shot.

        ``values`` of any unsigned dtype are encoded as they are (the
        byte-lane codec, module docstring); any other dtype converts to
        ``uint64`` first.
        """
        self._check_field(offset, width)
        values = np.asarray(values)
        if values.dtype.kind != "u":
            values = values.astype(np.uint64)
        if values.shape != (self.count, self.rows):
            raise ValueError(
                f"expected values of shape {(self.count, self.rows)}, "
                f"got {values.shape}"
            )
        if width < 8 * values.itemsize and int(values.max()) >> width:
            raise ValueError(f"some values do not fit in {width} bits")
        # Byte ``k`` of 8 consecutive rows (zero rows pad to whole words) is
        # one little-endian lane; planes past the input's own bytes are zero.
        lane_bytes = min(values.itemsize, -(-width // 8))
        padded_rows = self.rows_words * _WORD_BITS
        if values.itemsize == 1 and padded_rows == self.rows:
            lanes = np.ascontiguousarray(values)[None]
        else:
            lanes = (np.empty if padded_rows == self.rows else np.zeros)(
                (lane_bytes, self.count, padded_rows), dtype=np.uint8
            )
            for byte in range(lane_bytes):
                np.right_shift(
                    values, values.dtype.type(8 * byte),
                    out=lanes[byte, :, : self.rows], casting="unsafe",
                )
        lanes = lanes.view("<u8")                   # (lane_bytes, count, 8 * words)
        planes = min(width, 8 * lane_bytes)
        gathered = np.empty((planes,) + lanes.shape[1:], dtype="<u8")
        for plane in range(planes):
            np.right_shift(lanes[plane // 8], _BYTE_SHIFTS[plane % 8], out=gathered[plane])
        gathered &= _LANE_LOW_BITS
        gathered *= _LANE_GATHER
        # The top byte of each product is the packed byte of its 8 rows.
        gathered >>= np.uint64(56)
        # (planes, count, words): stored as they are, the layout's own order.
        self.words[offset:offset + planes] = gathered.astype(np.uint8).view("<u8")
        self.words[offset + planes:offset + width] = 0
        if count_wear:
            self.add_wear(width)

    def read_field_all(self, offset: int, width: int, xbars=None) -> np.ndarray:
        """Decode a field from every row of every crossbar, ``(count, rows)``
        (of the crossbars ``xbars`` — a slice or an index array — if given)."""
        self._check_field(offset, width)
        # Folded in the narrowest dtype holding the field; widened once.
        planes = self._unpack_columns(offset, width, xbars).view(np.uint8)
        out = _fold_planes(planes, field_dtype(width))
        return out.astype(np.uint64, copy=False)

    def read_field_cells(self, xbars, rows, offset: int, width: int) -> np.ndarray:
        """Read one value per listed ``(xbar, row)`` cell, 1-d ``uint64``: a loop
        of :meth:`read_field` (duplicates allowed), validated first.

        Up to :data:`GATHER_MAX_SHARE` of the rows of the crossbar range the
        cells span, one gather of a word per (cell, plane); above it, that
        range is decoded (:meth:`read_field_all`) and indexed."""
        self._check_field(offset, width)
        xbars, rows = check_cell_index(self, xbars, rows)
        if xbars.size:
            low, high = int(xbars.min()), int(xbars.max()) + 1
            if xbars.size > (high - low) * self.rows * GATHER_MAX_SHARE:
                decoded = self.read_field_all(offset, width, slice(low, high))
                return decoded[xbars - low, rows]
        # Plane ``b`` of cell ``i`` is one bit of the flat word ``first[i] +
        # b * count * rows_words``; the planes fold like the bulk decode's.
        plane = self.count * self.rows_words
        first = offset * plane + xbars * self.rows_words + rows // _WORD_BITS
        planes = self.words.reshape(-1).take(
            first + (np.arange(width) * plane)[:, None]
        )                                                       # (width, cells)
        planes >>= (rows % _WORD_BITS).astype(np.uint64)
        planes &= _ONE
        return _fold_planes(planes, np.uint64)

    def read_column(self, column: int, xbars=None) -> np.ndarray:
        """Return one bit column, shape ``(count, rows)`` (``xbars`` as above)."""
        if column < 0 or column >= self.columns:
            raise ValueError(f"column {column} out of range")
        return self._unpack_columns(column, 1, xbars)[0]

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
        self._pack_columns(column, 1, values[None])
        if count_wear:
            self.add_wear(1)

    # ---------------------------------------------------- fused kernel surface
    def kernel_read(self, column: int, xbars: np.ndarray | None = None) -> np.ndarray:
        """Native value of one column for fused evaluation, packed words.

        Shape ``(count, rows_words)`` (or ``(n, rows_words)`` for the ``n``
        crossbars ``xbars`` selects); a ``slice`` of columns (a field's bit
        planes) reads ``(width, n, rows_words)``.  For every crossbar or a
        ``slice`` of them it is a live, contiguous view — the fused kernel
        snapshots any value it still needs before writing outputs back.
        Padding bits are zero by bank invariant.
        """
        self._check_kernel_columns(column)
        return self.words[column, self._selection(xbars)]

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
        self.words[column, self._selection(xbars)] = value

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

    # ----------------------------------------------------- bulk primitives
    def nor_columns(self, dest: int, srcs: Sequence[int], xbars=None) -> None:
        """Stateful NOR of whole columns — 64 rows per machine word — of
        every crossbar, or of the crossbars ``xbars`` (a slice or an index
        array)."""
        if not srcs:
            raise ValueError("NOR needs at least one source column")
        xbars = self._selection(xbars)
        acc = self.words[srcs[0], xbars].copy()
        for src in srcs[1:]:
            np.bitwise_or(acc, self.words[src, xbars], out=acc)
        np.invert(acc, out=acc)
        np.bitwise_and(acc, self._row_mask, out=acc)
        self.words[dest, xbars] = acc
        self.add_wear(1, xbars)

    def set_column(self, dest: int, value: bool, xbars=None) -> None:
        """Initialise a column of every row to a constant (a bulk write), of
        the crossbars ``xbars`` only if given."""
        xbars = self._selection(xbars)
        self.words[dest, xbars] = self._row_mask if value else 0
        self.add_wear(1, xbars)

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
        self.add_row_wear(width, slice(None), dst_rows)

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
        sub = self.words[offset:offset + width]
        sub &= ~touched
        sub |= vbits[:, None, None] * touched[None, None, :]
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

        Equivalent to ``write_field(xbar, row, ...)`` for every crossbar,
        with ``values`` of shape ``(count,)``.  With ``xbars`` the write (and
        its wear) is restricted to those crossbars — ``values`` then carries
        one value per listed crossbar.
        """
        self._check_field(offset, width)
        self._check_rows(row)
        values = np.asarray(values, dtype=np.uint64)
        targets = self._targets(xbars)
        if values.shape != (targets,):
            raise ValueError(f"expected values of shape {(targets,)}, got {values.shape}")
        if width < 64 and np.any(values >= np.uint64(1 << width)):
            raise ValueError(f"some values do not fit in {width} bits")
        word, bit = row // _WORD_BITS, np.uint64(row % _WORD_BITS)
        mask = _ONE << bit
        shifts = np.arange(width, dtype=np.uint64)
        bits = (values[None, :] >> shifts[:, None]) & _ONE  # (width, targets)
        xbars = self._selection(xbars)
        current = self.words[offset:offset + width, xbars, word]
        self.words[offset:offset + width, xbars, word] = (
            (current & ~mask) | (bits << bit)
        )
        self.add_row_wear(width, xbars, row)

    def write_field_cells(self, xbars, rows, fields) -> None:
        """Write one value per distinct ``(xbar, row)`` cell into each of
        ``fields`` (``(offset, width, values)``) — one scatter.

        A loop of :meth:`write_field` per field and cell, validated up front
        (:func:`~repro.pim.crossbar.check_cells`).  The cells come back sorted,
        so the cells sharing a ``(crossbar, 64-row word)`` are adjacent: their
        bits fold into one word per field column, and the touched words are
        gathered, cleared, set and scattered back once.
        """
        xbars, rows, columns, bits = check_cells(self, xbars, rows, fields)
        if not xbars.size:
            return
        words = rows // _WORD_BITS
        bit = (rows % _WORD_BITS).astype(np.uint64)
        first = xbars * self.rows_words + words
        starts = np.flatnonzero(np.diff(first, prepend=-1))
        bits <<= bit
        planes = np.bitwise_or.reduceat(bits, starts, axis=1)   # (C, words)
        touched = np.bitwise_or.reduceat(_ONE << bit, starts)
        # Flat word of column ``columns[j]`` in touched word ``k``.
        index = first[starts] + (columns * (self.count * self.rows_words))[:, None]
        flat = self.words.reshape(-1)
        current = flat.take(index)
        current &= ~touched
        current |= planes
        flat[index] = current
        self.add_row_wear(len(columns), xbars, rows)


#: Either functional backend — they expose the identical bank surface.
AnyCrossbarBank = CrossbarBank | PackedCrossbarBank


def make_bank(backend: str, count: int, rows: int, columns: int) -> AnyCrossbarBank:
    """Instantiate the crossbar bank for a configured simulation backend."""
    validate_backend(backend)
    if backend == "packed":
        return PackedCrossbarBank(count=count, rows=rows, columns=columns)
    return CrossbarBank(count=count, rows=rows, columns=columns)
