"""Bulk-bitwise arithmetic: adders, multipliers and in-crossbar reductions.

This module provides two things:

* **Word-level arithmetic circuits built from NOR primitives** (ripple-carry
  addition/subtraction, shift-add multiplication, field comparison and
  field multiplexing).  These operate on fields *within* a crossbar row and
  execute concurrently on every row of every crossbar, which is how derived
  attributes (for example ``extendedprice * discount``) can be materialised
  in memory.

* **The pure bulk-bitwise aggregation** used by the PIMDB baseline
  (:class:`BulkAggregationPlan`): a masked reduction tree over the rows of a
  crossbar built from row-to-row copies and row-parallel ripple-carry adds.
  The paper's contribution (the per-crossbar aggregation circuit of Fig. 3)
  exists precisely because this reduction is expensive — thousands of logic
  cycles, each writing a cell in every row — and the plan exposes both a
  gate-level execution mode (used by the unit tests to prove functional
  correctness) and a fast functional mode that produces identical results
  and charges an identical, analytically derived cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.pim.crossbar import CrossbarBank
from repro.pim.logic import Program, ProgramBuilder


# --------------------------------------------------------------------------
# Word-level circuits (within-row, all rows concurrently)
# --------------------------------------------------------------------------

def build_masked_select_const(
    builder: ProgramBuilder,
    src_columns: Sequence[int],
    mask_column: int,
    identity_value: int,
    dest_columns: Sequence[int],
) -> None:
    """Emit ``dest = mask ? src : identity_value`` (constant identity)."""
    for i, dest in enumerate(dest_columns):
        src = src_columns[i] if i < len(src_columns) else None
        ident_bit = (identity_value >> i) & 1
        if src is None:
            if ident_bit:
                # dest = NOT mask
                not_mask = builder.not_(mask_column)
                builder.store(not_mask, dest)
                builder.free(not_mask)
            else:
                builder.store_const(dest, False)
        elif ident_bit:
            # dest = src OR NOT mask
            not_mask = builder.not_(mask_column)
            term = builder.or_(src, not_mask)
            builder.store(term, dest)
            builder.free(not_mask)
            builder.free(term)
        else:
            # dest = src AND mask
            term = builder.and_(src, mask_column)
            builder.store(term, dest)
            builder.free(term)


def build_ripple_add(
    builder: ProgramBuilder,
    a_columns: Sequence[int],
    b_columns: Sequence[int],
    dest_columns: Sequence[int],
    carry_in: int | None = None,
    invert_b: bool = False,
) -> None:
    """Emit ``dest = a + b`` (or ``a + NOT b (+ carry)`` when ``invert_b``).

    ``dest`` may alias ``a`` (in-place accumulation); each destination bit is
    written only after its original value has been consumed.  Operands
    shorter than ``dest`` are zero-extended (one-extended for an inverted
    ``b``, which is what two's-complement subtraction requires).
    """
    carry = carry_in
    carry_owned = False
    for i, dest in enumerate(dest_columns):
        a_col = a_columns[i] if i < len(a_columns) else None
        b_col = b_columns[i] if i < len(b_columns) else None
        a_bit, a_owned = _operand_bit(builder, a_col, False)
        b_bit, b_owned = _operand_bit(builder, b_col, invert_b)
        sum_bit, new_carry = _full_adder(builder, a_bit, b_bit, carry)
        builder.store(sum_bit, dest)
        builder.free(sum_bit)
        if a_owned:
            builder.free(a_bit)
        if b_owned:
            builder.free(b_bit)
        if carry_owned:
            builder.free(carry)
        carry = new_carry
        carry_owned = True
    if carry_owned:
        builder.free(carry)


def _operand_bit(
    builder: ProgramBuilder, column: int | None, invert: bool
) -> tuple[int | None, bool]:
    """Return (column, owned) for an operand bit, honouring zero extension."""
    if column is None:
        if invert:
            return builder.const(True), True
        return None, False
    if invert:
        return builder.not_(column), True
    return column, False


def _full_adder(
    builder: ProgramBuilder,
    a: int | None,
    b: int | None,
    carry: int | None,
) -> tuple[int, int | None]:
    """One full-adder stage; ``None`` inputs are constant zero."""
    present = [c for c in (a, b, carry) if c is not None]
    if not present:
        return builder.const(False), None
    if len(present) == 1:
        return builder.copy(present[0]), None
    if len(present) == 2:
        x, y = present
        sum_bit = builder.xor(x, y)
        carry_out = builder.and_(x, y)
        return sum_bit, carry_out
    x, y, z = present
    xy = builder.xor(x, y)
    sum_bit = builder.xor(xy, z)
    and_xy = builder.and_(x, y)
    and_zxy = builder.and_(z, xy)
    carry_out = builder.or_(and_xy, and_zxy)
    builder.free(xy)
    builder.free(and_xy)
    builder.free(and_zxy)
    return sum_bit, carry_out


def build_subtract(
    builder: ProgramBuilder,
    a_columns: Sequence[int],
    b_columns: Sequence[int],
    dest_columns: Sequence[int],
) -> None:
    """Emit ``dest = a - b`` in two's complement (``a + NOT b + 1``)."""
    one = builder.const(True)
    build_ripple_add(
        builder, a_columns, b_columns, dest_columns, carry_in=one, invert_b=True
    )
    builder.free(one)


def build_multiply(
    builder: ProgramBuilder,
    a_columns: Sequence[int],
    b_columns: Sequence[int],
    dest_columns: Sequence[int],
    scratch_columns: Sequence[int],
) -> None:
    """Emit ``dest = a * b`` with a shift-add multiplier.

    ``scratch_columns`` must provide ``len(dest_columns)`` dedicated columns
    used to hold the masked, shifted addend of every iteration; they are in
    addition to the builder's gate scratch pool.  The destination must not
    alias the operands.
    """
    width = len(dest_columns)
    if len(scratch_columns) < width:
        raise ValueError("multiplier needs one scratch column per result bit")
    addend = list(scratch_columns[:width])
    for dest in dest_columns:
        builder.store_const(dest, False)
    for i, b_col in enumerate(b_columns):
        if i >= width:
            break
        # addend = (a << i) AND b_i, truncated to the result width.
        for j in range(width):
            src_index = j - i
            if 0 <= src_index < len(a_columns):
                term = builder.and_(a_columns[src_index], b_col)
                builder.store(term, addend[j])
                builder.free(term)
            else:
                builder.store_const(addend[j], False)
        build_ripple_add(builder, dest_columns, addend, dest_columns)


def build_lt_fields(
    builder: ProgramBuilder,
    a_columns: Sequence[int],
    b_columns: Sequence[int],
) -> int:
    """Return a column holding ``a < b`` (unsigned, equal widths)."""
    if len(a_columns) != len(b_columns):
        raise ValueError("operands must have equal widths")
    lt: int | None = None
    eq_prefix: int | None = None
    for i in reversed(range(len(a_columns))):
        a_col, b_col = a_columns[i], b_columns[i]
        not_a = builder.not_(a_col)
        bit_lt = builder.and_(not_a, b_col)
        builder.free(not_a)
        if eq_prefix is not None:
            term = builder.and_(eq_prefix, bit_lt)
            builder.free(bit_lt)
        else:
            term = bit_lt
        if lt is None:
            lt = term
        else:
            new_lt = builder.or_(lt, term)
            builder.free(lt)
            builder.free(term)
            lt = new_lt
        bit_eq = builder.xnor(a_col, b_col)
        if eq_prefix is None:
            eq_prefix = bit_eq
        else:
            new_prefix = builder.and_(eq_prefix, bit_eq)
            builder.free(eq_prefix)
            builder.free(bit_eq)
            eq_prefix = new_prefix
    builder.free(eq_prefix)
    assert lt is not None
    return lt


def build_mux_fields(
    builder: ProgramBuilder,
    select_column: int,
    when_true: Sequence[int],
    when_false: Sequence[int],
    dest_columns: Sequence[int],
) -> None:
    """Emit ``dest = select ? when_true : when_false`` bit by bit."""
    not_sel = builder.not_(select_column)
    for i, dest in enumerate(dest_columns):
        t_col = when_true[i] if i < len(when_true) else None
        f_col = when_false[i] if i < len(when_false) else None
        t_term = builder.and_(t_col, select_column) if t_col is not None else None
        f_term = builder.and_(f_col, not_sel) if f_col is not None else None
        if t_term is not None and f_term is not None:
            result = builder.or_(t_term, f_term)
            builder.store(result, dest)
            builder.free(result)
        elif t_term is not None:
            builder.store(t_term, dest)
        elif f_term is not None:
            builder.store(f_term, dest)
        else:
            builder.store_const(dest, False)
        builder.free(t_term)
        builder.free(f_term)
    builder.free(not_sel)


# --------------------------------------------------------------------------
# Pure bulk-bitwise aggregation (the PIMDB baseline mechanism)
# --------------------------------------------------------------------------

SUPPORTED_AGGREGATIONS = ("sum", "min", "max", "count")


@dataclass
class ReductionLevel:
    """One level of the in-crossbar reduction tree.

    ``unpaired_dst_rows`` are live destination rows whose partner row does
    not exist (the row count is not a power of two); their operand slot must
    be cleared before the level's combine program runs, otherwise a stale
    operand from a previous level would be folded in again.
    """

    src_rows: np.ndarray
    dst_rows: np.ndarray
    unpaired_dst_rows: np.ndarray

    @property
    def pair_count(self) -> int:
        return int(len(self.src_rows))

    @property
    def unpaired_count(self) -> int:
        return int(len(self.unpaired_dst_rows))


class BulkAggregationPlan:
    """Masked aggregation of a row field using only bulk-bitwise primitives.

    The algorithm (PIMDB-style, no aggregation circuit):

    1. *Init*: every row computes ``acc = mask ? field : identity`` into a
       dedicated accumulator area of the row (zero-extended for SUM so the
       running total cannot overflow).
    2. *Reduction tree*: ``log2(rows)`` levels.  At level ``d`` the
       accumulator of row ``r + 2^(d-1)`` is copied (a row-to-row copy, two
       cycles per pair and per copied bit burst) into the operand slot of row
       ``r``, after which a single row-parallel combine program
       (ripple-carry add for SUM/COUNT, compare-and-select for MIN/MAX)
       updates every accumulator concurrently.  Rows that are not
       destinations at a level are already dead and may be clobbered.
    3. The per-crossbar result ends up in the accumulator field of row 0,
       from which the host (or a subsequent PIM request) reads it.

    The plan can be executed gate-by-gate (:meth:`run_gate_level`, the
    tests' reference) or functionally (:meth:`run_functional`) with
    identical results; :meth:`cost` is the gate-level bill either way.
    """

    def __init__(
        self,
        rows: int,
        field_offset: int,
        field_width: int,
        mask_column: int,
        acc_offset: int,
        operand_offset: int,
        scratch_columns: Sequence[int],
        operation: str = "sum",
    ) -> None:
        if operation not in SUPPORTED_AGGREGATIONS:
            raise ValueError(f"unsupported aggregation {operation!r}")
        self.rows = int(rows)
        self.field_offset = int(field_offset)
        self.field_width = int(field_width)
        self.mask_column = int(mask_column)
        self.acc_offset = int(acc_offset)
        self.operand_offset = int(operand_offset)
        self.scratch_columns = tuple(scratch_columns)
        self.operation = operation
        self.num_levels = int(math.ceil(math.log2(self.rows))) if self.rows > 1 else 0
        self._cost: BulkAggregationCost | None = None

    # ------------------------------------------------------------ geometry
    @property
    def acc_width(self) -> int:
        """Accumulator width: grows by log2(rows) bits for SUM/COUNT."""
        if self.operation in ("sum", "count"):
            base = 1 if self.operation == "count" else self.field_width
            return base + self.num_levels
        return self.field_width

    @property
    def acc_columns(self) -> list[int]:
        return list(range(self.acc_offset, self.acc_offset + self.acc_width))

    @property
    def operand_columns(self) -> list[int]:
        return list(range(self.operand_offset, self.operand_offset + self.acc_width))

    @property
    def field_columns(self) -> list[int]:
        return list(range(self.field_offset, self.field_offset + self.field_width))

    def levels(self) -> list[ReductionLevel]:
        """Row pairs for every level of the reduction tree."""
        levels = []
        for d in range(1, self.num_levels + 1):
            stride = 1 << d
            half = stride >> 1
            dst = np.arange(0, self.rows, stride, dtype=np.int64)
            src = dst + half
            valid = src < self.rows
            levels.append(ReductionLevel(
                src_rows=src[valid],
                dst_rows=dst[valid],
                unpaired_dst_rows=dst[~valid],
            ))
        return levels

    @property
    def identity_value(self) -> int:
        """Identity element written to masked-out rows at init."""
        if self.operation == "min":
            return (1 << self.acc_width) - 1
        return 0

    # ------------------------------------------------------------ programs
    def init_program(self) -> Program:
        """Program computing ``acc = mask ? value : identity`` in every row."""
        builder = ProgramBuilder(self.scratch_columns)
        if self.operation == "count":
            src_columns: Sequence[int] = [self.mask_column]
        else:
            src_columns = self.field_columns
        build_masked_select_const(
            builder, src_columns, self.mask_column, self.identity_value,
            self.acc_columns,
        )
        return builder.build()

    def combine_program(self) -> Program:
        """Program combining the operand slot into the accumulator of every row."""
        builder = ProgramBuilder(self.scratch_columns)
        acc = self.acc_columns
        opd = self.operand_columns
        if self.operation in ("sum", "count"):
            build_ripple_add(builder, acc, opd, acc)
        elif self.operation == "min":
            sel = build_lt_fields(builder, opd, acc)
            build_mux_fields(builder, sel, opd, acc, acc)
            builder.free(sel)
        else:  # max
            sel = build_lt_fields(builder, acc, opd)
            build_mux_fields(builder, sel, opd, acc, acc)
            builder.free(sel)
        return builder.build()

    # ----------------------------------------------------------------- cost
    def cost(self) -> BulkAggregationCost:
        """Cycle / write / copy counts of the whole reduction.

        Computed once per plan: building the init and combine programs costs
        far more than the reduction they price."""
        if self._cost is None:
            self._cost = self._build_cost()
        return self._cost

    def _build_cost(self) -> BulkAggregationCost:
        init = self.init_program()
        combine = self.combine_program()
        levels = self.levels()
        total_pairs = sum(level.pair_count for level in levels)
        total_unpaired = sum(level.unpaired_count for level in levels)
        program_cycles = init.cycles + combine.cycles * len(levels)
        # A row-to-row copy moves the accumulator burst of one pair; the
        # controller performs pairs serially at two cycles per pair.  Live
        # destination rows without a partner need their operand slot cleared
        # (a reset write) before the combine, at the same per-row cost.
        copy_cycles = 2 * (total_pairs + total_unpaired)
        writes_per_row = init.writes_per_row + combine.writes_per_row * len(levels)
        copy_writes_per_dst_row = self.acc_width * len(levels)
        return BulkAggregationCost(
            program_cycles=program_cycles,
            copy_cycles=copy_cycles,
            writes_per_row=writes_per_row + copy_writes_per_dst_row,
            total_row_copies=total_pairs,
            copied_bits_per_pair=self.acc_width,
        )

    # ------------------------------------------------------------ execution
    def run_gate_level(self, bank: CrossbarBank) -> np.ndarray:
        """Execute the reduction with real NOR primitives and row copies.

        Returns the per-crossbar aggregate decoded from row 0.  Intended for
        verification on small banks (the programs run op by op); large
        executions use :meth:`run_functional`.
        """
        init = self.init_program()
        combine = self.combine_program()
        init.execute(bank)
        identity = self.identity_value if self.operation == "min" else 0
        for level in self.levels():
            bank.copy_row_pairs(
                level.src_rows, level.dst_rows,
                self.acc_offset, self.operand_offset, self.acc_width,
            )
            bank.write_field_rows(
                level.unpaired_dst_rows, self.operand_offset, self.acc_width,
                identity,
            )
            combine.execute(bank)
        return bank.read_field_all(self.acc_offset, self.acc_width)[:, 0].copy()

    def run_functional(self, bank: CrossbarBank) -> np.ndarray:
        """Compute the same per-crossbar aggregates directly.

        The partials come from :func:`masked_partials` (only the masked
        cells of the field are read; a ``count`` sums the mask column read
        as a 1-bit field).  The result bits are written back into the
        accumulator field of row 0 of every crossbar (as the gate-level
        execution would leave them), and the returned values are identical
        to :meth:`run_gate_level`.  The caller is responsible for charging
        :meth:`cost`.
        """
        if self.operation == "count":
            offset, width, operation = self.mask_column, 1, "sum"
        else:
            offset, width, operation = self.field_offset, self.field_width, self.operation
        results = masked_partials(
            bank, offset, width, self.mask_column, operation, self.acc_width
        )
        bank.write_field_row(0, self.acc_offset, self.acc_width, results)
        return results


@dataclass(frozen=True)
class BulkAggregationCost:
    """Cost summary of a :class:`BulkAggregationPlan` execution."""

    program_cycles: int
    copy_cycles: int
    writes_per_row: int
    total_row_copies: int
    copied_bits_per_pair: int

    @property
    def total_cycles(self) -> int:
        return self.program_cycles + self.copy_cycles


def aggregate_reference(
    values: np.ndarray, mask: np.ndarray, operation: str, result_width: int
) -> np.ndarray:
    """Reference (NumPy) masked aggregation per crossbar.

    ``values`` and ``mask`` have shape ``(count, rows)``.  Returns one value
    per crossbar, truncated to ``result_width`` bits (matching the in-memory
    accumulator behaviour).
    """
    # No caller in src/: the tests' oracle for masked_partials and
    # segmented_partials, kept under this name because perf/layers.py (not
    # editable outside a benchmark PR) names it.
    values = np.asarray(values, dtype=np.uint64)
    mask = np.asarray(mask, dtype=bool)
    limit = np.uint64((1 << result_width) - 1) if result_width < 64 else np.uint64(2**64 - 1)
    if operation in ("sum", "count"):
        source = mask.astype(np.uint64) if operation == "count" else values * mask
        result = source.sum(axis=1, dtype=np.uint64)
        return result & limit
    if operation == "min":
        identity = limit
        masked = np.where(mask, values, identity)
        return masked.min(axis=1)
    if operation == "max":
        masked = np.where(mask, values, np.uint64(0))
        return masked.max(axis=1)
    raise ValueError(f"unsupported aggregation {operation!r}")


def segmented_partials(
    values: np.ndarray,
    starts: np.ndarray,
    cells: np.ndarray,
    shape: tuple[int, ...],
    operation: str,
    width: int,
) -> np.ndarray:
    """Masked per-crossbar aggregates of gathered cells, in one reduction.

    ``values`` holds the field of the masked cells, grouped into runs that
    share one result cell: run ``i`` starts at ``starts[i]`` and lands in the
    flat cell ``cells[i]`` of the ``shape`` result (a crossbar, or a key and
    a crossbar for batched pim-gb).  Each result cell equals
    :func:`aggregate_reference` of its mask: sums wrap to ``width`` bits and
    a cell no run lands in holds the operation's identity (``min``: all
    ones).
    """
    limit = np.uint64((1 << width) - 1)
    ufunc, identity = {
        "sum": (np.add, 0), "min": (np.minimum, limit), "max": (np.maximum, 0),
    }[operation]
    partials = np.full(shape, identity, dtype=np.uint64)
    if starts.size:
        partials.reshape(-1)[cells] = ufunc.reduceat(values, starts) & limit
    return partials


def masked_partials(
    bank: CrossbarBank,
    field_offset: int,
    field_width: int,
    mask_column: int,
    operation: str,
    width: int,
    xbars=None,
) -> np.ndarray:
    """Per-crossbar aggregates of a field over a mask column, one per
    crossbar of ``xbars`` (an index array; every crossbar if ``None``).

    Reads the mask column of those crossbars, then only the masked cells of
    the field (``read_field_cells``: the bank picks gather or bounded
    decode), and reduces them with :func:`segmented_partials` —
    :func:`aggregate_reference` of the decoded field and mask, without
    decoding the field.  The circuit aggregation and the PIMDB reduction
    both take their partials from here.
    """
    mask = bank.read_column(mask_column, xbars)
    # ``flatnonzero`` and a divmod: ~5x faster than a 2-d ``nonzero``.
    position, rows = np.divmod(np.flatnonzero(mask), bank.rows)
    starts = np.flatnonzero(np.diff(position, prepend=-1))
    cells = position if xbars is None else np.asarray(xbars)[position]
    return segmented_partials(
        bank.read_field_cells(cells, rows, field_offset, field_width),
        starts, position[starts], (mask.shape[0],), operation, width,
    )
