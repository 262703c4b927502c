"""NOR-based bulk-bitwise logic programs.

Bulk-bitwise PIM performs computation with stateful logic primitives executed
inside the memory array.  Following the paper (and MAGIC-style RRAM logic),
the single primitive is a **column NOR**: the destination column of every row
receives the NOR of one or two source columns, concurrently in all rows of
all crossbars of the targeted pages.  Initialising a column to a constant is
a bulk write cycle.

:class:`ProgramBuilder` composes these primitives into the circuits the query
compiler needs:

* constant comparisons (``==``, ``!=``, ``<``, ``<=``, ``>``, ``>=``,
  ``BETWEEN``, ``IN``) on bit fields of the crossbar row,
* boolean combinations of intermediate results,
* the in-memory multiplexer of Algorithm 1 used by UPDATE statements.

Every helper returns the index of the column holding its result.  The number
of emitted operations is the cycle count charged by the timing model (one
bulk-bitwise logic cycle, 30 ns in Table I, per primitive).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence
from typing import NamedTuple


@dataclass(frozen=True)
class NorOp:
    """Column-wise stateful NOR of ``srcs`` into ``dest``."""

    dest: int
    srcs: tuple[int, ...]


@dataclass(frozen=True)
class InitOp:
    """Initialise (bulk write) a column of every row to a constant."""

    dest: int
    value: bool


Operation = NorOp | InitOp


class Program:
    """An executable sequence of bulk-bitwise primitives.

    The program is purely functional with respect to a
    :class:`~repro.pim.crossbar.CrossbarBank`; timing, energy and power are
    accounted by :class:`repro.pim.controller.PimExecutor` from
    :attr:`cycles` and :attr:`writes_per_row`.
    """

    def __init__(
        self,
        ops: Sequence[Operation],
        result_column: int | None = None,
        output_columns: Sequence[int] | None = None,
    ):
        # Frozen: execute() dispatches the pre-split _steps, so a mutable op
        # list could silently desync the executed bits from the cycle/wear
        # accounting derived from len(self.ops).
        self.ops: tuple[Operation, ...] = tuple(ops)
        self.result_column = result_column
        # Pre-split the op stream into a flat typed dispatch list once, so
        # execute() does not re-discriminate op types on every invocation
        # (programs are compiled once and — with the service's program cache
        # — executed many times, on either backend).
        steps = []
        for op in self.ops:
            if isinstance(op, NorOp):
                steps.append((True, op.dest, op.srcs))
            elif isinstance(op, InitOp):
                steps.append((False, op.dest, op.value))
            else:
                raise TypeError(f"unknown operation {op!r}")
        self._steps: tuple[tuple[bool, int, object], ...] = tuple(steps)
        # Columns whose post-program value other code may observe.  A builder
        # program reports its non-scratch destinations; a raw program defaults
        # to every column it writes (fully conservative).  This is what the
        # fused path materialises — scratch destinations are dead storage.
        if output_columns is None:
            output_columns = sorted({op.dest for op in self.ops})
        self.output_columns: tuple[int, ...] = tuple(output_columns)
        # Lazily built fused artefacts (one DAG + kernel per program; the
        # program cache therefore caches fusion alongside compilation).
        self._dag = None
        self._kernel = None

    @property
    def cycles(self) -> int:
        """Number of bulk-bitwise cycles the program takes on a crossbar."""
        return len(self.ops)

    @property
    def writes_per_row(self) -> int:
        """Cell writes each row experiences (one per primitive)."""
        return len(self.ops)

    def execute(self, bank: CrossbarBank, xbars=None) -> None:
        """Apply the program to every row of every crossbar of ``bank``
        (of the crossbars ``xbars`` only, if given).

        ``bank`` may be either functional backend
        (:class:`~repro.pim.crossbar.CrossbarBank` or
        :class:`~repro.pim.packed.PackedCrossbarBank`); the pre-split flat
        op stream drives the bank's two primitives, each handed ``xbars``.
        Every primitive operates column-wise and independently per crossbar,
        so running the program on a subset produces on that subset exactly
        the bits a run on every crossbar would — while the other crossbars'
        cells and wear stay untouched.
        """
        for is_nor, dest, payload in self._steps:
            if is_nor:
                bank.nor_columns(dest, payload, xbars)
            else:
                bank.set_column(dest, payload, xbars)

    # ------------------------------------------------------------ fused path
    def ir(self):
        """The program lowered to its optimized NOR DAG (memoised)."""
        if self._dag is None:
            from repro.pim.ir import lower_program

            self._dag = lower_program(self)
        return self._dag

    def fused_kernel(self):
        """The compiled fused kernel of this program (memoised).

        Programs are immutable, so the kernel is built at most once per
        program object; with the service's LRU program cache this makes the
        fusion cost a per-template one-off, exactly like compilation.
        """
        if self._kernel is None:
            from repro.pim.fused import compile_dag

            self._kernel = compile_dag(self.ir())
        return self._kernel

    @property
    def depth(self) -> int:
        """Critical-path cycle depth of the optimized DAG (``<= cycles``)."""
        return self.ir().depth

    def run_fused(self, bank: CrossbarBank, xbars=None) -> None:
        """Execute the fused kernel — bit-exact with dispatch on the outputs.

        Leaves every output column and the wear counters exactly as
        :meth:`execute` would, on every crossbar or on ``xbars``;
        scratch columns are not touched.  Wear is charged in bulk from the
        program metadata: dispatch wears every row once per primitive, so
        the totals are identical by construction.
        """
        self.fused_kernel().run(bank, xbars)
        bank.add_wear(self.writes_per_row, xbars)

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Program(cycles={self.cycles}, result_column={self.result_column})"


class ProgramCost(NamedTuple):
    """What the charging entry points read of a :class:`Program`.

    ``apply_program_pruned`` with known result bits needs
    only ``cycles``, ``writes_per_row`` and ``result_column``, so a program
    whose op count is known in closed form (see
    :meth:`ProgramBuilder.eq_const_cycles`) is charged through a
    ``ProgramCost`` without ever being built.
    """

    cycles: int
    result_column: int | None

    @property
    def writes_per_row(self) -> int:
        """One cell write per row per primitive, as for a :class:`Program`."""
        return self.cycles


class ScratchExhaustedError(RuntimeError):
    """Raised when a program needs more scratch columns than the row layout has."""


class ProgramBuilder:
    """Builds NOR programs over a fixed pool of scratch columns.

    Args:
        scratch_columns: Column indices the program may freely overwrite.
            Comparison helpers release their intermediates, so a pool of a
            dozen columns is enough for the SSB predicates.
    """

    def __init__(self, scratch_columns: Sequence[int]):
        self._free: list[int] = list(scratch_columns)
        self._all_scratch = tuple(scratch_columns)
        self._ops: list[Operation] = []

    # ------------------------------------------------------------- low level
    def alloc(self) -> int:
        """Allocate a scratch column."""
        if not self._free:
            raise ScratchExhaustedError(
                f"program needs more than {len(self._all_scratch)} scratch columns"
            )
        return self._free.pop()

    def free(self, column: int | None) -> None:
        """Return a scratch column to the pool (no-op for ``None``)."""
        if column is None:
            return
        if column in self._all_scratch and column not in self._free:
            self._free.append(column)

    def emit_nor(self, dest: int, srcs: Sequence[int]) -> None:
        """Emit a raw NOR primitive."""
        self._ops.append(NorOp(dest, tuple(srcs)))

    def emit_init(self, dest: int, value: bool) -> None:
        """Emit a raw column initialisation."""
        self._ops.append(InitOp(dest, bool(value)))

    def build(self, result_column: int | None = None) -> Program:
        """Return the accumulated program.

        The program's output columns are its non-scratch destinations —
        the builder knows its scratch pool, so the emitted program carries
        exactly the set of columns whose final value is observable.
        """
        scratch = set(self._all_scratch)
        outputs = {op.dest for op in self._ops} - scratch
        if result_column is not None:
            outputs.add(result_column)
        return Program(
            self._ops,
            result_column=result_column,
            output_columns=sorted(outputs),
        )

    @property
    def cycles(self) -> int:
        """Cycles emitted so far."""
        return len(self._ops)

    # ----------------------------------------------------------- basic gates
    def const(self, value: bool) -> int:
        """Materialise a constant bit in a scratch column."""
        dest = self.alloc()
        self.emit_init(dest, value)
        return dest

    def nor(self, a: int, b: int | None = None) -> int:
        """NOR of one or two columns into a fresh scratch column."""
        dest = self.alloc()
        srcs = (a,) if b is None else (a, b)
        self.emit_nor(dest, srcs)
        return dest

    def not_(self, a: int) -> int:
        """Logical NOT (single-input NOR)."""
        return self.nor(a)

    def or_(self, a: int, b: int) -> int:
        """Logical OR (NOR followed by NOT)."""
        t = self.nor(a, b)
        result = self.not_(t)
        self.free(t)
        return result

    def and_(self, a: int, b: int) -> int:
        """Logical AND via De Morgan (three NORs)."""
        na = self.not_(a)
        nb = self.not_(b)
        result = self.nor(na, nb)
        self.free(na)
        self.free(nb)
        return result

    def and_not(self, a: int, b: int) -> int:
        """``a AND NOT b`` (two NORs)."""
        na = self.not_(a)
        result = self.nor(na, b)
        self.free(na)
        return result

    def xnor(self, a: int, b: int) -> int:
        """Logical XNOR (four NORs)."""
        t1 = self.nor(a, b)
        t2 = self.nor(a, t1)
        t3 = self.nor(b, t1)
        result = self.nor(t2, t3)
        self.free(t1)
        self.free(t2)
        self.free(t3)
        return result

    def xor(self, a: int, b: int) -> int:
        """Logical XOR (five NORs)."""
        t = self.xnor(a, b)
        result = self.not_(t)
        self.free(t)
        return result

    def copy(self, src: int) -> int:
        """Copy a column into a fresh scratch column (double NOT)."""
        t = self.not_(src)
        result = self.not_(t)
        self.free(t)
        return result

    def store(self, src: int, dest: int) -> None:
        """Copy the value of ``src`` into a specific destination column."""
        t = self.not_(src)
        self.emit_nor(dest, (t,))
        self.free(t)

    def store_const(self, dest: int, value: bool) -> None:
        """Write a constant into a specific destination column."""
        self.emit_init(dest, value)

    # --------------------------------------------------------- reductions
    def and_reduce(self, columns: Sequence[int], consume: bool = False) -> int:
        """AND of several columns.  ``consume`` frees the inputs."""
        return self._reduce(columns, self.and_, consume, identity=True)

    def or_reduce(self, columns: Sequence[int], consume: bool = False) -> int:
        """OR of several columns.  ``consume`` frees the inputs."""
        return self._reduce(columns, self.or_, consume, identity=False)

    def _reduce(self, columns, gate, consume, identity: bool) -> int:
        # Pairwise-balanced tree: the same n-1 gates (hence identical cycle
        # and wear accounting) as a linear chain, but O(log n) combinational
        # depth, which is what the fused kernel's critical path — and the
        # refined latency term derived from it — actually executes.  Peak
        # scratch use matches the chain: each combine allocates one column
        # and releases its two owned operands.
        columns = list(columns)
        if not columns:
            return self.const(identity)
        if len(columns) == 1:
            return self._own(columns[0]) if consume else columns[0]
        level = [(col, consume) for col in columns]
        while len(level) > 1:
            next_level = []
            for i in range(0, len(level) - 1, 2):
                a, a_owned = level[i]
                b, b_owned = level[i + 1]
                out = gate(a, b)
                if a_owned:
                    self.free(a)
                if b_owned:
                    self.free(b)
                next_level.append((out, True))
            if len(level) % 2:
                next_level.append(level[-1])
            level = next_level
        return level[0][0]

    def _own(self, column: int) -> int:
        """Return a column the caller may free (copy if it is not scratch)."""
        if column in self._all_scratch:
            return column
        return self.copy(column)

    # ------------------------------------------------------ constant compare
    def eq_const(self, field_columns: Sequence[int], value: int) -> int:
        """``field == value`` for an unsigned field (LSB-first columns)."""
        self._check_const(field_columns, value)
        acc: int | None = None
        for i, col in enumerate(field_columns):
            bit = (value >> i) & 1
            term = self.copy(col) if bit else self.not_(col)
            if acc is None:
                acc = term
            else:
                new_acc = self.and_(acc, term)
                self.free(acc)
                self.free(term)
                acc = new_acc
        assert acc is not None
        return acc

    @staticmethod
    def eq_const_cycles(width: int, value: int) -> int:
        """Primitives :meth:`eq_const` emits for a ``width``-bit constant.

        A set constant bit costs a ``copy`` (2 NORs), a clear one a ``not_``
        (1), and every bit after the first an ``and_`` (3) — so the count
        depends on the constant only through its popcount, which is what
        lets the value-free pim-gb templates charge a subgroup's program
        without building it.
        """
        ProgramBuilder._check_fits(width, value)
        return 4 * width - 3 + int(value).bit_count()

    def ne_const(self, field_columns: Sequence[int], value: int) -> int:
        """``field != value``."""
        eq = self.eq_const(field_columns, value)
        result = self.not_(eq)
        self.free(eq)
        return result

    def lt_const(self, field_columns: Sequence[int], value: int) -> int:
        """``field < value`` for an unsigned field (LSB-first columns)."""
        width = len(field_columns)
        if value <= 0:
            return self.const(False)
        if value >= (1 << width):
            return self.const(True)
        lt: int | None = None
        eq_prefix: int | None = None
        for i in reversed(range(width)):
            col = field_columns[i]
            cbit = (value >> i) & 1
            if cbit:
                not_b = self.not_(col)
                if eq_prefix is None:
                    term = not_b
                else:
                    term = self.and_(eq_prefix, not_b)
                    self.free(not_b)
                if lt is None:
                    lt = term
                else:
                    new_lt = self.or_(lt, term)
                    self.free(lt)
                    self.free(term)
                    lt = new_lt
                eq_prefix = self._extend_prefix(eq_prefix, col, invert=False)
            else:
                eq_prefix = self._extend_prefix(eq_prefix, col, invert=True)
        self.free(eq_prefix)
        if lt is None:
            return self.const(False)
        return lt

    def _extend_prefix(self, eq_prefix: int | None, col: int, invert: bool) -> int:
        bit = self.not_(col) if invert else self.copy(col)
        if eq_prefix is None:
            return bit
        new_prefix = self.and_(eq_prefix, bit)
        self.free(eq_prefix)
        self.free(bit)
        return new_prefix

    def le_const(self, field_columns: Sequence[int], value: int) -> int:
        """``field <= value``."""
        width = len(field_columns)
        if value >= (1 << width) - 1:
            return self.const(True)
        return self.lt_const(field_columns, value + 1)

    def gt_const(self, field_columns: Sequence[int], value: int) -> int:
        """``field > value``."""
        le = self.le_const(field_columns, value)
        result = self.not_(le)
        self.free(le)
        return result

    def ge_const(self, field_columns: Sequence[int], value: int) -> int:
        """``field >= value``."""
        if value <= 0:
            return self.const(True)
        lt = self.lt_const(field_columns, value)
        result = self.not_(lt)
        self.free(lt)
        return result

    def between_const(self, field_columns: Sequence[int], low: int, high: int) -> int:
        """``low <= field <= high`` (both bounds inclusive)."""
        if low > high:
            return self.const(False)
        ge = self.ge_const(field_columns, low)
        le = self.le_const(field_columns, high)
        result = self.and_(ge, le)
        self.free(ge)
        self.free(le)
        return result

    def isin_const(self, field_columns: Sequence[int], values: Sequence[int]) -> int:
        """``field IN values``."""
        values = sorted(set(int(v) for v in values))
        if not values:
            return self.const(False)
        terms = [self.eq_const(field_columns, v) for v in values]
        return self.or_reduce(terms, consume=True)

    def _check_const(self, field_columns: Sequence[int], value: int) -> None:
        self._check_fits(len(field_columns), value)

    @staticmethod
    def _check_fits(width: int, value: int) -> None:
        if width == 0:
            raise ValueError("empty field")
        if value < 0 or value >= (1 << width):
            raise ValueError(f"constant {value} does not fit in {width} bits")

    # ------------------------------------------------------------ Algorithm 1
    def mux_update(
        self,
        value_columns: Sequence[int],
        update_value: int,
        select_column: int,
    ) -> None:
        """In-memory MUX between stored bits and an immediate (Algorithm 1).

        For every row: if the select bit is 1 the field becomes
        ``update_value``, otherwise it is unchanged.  Two primitives per
        field bit, exactly as in the paper's Algorithm 1 (an OR for constant
        bits that are 1, an AND-NOT for constant bits that are 0), plus the
        temporary column each in-place rewrite needs.
        """
        self._check_const(value_columns, update_value)
        for i, col in enumerate(value_columns):
            cbit = (update_value >> i) & 1
            if cbit:
                # v <- v OR s  ==  NOT(NOR(v, s))
                t = self.nor(col, select_column)
                self.emit_nor(col, (t,))
                self.free(t)
            else:
                # v <- v AND NOT s  ==  NOR(NOT v, s)
                t = self.not_(col)
                self.emit_nor(col, (t, select_column))
                self.free(t)
