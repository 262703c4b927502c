"""Fused word-level execution of lowered NOR DAGs.

:class:`FusedKernel` compiles a :class:`~repro.pim.ir.NorDag` once into a
flat instruction list and evaluates it with whole-array NumPy bitwise
expressions.  One kernel serves both backends: it only touches a bank
through the four-method kernel surface (``kernel_read`` / ``kernel_write``
/ ``kernel_ones`` / ``add_wear``), which the packed bank implements over
``uint64`` words and the boolean reference bank over its bool cube.
``add_wear`` is ``BankBase``'s: a program run wears every row of its
crossbars alike, so it adds to one counter per crossbar, never to the
per-row matrix.

There is one evaluation loop and two ways to run it.
:meth:`FusedKernel.run` evaluates a program in place: every input from the
bank, the outputs written back.  :meth:`BatchKernel.run` evaluates it
functionally: an input may be bound to a caller's value instead of the
bank's (a value-free GROUP-BY template binds its per-key mismatch
pseudo-columns and remote column that way), and the outputs are returned
unwritten, against the pre-run state.  A caller holding such a value
converts it with ``kernel_to_bool`` / ``kernel_from_bool``; between them a
value only meets NumPy's bitwise ufuncs and indexing along its leading
(stack, crossbar) axes, which mean the same on both representations.

The NOR itself is computed as ``(a | b | ...) ^ ones``: on the packed
backend every value in the dataflow keeps its padding bits zero (inputs by
bank invariant, constants and gate outputs by construction), so XOR with
the row mask is exactly the masked complement — one ufunc instead of an
invert-then-mask pair, and the whole evaluation runs inside NumPy with the
GIL released, which is what lets the sharded scatter pool scale.

Bit-exactness contract: a fused run leaves every *output column* (and the
wear counters) bit-identical to the op-by-op dispatch of the same program.
Scratch columns are not written — they are dead storage between programs
(no program reads scratch before writing it).  Modelled costs are charged by the
caller from the original program metadata, never from the kernel.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

import numpy as np

from repro.pim.ir import INPUT, NOR, NorDag


class FusedKernel:
    """A compiled, backend-agnostic evaluator for one :class:`NorDag`."""

    __slots__ = ("instructions", "outputs", "depth", "nor_count")

    def __init__(self, dag: NorDag) -> None:
        self.instructions: tuple[tuple[str, Hashable], ...] = tuple(
            zip(dag.kinds, dag.payloads)
        )
        self.outputs: tuple[tuple[int, int], ...] = dag.outputs
        self.depth: int = dag.depth
        self.nor_count: int = dag.nor_count

    def _evaluate(self, bank, xbars, bound=None) -> list:
        """Every node's native value.  An ``INPUT`` reads its column from
        ``bound`` (``{column: value}``) if bound there, else from the bank;
        a column past the physical row (a template's pseudo-column) must be
        bound."""
        ones = bank.kernel_ones()
        values: list = [None] * len(self.instructions)
        for index, (kind, payload) in enumerate(self.instructions):
            if kind == NOR:
                slots = payload
                value = values[slots[0]]
                if len(slots) == 1:
                    value = np.bitwise_xor(value, ones)
                else:
                    value = np.bitwise_or(value, values[slots[1]])
                    for slot in slots[2:]:
                        np.bitwise_or(value, values[slot], out=value)
                    np.bitwise_xor(value, ones, out=value)
                values[index] = value
            elif kind == INPUT:
                if bound is not None and payload in bound:
                    values[index] = bound[payload]
                elif payload >= bank.columns:
                    raise KeyError(f"kernel input column {payload} is not bound")
                else:
                    values[index] = bank.kernel_read(payload, xbars)
            else:  # CONST — only ever an output (folding strips const operands)
                values[index] = ones if payload else np.bitwise_xor(ones, ones)
        return values

    def run(self, bank, xbars: Sequence[int] | None = None) -> None:
        """Evaluate the kernel on ``bank`` (optionally on ``xbars`` only)
        and write its outputs back.

        Wear is *not* charged here — the caller adds the program's
        per-cycle wear in bulk so the counters match dispatch exactly.
        """
        values = self._evaluate(bank, xbars)
        # Snapshot output values before any write: an output whose value is
        # an INPUT node may be a live view into a column written below.
        pending = []
        for column, slot in self.outputs:
            value = values[slot]
            if self.instructions[slot][0] == INPUT:
                value = np.array(value, copy=True)
            pending.append((column, value))
        for column, value in pending:
            bank.kernel_write(column, value, xbars)


def compile_dag(dag: NorDag) -> FusedKernel:
    """Compile ``dag`` into a reusable :class:`FusedKernel`."""
    return FusedKernel(dag)


class BatchKernel(FusedKernel):
    """A :class:`FusedKernel` run functionally: bound inputs, outputs
    returned unwritten.  The batched pim-gb binds a
    :class:`~repro.db.compiler.GroupMaskTemplate`'s mismatch pseudo-columns
    and remote column to ``(K, n, ...)`` values stacked along a key axis
    (K = 1: its last key), so one run yields those keys' subgroup masks; it
    stores them as column state and charges every modelled cost from
    program metadata.
    """

    __slots__ = ()

    def run(
        self, bank, xbars: Sequence[int] | None = None, bound=None
    ) -> list[tuple[int, object]]:
        """Evaluate on ``bank`` and return ``[(column, native_value), ...]``.

        ``bound`` maps columns to the values their ``INPUT`` nodes read
        instead of the bank's (shaped for ``xbars`` when given).  Returned
        values may alias each other (CSE), a bound value or live bank
        storage (INPUT passthrough) — callers must treat them as read-only
        snapshots of the pre-run state and copy before mutating the bank.
        """
        values = self._evaluate(bank, xbars, bound)
        return [(column, values[slot]) for column, slot in self.outputs]


def compile_batch(dag: NorDag) -> BatchKernel:
    """Compile ``dag`` into a reusable :class:`BatchKernel`."""
    return BatchKernel(dag)


def field_mismatches(
    bank, columns: Sequence[int], values, xbars: np.ndarray | None = None
):
    """``field != v`` for every ``v`` of ``values``, as one native value
    stacked along a constant axis: ``(len(values), n, ...)``.

    The literals of :meth:`~repro.pim.logic.ProgramBuilder.eq_const` with the
    constant as an index: the field (LSB-first ``columns``) differs from
    ``v`` iff some bit plane ``P_i`` has the literal ``v_i`` selects set —
    ``NOT P_i`` where ``v_i`` is one, ``P_i`` where it is zero.  Both
    literals of every plane are built once, each value gathers its ``W``
    and one OR-reduction covers them all.  ``columns`` are contiguous, as
    a field's are, so the planes are read as one slab.  A value that is
    negative or does not fit in ``W`` bits raises ``ValueError`` instead of
    aliasing another constant through its low bits.
    """
    values = np.asarray(values, dtype=np.int64)
    width = len(columns)
    if np.any((values < 0) | (values >> width)):
        raise ValueError(f"a constant does not fit in {width} bits")
    planes = bank.kernel_read(slice(columns[0], columns[0] + width), xbars)
    literals = np.empty((2,) + planes.shape, planes.dtype)
    literals[0] = planes
    np.bitwise_xor(planes, bank.kernel_ones(), out=literals[1])
    bit = np.arange(width)
    return np.bitwise_or.reduce(literals[values[:, None] >> bit & 1, bit], axis=1)
