"""Fused word-level execution of lowered NOR DAGs.

:class:`FusedKernel` compiles a :class:`~repro.pim.ir.NorDag` once into a
flat instruction list and evaluates it with whole-array NumPy bitwise
expressions.  One kernel serves both backends: it only touches a bank
through the four-method kernel surface (``kernel_read`` / ``kernel_write``
/ ``kernel_ones`` / ``add_wear``), which the packed bank implements over
``uint64`` words and the boolean reference bank over its bool cube.  A
caller holding a :class:`BatchKernel` value reads it through the other
three: ``kernel_to_bool`` / ``kernel_from_bool`` convert a whole value and
``kernel_gather`` reads listed cells of a stack of values without decoding
the rest; between them a value only meets NumPy's bitwise ufuncs and
indexing along its leading (stack, crossbar) axes, which mean the same on
both representations.

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

from repro.pim.ir import INPUT, NOR, BatchDag, NorDag


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

    def run(self, bank, xbars: Sequence[int] | None = None) -> None:
        """Evaluate the kernel on ``bank`` (optionally on ``xbars`` only).

        Wear is *not* charged here — the caller adds the program's
        per-cycle wear in bulk so the counters match dispatch exactly.
        """
        if xbars is not None and len(xbars) == 0:
            return
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
                values[index] = bank.kernel_read(payload, xbars)
            else:  # CONST — only ever an output (folding strips const operands)
                values[index] = ones if payload else np.bitwise_xor(ones, ones)
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


class BatchKernel:
    """A compiled evaluator for one multi-program :class:`BatchDag`.

    Unlike :class:`FusedKernel`, a batch kernel is *functional*: it returns
    every program's output values in the bank's native representation and
    writes nothing back.  The caller decides which values become stored
    column state (the group-by stage persists only the final-subgroup
    state, matching the sequential reference) and charges all modelled
    costs from the source programs' metadata.

    ``INPUT`` instructions with a ``(program_index, column)`` payload are
    *private*: their value is looked up in the ``private`` mapping passed
    to :meth:`run` instead of being read from the bank, which is how each
    combine program sees its own subgroup's remote-transfer bits while the
    shared equality subcircuits are still evaluated once.
    """

    __slots__ = ("instructions", "outputs", "depth", "nor_count")

    def __init__(self, dag: BatchDag) -> None:
        self.instructions: tuple[tuple[str, Hashable], ...] = tuple(
            zip(dag.kinds, dag.payloads)
        )
        self.outputs: tuple[tuple[tuple[int, int], ...], ...] = dag.outputs
        self.depth: int = dag.depth
        self.nor_count: int = dag.nor_count

    def run(
        self,
        bank,
        xbars: Sequence[int] | None = None,
        private=None,
    ) -> list[list[tuple[int, object]]]:
        """Evaluate the batch on ``bank`` and return per-program outputs.

        Returns one ``[(column, native_value), ...]`` list per program.
        Returned values may alias each other (CSE) or live bank storage
        (INPUT passthrough) — callers must treat them as read-only
        snapshots of the pre-batch state and copy before mutating the
        bank.  ``private`` maps ``(program_index, column)`` to the native
        value bound to that program's private input (shaped for ``xbars``
        when given).
        """
        if xbars is not None and len(xbars) == 0:
            return [[] for _ in self.outputs]
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
                if isinstance(payload, tuple):
                    if private is None or payload not in private:
                        raise KeyError(
                            f"batch kernel private input {payload!r} not bound"
                        )
                    values[index] = private[payload]
                else:
                    values[index] = bank.kernel_read(payload, xbars)
            else:  # CONST — only ever an output (folding strips const operands)
                values[index] = ones if payload else np.bitwise_xor(ones, ones)
        return [
            [(column, values[slot]) for column, slot in bindings]
            for bindings in self.outputs
        ]


def compile_batch(dag: BatchDag) -> BatchKernel:
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
    and one OR-reduction covers them all.  A value that is negative or
    does not fit in ``W`` bits raises ``ValueError`` instead of aliasing
    another constant through its low bits.
    """
    values = np.asarray(values, dtype=np.int64)
    width = len(columns)
    if np.any((values < 0) | (values >> width)):
        raise ValueError(f"a constant does not fit in {width} bits")
    planes = np.stack([bank.kernel_read(column, xbars) for column in columns])
    literals = np.stack((planes, np.bitwise_xor(planes, bank.kernel_ones())))
    bit = np.arange(width)
    return np.bitwise_or.reduce(literals[values[:, None] >> bit & 1, bit], axis=1)
