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

There is one evaluation loop, :meth:`FusedKernel.run`: every input from
the bank, the outputs written back.  A caller holding a native value (the
batched pim-gb's :func:`field_mismatches` of a remote partition, a
:class:`BatchKernel`'s unwritten outputs) converts it with
``kernel_to_bool`` / ``kernel_from_bool``; between them a value only meets
NumPy's bitwise ufuncs and indexing along its leading (stack, crossbar)
axes, which mean the same on both representations.

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

    def _evaluate(self, bank, xbars) -> list:
        """Every node's native value, each ``INPUT`` read from the bank."""
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
    """A :class:`FusedKernel` run functionally: the outputs are returned
    unwritten, against the pre-run state."""

    __slots__ = ()

    def run(self, bank, xbars: Sequence[int] | None = None) -> list[tuple[int, object]]:
        """``[(column, native_value), ...]`` of the outputs; a value may alias
        another (CSE) or live bank storage (INPUT passthrough)."""
        # No caller in src/: kept because perf/layers.py (not editable outside
        # a benchmark PR) names it and perf/test_perf.py asserts
        # ``trace.unresolved_targets == 0``.
        values = self._evaluate(bank, xbars)
        return [(column, values[slot]) for column, slot in self.outputs]


def compile_batch(dag: NorDag) -> BatchKernel:
    """Compile ``dag`` into a reusable :class:`BatchKernel`."""
    # No caller in src/: pinned by perf/layers.py, like BatchKernel.run.
    return BatchKernel(dag)


def field_mismatches(bank, columns: Sequence[int], value: int, xbars=None):
    """``field != value`` as one native value, ``(n, ...)``.

    The literals of :meth:`~repro.pim.logic.ProgramBuilder.eq_const`: the
    field (LSB-first ``columns``) differs from ``value`` iff some bit plane
    ``P_i`` has the literal ``value_i`` selects set — ``NOT P_i`` where
    ``value_i`` is one, ``P_i`` where it is zero.  ``columns`` are
    contiguous, as a field's are, so the planes are read as one slab.  A
    value that is negative or does not fit in ``W`` bits raises
    ``ValueError`` instead of aliasing another constant through its low
    bits.
    """
    value = int(value)
    width = len(columns)
    if value < 0 or value >> width:
        raise ValueError(f"a constant does not fit in {width} bits")
    literals = np.array(bank.kernel_read(slice(columns[0], columns[0] + width), xbars))
    literals[(value >> np.arange(width) & 1).astype(bool)] ^= bank.kernel_ones()
    return np.bitwise_or.reduce(literals, axis=0)
