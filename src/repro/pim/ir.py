"""NOR-DAG intermediate representation of compiled PIM programs.

A :class:`~repro.pim.logic.Program` is a flat list of ``NorOp``/``InitOp``
steps over physical columns.  That form is what the controller *dispatches*
(and what the cost model charges — one cycle per step), but it is a poor
shape for fast simulation: columns are mutable storage locations, so the
same logical value is recomputed, copied and re-negated many times.

:func:`lower_program` rewrites a program into a pure dataflow form — a DAG
whose nodes are

* ``INPUT``  — the value a physical column holds *before* the program runs
  (created lazily on first read-before-write),
* ``CONST``  — a boolean constant (from ``InitOp`` or constant folding),
* ``NOR``    — one NOR gate over earlier nodes,

with the column-level mutation story handled by a sequential walk: every
step rebinds its destination column to a new node, so in-place idioms
(ripple-carry accumulation, ``mux_update``) lower correctly by
construction.

Every program is lowered this one way, the value-free GROUP-BY template
(:class:`~repro.db.compiler.GroupMaskTemplate`) included: its per-key
mismatch pseudo-columns, which lie past the physical row, and its remote
column are plain ``INPUT`` nodes, which the kernel reads from a per-run
binding instead of the bank (:mod:`repro.pim.fused`).

While building the DAG we apply the classic local optimisations:

* operand deduplication          (``NOR(a, a)`` → ``NOR(a)``),
* constant folding               (a true operand forces the output low;
  false operands vanish; an operand-free NOR is the constant true),
* double-negation elimination    (``NOR(NOR(x))`` → ``x``, which collapses
  the builder's ``copy``/``store`` chains),
* hash-consing CSE               (structurally identical gates share one
  node).

Dead intermediate columns are eliminated by construction: the lowered DAG
retains only nodes reachable from the program's *output columns* (the
non-scratch columns it writes), so scratch traffic never reaches the fused
kernel.

Every node carries its combinational **depth** — ``INPUT`` is 0, ``CONST``
is 1 (one init cycle) and a ``NOR`` is one more than its deepest operand,
the ``(signal, depth)`` idiom of pyCircuit's primitive cells.  The DAG's
depth (max over outputs) is the critical-path cycle count of the program:
a lower bound on (and usually far below) the sequential op count, and the
basis of the refined latency term in
:mod:`repro.core.latency_model`.  Modelled costs are *never* charged from
the DAG — they come from the original program metadata, which is what
keeps fused execution bit-identical in :class:`~repro.pim.stats.PimStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Hashable, Sequence

from repro.pim.logic import InitOp, NorOp, Program

#: Node kinds of the lowered DAG.
INPUT = "input"
CONST = "const"
NOR = "nor"


@dataclass(frozen=True)
class NorDag:
    """An optimized, topologically ordered NOR dataflow graph.

    ``kinds[i]`` / ``payloads[i]`` describe node ``i``: the payload is a
    column index for ``INPUT``, a ``bool`` for ``CONST`` and a tuple of
    earlier node indices for ``NOR``.  Operands always precede their gate,
    so a single forward pass evaluates the graph.  ``outputs`` maps each
    output column to the node holding its final value.
    """

    kinds: tuple[str, ...]
    payloads: tuple[Hashable, ...]
    depths: tuple[int, ...]
    outputs: tuple[tuple[int, int], ...]
    #: Op count of the source program — the basis of all modelled costs.
    cycles: int

    @property
    def num_nodes(self) -> int:
        return len(self.kinds)

    @property
    def nor_count(self) -> int:
        """Live NOR gates after CSE/folding/dead-code elimination."""
        return sum(1 for kind in self.kinds if kind == NOR)

    @property
    def depth(self) -> int:
        """Critical-path cycle depth over the output columns."""
        if not self.outputs:
            return 0
        return max(self.depths[node] for _, node in self.outputs)

    @property
    def input_columns(self) -> tuple[int, ...]:
        """Columns whose pre-program value the DAG reads."""
        return tuple(
            payload  # type: ignore[misc]
            for kind, payload in zip(self.kinds, self.payloads)
            if kind == INPUT
        )


class _DagBuilder:
    """Hash-consing builder of the optimisation-time (pre-DCE) node pool."""

    def __init__(self) -> None:
        self.kinds: list[str] = []
        self.payloads: list[Hashable] = []
        self.depths: list[int] = []
        self._cse: dict[Hashable, int] = {}

    def _intern(self, key: Hashable, kind: str, payload: Hashable, depth: int) -> int:
        node = self._cse.get(key)
        if node is None:
            node = len(self.kinds)
            self.kinds.append(kind)
            self.payloads.append(payload)
            self.depths.append(depth)
            self._cse[key] = node
        return node

    def input_(self, column: int) -> int:
        return self._intern((INPUT, column), INPUT, column, 0)

    def const(self, value: bool) -> int:
        # An InitOp costs one cycle, so a materialised constant has depth 1.
        return self._intern((CONST, value), CONST, bool(value), 1)

    def nor(self, operands: Sequence[int]) -> int:
        live: list[int] = []
        for operand in sorted(set(operands)):
            if self.kinds[operand] == CONST:
                if self.payloads[operand]:
                    return self.const(False)  # a true operand forces 0
                continue  # false operands are NOR identities
            live.append(operand)
        if not live:
            return self.const(True)  # NOR of nothing-but-false is 1
        if len(live) == 1:
            only = live[0]
            # Double negation: NOR(NOR(x)) == x.
            if self.kinds[only] == NOR:
                inner = self.payloads[only]
                if isinstance(inner, tuple) and len(inner) == 1:
                    return inner[0]
        key = (NOR, tuple(live))
        depth = 1 + max(self.depths[operand] for operand in live)
        return self._intern(key, NOR, tuple(live), depth)


def lower_program(program: Program) -> NorDag:
    """Lower ``program`` into an optimized :class:`NorDag`.

    Its outputs are the program's ``output_columns`` (by default the
    non-scratch columns it writes — see
    :meth:`~repro.pim.logic.ProgramBuilder.build`).  Output columns the
    program never writes are dropped: their value is the identity and needs
    no store.
    """
    builder = _DagBuilder()
    env: dict[int, int] = {}

    def read(column: int) -> int:
        node = env.get(column)
        if node is None:
            node = builder.input_(column)
            env[column] = node
        return node

    for op in program.ops:
        if isinstance(op, NorOp):
            operands = [read(source) for source in op.srcs]
            env[op.dest] = builder.nor(operands)
        elif isinstance(op, InitOp):
            env[op.dest] = builder.const(op.value)
        else:  # pragma: no cover - Program validates its ops
            raise TypeError(f"unsupported op {op!r}")

    raw_outputs = [
        (column, env[column]) for column in program.output_columns if column in env
    ]

    # Dead-code elimination: keep only nodes reachable from the outputs,
    # renumbered in (topological) construction order.
    reachable: set = set()
    stack = [node for _, node in raw_outputs]
    while stack:
        node = stack.pop()
        if node in reachable:
            continue
        reachable.add(node)
        if builder.kinds[node] == NOR:
            stack.extend(builder.payloads[node])  # type: ignore[arg-type]
    order = sorted(reachable)
    renumber = {node: index for index, node in enumerate(order)}

    kinds = tuple(builder.kinds[node] for node in order)
    payloads = tuple(
        tuple(renumber[operand] for operand in builder.payloads[node])
        if builder.kinds[node] == NOR
        else builder.payloads[node]
        for node in order
    )
    depths = tuple(builder.depths[node] for node in order)
    outputs = tuple((column, renumber[node]) for column, node in raw_outputs)
    return NorDag(
        kinds=kinds,
        payloads=payloads,
        depths=depths,
        outputs=outputs,
        cycles=program.cycles,
    )


def lower_program_batch(programs: Sequence[Program]) -> NorDag:
    """:func:`lower_program` of a one-program batch."""
    # No caller in src/: kept because perf/layers.py (not editable outside
    # a benchmark PR) names it and perf/test_perf.py asserts
    # ``trace.unresolved_targets == 0``.
    (program,) = programs
    return lower_program(program)
