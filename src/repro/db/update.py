"""UPDATE statements executed inside the PIM memory (Algorithm 1).

Pre-joined relations duplicate dimension data across many fact records, which
is what makes UPDATE expensive in a conventional denormalised store
(Section III).  With bulk-bitwise PIM the update is performed in place: the
records to modify are selected with a PIM filter, and the filter bit then
drives the in-memory multiplexer of Algorithm 1 that overwrites the attribute
with the new value — no record is ever read by the host.

The compilation (predicate -> filter program, assignments -> mux program) is
separated from the execution: both programs depend only on the row layout,
so :meth:`repro.service.QueryService.update` compiles once via
:func:`compile_update` and runs the same programs on each of a relation's
K >= 1 stores (the shards of a sharded relation share layout objects),
summing the per-store :class:`UpdateResult` objects.  Like DELETE
(:mod:`repro.db.dml`), every UPDATE runs pruned: filter and mux touch only
the zone-map candidate crossbars.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.stages import apply_program_at
from repro.db.compiler import CompilationError, compile_predicate
from repro.db.dml import _select, _sum_results
from repro.db.query import Predicate, attributes_referenced
from repro.db.storage import StoredRelation
from repro.pim.controller import PimExecutor
from repro.pim.logic import Program, ProgramBuilder


@dataclass
class UpdateResult:
    """Outcome of an in-memory UPDATE."""

    records_updated: int
    filter_cycles: int
    update_cycles: int

    def __add__(self, other: UpdateResult) -> UpdateResult:
        return _sum_results(
            self, other,
            filter_cycles=self.filter_cycles, update_cycles=self.update_cycles,
        )


@dataclass(frozen=True)
class CompiledUpdate:
    """The layout-dependent parts of an UPDATE, compiled once.

    Valid for any stored relation sharing the layout it was compiled
    against — in particular for every shard of a
    :class:`~repro.sharding.storage.ShardedStoredRelation`.  The source
    predicate and assignments are retained so the executor can reject a
    compiled object replayed with a different statement.
    """

    partition: int
    filter_program: Program
    update_program: Program
    encoded_assignments: dict[str, int]
    predicate: Predicate | None = None
    assignments: dict[str, object] | None = None


def compile_update(
    stored: StoredRelation,
    predicate: Predicate,
    assignments: dict[str, object],
) -> CompiledUpdate:
    """Compile the filter and Algorithm 1 mux programs of an UPDATE.

    Both the predicate attributes and the assigned attributes must live in
    the same vertical partition (which is always true for the paper's use
    case: refreshing a duplicated dimension attribute of the pre-joined
    relation).
    """
    if not assignments:
        raise ValueError("no assignments given")
    partitions = {stored.partition_of(name) for name in assignments}
    partitions |= {stored.partition_of(a) for a in attributes_referenced(predicate)}
    if len(partitions) != 1:
        raise CompilationError(
            "UPDATE across vertical partitions is not supported; keep the "
            "predicate and assigned attributes in the same partition"
        )
    partition = partitions.pop()
    layout = stored.layouts[partition]
    schema = stored.relation.schema

    filter_program = compile_predicate(predicate, schema, layout)

    builder = ProgramBuilder(layout.scratch_columns)
    encoded_assignments: dict[str, int] = {}
    for name, raw_value in assignments.items():
        attribute = schema.attribute(name)
        encoded = attribute.encode_value(raw_value)
        encoded_assignments[name] = encoded
        builder.mux_update(
            layout.field_columns(name), encoded, layout.filter_column
        )
    return CompiledUpdate(
        partition=partition,
        filter_program=filter_program,
        update_program=builder.build(),
        encoded_assignments=encoded_assignments,
        predicate=predicate,
        assignments=dict(assignments),
    )


def execute_update(
    stored: StoredRelation,
    predicate: Predicate,
    assignments: dict[str, object],
    executor: PimExecutor,
    compiled: CompiledUpdate | None = None,
) -> UpdateResult:
    """Update ``assignments`` on the records selected by ``predicate``.

    The stored bits *and* the in-memory ground-truth relation are updated,
    so subsequent queries — through any engine — see the new values.
    ``compiled`` reuses a :func:`compile_update` result (the service
    compiles once and passes it to each of a relation's stores); it must
    have been compiled for ``predicate``/``assignments`` against this
    relation's layout.

    The filter runs on the zone-map candidate crossbars
    (:func:`repro.db.dml._select`) and the Algorithm 1 mux follows on the
    same crossbars — on a skipped crossbar no live row matches, so the mux
    would overwrite every field with its own value.  A provably-empty
    decision runs no program at all; the result's cycle fields describe the
    compiled statement either way.
    """
    if compiled is None:
        compiled = compile_update(stored, predicate, assignments)
    elif (compiled.predicate != predicate
          or compiled.assignments != dict(assignments)):
        # A mismatched reuse would rewrite the stored bits under the
        # compiled statement while syncing the ground truth under the given
        # one — a silent divergence, so refuse instead.
        raise ValueError(
            "compiled update does not match the given predicate/assignments"
        )
    # ``mask`` is the ground-truth selection.  Tombstoned rows are masked
    # out: the stored-bits mux never touches them (the filter program ANDs
    # with the valid column), so rewriting their ground-truth values would
    # silently diverge from the stored bits.
    mask, candidates = _select(stored, compiled, executor, "update-filter")
    if candidates is not None:
        # Overwrite every assigned attribute with Algorithm 1, consulting the
        # filter bit on exactly the crossbars the filter ran on.
        apply_program_at(
            stored, compiled.partition, compiled.update_program, executor,
            phase="update-mux", pages=stored.allocations[compiled.partition].pages,
            candidates=candidates,
        )
        # Keep the functional ground truth in sync.
        for name, encoded in compiled.encoded_assignments.items():
            # Widen the zone maps with the assigned constant before the sync
            # overwrites the old values the histograms must forget.  This
            # also bumps the candidate-cache epochs of exactly the touched
            # crossbars, so cached pruning verdicts re-validate only those.
            stored.note_update(name, encoded, mask)
            # A Python int: compile_update width-checked it, and NumPy
            # refuses (rather than wraps) one the column's dtype cannot hold.
            stored.relation.columns[name][mask] = encoded
        touched = np.unique(
            np.nonzero(mask)[0] // stored.rows_per_crossbar
        ).size
        stored.statistics.charge_maintenance(
            executor.stats,
            executor.config.host,
            touched * len(compiled.encoded_assignments),
        )
    return UpdateResult(
        records_updated=int(mask.sum()),
        filter_cycles=compiled.filter_program.cycles,
        update_cycles=compiled.update_program.cycles,
    )
