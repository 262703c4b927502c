"""In-place INSERT / DELETE / compaction on a PIM-resident relation.

The paper's core argument is that bulk-bitwise PIM makes the denormalised,
pre-joined store cheap to *modify* in place.  :mod:`repro.db.update`
implements the UPDATE half (Algorithm 1); this module completes the data
lifecycle:

* **DELETE** compiles the predicate into the standard PIM filter program and
  then clears the valid bit of the selected rows with one more bulk-bitwise
  pass (``valid &= ~filter``) — no record is ever read by the host.  The
  cleared rows become *tombstones*: every filter and subgroup-mask program
  ANDs the valid column in, so tombstones provably drop out of every filter,
  group mask and aggregate.
* **INSERT** writes new records through the host store path into free slots —
  tombstones first (lowest slot first), then the allocation's spare
  ``record_capacity`` tail — and sets the valid bit.  The slot-aligned
  ground-truth :class:`~repro.db.relation.Relation` is updated in the same
  step, so the functional reference and the stored bits never diverge.
  *Modelled* is one host store per attribute and bookkeeping bit of every
  record, charged record by record; *simulated* is one columnar batch with
  the same bits, wear and floats (see :func:`execute_insert`).
* **Compaction** rewrites the live rows densely into the lowest slots when
  the tombstoned fraction crosses a threshold, shrinking the slot high-water
  mark (and with it every per-record host cost: filter bit-vector reads,
  sampling, record reads).  The host's read of every live record is charged
  but not decoded: the dense image is written from the ground truth.

Every phase charges the modelled :class:`~repro.pim.stats.PimStats`:
``delete-filter`` / ``delete-clear`` / ``delete-transfer`` (two-xb),
``insert-write``, and ``compact-read`` / ``compact-write``.

Like UPDATE, the layout-dependent programs are compiled once
(:func:`compile_delete`) and are valid for every relation sharing the layout
— in particular for every shard of a
:class:`~repro.sharding.storage.ShardedStoredRelation`.  Each statement runs
on one store; :class:`~repro.service.QueryService` runs it on each of a
relation's K >= 1 stores and sums the per-store results with ``+`` (counts
add, the cycle fields describe the statement).  DELETE and UPDATE share one
selection step (:func:`_select`): the filter runs zone-map-pruned on the
candidate crossbars, and the clear / mux programs follow on the same
crossbars.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, fields
from collections.abc import Mapping, Sequence

import numpy as np

from repro.core.program_cache import ProgramCache
from repro.core.stages import (
    _check_pruned_bits,
    apply_program_at,
    apply_program_pruned,
)
from repro.db.compiler import CompilationError
from repro.db.query import Predicate, attributes_referenced, evaluate_predicate
from repro.db.storage import RelationFullError, StoredRelation
from repro.host import dram
from repro.host.dram import CACHE_LINE_BYTES
from repro.host.readpath import HostReadModel
from repro.pim.controller import PimExecutor
from repro.pim.logic import Program, ProgramBuilder
from repro.pim.packed import field_dtype

__all__ = [
    "CompiledDelete",
    "DeleteResult",
    "InsertResult",
    "CompactionResult",
    "RelationFullError",
    "compile_delete",
    "execute_delete",
    "execute_insert",
    "execute_compaction",
]

#: Default tombstone fraction above which :func:`execute_compaction` rewrites.
DEFAULT_COMPACTION_THRESHOLD = 0.3


def _sum_results(left, right, **statement):
    """One statement's outcome over two stores: every field adds (lists
    concatenate) except those given in ``statement``, which are taken as is."""
    return type(left)(**{
        f.name: getattr(left, f.name) + getattr(right, f.name)
        for f in fields(left) if f.name not in statement
    }, **statement)


# --------------------------------------------------------------------- DELETE
@dataclass(frozen=True)
class CompiledDelete:
    """The layout-dependent programs of a DELETE, compiled once.

    Valid for any stored relation sharing the layouts it was compiled
    against (every shard of a sharded relation).  ``clear_programs`` maps
    each vertical partition to its ``valid &= ~mask`` program; the mask is
    the filter column in the predicate's partition and the remote (landing)
    column everywhere else.
    """

    partition: int
    filter_program: Program
    clear_programs: dict[int, Program]
    predicate: Predicate | None = None


@dataclass
class DeleteResult:
    """Outcome of an in-memory DELETE."""

    records_deleted: int
    filter_cycles: int
    clear_cycles: int
    live_records: int
    tombstones: int

    def __add__(self, other: DeleteResult) -> DeleteResult:
        return _sum_results(
            self, other,
            filter_cycles=self.filter_cycles, clear_cycles=self.clear_cycles,
        )


#: Per-layout cache of the valid-clearing programs.  They are pure functions
#: of the layout (no predicate dependence), so every DELETE against the same
#: layout — any shard, any statement — reuses one compiled program.
_CLEAR_PROGRAMS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _clear_valid_program(layout, mask_column: int) -> Program:
    """``valid &= ~mask_column``, leaving the result in the valid column."""
    per_layout = _CLEAR_PROGRAMS.setdefault(layout, {})
    program = per_layout.get(mask_column)
    if program is None:
        builder = ProgramBuilder(layout.scratch_columns)
        remaining = builder.and_not(layout.valid_column, mask_column)
        builder.store(remaining, layout.valid_column)
        builder.free(remaining)
        program = builder.build(result_column=layout.valid_column)
        per_layout[mask_column] = program
    return program


def compile_delete(
    stored: StoredRelation,
    predicate: Predicate,
    compiler=None,
) -> CompiledDelete:
    """Compile the filter and valid-clearing programs of a DELETE.

    The predicate's attributes must live in a single vertical partition
    (like UPDATE); the resulting tombstone bit-vector is shipped to the
    other partitions through the host, exactly like a two-xb filter.
    ``compiler`` is a :class:`~repro.core.program_cache.ProgramCache` (a
    fresh one if omitted); pass the service's to reuse the filter program
    across shards and repeated statements.
    """
    if compiler is None:
        compiler = ProgramCache()
    partitions = {stored.partition_of(a) for a in attributes_referenced(predicate)}
    if len(partitions) > 1:
        raise CompilationError(
            "DELETE across vertical partitions is not supported; keep the "
            "predicate attributes in the same partition"
        )
    partition = partitions.pop() if partitions else 0
    layout = stored.layouts[partition]
    schema = stored.relation.schema
    filter_program = compiler.filter_program(predicate, schema, layout)

    clear_programs = {
        partition: _clear_valid_program(layout, layout.filter_column)
    }
    for index, other in enumerate(stored.layouts):
        if index != partition:
            clear_programs[index] = _clear_valid_program(other, other.remote_column)
    return CompiledDelete(
        partition=partition,
        filter_program=filter_program,
        clear_programs=clear_programs,
        predicate=predicate,
    )


def _select(
    stored: StoredRelation,
    compiled,
    executor: PimExecutor,
    phase: str,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The selection step a DELETE or UPDATE starts with.

    ``compiled`` is a :class:`CompiledDelete` or a
    :class:`~repro.db.update.CompiledUpdate`.  The relation's zone maps are
    consulted exactly like the query engine does — plan billed through the
    candidate cache, ``zonemap-check`` charged — and the filter program runs
    on the candidate crossbars only (skipped crossbars provably hold no
    selected row, so their filter bits are all-zero).  The rows the ground
    truth selects are checked against the decision before any program runs:
    a selected row on a skipped crossbar raises ``RuntimeError`` with
    nothing changed.

    Returns the ground-truth selection (the predicate ANDed with the valid
    bits, one bool per slot in use) and the candidate crossbars — ``None``
    when the zone maps prove the statement empty, in which case no program
    ran.
    """
    partition = compiled.partition
    allocation = stored.allocations[partition]
    selection = evaluate_predicate(compiled.predicate, stored.relation)
    selection &= stored.valid_mask(partition)
    statistics = stored.statistics
    decision = statistics.plan(
        compiled.predicate,
        stored.partition_attributes,
        executor.config.pim.crossbars_per_page,
    )
    statistics.charge_check(
        executor.stats, executor.config.host, decision.entries_checked
    )
    if decision.empty:
        # Some partition's conjunction matches no crossbar: nothing is
        # selected, provably — the conservative invariant guarantees it.
        _check_pruned_bits(
            selection, np.zeros(allocation.crossbars, dtype=bool), allocation
        )
        return selection, None
    candidates = decision.candidates[partition]
    _check_pruned_bits(selection, candidates, allocation)
    apply_program_pruned(
        stored, partition, compiled.filter_program, executor,
        phase=phase, pages=allocation.pages, candidates=candidates,
    )
    return selection, candidates


def execute_delete(
    stored: StoredRelation,
    predicate: Predicate,
    executor: PimExecutor,
    compiled: CompiledDelete | None = None,
) -> DeleteResult:
    """Tombstone the records selected by ``predicate`` — in memory.

    The filter runs on the zone-map candidate crossbars (:func:`_select`);
    the valid bit of the selected rows is then cleared by a bulk-bitwise
    program on the same crossbars in every vertical partition (the
    tombstone bit-vector crosses partitions through the host, charged as
    ``delete-transfer``).  A skipped crossbar holds no doomed row, so its
    valid column is already the AND's result and stays untouched; a
    provably-empty decision runs no program at all.  The ground-truth
    relation keeps the tombstoned rows slot-aligned; they are masked out of
    :meth:`~repro.db.storage.StoredRelation.live_relation` and of every query
    path by the cleared valid bit.  The result's cycle fields describe the
    compiled statement whether or not it ran.

    DML bills the stored size as it is: unlike the query engines, it takes no
    ``timing_scale`` extrapolation (scaling it would change the modelled
    cost of every DML statement).
    """
    if compiled is None:
        compiled = compile_delete(stored, predicate)
    elif compiled.predicate != predicate:
        raise ValueError("compiled delete does not match the given predicate")
    doomed, candidates = _select(stored, compiled, executor, "delete-filter")
    if candidates is not None:
        primary = compiled.partition
        # Clear the valid bit where the filter hit.  ``doomed`` is zero on
        # every skipped crossbar, so the AND is the identity there.
        apply_program_at(
            stored, primary, compiled.clear_programs[primary], executor,
            phase="delete-clear", pages=stored.allocations[primary].pages,
            candidates=candidates,
        )
        # Other vertical partitions: ship the tombstone bit-vector through
        # the host (the two-xb transfer path) and clear their valid bits
        # too.  The crossbar index of a slot is the same in every vertical
        # partition, so the primary candidates cover the doomed rows
        # everywhere.
        read_model = HostReadModel(executor.config, executor.stats)
        for index in range(stored.partitions):
            if index == primary:
                continue
            read_model.transfer_bit_column(
                stored,
                primary, stored.layouts[primary].filter_column,
                index, stored.layouts[index].remote_column,
                phase="delete-transfer",
            )
            apply_program_at(
                stored, index, compiled.clear_programs[index], executor,
                phase="delete-clear", pages=stored.allocations[index].pages,
                candidates=candidates,
            )
        doomed_slots = np.nonzero(doomed)[0]
        stored.register_tombstones(doomed_slots)
        # Zone-map maintenance: one live-counter decrement per touched
        # crossbar (bounds stay conservatively wide until the next
        # compaction).  DELETE never bumps candidate-cache epochs — cached
        # fragment masks are bounds-only and stay exact; only the live
        # prefilter shrinks.
        touched = np.unique(doomed_slots // stored.rows_per_crossbar).size
        stored.statistics.charge_maintenance(
            executor.stats, executor.config.host, touched
        )
    return DeleteResult(
        records_deleted=int(doomed.sum()),
        filter_cycles=compiled.filter_program.cycles,
        clear_cycles=sum(p.cycles for p in compiled.clear_programs.values()),
        live_records=stored.live_count,
        tombstones=stored.tombstone_count,
    )


# --------------------------------------------------------------------- INSERT
@dataclass
class InsertResult:
    """Outcome of an INSERT batch."""

    #: Slot index of every inserted record in its own store, in input order
    #: (a sum over stores concatenates them in store order).
    slots: list[int] = field(default_factory=list)
    #: How many inserts reused a tombstoned slot.
    reused_slots: int = 0
    #: How many inserts grew the high-water mark into the spare tail.
    appended_slots: int = 0
    live_records: int = 0
    tombstones: int = 0

    @property
    def records_inserted(self) -> int:
        return len(self.slots)

    def __add__(self, other: InsertResult) -> InsertResult:
        return _sum_results(self, other)


def execute_insert(
    stored: StoredRelation,
    records: Sequence[Mapping[str, object]] | Mapping[str, np.ndarray],
    executor: PimExecutor,
    encoded: bool = False,
) -> InsertResult:
    """Insert ``records`` (``{attribute: value}`` mappings) into free slots.

    Tombstones are reused lowest-first; further records land in the spare
    capacity tail, growing ``num_records`` and the ground-truth relation
    together.  The batch is all-or-nothing against caller errors: capacity
    and every record's encoding are validated before the first write, so a
    bad record raises (:class:`RelationFullError` / :class:`ValueError`)
    with nothing applied.  The batch is encoded column-wise
    (:meth:`~repro.db.relation.Relation.encode_records`); ``encoded=True``
    trusts ``records`` to be such a result, one width-checked column per
    attribute in the field's own dtype (the service encodes once for all of
    a relation's stores).  Each ground-truth column keeps its dtype: reused
    slots are written in place and the appended tail is concatenated in the
    same dtype.

    **Modelled**: each record goes through the host store path — one field
    store per attribute plus the four bookkeeping bits, per partition —
    charging write latency, energy and wear per store (``insert-write``), in
    record-major order.  **Simulated**: one encoded column per attribute,
    one ``write_field_cells`` scatter per partition (its attributes and four
    bookkeeping bits, everything validated before the first cell changes), one
    statistics update and one charge series folding the per-store floats
    left to right — bits, wear, statistics and ``PimStats`` identical to the
    per-record loop (the oracle in ``tests/test_insert_lockstep.py``).
    """
    relation = stored.relation
    records = records if encoded else list(records)
    count = len(next(iter(records.values()))) if encoded else len(records)
    if count > stored.free_slots:
        raise RelationFullError(
            f"cannot insert {count} records into {stored.label!r}: "
            f"only {stored.free_slots} free slots"
        )
    columns = records if encoded else relation.encode_records(records)

    # Slots in input order: tombstones lowest-first, then the spare tail.
    result = InsertResult()
    for _ in range(count):
        slot, reused = stored.acquire_slot()
        if reused:
            result.reused_slots += 1
        else:
            stored.num_records += 1
            result.appended_slots += 1
        result.slots.append(slot)
    stored.live_count += len(result.slots)
    slots = np.array(result.slots, dtype=np.int64)

    # Ground truth: reused slots in place, the tail grows each column once.
    reused = result.reused_slots
    for name, column in columns.items():
        relation.columns[name][slots[:reused]] = column[:reused]
        if result.appended_slots:
            relation.columns[name] = np.concatenate(
                [relation.columns[name], column[reused:]]
            )
    relation.num_records += result.appended_slots
    assert len(relation) == stored.num_records, (
        "ground-truth relation out of sync with the slot high-water mark"
    )
    stored.note_insert(slots, columns)

    widths: list[int] = []     # one record's stores, in order: the charge pattern
    clear = np.zeros(len(slots), dtype=np.uint64)
    valid = np.ones(len(slots), dtype=np.uint64)
    for layout, allocation, attrs in zip(
        stored.layouts, stored.allocations, stored.partition_attributes
    ):
        # The attributes, then the bookkeeping bits a tombstone may have left
        # scrubbed and the valid bit raised: one scatter per partition.
        fields = [(*layout.fields[name], columns[name]) for name in attrs] + [
            (layout.filter_column, 1, clear),
            (layout.group_column, 1, clear),
            (layout.remote_column, 1, clear),
            (layout.valid_column, 1, valid),
        ]
        allocation.bank.write_field_cells(
            allocation.crossbar_of_record(slots),
            allocation.row_of_record(slots),
            fields,
        )
        widths.extend(width for _, width, _ in fields)
    executor.charge_host_writes(widths, len(slots), phase="insert-write")

    # Zone-map maintenance: each insert widened one crossbar's bounds for
    # every attribute and bumped its live counter — and bumped that
    # crossbar's candidate-cache epoch, so cached fragment masks re-validate
    # exactly the touched crossbars on their next lookup.
    stored.statistics.charge_maintenance(
        executor.stats,
        executor.config.host,
        count * (len(relation.schema.names) + 1),
    )
    result.live_records = stored.live_count
    result.tombstones = stored.tombstone_count
    return result


# ----------------------------------------------------------------- COMPACTION
@dataclass
class CompactionResult:
    """Outcome of a compaction pass."""

    performed: bool
    fragmentation_before: float
    records_moved: int = 0
    slots_reclaimed: int = 0
    slots_before: int = 0
    slots_after: int = 0
    #: Column the surviving rows were sorted by before the dense rewrite
    #: (``None``: rows kept their slot order).
    clustered_by: str | None = None

    def __add__(self, other: CompactionResult) -> CompactionResult:
        """Performed if any store compacted; fragmentation over all slots."""
        slots = self.slots_before + other.slots_before
        tombstones = (
            self.fragmentation_before * self.slots_before
            + other.fragmentation_before * other.slots_before
        )
        return _sum_results(
            self, other,
            performed=self.performed or other.performed,
            fragmentation_before=tombstones / slots if slots else 0.0,
            clustered_by=self.clustered_by or other.clustered_by,
        )


def cluster_order(keys: np.ndarray, width: int) -> np.ndarray:
    """Stable sort permutation of ``width``-bit encoded ``keys``.

    Sorted in the narrowest unsigned dtype holding the width: the same
    permutation as the ``uint64`` sort, and keys of 16 bits or fewer get
    NumPy's radix sort.
    """
    return np.argsort(keys.astype(field_dtype(width), copy=False), kind="stable")


def execute_compaction(
    stored: StoredRelation,
    executor: PimExecutor,
    threshold: float = DEFAULT_COMPACTION_THRESHOLD,
    force: bool = False,
    cluster_by: str | None = None,
) -> CompactionResult:
    """Rewrite the live rows densely when fragmentation crosses ``threshold``.

    The host reads every live record (``compact-read``, the scattered
    cache-line read path) and streams the dense image back
    (``compact-write``, charging write bandwidth, crossbar write energy and
    one full-row write of wear per rewritten slot).  Afterwards the slot
    high-water mark equals the live count, the free-slot list is empty and
    the bookkeeping bit columns are clean; the zone maps are rebuilt from
    the dense prefix and checked tight; the pair sketch is rebuilt, or built
    once the feedback loop names a hot pair (covered by the zone-map
    maintenance charge); the histograms are kept as they are (moving rows
    changes no value: the DML hooks keep their counts exact, and their edges
    stay those of the load).  A fully-deleted relation (no
    live rows) reclaims all its slots with a metadata-only pass: every slot
    already holds a cleared valid bit, so nothing needs rewriting.

    **Streaming**: the rewrite is one step per field, in its partition's
    loop (:meth:`StoredRelation.write_dense_field`): the field is gathered
    into the ground truth in its new order (in the field's own dtype),
    fit-checked against its width (an over-width ground-truth value raises
    :class:`ValueError`), staged into the partition's zero-tailed buffer of
    that dtype (one per dtype) and encoded.  The zone maps reduce the dense
    ground truth.

    **Re-clustering**: since compaction reads every live record anyway, it
    is the free moment to choose their order.  ``cluster_by`` (default: the
    hottest predicate column of the relation's
    :class:`~repro.planner.adaptive.AdaptiveController`, if any) sorts the
    surviving rows by that column's encoded value — stable, so equal keys
    keep their arrival order — before the dense rewrite.  Clustered rows
    give the rebuilt zone maps tight disjoint ranges, which is what turns an
    unclustered relation into a prunable one.  The modelled cost is the
    unchanged read-everything/write-everything compaction cost: the ordering
    choice happens in the host's buffer.  An explicit ``cluster_by`` that is
    not an attribute of the relation raises :class:`ValueError` before
    anything is charged or moved (the adaptive default is tolerant instead).

    Like :func:`execute_delete`, compaction bills the stored size as it is
    (no ``timing_scale`` extrapolation).
    """
    names = stored.relation.schema.names
    if cluster_by is not None and cluster_by not in names:
        raise ValueError(
            f"cannot cluster {stored.label!r} by {cluster_by!r}: its "
            f"attributes are {list(names)}"
        )
    fragmentation = stored.fragmentation
    slots_before = stored.num_records
    if stored.tombstone_count == 0 or (not force and fragmentation < threshold):
        return CompactionResult(
            performed=False,
            fragmentation_before=fragmentation,
            slots_before=slots_before,
            slots_after=slots_before,
        )
    crossbar_entries = stored.crossbars_per_partition * (len(names) + 1)
    relation = stored.relation
    if stored.live_count == 0:
        for name in names:
            relation.columns[name] = relation.columns[name][:0]
        relation.num_records = 0
        stored.reset_slots_after_compaction()
        stored.statistics.charge_maintenance(
            executor.stats, executor.config.host, crossbar_entries
        )
        return CompactionResult(
            performed=True,
            fragmentation_before=fragmentation,
            records_moved=0,
            slots_reclaimed=slots_before,
            slots_before=slots_before,
            slots_after=0,
        )
    live_indices = np.flatnonzero(stored.valid_mask(0))
    new_count = int(len(live_indices))
    read_model = HostReadModel(executor.config, executor.stats)

    # Phase 1: the host reads every live record (per vertical partition) —
    # charged, not decoded: the dense image comes from the ground truth.
    for partition, attrs in enumerate(stored.partition_attributes):
        read_model.charge_record_reads(
            stored, partition, live_indices, attrs, phase="compact-read"
        )

    # Re-cluster by the hottest predicate column (a default this relation
    # does not have is ignored); the tombstone rows drop out in one gather.
    if cluster_by is None:
        cluster_by = stored.statistics.hot_column()
        if cluster_by not in names:
            cluster_by = None
    order = live_indices
    if cluster_by is not None:
        keys = relation.column(cluster_by)[live_indices]
        width = relation.schema.attribute(cluster_by).width
        order = live_indices[cluster_order(keys, width)]
    relation.num_records = new_count

    # Phase 2: stream the dense image back into the crossbars, one field at
    # a time: gathered into the ground truth, fit-checked, staged (one
    # zero-tailed buffer per partition and dtype) and encoded.  The zone
    # maps reduce the dense ground truth.
    host = executor.config.host
    xbar_cfg = executor.config.pim.crossbar
    total_bits_written = 0
    for partition, (layout, allocation, attrs) in enumerate(zip(
        stored.layouts, stored.allocations, stored.partition_attributes
    )):
        bank = allocation.bank
        capacity = allocation.record_capacity
        row_bits = (
            sum(layout.fields[name][1] for name in attrs)
            + layout.bookkeeping_columns
        )
        buffers: dict[np.dtype, np.ndarray] = {}
        for name in attrs:
            column = relation.columns[name] = relation.columns[name].take(order)
            stored.write_dense_field(partition, name, column, buffers)
        fresh_valid = np.zeros(capacity, dtype=bool)
        fresh_valid[:new_count] = True
        bank.write_bool_column(
            layout.valid_column,
            fresh_valid.reshape(bank.count, bank.rows),
            count_wear=False,
        )
        clean = np.zeros((bank.count, bank.rows), dtype=bool)
        for column in (layout.filter_column, layout.group_column, layout.remote_column):
            bank.write_bool_column(column, clean, count_wear=False)
        # Wear: every slot in use before compaction is rewritten once
        # (values moved into the dense prefix, tombstones scrubbed behind it).
        bank.add_slot_wear(row_bits, slots_before)
        total_bits_written += slots_before * row_bits

    num_bytes = total_bits_written / 8
    executor.stats.add_time(
        "compact-write", dram.write_time(host, num_bytes, host.query_threads)
    )
    executor.stats.add_energy(
        "write", total_bits_written * xbar_cfg.write_energy_per_bit_j
    )
    executor.stats.add_events("bits_written", total_bits_written)
    executor.stats.host_lines_written += int(
        np.ceil(num_bytes / CACHE_LINE_BYTES)
    )

    stored.reset_slots_after_compaction()
    # Zone-map maintenance: compaction moved every row, so the zone maps
    # were rebuilt — one pass over every crossbar's entries.  Every
    # candidate-cache epoch was bumped: rows moved between crossbars and the
    # rebuilt bounds may have narrowed, so no cached verdict survives.
    stored.statistics.charge_maintenance(
        executor.stats, executor.config.host, crossbar_entries
    )
    return CompactionResult(
        performed=True,
        fragmentation_before=fragmentation,
        records_moved=new_count,
        slots_reclaimed=slots_before - new_count,
        slots_before=slots_before,
        slots_after=new_count,
        clustered_by=cluster_by,
    )
