"""Batched multi-output execution of the pim-gb subgroup loop.

This is the pim-gb of every configuration, with the aggregation circuit
and without it (the PIMDB baseline's bulk-bitwise reduction).  The
per-subgroup loop of :meth:`PimQueryEngine._execute_group_by` — build the
subgroup mask, run one aggregation pass per aggregate, clear the subgroup
from the filter, each charged inside the loop — is only the
``execution="dispatch"`` oracle.  This module restructures that loop
without changing a single modelled number or stored bit:

* **One value-free template per partition.**  Every subgroup's group-mask
  program is the same circuit with other key constants, so the compiler is
  asked for one :class:`~repro.db.compiler.GroupMaskTemplate` per
  ``(layout, attributes, include_remote)`` — never for a per-key program —
  and its conjunction program is lowered like any program
  (:func:`repro.pim.ir.lower_program`) and compiled once into a
  :class:`~repro.pim.fused.BatchKernel`, for as long as the program cache
  keeps the template.  The key constants never enter a kernel: each attribute's
  mismatch is evaluated once per *distinct* value, however many keys share
  it, by selecting ``eq_const``'s literals along a constant axis
  (:func:`repro.pim.fused.field_mismatches`), gathered per key and bound to
  the conjunction's mismatch inputs, beside the per-key remote-transfer
  bits bound to its remote input, so one kernel run per partition conjoins
  them with the filter.  All
  K masks are taken against the pre-group-by column state, which is sound
  because distinct full group keys select *disjoint* row sets: subgroup
  ``k``'s mask computed against the pre-loop filter state equals the
  sequential result after ``k-1`` clears.  They live, and stay, in the
  conjunction kernel's ``(K, candidate crossbars, ...)`` value in the bank's
  native representation (packed words on the default bank) — the paper's
  one mask column per subgroup — and three readers take what they need from
  it: the last key's bits, the only ones that are stored
  (``kernel_to_bool`` of one slice); the OR over the keys, for the pruning
  invariant and the last clear; and the masked cells of the selected rows
  (``kernel_gather``), for the aggregates.  A remote partition's value is
  re-indexed along its crossbar axis and ANDed into the primary's remote
  input as it is.  Nothing of shape ``(K, crossbars, rows)`` is decoded.

* **One decode and one segmented reduction per aggregate.**  An
  aggregation pass's functional result (circuit or bulk-bitwise) is
  ``aggregate_reference`` over a decoded field and the subgroup mask, at
  the pass's accumulator width.  The field does not change between
  subgroups and distinct keys select disjoint rows, so the field is decoded
  once — for the masked rows only (``StoredRelation.decode_cells``) — and
  all K x crossbar partials come from one ``reduceat`` over the
  selected rows, which ``np.nonzero`` hands back already sorted by
  ``(key, crossbar)`` — wrapped to the accumulator width, the operation's
  identity on every crossbar a key has no row on
  (:func:`~repro.pim.arithmetic.segmented_partials`, which also reduces
  ``masked_partials``: the partials of a filter-only pass).

* **Charges by multiplicity, stores once.**  :class:`~repro.pim.stats.PimStats`
  is an exact multiset — a charge is ``count x unit cost`` and no total
  depends on the order charges arrive in — so nothing is replayed per
  subgroup.  Every column the subgroups write (group, filter, remote, the
  result row, the remote partitions' group columns) is overwritten whole by
  the next key, ``mark_column_dirty`` replaces a column's mask, and wear is
  integer addition.  Hence only the **last** key (the bits that stay) goes
  through the :func:`apply_program_pruned` / ``transfer_bit_column``
  contract; its store still meets the pre-GROUP-BY
  dirty masks, so it charges the one ``prune-clear`` of stale crossbars.
  Every earlier key is charged without a store: its mask programs once per
  *distinct cycle count* (:meth:`GroupMaskTemplate.cycles`, one vectorised
  closed form over the key table), its transfers, folds and clear as one
  counted charge each, with the summed wear added to the banks; the K
  passes, result reads and host combines of an aggregate are one counted
  charge each (:meth:`AggregationStage.charge_passes`), and each result
  row is stored once.  The number of
  charge calls is independent of K, and the stored bits, dirty marks, wear
  counters and ``PimStats`` equal those of per-subgroup dispatch, which still
  compiles, writes, aggregates and charges per key and is the oracle; the
  lockstep and call-count tests assert it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

import numpy as np

from repro.core.sampling import GroupKey
from repro.core.stages import (
    _check_pruned_bits,
    apply_program_pruned,
    build_clear_program,
    build_fold_program,
    candidate_rows,
)
from repro.db.compiler import GroupMaskTemplate
from repro.db.query import Query
from repro.host.aggregator import combine_partial_table
from repro.host.readpath import HostReadModel
from repro.pim.arithmetic import segmented_partials
from repro.pim.controller import PimExecutor, crossbar_call, every_crossbar
from repro.pim.fused import BatchKernel, compile_batch, field_mismatches
from repro.pim.ir import lower_program
from repro.pim.logic import ProgramCost
from repro.planner.zonemap import PruneDecision


def _compile_group_batch(template: GroupMaskTemplate) -> BatchKernel:
    """The conjunction kernel of a template, built on first use.

    It hangs off the template the way ``Program._kernel`` hangs off a
    program: the :class:`~repro.core.program_cache.ProgramCache` hands back
    the same template on a warm replay, and evicting it drops both.
    """
    if template._kernel is None:
        template._kernel = compile_batch(lower_program(template.program))
    return template._kernel


def _run_partition_batch(
    stored,
    partition: int,
    template: GroupMaskTemplate,
    values: np.ndarray,
    remote,
    candidates: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a template for ``K`` group keys on one partition's bank.

    ``values[k]`` holds key ``k``'s encoded values of
    ``template.attributes``; ``remote`` is the ``(K, n, ...)`` native value
    bound to the remote column of a template built with ``include_remote``.
    Each attribute's mismatch is evaluated once per *distinct* value
    (:func:`~repro.pim.fused.field_mismatches`, which rejects a value its
    field cannot hold) and gathered per key into the template's mismatch
    inputs, so one run of the conjunction kernel yields every key's mask.
    Returns that ``(K, n, ...)`` value — the masks against the partition's
    *pre-batch* state, still in the bank's native kernel representation —
    and the index of the ``n`` crossbars it covers: the partition's
    ``candidates`` (a mask over its crossbars).  The mismatches and the
    kernel cover the candidate crossbars only (all of them as the bank's
    whole-bank call, :func:`~repro.pim.controller.crossbar_call`); a skipped
    crossbar is not in the value and its bits are zero, matching a candidate
    run of the reference.  Nothing is decoded here: the readers are
    :func:`_mask_bits` and :func:`_subgroup_segments`.
    """
    bank = stored.allocations[partition].bank
    idx, xbars = crossbar_call(bank, candidates)
    bound = {}
    for index, (columns, column) in enumerate(
        zip(template.fields, template.mismatch_columns)
    ):
        distinct, inverse = np.unique(values[:, index], return_inverse=True)
        bound[column] = field_mismatches(bank, columns, distinct, xbars)[inverse]
    if idx.size == 0:
        empty = np.zeros((len(values), 0, bank.rows), dtype=bool)
        return bank.kernel_from_bool(empty), idx
    if remote is not None:
        bound[stored.layouts[partition].remote_column] = remote
    # The template's program has exactly one output, its result column.
    ((_, value),) = _compile_group_batch(template).run(bank, xbars, bound)
    return value, idx


def _mask_bits(bank, value, idx, num_records: int) -> np.ndarray:
    """One mask of a :func:`_run_partition_batch` value — a key's ``(n, ...)``
    slice or an OR over keys — as one bool per slot in use."""
    bits = np.zeros((bank.count, bank.rows), dtype=bool)
    bits[idx] = bank.kernel_to_bool(value)
    return bits.reshape(-1)[:num_records]


def _on_crossbars(value, idx, target, count: int):
    """Re-index a ``(K, n, ...)`` value along its crossbar axis, from the
    crossbars ``idx`` to the crossbars ``target`` (of ``count``); a target
    crossbar the value does not cover reads zero.  Every partition of a
    relation maps a slot to the same ``(crossbar, row)``, so this is all
    that moving a mask between partitions takes."""
    full = np.zeros((len(value), count) + value.shape[2:], dtype=value.dtype)
    full[:, idx] = value
    return full[:, target]


def _subgroup_segments(
    bank, value, idx, selected: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of all ``K`` subgroups, sorted by ``(key, crossbar)``.

    ``value`` and ``idx`` are what :func:`_run_partition_batch` returned on
    ``bank``: ``K`` masks with pairwise disjoint rows, each a subset of the
    (sorted) record indices ``selected``, all on crossbars the value covers.
    Only the selected cells are read (``kernel_gather``).  Returns the
    record index of every masked row, the start of each run of rows sharing
    a key and a crossbar, and each run's flat index into a ``(K, count)``
    table.
    """
    crossbar = selected // bank.rows
    position = np.searchsorted(idx, crossbar)
    key_of, index = np.nonzero(
        bank.kernel_gather(value, position, selected % bank.rows)
    )
    records = selected[index]
    cell_of = key_of * bank.count + crossbar[index]
    starts = np.flatnonzero(np.diff(cell_of, prepend=-1))
    return records, starts, cell_of[starts]


def run_group_by_batched(
    engine,
    query: Query,
    primary: int,
    mask: np.ndarray,
    keys: Sequence[GroupKey],
    executor: PimExecutor,
    read_model: HostReadModel,
    prune: PruneDecision,
) -> dict[GroupKey, dict[str, int]]:
    """pim-gb over ``keys`` with batched kernels and counted charges.

    Identical with the per-subgroup reference loop of
    :meth:`PimQueryEngine._execute_group_by` — result rows, stored bits,
    dirty marks, wear and ``PimStats`` — with or without the circuit.
    """
    stored = engine.stored
    compiler = engine.compiler
    mask = np.asarray(mask, dtype=bool)
    group_attributes = list(query.group_by)
    primary_layout = stored.layouts[primary]
    primary_allocation = stored.allocations[primary]
    bank = primary_allocation.bank
    num_records = stored.num_records
    key_table = np.array(keys, dtype=np.int64).reshape(
        len(keys), len(group_attributes)
    )

    def pages_for(partition: int) -> float:
        return stored.allocations[partition].pages * engine.timing_scale

    # The reference builds its per-partition split by iterating the key's
    # group values in attribute order; reproduce the same partition order.
    by_partition: dict[int, list[str]] = {}
    for name in group_attributes:
        by_partition.setdefault(stored.partition_of(name), []).append(name)
    remote_partitions = [p for p in by_partition if p != primary]

    # ---------------------------------------------- batched mask computation
    # All of this runs against the pre-group-by column state, before any
    # store below.
    def batch(partition: int, filter_column: int, remote=None):
        """One partition's per-key program cycles, masks value and its crossbars."""
        template = compiler.group_template(
            by_partition.get(partition, ()), stored.layouts[partition],
            filter_column, include_remote=remote is not None,
        )
        values = key_table[
            :, [group_attributes.index(name) for name in template.attributes]
        ]
        return template.cycles(values), *_run_partition_batch(
            stored, partition, template, values, remote,
            prune.candidates[partition],
        )

    def remote_batch(partition: int):
        return batch(partition, stored.layouts[partition].valid_column)

    pool = engine.scatter_pool
    if pool is not None and len(remote_partitions) > 1:
        remote_batches = pool.map(remote_batch, remote_partitions)
    else:
        remote_batches = [remote_batch(partition) for partition in remote_partitions]

    remote = None
    primary_candidates = prune.candidates[primary]
    primary_idx = np.flatnonzero(primary_candidates)
    if remote_partitions:
        remote = np.bitwise_and.reduce([
            _on_crossbars(value, idx, primary_idx, bank.count)
            for _, value, idx in remote_batches
        ])
    combine_cycles, mask_value, _ = batch(
        primary, primary_layout.filter_column, remote
    )
    union = _mask_bits(
        bank, np.bitwise_or.reduce(mask_value, axis=0), primary_idx, num_records
    )

    # ------------------------------------------------- batched bookkeeping
    selected = np.nonzero(mask)[0]

    # Identical for every subgroup, so built once per query.
    remote_count = len(remote_partitions)
    fold_programs = [
        build_fold_program(primary_layout, position, remote_count)
        for position in range(remote_count)
    ] if remote_count > 1 else []
    clear_program = build_clear_program(primary_layout)
    # Every bit a skipped store would have written is a subset of one of
    # these two, so the zone-map invariant is asserted once for all keys.
    _check_pruned_bits(union, primary_candidates, primary_allocation)
    _check_pruned_bits(mask, primary_candidates, primary_allocation)

    def fold_candidates(program) -> np.ndarray:
        # The final fold into the remote column runs on every crossbar in
        # the reference; only group-column folds run on the candidates.
        if program.result_column == primary_layout.group_column:
            return primary_candidates
        return every_crossbar(bank)

    # ----------------------------------------------------- last key: stored
    # Only the last key's bits stay, so it alone goes through the stage
    # contract in full; its store meets the pre-GROUP-BY dirty masks and
    # charges any prune-clear of stale crossbars.
    last = len(keys) - 1

    def mask_program(partition, cycles) -> ProgramCost:
        """The last key's specialised mask program, as what it is charged."""
        return ProgramCost(int(cycles[last]), stored.layouts[partition].group_column)

    def store_program(partition, program, bits, candidates):
        apply_program_pruned(
            stored, partition, program, executor, "pim-gb-filter",
            pages_for(partition), candidates, result_bits=bits,
        )

    running: np.ndarray | None = None
    for position, partition in enumerate(remote_partitions):
        cycles, value, idx = remote_batches[position]
        store_program(
            partition, mask_program(partition, cycles),
            _mask_bits(
                stored.allocations[partition].bank, value[last], idx, num_records,
            ),
            prune.candidates[partition],
        )
        transferred = read_model.transfer_bit_column(
            stored,
            partition, stored.layouts[partition].group_column,
            primary, primary_layout.remote_column,
            phase="pim-gb-transfer",
        )
        running = transferred if running is None else running & transferred
        if fold_programs:
            fold_program = fold_programs[position]
            fold_bits = running & candidate_rows(stored, primary, primary_candidates)
            store_program(
                primary, fold_program, fold_bits, fold_candidates(fold_program)
            )
    store_program(
        primary, mask_program(primary, combine_cycles),
        _mask_bits(bank, mask_value[last], primary_idx, num_records),
        primary_candidates,
    )
    # The clear leaves the selection minus the (disjoint) masks of all keys.
    store_program(primary, clear_program, mask & ~union, primary_candidates)

    # ----------------------- every key before the last: charged by multiplicity
    # Their columns are overwritten whole by the last key and their wear is
    # integer addition, so nothing is stored: each program slot is one
    # counted charge per distinct cycle count plus its summed wear.
    def charge_programs(partition, runs: dict[int, int], candidates):
        """``runs``: cycle count -> how many earlier keys run such a program."""
        for cycles, count in runs.items():
            executor.charge_program_cost(
                stored.allocations[partition].bank, cycles, candidates,
                pages_for(partition), "pim-gb-filter", count=count,
            )

    if last > 0:
        for partition, (cycles, *_) in zip(remote_partitions, remote_batches):
            charge_programs(
                partition, Counter(cycles[:last].tolist()),
                prune.candidates[partition],
            )
        read_model.charge_bit_column_transfer(
            stored, "pim-gb-transfer", count=last * remote_count
        )
        bank.add_wear(last * remote_count)
        for fold_program in fold_programs:
            charge_programs(
                primary, {fold_program.cycles: last}, fold_candidates(fold_program)
            )
        charge_programs(
            primary, Counter(combine_cycles[:last].tolist()), primary_candidates
        )
        charge_programs(primary, {clear_program.cycles: last}, primary_candidates)

    # ----------------------------------------------------------- aggregates
    # Every aggregate of every subgroup on every crossbar, in one segmented
    # reduction per aggregate over a single decode of its field; its K passes
    # (circuit or bulk-bitwise) and result reads are one counted charge.
    stage = engine.aggregation_stage
    records, starts, cells = _subgroup_segments(
        bank, mask_value, primary_idx, selected
    )
    # A key has a result row exactly when one of its masked rows is selected.
    present = set((cells // bank.count).tolist())
    decoded: dict[str, np.ndarray] = {}
    combined: dict[str, list[int | None]] = {}
    result_rows = []
    for aggregate in query.aggregates:
        if aggregate.op == "count":
            values = np.ones(len(records), dtype=np.uint64)
        else:
            values = decoded.get(aggregate.attribute)
            if values is None:
                values = decoded[aggregate.attribute] = stored.decode_cells(
                    aggregate.attribute, records
                )
        operation, offset, width, covered = stage.charge_passes(
            aggregate, primary, primary_layout.group_column, executor,
            read_model, primary_candidates, count=len(keys),
        )
        partials = segmented_partials(
            values, starts, cells, (len(keys), bank.count), operation, width,
        )[:, covered]
        combined[aggregate.name] = combine_partial_table(
            partials, operation, engine.config.host, executor.stats,
            identity=stage.min_identity(primary) if aggregate.op == "min" else None,
        )
        result_rows.append((offset, width, covered, partials[last]))

    # Every pass overwrote the previous key's result row, so only the last
    # key's rows are stored, in aggregate order, less any a later row covers
    # (the bulk reduction's widths differ); the other passes are wear only.
    for index, (offset, width, covered, row) in enumerate(result_rows):
        later = result_rows[index + 1:]
        if covered.size and not any(o == offset and w >= width for o, w, *_ in later):
            bank.write_field_row(0, offset, width, row, xbars=covered)
            bank.add_row_wear(last * width, covered, 0)
        else:
            bank.add_row_wear(len(keys) * width, covered, 0)

    return {
        key: engine._finalize_entry(
            {name: values[index] for name, values in combined.items()}, primary
        )
        for index, key in enumerate(keys)
        if index in present
    }
