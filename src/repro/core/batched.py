"""Batched multi-output execution of the pim-gb subgroup loop.

The reference GROUP-BY path (:meth:`PimQueryEngine._execute_group_by`)
makes one full Python round-trip per subgroup: build the subgroup mask,
run the aggregation circuit per aggregate, clear the subgroup from the
filter — with every :class:`~repro.pim.stats.PimStats` charge sitting
inside that inner loop.  After PR 6 fused the kernels, this orchestration
is what Amdahl's law leaves as the end-to-end bottleneck.

This module restructures the loop without changing a single modelled
number or stored bit:

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
  it: the first and the last key's bits, the only two that are stored
  (``kernel_to_bool`` of one slice); the OR over the keys, for the pruning
  invariant and the last clear; and the masked cells of the selected rows
  (``kernel_gather``), for the aggregates.  A remote partition's value is
  re-indexed along its crossbar axis and ANDed into the primary's remote
  input as it is.  Nothing of shape ``(K, crossbars, rows)`` is decoded.

* **One decode and one segmented reduction per aggregate.**  The
  aggregation circuit's functional result is ``aggregate_reference`` over a
  decoded field and the subgroup mask.  The field does not change between
  subgroups and distinct keys select disjoint rows, so the field is decoded
  once — for the masked rows only (``StoredRelation.decode_cells``) — and
  all K x crossbar partials come from one ``reduceat`` over the
  selected rows, which ``np.nonzero`` hands back already sorted by
  ``(key, crossbar)`` — wrapped to the accumulator width, the operation's
  identity on every crossbar a key has no row on.

* **Charges by multiplicity, stores once.**  :class:`~repro.pim.stats.PimStats`
  is an exact multiset — a charge is ``count x unit cost`` and no total
  depends on the order charges arrive in — so nothing is replayed per
  subgroup.  Every column the subgroups write (group, filter, remote, the
  result row, the remote partitions' group columns) is overwritten whole by
  the next key, ``mark_column_dirty`` replaces a column's mask, and wear is
  integer addition.  Hence only the **first** key (the one that can meet
  stale crossbars and charge a ``prune-clear``) and the **last** key (the
  bits that stay) go through the :func:`apply_program` /
  :func:`apply_program_pruned` / ``transfer_bit_column`` contract.  Every key
  in between is charged without a store: its mask programs once per
  *distinct cycle count* (:meth:`GroupMaskTemplate.cycles`, one vectorised
  closed form over the key table), its transfers, folds and clear as one
  counted charge each, with the summed wear added to the banks; the K
  circuit passes, result reads and host combines of an aggregate are one
  counted charge each, and the result row is stored once.  The number of
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
    apply_program,
    apply_program_pruned,
    build_clear_program,
    build_fold_program,
    candidate_rows,
)
from repro.db.compiler import GroupMaskTemplate
from repro.db.query import Query
from repro.host.aggregator import combine_partial_table
from repro.host.readpath import HostReadModel
from repro.pim.controller import PimExecutor
from repro.pim.fused import BatchKernel, compile_batch, field_mismatches
from repro.pim.ir import lower_program
from repro.pim.logic import ProgramCost


def _compile_group_batch(template: GroupMaskTemplate) -> BatchKernel:
    """The conjunction kernel of a template, built on first use.

    It hangs off the template the way ``Program._kernel`` hangs off a
    program: the :class:`~repro.core.program_cache.ProgramCache` hands back
    the same template on a warm replay, and evicting it drops both.
    """
    if template._kernel is None:
        template._kernel = compile_batch(lower_program(template.program))
    return template._kernel


def _candidate_idx(prune, partition: int) -> np.ndarray | None:
    if prune is None:
        return None
    return np.nonzero(np.asarray(prune.candidates[partition], dtype=bool))[0]


def _run_partition_batch(
    stored,
    partition: int,
    template: GroupMaskTemplate,
    values: np.ndarray,
    remote,
    prune,
) -> tuple[np.ndarray, np.ndarray | None]:
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
    and the index of the ``n`` crossbars it covers (``None``: all of them).
    Under pruning the mismatches and the kernel cover the candidate
    crossbars only; a skipped crossbar is not in the value and its bits are
    zero, matching pruned reference execution.  Nothing is decoded here:
    the readers are :func:`_mask_bits` and :func:`_subgroup_segments`.
    """
    bank = stored.allocations[partition].bank
    xbars = _candidate_idx(prune, partition)
    bound = {}
    for index, (columns, column) in enumerate(
        zip(template.fields, template.mismatch_columns)
    ):
        distinct, inverse = np.unique(values[:, index], return_inverse=True)
        bound[column] = field_mismatches(bank, columns, distinct, xbars)[inverse]
    if xbars is not None and xbars.size == 0:
        empty = np.zeros((len(values), 0, bank.rows), dtype=bool)
        return bank.kernel_from_bool(empty), xbars
    if remote is not None:
        bound[stored.layouts[partition].remote_column] = remote
    # The template's program has exactly one output, its result column.
    ((_, value),) = _compile_group_batch(template).run(bank, xbars, bound)
    return value, xbars


def _mask_bits(bank, value, xbars, num_records: int) -> np.ndarray:
    """One mask of a :func:`_run_partition_batch` value — a key's ``(n, ...)``
    slice or an OR over keys — as one bool per slot in use."""
    bits = bank.kernel_to_bool(value)
    if xbars is not None:
        full = np.zeros((bank.count, bank.rows), dtype=bool)
        full[xbars] = bits
        bits = full
    return bits.reshape(-1)[:num_records]


def _on_crossbars(value, xbars, target, count: int):
    """Re-index a ``(K, n, ...)`` value along its crossbar axis, from the
    crossbars ``xbars`` to the crossbars ``target`` (``None``: all ``count``);
    a target crossbar the value does not cover reads zero.  Every partition
    of a relation maps a slot to the same ``(crossbar, row)``, so this is all
    that moving a mask between partitions takes."""
    if xbars is not None:
        full = np.zeros(
            (len(value), count) + value.shape[2:], dtype=value.dtype
        )
        full[:, xbars] = value
        value = full
    return value if target is None else value[:, target]


def _subgroup_segments(
    bank, value, xbars, selected: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of all ``K`` subgroups, sorted by ``(key, crossbar)``.

    ``value`` and ``xbars`` are what :func:`_run_partition_batch` returned on
    ``bank``: ``K`` masks with pairwise disjoint rows, each a subset of the
    (sorted) record indices ``selected``, all on crossbars the value covers.
    Only the selected cells are read (``kernel_gather``).  Returns the
    record index of every masked row, the start of each run of rows sharing
    a key and a crossbar, and each run's flat index into a ``(K, count)``
    table.
    """
    crossbar = selected // bank.rows
    position = crossbar if xbars is None else np.searchsorted(xbars, crossbar)
    key_of, index = np.nonzero(
        bank.kernel_gather(value, position, selected % bank.rows)
    )
    records = selected[index]
    cell_of = key_of * bank.count + crossbar[index]
    starts = np.flatnonzero(np.diff(cell_of, prepend=-1))
    return records, starts, cell_of[starts]


def _segmented_partials(
    values: np.ndarray,
    starts: np.ndarray,
    cells: np.ndarray,
    shape: tuple[int, int],
    operation: str,
    width: int,
) -> np.ndarray:
    """Per-key, per-crossbar partials of one aggregate, in one reduction.

    ``values`` holds the aggregated field of the rows :func:`_subgroup_segments`
    returned.  Row ``k`` of the ``shape`` result equals
    ``aggregate_reference(field, mask_k, operation, width)``: sums wrap to
    ``width`` bits and a crossbar no row of key ``k`` lives on holds the
    operation's identity (``min``: all ones).
    """
    limit = np.uint64((1 << width) - 1)
    ufunc, identity = {
        "sum": (np.add, 0), "min": (np.minimum, limit), "max": (np.maximum, 0),
    }[operation]
    partials = np.full(shape, identity, dtype=np.uint64)
    if starts.size:
        partials.reshape(-1)[cells] = ufunc.reduceat(values, starts) & limit
    return partials


def run_group_by_batched(
    engine,
    query: Query,
    primary: int,
    mask: np.ndarray,
    keys: Sequence[GroupKey],
    executor: PimExecutor,
    read_model: HostReadModel,
    prune=None,
) -> dict[GroupKey, dict[str, int]]:
    """pim-gb over ``keys`` with batched kernels and counted charges.

    Identical with the per-subgroup reference loop of
    :meth:`PimQueryEngine._execute_group_by` — result rows, stored bits,
    dirty marks, wear and ``PimStats`` — requires the aggregation circuit
    (the bulk-bitwise fallback needs the stored mask column per subgroup).
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
            stored, partition, template, values, remote, prune
        )

    def remote_batch(partition: int):
        return batch(partition, stored.layouts[partition].valid_column)

    pool = engine.scatter_pool
    if pool is not None and len(remote_partitions) > 1:
        remote_batches = pool.map(remote_batch, remote_partitions)
    else:
        remote_batches = [remote_batch(partition) for partition in remote_partitions]

    remote = None
    candidate_idx = {
        partition: _candidate_idx(prune, partition)
        for partition in (*remote_partitions, primary)
    }
    primary_idx = candidate_idx[primary]
    if remote_partitions:
        remote = np.bitwise_and.reduce([
            _on_crossbars(value, xbars, primary_idx, bank.count)
            for _, value, xbars in remote_batches
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
    primary_candidates = prune.candidates[primary] if prune is not None else None
    fraction = 1.0
    if prune is not None:
        fraction = (
            float(np.count_nonzero(primary_candidates))
            / primary_allocation.crossbars
        )
        # Every bit a skipped store would have written is a subset of one of
        # these two, so the zone-map invariant is asserted once for all keys.
        _check_pruned_bits(union, primary_candidates, primary_allocation)
        _check_pruned_bits(mask, primary_candidates, primary_allocation)

    def fold_pruned(program) -> bool:
        # The final fold into the remote column stays a broadcast in the
        # reference; only group-column folds run pruned.
        return prune is not None and program.result_column == primary_layout.group_column

    # ------------------------------------- first and last key: stored
    # Only the first key can meet stale crossbars and only the last key's
    # bits stay, so these two go through the stage contract in full.
    def mask_program(partition, cycles, index) -> ProgramCost:
        """Key ``index``'s specialised mask program, as what it is charged."""
        return ProgramCost(int(cycles[index]), stored.layouts[partition].group_column)

    def store_program(partition, program, bits, pruned=prune is not None):
        pages = pages_for(partition)
        if pruned:
            apply_program_pruned(
                stored, partition, program, executor, "pim-gb-filter",
                pages=pages, candidates=prune.candidates[partition],
                result_bits=bits,
            )
        else:
            apply_program(
                stored, partition, program, executor, "pim-gb-filter",
                pages=pages, result_bits=bits,
            )

    last = len(keys) - 1
    for index in sorted({0, last}):
        running: np.ndarray | None = None
        for position, partition in enumerate(remote_partitions):
            cycles, value, xbars = remote_batches[position]
            store_program(
                partition, mask_program(partition, cycles, index),
                _mask_bits(
                    stored.allocations[partition].bank, value[index], xbars,
                    num_records,
                ),
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
                fold_bits = running
                if prune is not None:
                    fold_bits = fold_bits & candidate_rows(
                        stored, primary, primary_candidates
                    )
                store_program(
                    primary, fold_program, fold_bits, fold_pruned(fold_program)
                )
        bits = _mask_bits(bank, mask_value[index], primary_idx, num_records)
        store_program(primary, mask_program(primary, combine_cycles, index), bits)
        # The clear leaves the selection minus the (disjoint) masks so far.
        store_program(
            primary, clear_program, mask & ~(bits if index == 0 else union)
        )

    # --------------------------- every key in between: charged by multiplicity
    # Their columns are overwritten whole by the last key and their wear is
    # integer addition, so nothing is stored: each program slot is one
    # counted charge per distinct cycle count plus its summed wear.
    def charge_programs(partition, runs: dict[int, int], pruned=prune is not None):
        """``runs``: cycle count -> how many middle keys run such a program."""
        target = stored.allocations[partition].bank
        pages = pages_for(partition)
        active = target.count
        if pruned:
            active = candidate_idx[partition].size
            pages = pages * active / target.count
        if active:
            for cycles, count in runs.items():
                executor.charge_program_cost(
                    target, cycles, pages, "pim-gb-filter", count=count
                )
        target.add_wear(
            sum(cycles * count for cycles, count in runs.items()),
            candidate_idx[partition] if pruned else None,
        )

    middle = last - 1
    if middle > 0:
        for partition, (cycles, *_) in zip(remote_partitions, remote_batches):
            charge_programs(partition, Counter(cycles[1:last].tolist()))
        read_model.charge_bit_column_transfer(
            stored, "pim-gb-transfer", count=middle * remote_count
        )
        bank.add_wear(middle * remote_count)
        for fold_program in fold_programs:
            charge_programs(
                primary, {fold_program.cycles: middle}, fold_pruned(fold_program)
            )
        charge_programs(primary, Counter(combine_cycles[1:last].tolist()))
        charge_programs(primary, {clear_program.cycles: middle})

    # ----------------------------------------------------------- aggregates
    # Every aggregate of every subgroup on every crossbar, in one segmented
    # reduction per aggregate over a single decode of its field; its K
    # circuit passes and result reads are one counted charge each.
    accumulator_width = primary_layout.accumulator_width
    min_identity = engine.aggregation_stage.min_identity(primary)
    circuit_runs = primary_idx is None or primary_idx.size > 0
    records, starts, cells = _subgroup_segments(
        bank, mask_value, primary_idx, selected
    )
    # A key has a result row exactly when one of its masked rows is selected.
    present = set((cells // bank.count).tolist())
    decoded: dict[str, np.ndarray] = {}
    combined: dict[str, list[int | None]] = {}
    for aggregate in query.aggregates:
        if aggregate.op == "count":
            field_width, operation = 1, "sum"
            values = np.ones(len(records), dtype=np.uint64)
        else:
            field_width = primary_layout.field_width(aggregate.attribute)
            operation = aggregate.op
            values = decoded.get(aggregate.attribute)
            if values is None:
                values = decoded[aggregate.attribute] = stored.decode_cells(
                    aggregate.attribute, records
                )
        partials = _segmented_partials(
            values, starts, cells, (len(keys), bank.count), operation,
            accumulator_width,
        )
        if primary_idx is not None:
            partials = partials[:, primary_idx]
        if circuit_runs:
            executor.charge_aggregation_circuit(
                bank, field_width,
                pages=pages_for(primary),
                result_width=accumulator_width,
                crossbars=primary_candidates,
                add_wear=False,
                count=len(keys),
            )
        read_model.read_aggregation_results(
            stored, primary, pages_fraction=fraction, count=len(keys)
        )
        combined[aggregate.name] = combine_partial_table(
            partials, operation, engine.config.host, executor.stats,
            identity=min_identity if aggregate.op == "min" else None,
        )
        result_row = partials[last]

    # Every circuit pass wrote its partials over the previous one's, so only
    # the last pass's result row is stored; the others leave their wear.
    if circuit_runs:
        bank.write_field_row(
            0, primary_layout.result_offset, accumulator_width,
            result_row, xbars=primary_idx,
        )
        result_xbars = slice(None) if primary_idx is None else primary_idx
        bank.writes_per_row[result_xbars, 0] += (
            len(keys) * len(query.aggregates) - 1
        ) * accumulator_width

    return {
        key: engine._finalize_entry(
            {name: values[index] for name, values in combined.items()}, primary
        )
        for index, key in enumerate(keys)
        if index in present
    }
