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
  and its two kernels are lowered (:func:`repro.pim.ir.lower_program_batch`)
  and compiled once, for as long as the service's program cache keeps the
  template.  The key constants enter as *private* kernel inputs, stacked
  over each attribute's distinct values, so one run evaluates an
  attribute's equality once per distinct value however many keys share
  it; a second run conjoins the equalities per key with the
  remote-transfer bits and the filter.  All
  K masks are taken against the pre-group-by column state, which is sound
  because distinct full group keys select *disjoint* row sets: subgroup
  ``k``'s mask computed against the pre-loop filter state equals the
  sequential result after ``k-1`` clears.

* **One decode and one segmented reduction per aggregate.**  The
  aggregation circuit's functional result is ``aggregate_reference`` over a
  decoded field and the subgroup mask.  The field does not change between
  subgroups and distinct keys select disjoint rows, so the field is decoded
  once — for the masked rows only (``StoredRelation.decode_cells``) — and
  all K x crossbar partials come from one ``reduceat`` over the
  selected rows, which ``np.nonzero`` hands back already sorted by
  ``(key, crossbar)`` — wrapped to the accumulator width, the operation's
  identity on every crossbar a key has no row on.

* **A charging replay that stores once.**  Modelled statistics are
  *order-sensitive* (float accumulation, per-phase power samples, request
  rounding), so a single summed charge cannot be bit-identical: the loop
  below still issues, per subgroup, the exact charging calls of the
  reference path in the exact order, from the template's closed-form cost
  (:meth:`GroupMaskTemplate.cost`) and the charge-only circuit twin.  What it
  does *not* repeat per subgroup is the functional side.  Every column the
  loop writes — group, filter, remote, the result row, the remote
  partitions' group columns — is overwritten whole by the next key, so only
  the last key's bits are observable; ``mark_column_dirty`` replaces a
  column's mask, so once the first key has run no later key meets a stale
  crossbar; and wear is integer addition, which commutes.  Hence only the
  **first** key (the one that can charge a ``prune-clear``) and the **last**
  key (the bits that stay) go through the :func:`apply_program` /
  :func:`apply_program_pruned` / ``transfer_bit_column`` contract; the keys
  in between issue the same scalar charges and add their wear to per-bank
  integers applied after the loop, and the result row is stored once.  The
  replay is O(N + K) instead of O(K·N), and the stored bits, dirty marks,
  wear counters and ``PimStats`` are identical to per-subgroup dispatch,
  which still compiles, writes and aggregates per key and is the oracle; the
  lockstep property tests assert it.
"""

from __future__ import annotations

from collections import defaultdict
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
from repro.host.aggregator import combine_partials
from repro.host.readpath import HostReadModel
from repro.pim.controller import PimExecutor
from repro.pim.fused import BatchKernel, compile_batch
from repro.pim.ir import lower_program_batch


def _compile_group_batch(
    template: GroupMaskTemplate,
) -> tuple[BatchKernel, BatchKernel]:
    """The equality and conjunction kernels of a template, built on first use.

    They hang off the template the way ``Program._kernel`` hangs off a
    program: the service's :class:`~repro.service.cache.ProgramCache` hands
    back the same template on a warm replay, and evicting it drops them.
    """
    if template._kernel is None:
        template._kernel = tuple(
            compile_batch(lower_program_batch(programs, private_columns))
            for programs, private_columns in template.stages
        )
    return template._kernel


def _candidate_idx(prune, partition: int) -> np.ndarray | None:
    if prune is None:
        return None
    return np.nonzero(np.asarray(prune.candidates[partition], dtype=bool))[0]


def _pad_rows(bits: np.ndarray, bank) -> np.ndarray:
    """Expand ``(K, records)`` bits to the bank's ``(K, count, rows)`` shape."""
    full = np.zeros((len(bits), bank.count * bank.rows), dtype=bool)
    full[:, : bits.shape[1]] = bits
    return full.reshape(len(bits), bank.count, bank.rows)


def _run_partition_batch(
    stored,
    partition: int,
    template: GroupMaskTemplate,
    values: np.ndarray,
    remote,
    prune,
) -> np.ndarray:
    """Evaluate a template for ``K`` group keys on one partition's bank.

    ``values[k]`` holds key ``k``'s encoded values of
    ``template.attributes``; ``remote`` is the ``(K, n, ...)`` native value
    bound to the remote column of a template built with ``include_remote``.
    Every constant bit is bound as the bank's all-ones or all-zeros value
    (padding stays zero) stacked over the *distinct* values of its
    attribute, so one kernel run yields each attribute's equality once per
    distinct value; the conjunction kernel then runs on those gathered per
    key.  Returns the ``(K, count, rows)`` masks against the partition's
    *pre-batch* state, functionally.  Under pruning the kernels run on the
    candidate crossbars only and the skipped crossbars' bits are zero,
    matching pruned reference execution.
    """
    bank = stored.allocations[partition].bank
    masks = np.zeros((len(values), bank.count, bank.rows), dtype=bool)
    xbars = _candidate_idx(prune, partition)
    if xbars is not None and xbars.size == 0:
        return masks
    equality, conjunction = _compile_group_batch(template)
    ones = bank.kernel_ones()
    zero = np.bitwise_xor(ones, ones)
    constants: dict = {}
    inverses = []
    for index, columns in enumerate(template.constant_columns):
        distinct, inverse = np.unique(values[:, index], return_inverse=True)
        inverses.append(inverse)
        for bit, column in enumerate(columns):
            is_set = (distinct >> bit & 1).astype(bool)[:, None, None]
            constants[index, column] = np.where(is_set, ones, zero)
    # Every stage program has exactly one output, its result column.
    bound = {}
    if remote is not None:
        bound[0, stored.layouts[partition].remote_column] = remote
    for column, inverse, ((_, mismatch),) in zip(
        template.mismatch_columns, inverses, equality.run(bank, xbars, constants)
    ):
        bound[0, column] = mismatch[inverse]
    (((_, value),),) = conjunction.run(bank, xbars, bound)
    masks[:, slice(None) if xbars is None else xbars] = bank.kernel_to_bool(value)
    return masks


def _subgroup_segments(
    mask_bits: np.ndarray, selected: np.ndarray, count: int, rows: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of all ``K`` subgroups, sorted by ``(key, crossbar)``.

    ``mask_bits`` is ``(K, records)`` with pairwise disjoint rows, each a
    subset of the (sorted) record indices ``selected``, on a bank of
    ``count`` crossbars of ``rows`` rows.  Returns the record index of every
    masked row, the start of each run of rows sharing a key and a crossbar,
    and each run's flat index into a ``(K, count)`` table.
    """
    key_of, position = np.nonzero(mask_bits[:, selected])
    records = selected[position]
    cell_of = key_of * count + records // rows
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
    """pim-gb over ``keys`` with batched kernels and a charging replay.

    Bit-identical with the per-subgroup reference loop of
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
    # All of this runs against the pre-group-by column state, before the
    # charging replay performs any writes.
    def batch(partition: int, filter_column: int, remote=None):
        """One partition's per-key program costs and ``(K, count, rows)`` masks."""
        template = compiler.group_template(
            by_partition.get(partition, ()), stored.layouts[partition],
            filter_column, include_remote=remote is not None,
        )
        values = key_table[
            :, [group_attributes.index(name) for name in template.attributes]
        ]
        masks = _run_partition_batch(
            stored, partition, template, values, remote, prune
        )
        return [template.cost(row) for row in values.tolist()], masks

    def per_record(masks: np.ndarray) -> np.ndarray:
        return masks.reshape(len(keys), -1)[:, :num_records]

    def remote_batch(partition: int):
        costs, masks = batch(partition, stored.layouts[partition].valid_column)
        return costs, per_record(masks)

    pool = getattr(engine, "scatter_pool", None)
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
        remote_rows = _pad_rows(
            np.logical_and.reduce([bits for _, bits in remote_batches]), bank
        )
        if primary_idx is not None:
            remote_rows = remote_rows[:, primary_idx]
        remote = bank.kernel_from_bool(remote_rows)
    combine_costs, mask_rows = batch(primary, primary_layout.filter_column, remote)
    mask_bits = per_record(mask_rows)
    union = mask_bits.any(axis=0)

    # ------------------------------------------------- batched bookkeeping
    selected = np.nonzero(mask)[0]
    if selected.size:
        columns = [
            stored.relation.column(name)[selected].tolist()
            for name in group_attributes
        ]
        present_keys = set(zip(*columns))
    else:
        present_keys = set()

    # Every aggregate of every subgroup on every crossbar, in one segmented
    # reduction per aggregate over a single decode of its field.
    accumulator_width = primary_layout.accumulator_width
    records, starts, cells = _subgroup_segments(
        mask_bits, selected, bank.count, bank.rows
    )
    decoded: dict[str, np.ndarray] = {}
    aggregations = []
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
        aggregations.append((aggregate, field_width, operation, partials))

    # Identical for every subgroup, so built once per query.
    remote_count = len(remote_partitions)
    fold_programs = [
        build_fold_program(primary_layout, position, remote_count)
        for position in range(remote_count)
    ] if remote_count > 1 else []
    clear_program = build_clear_program(primary_layout)
    min_identity = engine.aggregation_stage.min_identity(primary)
    primary_candidates = prune.candidates[primary] if prune is not None else None
    circuit_runs = primary_idx is None or primary_idx.size > 0
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

    # Wear of the skipped stores, applied once after the loop: writes per row
    # by ``(partition, on its candidate crossbars only)``.
    wear: defaultdict[tuple[int, bool], int] = defaultdict(int)

    def replay_apply(partition, program, bits, store, pruned=prune is not None):
        """One reference-ordered program charge with known result bits.

        With ``store`` the bits, dirty marks, stale clears and wear go
        through the stage contract; without, the same scalar charge is
        issued and the program's wear is deferred.
        """
        target = stored.allocations[partition].bank
        pages = pages_for(partition)
        if store and pruned:
            apply_program_pruned(
                stored, partition, program, executor, "pim-gb-filter",
                pages=pages, candidates=prune.candidates[partition],
                result_bits=bits,
            )
        elif store:
            apply_program(
                stored, partition, program, executor, "pim-gb-filter",
                pages=pages, result_bits=bits,
            )
        else:
            active = target.count
            if pruned:
                active = candidate_idx[partition].size
                pages = pages * active / target.count
            if active:
                executor.charge_program_cost(
                    target, program.cycles, pages, "pim-gb-filter"
                )
            wear[partition, pruned] += program.writes_per_row

    # --------------------------------------------------- per-subgroup replay
    rows: dict[GroupKey, dict[str, int]] = {}
    last = len(keys) - 1
    for index, key in enumerate(keys):
        # Only the first key can meet stale crossbars and only the last
        # key's bits stay; the keys in between charge and store nothing.
        store = index in (0, last)

        # Remote subgroup programs, transfers and folds, in reference order.
        running: np.ndarray | None = None
        for position, partition in enumerate(remote_partitions):
            costs, group_bits = remote_batches[position]
            replay_apply(partition, costs[index], group_bits[index], store)
            if store:
                transferred = read_model.transfer_bit_column(
                    stored,
                    partition, stored.layouts[partition].group_column,
                    primary, primary_layout.remote_column,
                    phase="pim-gb-transfer",
                )
                running = transferred if running is None else running & transferred
            else:
                read_model.charge_bit_column_transfer(stored, "pim-gb-transfer")
                wear[primary, False] += 1
            if fold_programs:
                fold_program = fold_programs[position]
                fold_bits = running if store else None
                if fold_bits is not None and prune is not None:
                    fold_bits = fold_bits & candidate_rows(
                        stored, primary, primary_candidates
                    )
                # The final fold into the remote column stays a broadcast
                # in the reference; only group-column folds run pruned.
                replay_apply(
                    primary, fold_program, fold_bits, store,
                    pruned=prune is not None
                    and fold_program.result_column == primary_layout.group_column,
                )

        # Subgroup mask (combine program) on the primary partition.
        replay_apply(primary, combine_costs[index], mask_bits[index], store)

        # Aggregates from the segmented partials, charged per invocation.
        entry: dict[str, int | None] = {}
        for aggregate, field_width, operation, table in aggregations:
            partials = table[index]
            if circuit_runs:
                executor.charge_aggregation_circuit(
                    bank, field_width,
                    pages=pages_for(primary),
                    result_width=accumulator_width,
                    crossbars=primary_candidates,
                    add_wear=False,
                )
            read_model.read_aggregation_results(
                stored, primary, pages_fraction=fraction
            )
            if aggregate.op == "min":
                partials = partials[partials != min_identity]
            entry[aggregate.name] = combine_partials(
                [partials], operation, engine.config.host, executor.stats
            )

        if key in present_keys:
            rows[key] = engine._finalize_entry(entry, primary)

        # Clear the subgroup from the filter column: after key ``index`` it
        # holds the selection minus the first ``index + 1`` (disjoint) masks.
        filter_bits = None
        if store:
            filter_bits = mask & ~(mask_bits[0] if index == 0 else union)
        replay_apply(primary, clear_program, filter_bits, store)

    # ------------------------------------------------------- deferred stores
    # Every circuit pass wrote its partials over the previous one's, so only
    # the last pass's result row is stored; the others leave their wear.
    if circuit_runs:
        *_, table = aggregations[-1]
        bank.write_field_row(
            0, primary_layout.result_offset, accumulator_width,
            table[last], xbars=primary_idx,
        )
        result_xbars = slice(None) if primary_idx is None else primary_idx
        bank.writes_per_row[result_xbars, 0] += (
            len(keys) * len(aggregations) - 1
        ) * accumulator_width
    for (partition, pruned), writes in wear.items():
        stored.allocations[partition].bank.add_wear(
            writes, candidate_idx[partition] if pruned else None
        )
    return rows
