"""Batched multi-output execution of the pim-gb subgroup loop.

This is the pim-gb of every configuration, with the aggregation circuit
and without it (the PIMDB baseline's bulk-bitwise reduction).  The
per-subgroup loop of :meth:`PimQueryEngine._execute_group_by` — build the
subgroup mask, run one aggregation pass per aggregate, clear the subgroup
from the filter, each charged inside the loop — is only the
``execution="dispatch"`` oracle.  This module restructures that loop
without changing a single modelled number or stored bit:

* **Each selected row's subgroup from its key.**  Distinct group keys
  select *disjoint* rows: subgroup ``k`` is the selected rows whose
  GROUP-BY tuple is key ``k`` (the filter bit implies the valid bit, and
  zone maps never drop a crossbar holding a selected row).  The GROUP-BY
  attributes are decoded at the selected cells
  (``StoredRelation.decode_cells``) and each tuple is looked up among the K
  keys (:func:`_key_runs`), which yields every subgroup's rows sorted by
  ``(key, crossbar)`` and their union, the rows the clear removes; a row
  whose tuple is no PIM key stays selected for host-gb.

* **One value-free template per partition, run for the last key.**  Every
  subgroup's group-mask program is the same circuit with other key
  constants, so the compiler is asked for one
  :class:`~repro.db.compiler.GroupMaskTemplate` per ``(layout, attributes,
  include_remote)``, lowered like any program
  (:func:`repro.pim.ir.lower_program`) and compiled once into a
  :class:`~repro.pim.fused.BatchKernel`, for as long as the program cache
  keeps the template.  Each partition runs it once, for the last key, the
  one whose bits are stored: the attributes' mismatches with its constants
  (:func:`repro.pim.fused.field_mismatches`) and the remote bits are bound
  to the kernel's inputs.  It runs against the pre-GROUP-BY filter, which
  the rows being disjoint makes equal to the reference's filter after the
  earlier keys' clears.  A remote partition's bits cover every live row
  matching there, not only the selected ones; its value is re-indexed along
  its crossbar axis and ANDed into the primary's remote input as it is.

* **One aggregation routine.**  The aggregates run through the
  aggregation stage's K-pass routine
  (:meth:`~repro.core.stages.AggregationStage.aggregate_all`), the one a
  query without GROUP-BY and each subgroup of the ``dispatch`` loop run
  with K = 1: it decodes each field once, for the subgroups' rows, and
  takes all K x crossbar partials from one ``reduceat`` over the runs
  (:func:`~repro.pim.arithmetic.segmented_partials`).

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
  charge each (:meth:`~repro.core.stages.AggregationStage.charge_passes`),
  and each result row is stored once.  The number of
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
from repro.host.readpath import HostReadModel
from repro.pim.arithmetic import record_runs
from repro.pim.controller import PimExecutor, crossbar_call, every_crossbar
from repro.pim.fused import BatchKernel, compile_batch, field_mismatches
from repro.pim.ir import lower_program
from repro.pim.logic import ProgramCost
from repro.planner.zonemap import PruneDecision

#: Bound of :func:`_key_runs`' tuple codes, which must stay in ``int64``.
CODE_LIMIT = 1 << 62


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
    """Evaluate a template for the group keys ``values`` on one partition's
    bank (the batched pim-gb passes one, its last key).

    ``values[k]`` holds key ``k``'s encoded values of
    ``template.attributes``; ``remote`` is the ``(K, n, ...)`` native value
    bound to the remote column of a template built with ``include_remote``.
    Returns the kernel's ``(K, n, ...)`` value — the masks against the
    *pre-batch* state, in the bank's native representation — and the index
    of the ``n`` crossbars it covers, the partition's ``candidates`` (all of
    them as the bank's whole-bank call,
    :func:`~repro.pim.controller.crossbar_call`); a skipped crossbar's bits
    are zero, as in a candidate run of the reference.
    """
    bank = stored.allocations[partition].bank
    idx, xbars = crossbar_call(bank, candidates)
    bound = {
        column: field_mismatches(bank, columns, values[:, index], xbars)
        for index, (columns, column) in enumerate(
            zip(template.fields, template.mismatch_columns)
        )
    }
    if idx.size == 0:
        empty = np.zeros((len(values), 0, bank.rows), dtype=bool)
        return bank.kernel_from_bool(empty), idx
    if remote is not None:
        bound[stored.layouts[partition].remote_column] = remote
    # The template's program has exactly one output, its result column.
    ((_, value),) = _compile_group_batch(template).run(bank, xbars, bound)
    return value, idx


def _mask_bits(bank, value, idx, num_records: int) -> np.ndarray:
    """A one-key :func:`_run_partition_batch` value, one bool per slot in use."""
    bits = np.zeros((bank.count, bank.rows), dtype=bool)
    bits[idx] = bank.kernel_to_bool(value)[0]
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


def _key_runs(
    columns: Sequence[np.ndarray],
    key_table: np.ndarray,
    selected: np.ndarray,
    rows: int,
    count: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The selected records of every key's subgroup, sorted by
    ``(key, crossbar)``, as :func:`~repro.pim.arithmetic.record_runs`.

    ``selected`` are sorted record indices on ``count`` crossbars of
    ``rows`` rows, ``columns[a]`` GROUP-BY attribute ``a`` decoded at them
    and ``key_table`` the ``(K, attributes)`` distinct keys.  A record whose
    tuple is no key is in no subgroup.  A tuple's code is mixed-radix: each
    attribute appends the value's rank among the keys' values of it; before
    the code space would pass :data:`CODE_LIMIT`, the prefix codes are
    re-ranked among the keys' prefixes (below K).
    """
    key_code = np.zeros(len(key_table), dtype=np.int64)
    code = np.zeros(selected.size, dtype=np.int64)
    found = np.ones(selected.size, dtype=bool)
    radix = 1
    for column, key_values in zip(columns, key_table.T):
        distinct = np.unique(key_values)
        if radix * distinct.size > CODE_LIMIT:
            prefixes, key_code = np.unique(key_code, return_inverse=True)
            rank = np.searchsorted(prefixes, code).clip(max=prefixes.size - 1)
            found &= prefixes[rank] == code
            code, radix = rank, prefixes.size
        column = column.astype(np.int64)
        position = np.searchsorted(distinct, column).clip(max=distinct.size - 1)
        found &= distinct[position] == column
        code = code * distinct.size + position
        key_code = key_code * distinct.size + np.searchsorted(distinct, key_values)
        radix *= distinct.size
    # The keys are distinct, and so are their codes.
    order = np.argsort(key_code)
    key_of = order[np.searchsorted(key_code, code, sorter=order).clip(max=order.size - 1)]
    hits = np.flatnonzero(found & (key_code[key_of] == code))
    by_key = np.argsort(key_of[hits], kind="stable")
    records = selected[hits[by_key]]
    return record_runs(records, key_of[hits[by_key]] * count + records // rows)


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

    # ------------------------------------------- the last key's mask kernels
    # All of this runs against the pre-group-by column state, before any
    # store below.
    last = len(keys) - 1

    def batch(partition: int, filter_column: int, remote=None):
        """One partition's per-key program cycles, and its last key's mask
        value and crossbars."""
        template = compiler.group_template(
            by_partition.get(partition, ()), stored.layouts[partition],
            filter_column, include_remote=remote is not None,
        )
        values = key_table[
            :, [group_attributes.index(name) for name in template.attributes]
        ]
        return template.cycles(values), *_run_partition_batch(
            stored, partition, template, values[last:], remote,
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

    # ------------------------------------------------ every key's subgroup
    selected = np.flatnonzero(mask)
    subgroups = _key_runs(
        [stored.decode_cells(name, selected) for name in group_attributes],
        key_table, selected, bank.rows, bank.count,
    )
    union = np.zeros(num_records, dtype=bool)
    union[subgroups[0]] = True

    # ------------------------------------------------- batched bookkeeping
    # Identical for every subgroup, so built once per query.
    remote_count = len(remote_partitions)
    fold_programs = [
        build_fold_program(primary_layout, position, remote_count)
        for position in range(remote_count)
    ] if remote_count > 1 else []
    clear_program = build_clear_program(primary_layout)
    # Every bit a skipped store would have written is a subset of the
    # selection, so the zone-map invariant is asserted once for all keys.
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
            _mask_bits(stored.allocations[partition].bank, value, idx, num_records),
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
        _mask_bits(bank, mask_value, primary_idx, num_records),
        primary_candidates,
    )
    # The clear leaves the selection minus the rows of every key's subgroup.
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
    # Every aggregate of every subgroup: the one K-pass routine of the
    # aggregation stage, over the rows of all K subgroups.
    entries = engine.aggregation_stage.aggregate_all(
        query, primary, primary_layout.group_column, executor, read_model,
        primary_candidates, *subgroups, len(keys),
    )
    return {keys[index]: entry for index, entry in entries.items()}
