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

* **The last key's bits without a kernel.**  Only the last key's masks
  are stored.  The primary partition's is the selection ANDed with "the
  tuple is the last key": the last key's records of the lookup, a suffix
  of its output.  It equals the reference's program run against the filter
  after the earlier keys' clears, because the rows are disjoint.  A remote
  partition's covers every live row matching there, not only the selected
  ones: its valid bit ANDed with "no attribute differs from the key"
  (:func:`repro.pim.fused.field_mismatches`), one NumPy conjunction on the
  bank's native words (:func:`_run_partition_batch`).  The compiler is
  asked for one value-free :class:`~repro.db.compiler.GroupMaskTemplate`
  per ``(layout, attributes, include_remote)``, which prices every key's
  specialised program; nothing is lowered or compiled for a mask.

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
from repro.pim.fused import field_mismatches
from repro.pim.logic import ProgramCost
from repro.planner.zonemap import PruneDecision

#: Bound of :func:`_key_runs`' tuple codes, which must stay in ``int64``.
CODE_LIMIT = 1 << 62


def _run_partition_batch(
    stored,
    partition: int,
    template: GroupMaskTemplate,
    key: Sequence[int],
    candidates: np.ndarray,
) -> np.ndarray:
    """A remote partition's mask of the group key ``key``, one bool per slot
    in use: the valid bit ANDed with every attribute of ``template`` equal
    to its value in ``key``, on the partition's ``candidates`` (a skipped
    crossbar's bits are zero, as in a candidate run of the reference).

    It covers every live row matching there, not only the selected ones,
    and it reads the pre-GROUP-BY state of the partition's bank.
    """
    bank = stored.allocations[partition].bank
    idx, xbars = crossbar_call(bank, candidates)
    mismatch = np.bitwise_or.reduce([
        field_mismatches(bank, columns, value, xbars)
        for columns, value in zip(template.fields, key)
    ])
    bits = np.zeros((bank.count, bank.rows), dtype=bool)
    if idx.size:
        # The valid bits' padding is zero, so ``~`` needs no row mask.
        valid = bank.kernel_read(stored.layouts[partition].valid_column, xbars)
        bits[idx] = bank.kernel_to_bool(valid & ~mismatch)
    return bits.reshape(-1)[: stored.num_records]


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
    """pim-gb over ``keys`` with one key lookup and counted charges.

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

    # ----------------------------------------------- every key's subgroup
    selected = np.flatnonzero(mask)
    subgroups = records, starts, cells = _key_runs(
        [stored.decode_cells(name, selected) for name in group_attributes],
        key_table, selected, bank.rows, bank.count,
    )
    union = np.zeros(num_records, dtype=bool)
    union[records] = True
    # The runs are sorted by key, so the last key's records are a suffix.
    last = len(keys) - 1
    first = np.append(starts, records.size)[np.searchsorted(cells, last * bank.count)]
    primary_bits = np.zeros(num_records, dtype=bool)
    primary_bits[records[first:]] = True

    # ------------------------------------------ every partition's mask cost
    def template_of(partition: int, filter_column: int, include_remote=False):
        """One partition's template and its columns of the key table."""
        template = compiler.group_template(
            by_partition.get(partition, ()), stored.layouts[partition],
            filter_column, include_remote=include_remote,
        )
        return template, key_table[
            :, [group_attributes.index(name) for name in template.attributes]
        ]

    def remote_batch(partition: int):
        """A remote partition's per-key program cycles and its last key's
        bits, against the pre-GROUP-BY state (before any store below)."""
        remote, values = template_of(partition, stored.layouts[partition].valid_column)
        return remote.cycles(values), _run_partition_batch(
            stored, partition, remote, values[last], prune.candidates[partition]
        )

    pool = engine.scatter_pool
    if pool is not None and len(remote_partitions) > 1:
        remote_batches = pool.map(remote_batch, remote_partitions)
    else:
        remote_batches = [remote_batch(partition) for partition in remote_partitions]
    combine, values = template_of(
        primary, primary_layout.filter_column, bool(remote_partitions)
    )
    combine_cycles = combine.cycles(values)
    primary_candidates = prune.candidates[primary]

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
        cycles, bits = remote_batches[position]
        store_program(
            partition, mask_program(partition, cycles), bits,
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
        primary, mask_program(primary, combine_cycles), primary_bits,
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
        for partition, (cycles, _) in zip(remote_partitions, remote_batches):
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
