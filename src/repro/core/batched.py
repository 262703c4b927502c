"""Batched multi-output execution of the pim-gb subgroup loop.

The reference GROUP-BY path (:meth:`PimQueryEngine._execute_group_by`)
makes one full Python round-trip per subgroup: build the subgroup mask,
run the aggregation circuit per aggregate, clear the subgroup from the
filter — with every :class:`~repro.pim.stats.PimStats` charge sitting
inside that inner loop.  After PR 6 fused the kernels, this orchestration
is what Amdahl's law leaves as the end-to-end bottleneck.

This module restructures the loop without changing a single modelled
number or stored bit:

* **One multi-output kernel per partition.**  All per-subgroup group-mask
  programs are lowered together (:func:`repro.pim.ir.lower_program_batch`)
  with cross-program CSE — the per-attribute equality subcircuits that
  recur across subgroups are interned once — and evaluated in one pass
  against the pre-group-by column state.  This is sound because distinct
  full group keys select *disjoint* row sets: subgroup ``k``'s mask
  computed against the pre-loop filter state equals the sequential
  result after ``k-1`` clears.  Each combine program's remote-transfer
  bits enter the batch as a *private* kernel input.

* **One field decode per aggregate.**  The aggregation circuit's
  functional result is ``aggregate_reference`` over a decoded field and
  the subgroup mask; the field does not change between subgroups, so it
  is decoded once and reused for every subgroup.

* **A cheap charging replay.**  Modelled statistics are *order-sensitive*
  (float accumulation, per-phase power samples, request rounding), so a
  single summed charge cannot be bit-identical.  Instead the loop below
  replays, per subgroup, the exact charging calls of the reference path in
  the exact order — through the same :func:`apply_program` /
  :func:`apply_program_pruned` contract, the same transfer model and the
  charge-only circuit twin — while all expensive functional work stays
  batched.  The stored bits, dirty marks, wear counters and ``PimStats``
  are identical to per-subgroup dispatch by construction; the lockstep
  property test asserts it.
"""

from __future__ import annotations

from functools import lru_cache
from collections.abc import Sequence

import numpy as np

from repro.core.sampling import GroupKey
from repro.core.stages import (
    apply_program,
    apply_program_pruned,
    build_clear_program,
    build_fold_program,
    candidate_rows,
)
from repro.db.query import Query
from repro.host.aggregator import combine_partials
from repro.host.readpath import HostReadModel
from repro.pim.arithmetic import aggregate_reference
from repro.pim.controller import PimExecutor
from repro.pim.fused import BatchKernel, compile_batch
from repro.pim.ir import lower_program_batch
from repro.pim.logic import Program


@lru_cache(maxsize=256)
def _compile_group_batch(
    programs: tuple[Program, ...], private_columns: tuple[int, ...]
) -> BatchKernel:
    """Compile (and memoise) the multi-output kernel of a program batch.

    Programs hash by identity, which is exactly right: the service's
    :class:`~repro.service.cache.ProgramCache` hands back the *same*
    program objects on a warm replay, so repeated batches hit this cache
    without re-lowering, while fresh program objects recompile.
    """
    return compile_batch(lower_program_batch(programs, private_columns))


def _candidate_idx(prune, partition: int) -> np.ndarray | None:
    if prune is None:
        return None
    return np.nonzero(np.asarray(prune.candidates[partition], dtype=bool))[0]


def _pad_rows(bits: np.ndarray, bank) -> np.ndarray:
    """Expand per-record bits to the bank's full ``(count, rows)`` shape."""
    full = np.zeros((bank.count, bank.rows), dtype=bool)
    full.reshape(-1)[: bits.size] = bits
    return full


def _run_partition_batch(
    stored,
    partition: int,
    programs: tuple[Program, ...],
    private_columns: tuple[int, ...],
    private: dict | None,
    prune,
) -> list[np.ndarray]:
    """Evaluate a batch of programs on one partition's bank, functionally.

    Returns one per-record boolean result (the program's result column)
    per program, against the partition's *pre-batch* state.  Under pruning
    the kernel runs on the candidate crossbars only and the skipped
    crossbars' bits are zero, matching pruned reference execution.
    """
    allocation = stored.allocations[partition]
    bank = allocation.bank
    num_records = stored.num_records
    xbars = _candidate_idx(prune, partition)
    if xbars is not None and xbars.size == 0:
        return [np.zeros(num_records, dtype=bool) for _ in programs]
    kernel = _compile_group_batch(programs, private_columns)
    outputs = kernel.run(bank, xbars, private)
    n = bank.count if xbars is None else int(xbars.size)
    results: list[np.ndarray] = []
    for program, bindings in zip(programs, outputs):
        value = dict(bindings).get(program.result_column)
        if value is None:
            raise RuntimeError(
                "batched group program does not produce its result column"
            )
        rows_bool = np.broadcast_to(
            bank.kernel_to_bool(value), (n, bank.rows)
        )
        if xbars is None:
            full = np.empty((bank.count, bank.rows), dtype=bool)
            full[:] = rows_bool
        else:
            full = np.zeros((bank.count, bank.rows), dtype=bool)
            full[xbars] = rows_bool
        results.append(full.reshape(-1)[:num_records])
    return results


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
    group_attributes = list(query.group_by)
    primary_layout = stored.layouts[primary]
    primary_allocation = stored.allocations[primary]
    bank = primary_allocation.bank

    def pages_for(partition: int) -> float:
        return stored.allocations[partition].pages * engine.timing_scale

    # The reference builds its per-partition split by iterating the key's
    # group values in attribute order; reproduce the same partition order.
    by_partition: dict[int, list[str]] = {}
    for name in group_attributes:
        by_partition.setdefault(stored.partition_of(name), []).append(name)
    remote_partitions = [p for p in by_partition if p != primary]
    include_remote = bool(remote_partitions)

    def values_for(key: GroupKey, names: Sequence[str]) -> dict[str, int]:
        mapping = dict(zip(group_attributes, key))
        return {name: mapping[name] for name in names}

    # ---------------------------------------------- batched mask computation
    # All of this runs against the pre-group-by column state, before the
    # charging replay performs any writes.
    remote_programs: dict[int, tuple[Program, ...]] = {}

    def remote_batch(partition: int) -> list[np.ndarray]:
        return _run_partition_batch(
            stored, partition, remote_programs[partition], (), None, prune
        )

    for partition in remote_partitions:
        layout = stored.layouts[partition]
        remote_programs[partition] = tuple(
            compiler.group_program(values_for(key, by_partition[partition]), layout)
            for key in keys
        )
    pool = getattr(engine, "scatter_pool", None)
    if pool is not None and len(remote_partitions) > 1:
        batches = pool.map(remote_batch, remote_partitions)
    else:
        batches = [remote_batch(partition) for partition in remote_partitions]
    remote_group_bits: dict[int, list[np.ndarray]] = dict(
        zip(remote_partitions, batches)
    )

    remote_bits: list[np.ndarray] | None = None
    if include_remote:
        remote_bits = []
        for index in range(len(keys)):
            accumulated: np.ndarray | None = None
            for partition in remote_partitions:
                bits = remote_group_bits[partition][index]
                accumulated = bits if accumulated is None else accumulated & bits
            remote_bits.append(accumulated)

    combine_programs = tuple(
        compiler.combine_program(
            values_for(key, by_partition.get(primary, [])),
            primary_layout,
            include_remote,
        )
        for key in keys
    )
    private_columns: tuple[int, ...] = ()
    private: dict | None = None
    primary_idx = _candidate_idx(prune, primary)
    if include_remote:
        private_columns = (primary_layout.remote_column,)
        private = {}
        for index in range(len(keys)):
            padded = _pad_rows(remote_bits[index], bank)
            if primary_idx is not None:
                padded = padded[primary_idx]
            private[(index, primary_layout.remote_column)] = bank.kernel_from_bool(
                padded
            )
    mask_bits = _run_partition_batch(
        stored, primary, combine_programs, private_columns, private, prune
    )

    # ------------------------------------------------- batched bookkeeping
    # Field decodes are shared across subgroups (the data fields do not
    # change during the group-by), and subgroup membership of the selected
    # rows is derived in one gather instead of one column sweep per key.
    field_cache: dict[tuple[int, int], np.ndarray] = {}
    selected = np.nonzero(mask)[0]
    if selected.size:
        columns = [
            stored.relation.column(name)[selected].tolist()
            for name in group_attributes
        ]
        present_keys = set(zip(*columns))
    else:
        present_keys = set()

    # Identical for every subgroup, so built once per query.
    remote_count = len(remote_partitions)
    fold_programs = [
        build_fold_program(primary_layout, position, remote_count)
        for position in range(remote_count)
    ] if remote_count > 1 else []
    clear_program = build_clear_program(primary_layout)
    accumulator_width = primary_layout.accumulator_width
    min_identity = engine.aggregation_stage.min_identity(primary)
    primary_candidates = prune.candidates[primary] if prune is not None else None
    fraction = 1.0
    if prune is not None:
        fraction = (
            float(np.count_nonzero(primary_candidates))
            / primary_allocation.crossbars
        )

    def replay_apply(partition, program, bits, phase="pim-gb-filter"):
        """One reference-ordered program charge with known result bits."""
        if prune is not None:
            apply_program_pruned(
                stored, partition, program, executor, phase,
                pages=pages_for(partition),
                candidates=prune.candidates[partition],
                result_bits=bits,
            )
        else:
            apply_program(
                stored, partition, program, executor, phase,
                pages=pages_for(partition), result_bits=bits,
            )

    # --------------------------------------------------- per-subgroup replay
    rows: dict[GroupKey, dict[str, int]] = {}
    filter_bits = np.asarray(mask, dtype=bool).copy()
    for index, key in enumerate(keys):
        # Remote subgroup programs, transfers and folds, in reference order.
        running: np.ndarray | None = None
        for position, partition in enumerate(remote_partitions):
            layout = stored.layouts[partition]
            replay_apply(
                partition,
                remote_programs[partition][index],
                remote_group_bits[partition][index],
            )
            transferred = read_model.transfer_bit_column(
                stored,
                partition, layout.group_column,
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
                # The final fold into the remote column stays a broadcast
                # in the reference; only group-column folds run pruned.
                if (
                    prune is not None
                    and fold_program.result_column == primary_layout.group_column
                ):
                    replay_apply(primary, fold_program, fold_bits)
                else:
                    apply_program(
                        stored, primary, fold_program, executor,
                        "pim-gb-filter", pages=pages_for(primary),
                        result_bits=fold_bits,
                    )

        # Subgroup mask (combine program) on the primary partition.
        subgroup_bits = mask_bits[index]
        replay_apply(primary, combine_programs[index], subgroup_bits)
        mask_rows = _pad_rows(subgroup_bits, bank)

        # Aggregates from the cached field decodes, charged per invocation.
        entry: dict[str, int | None] = {}
        for aggregate in query.aggregates:
            if aggregate.op == "count":
                field_values = mask_rows.astype(np.uint64)
                field_width, operation = 1, "sum"
            else:
                field_offset = primary_layout.field_offset(aggregate.attribute)
                field_width = primary_layout.field_width(aggregate.attribute)
                operation = aggregate.op
                cache_key = (field_offset, field_width)
                field_values = field_cache.get(cache_key)
                if field_values is None:
                    field_values = bank.read_field_all(field_offset, field_width)
                    field_cache[cache_key] = field_values
            partials = aggregate_reference(
                field_values, mask_rows, operation, accumulator_width
            )
            if primary_idx is not None:
                partials = partials[primary_idx]
            if primary_idx is None or primary_idx.size:
                bank.write_field_row(
                    0, primary_layout.result_offset, accumulator_width,
                    partials, xbars=primary_idx,
                )
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

        # Clear the subgroup from the filter column.
        filter_bits = filter_bits & ~subgroup_bits
        replay_apply(primary, clear_program, filter_bits)
    return rows
