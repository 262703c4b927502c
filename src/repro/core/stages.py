"""Reusable execution stages of the PIM query engine.

The engine's work decomposes into three stages that used to be private
monolith methods of :class:`~repro.core.executor.PimQueryEngine`:

* :class:`FilterStage` — compile and evaluate the WHERE clause across the
  vertical partitions, folding the per-partition filter bits into the primary
  partition;
* :class:`GroupMaskStage` — build (and later clear) the per-subgroup mask
  of the ``dispatch`` oracle's pim-gb loop;
* :class:`AggregationStage` — the aggregation passes (circuit or
  bulk-bitwise) of a query's aggregates over K pairwise-disjoint masks, and
  the host-side combination of their per-crossbar partials: one routine,
  :meth:`AggregationStage.aggregate_all`, for a query without GROUP-BY
  (K = 1), for each subgroup of the ``dispatch`` oracle's loop (K = 1) and
  for the batched pim-gb (K keys).  It bills the K passes of an aggregate
  once, decodes each aggregated attribute once for the selected records,
  takes all K x crossbar partials from one segmented reduction and stores
  only the last mask's result rows.

The filter and group-mask stages compile through one compiler, a
:class:`~repro.core.program_cache.ProgramCache` (an LRU cache keyed by
``(predicate, layout)``); a batching service hands every engine the same
instance, so its stages share compiled programs across queries.  The
aggregation stage compiles nothing and holds no compiler.

A program is applied in one way: its NOR primitives run on the stored bits
of a set of candidate crossbars (:func:`apply_program_pruned` /
:func:`apply_program_at`; the fused kernel in production, op by op under the
``dispatch`` oracle) and its cycles, energy and wear are charged from its
metadata for those crossbars.  Every stage takes its candidate sets as
given: the zone maps' :class:`~repro.planner.zonemap.PruneDecision` under
pruning, otherwise the engine's decision of every crossbar — a run the
executor hands the bank as its whole-bank call and charges its full pages.
The one exception is the *known-bits store* of the batched pim-gb
(:mod:`repro.core.batched`): its last subgroup has no per-key program to
run, only the bits the value-free template kernel already computed from the
stored bits, so ``apply_program_pruned(result_bits=...)`` writes those bits
into the result column and charges a :class:`~repro.pim.logic.ProgramCost`
instead.
"""

from __future__ import annotations

import numpy as np

from repro.config import SystemConfig
from repro.core.program_cache import ProgramCache
from repro.db.compiler import partition_conjuncts
from repro.db.encoding import RowLayout
from repro.db.query import Aggregate, Query
from repro.db.storage import StoredRelation
from repro.host.aggregator import combine_partial_table
from repro.host.readpath import HostReadModel
from repro.obs.trace import NULL_TRACER
from repro.pim.arithmetic import BulkAggregationPlan, segmented_partials
from repro.pim.controller import PimExecutor, crossbar_call, every_crossbar
from repro.pim.logic import Program, ProgramBuilder
from repro.planner.zonemap import PruneDecision


def apply_program(
    stored: StoredRelation,
    partition: int,
    program: Program,
    executor: PimExecutor,
    phase: str,
    pages: float,
    result_bits: np.ndarray | None = None,
) -> None:
    """:func:`apply_program_pruned` on every crossbar of the partition."""
    # No caller in src/: kept because perf/layers.py names it.
    everywhere = every_crossbar(stored.allocations[partition].bank)
    apply_program_pruned(
        stored, partition, program, executor, phase, pages, everywhere, result_bits
    )


def candidate_rows(
    stored: StoredRelation, partition: int, candidates: np.ndarray
) -> np.ndarray:
    """Expand a per-crossbar candidate mask to one bool per record slot.

    A candidate run leaves all-zero result bits on skipped crossbars; the
    batched pim-gb reproduces that bit-exactly by masking the fold bits of
    its known-bits store with this expansion before writing them.
    """
    allocation = stored.allocations[partition]
    expanded = np.repeat(
        np.asarray(candidates, dtype=bool), allocation.rows_per_crossbar
    )
    return expanded[: stored.relation.num_records]


def apply_program_pruned(
    stored: StoredRelation,
    partition: int,
    program: Program,
    executor: PimExecutor,
    phase: str,
    pages: float,
    candidates: np.ndarray,
    result_bits: np.ndarray | None = None,
) -> None:
    """Run a program on the candidate crossbars only, and charge it there.

    Shared by the query stages and the DML subsystem.  ``candidates`` is a
    boolean mask over the partition's crossbars: the zone maps' candidates,
    or every crossbar.  The program's cost, wear and requests are charged
    for exactly the crossbars touched.  Skipped crossbars provably hold no
    matching live row, so their correct result bits are all-zero — they are
    left untouched when already clean and receive a single-cycle clear when
    an earlier run left stale ones behind.

    ``result_bits`` is the batched pim-gb's known-bits store (module
    docstring): one bool per slot in use, computed by the template kernel
    from the stored bits, is written into the program's result column and
    the program's cycles and wear are charged from its
    :class:`~repro.pim.logic.ProgramCost` — the stored bits and modelled
    cost the per-key program would have left.  The bits must already be
    zero outside the candidate crossbars, which is checked (the caller masks
    them through :func:`candidate_rows` where the kernel's bits can extend
    further).
    """
    if program.result_column is None:
        raise ValueError("pruned execution needs a program result column")
    allocation = stored.allocations[partition]
    stale = stored.column_dirty_mask(partition, program.result_column) & ~candidates
    if result_bits is None:
        executor.run_program_pruned(
            allocation.bank, program, candidates, pages, phase,
            clear_crossbars=stale,
        )
    else:
        _check_pruned_bits(result_bits, candidates, allocation)
        stored.write_bit_column(
            partition, program.result_column, result_bits, count_wear=False
        )
        executor.charge_pruned_program_cost(
            allocation.bank, program, candidates, pages, phase,
            clear_crossbars=stale,
        )
    stored.mark_column_dirty(partition, program.result_column, candidates)


def apply_program_at(
    stored: StoredRelation,
    partition: int,
    program: Program,
    executor: PimExecutor,
    phase: str,
    pages: float,
    candidates: np.ndarray,
) -> None:
    """Run a program on candidate crossbars, leaving the rest *untouched*.

    The preserve-skipped twin of :func:`apply_program_pruned`, for programs
    whose result on a skipped crossbar equals the bits already stored there —
    pruned DML's ``valid &= ~doomed`` clear (the doomed bits are zero outside
    the candidates, so the AND is the identity) and the mux UPDATE (no row
    there matches the filter, so every field keeps its value).  Unlike the
    pruned filter path there is no all-zero invariant to restore, hence no
    stale-crossbar clearing and no zero-outside check; cost, requests and
    wear are charged for the candidate crossbars only.
    """
    allocation = stored.allocations[partition]
    executor.run_program_at(allocation.bank, program, candidates, pages, phase)
    if program.result_column is not None:
        # The skipped crossbars kept whatever they held, so the column's exact
        # dirtiness — which feeds later pruned stale-clear charges — is read
        # back from the stored bits.
        shaped = allocation.bank.read_column(program.result_column)
        stored.mark_column_dirty(
            partition, program.result_column, shaped.any(axis=1)
        )


def _check_pruned_bits(
    result_bits: np.ndarray, candidates: np.ndarray, allocation
) -> None:
    """Assert the conservative-statistics invariant on known result bits.

    Zone maps are maintained to only ever err on the wide side; a matching
    row inside a pruned crossbar means the maintenance contract was broken
    somewhere, which must fail loudly rather than silently drop rows.
    Called wherever the selection is in hand for another reason: the batched
    pim-gb's kernel bits (union and selection, and every known-bits store)
    and the ground-truth selection of a pruned DELETE / UPDATE.
    """
    padded = np.zeros(allocation.record_capacity, dtype=bool)
    padded[: len(result_bits)] = result_bits
    hits = padded.reshape(
        allocation.crossbars, allocation.rows_per_crossbar
    ).any(axis=1)
    if np.any(hits & ~np.asarray(candidates, dtype=bool)):
        raise RuntimeError(
            "zone maps pruned a crossbar holding matching rows; the "
            "conservative-maintenance invariant was violated"
        )


def build_fold_program(layout: RowLayout, position: int, remote_count: int) -> Program:
    """The pim-gb program folding remote transfer ``position`` of ``remote_count``.

    With two or more remote partitions every transfer lands in the same
    remote column, so the running product of the earlier bit-vectors is
    parked in the group column and folded back after the last transfer:
    the first transfer is copied out of the remote column, later ones are
    ANDed with the parked product, and the last fold lands back in the
    remote column, where the combine program reads it.  The destination is
    the program's ``result_column``.  The per-subgroup loop and the batched
    path both build their fold programs here, so they cannot disagree on
    what they charge.
    """
    destination = (
        layout.remote_column if position == remote_count - 1
        else layout.group_column
    )
    builder = ProgramBuilder(layout.scratch_columns)
    if position == 0:
        folded = builder.copy(layout.remote_column)
    else:
        folded = builder.and_(layout.group_column, layout.remote_column)
    builder.store(folded, destination)
    builder.free(folded)
    return builder.build(result_column=destination)


def build_clear_program(layout: RowLayout) -> Program:
    """The pim-gb subgroup-clear program (``filter &= ~group``)."""
    builder = ProgramBuilder(layout.scratch_columns)
    remaining = builder.and_not(layout.filter_column, layout.group_column)
    builder.store(remaining, layout.filter_column)
    builder.free(remaining)
    return builder.build(result_column=layout.filter_column)


class _Stage:
    """Shared plumbing of the execution stages."""

    def __init__(
        self, stored: StoredRelation, timing_scale: float = 1.0, tracer=None
    ) -> None:
        self.stored = stored
        self.timing_scale = float(timing_scale)
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def _pages(self, partition: int) -> float:
        """Page count used for timing purposes (scaled)."""
        return self.stored.allocations[partition].pages * self.timing_scale

    def _apply(
        self,
        program: Program,
        partition: int,
        executor: PimExecutor,
        phase: str,
        candidates: np.ndarray,
    ) -> None:
        """Run a program on the ``candidates`` crossbars of a partition."""
        apply_program_pruned(
            self.stored, partition, program, executor, phase,
            self._pages(partition), candidates,
        )

    def _everywhere(self, partition: int) -> np.ndarray:
        """The candidate set of a run that ignores pruning: every crossbar."""
        return every_crossbar(self.stored.allocations[partition].bank)


class _CompilingStage(_Stage):
    """A stage that compiles programs: through the shared compiler, if given."""

    def __init__(
        self,
        stored: StoredRelation,
        compiler: ProgramCache | None = None,
        timing_scale: float = 1.0,
        tracer=None,
    ) -> None:
        super().__init__(stored, timing_scale, tracer)
        self.compiler = compiler if compiler is not None else ProgramCache()


class FilterStage(_CompilingStage):
    """Stage 1: evaluate the WHERE clause inside the memory arrays."""

    def run(
        self,
        query: Query,
        primary: int,
        executor: PimExecutor,
        read_model: HostReadModel,
        prune: PruneDecision,
    ) -> None:
        """Evaluate the predicate; the combined result lands in ``primary``.

        Each partition's filter program runs on its candidate crossbars in
        ``prune`` (the zone maps' decision, or every crossbar); the transfer
        that combines a remote partition's filter bits runs on every
        crossbar of the primary partition.
        """
        schema = self.stored.relation.schema
        per_partition = partition_conjuncts(
            query.predicate, self.stored.partition_attributes
        )
        for index, predicate in enumerate(per_partition):
            layout = self.stored.layouts[index]
            program = self.compiler.filter_program(predicate, schema, layout)
            self._apply(
                program, index, executor, "filter", prune.candidates[index]
            )
        # Fold the other partitions' filter bits into the primary partition.
        for index, predicate in enumerate(per_partition):
            if index == primary or predicate is None:
                continue
            self.combine_remote(
                executor, read_model,
                source_partition=index,
                source_column=self.stored.layouts[index].filter_column,
                target_partition=primary,
                target_column=self.stored.layouts[primary].filter_column,
                phase="filter-combine",
            )

    def combine_remote(
        self,
        executor: PimExecutor,
        read_model: HostReadModel,
        source_partition: int,
        source_column: int,
        target_partition: int,
        target_column: int,
        phase: str,
    ) -> None:
        """Move a bit column between partitions and AND it into the target."""
        target_layout = self.stored.layouts[target_partition]
        read_model.transfer_bit_column(
            self.stored,
            source_partition, source_column,
            target_partition, target_layout.remote_column,
            phase=phase,
        )
        builder = ProgramBuilder(target_layout.scratch_columns)
        combined = builder.and_(target_column, target_layout.remote_column)
        builder.store(combined, target_column)
        builder.free(combined)
        program = builder.build(result_column=target_column)
        self._apply(
            program, target_partition, executor, phase,
            self._everywhere(target_partition),
        )


class GroupMaskStage(_CompilingStage):
    """Stage 2 (pim-gb): build and clear the per-subgroup mask."""

    def prepare(
        self,
        group_values: dict[str, int],
        primary: int,
        executor: PimExecutor,
        read_model: HostReadModel,
        prune: PruneDecision,
    ) -> int:
        """Build the subgroup mask in the primary partition's group column.

        ``prune`` (the query's candidate sets) restricts every subgroup
        program to each partition's candidate crossbars.  The subgroup mask
        is ANDed with the filter column, which is zero outside them, so rows
        on skipped crossbars can never reach it — running the mask programs
        on the candidates only is bit-exact for the final mask while
        charging only the candidate crossbars.
        """
        with self.tracer.span("group-mask", columns=len(group_values)):
            return self._prepare(group_values, primary, executor, read_model, prune)

    def _prepare(
        self,
        group_values: dict[str, int],
        primary: int,
        executor: PimExecutor,
        read_model: HostReadModel,
        prune: PruneDecision,
    ) -> int:
        by_partition: dict[int, dict[str, int]] = {}
        for name, value in group_values.items():
            by_partition.setdefault(self.stored.partition_of(name), {})[name] = value

        primary_layout = self.stored.layouts[primary]
        # Remote partitions first: evaluate their equality conjunctions and
        # ship the resulting bit-vectors to the primary partition.  With two
        # or more remote partitions every transfer lands in the same remote
        # column, so the running product of the earlier bit-vectors is parked
        # in the group column and folded back after the last transfer.
        remote_parts = [
            (partition, values)
            for partition, values in by_partition.items()
            if partition != primary
        ]
        for position, (partition, values) in enumerate(remote_parts):
            layout = self.stored.layouts[partition]
            program = self.compiler.group_program(values, layout)
            # A candidate run leaves zeros on skipped crossbars even where
            # the subgroup equality holds; those rows fail the partition's
            # WHERE conjunct, so the final mask (which ANDs the filter bits)
            # is unchanged.
            self._apply(
                program, partition, executor, "pim-gb-filter",
                prune.candidates[partition],
            )
            read_model.transfer_bit_column(
                self.stored,
                partition, layout.group_column,
                primary, primary_layout.remote_column,
                phase="pim-gb-transfer",
            )
            if len(remote_parts) > 1:
                self._fold_remote(
                    primary, executor,
                    build_fold_program(primary_layout, position, len(remote_parts)),
                    prune,
                )

        program = self.compiler.combine_program(
            by_partition.get(primary, {}), primary_layout,
            include_remote=bool(remote_parts),
        )
        self._apply(
            program, primary, executor, "pim-gb-filter", prune.candidates[primary]
        )
        return primary_layout.group_column

    def _fold_remote(
        self,
        primary: int,
        executor: PimExecutor,
        program: Program,
        prune: PruneDecision,
    ) -> None:
        """Apply one :func:`build_fold_program` step on the primary partition.

        The running product parked in the group column is only maintained on
        the primary partition's candidate crossbars (it is zero elsewhere,
        like every candidate run's result).  The final fold into the remote
        column — which the combine program reads — runs on every crossbar,
        but its group-column operand already zeroes the skipped crossbars,
        so its result is the candidate-masked product.
        """
        candidates = prune.candidates[primary]
        if program.result_column != self.stored.layouts[primary].group_column:
            candidates = self._everywhere(primary)
        self._apply(program, primary, executor, "pim-gb-filter", candidates)

    def clear(
        self,
        primary: int,
        executor: PimExecutor,
        candidates: np.ndarray,
    ) -> None:
        """Remove a PIM-aggregated subgroup's records from the host filter.

        ``candidates`` (the primary partition's candidate crossbars)
        restricts the update to the crossbars whose filter column can hold
        ones at all — the filter stage left the others zero.
        """
        self._apply(
            build_clear_program(self.stored.layouts[primary]), primary, executor,
            "pim-gb-filter", candidates,
        )


class AggregationStage(_Stage):
    """Stage 3: PIM aggregation passes plus host combination of the partials."""

    def __init__(
        self,
        stored: StoredRelation,
        config: SystemConfig,
        timing_scale: float = 1.0,
        tracer=None,
    ) -> None:
        super().__init__(stored, timing_scale=timing_scale, tracer=tracer)
        self.config = config
        self.use_aggregation_circuit = config.pim.aggregation_circuit.enabled
        # One bulk-bitwise plan per shape (its constructor arguments), so
        # each shape's cost is computed once: a workload asks for a handful
        # of shapes hundreds of times.
        self._bulk_plans: dict[tuple, BulkAggregationPlan] = {}

    def aggregate_all(
        self,
        query: Query,
        partition: int,
        mask_column: int,
        executor: PimExecutor,
        read_model: HostReadModel,
        candidates: np.ndarray,
        records: np.ndarray,
        starts: np.ndarray,
        cells: np.ndarray,
        keys: int,
    ) -> dict[int, dict[str, int]]:
        """Every aggregate of ``query`` over ``keys`` pairwise-disjoint masks.

        Each mask selects records of the ``partition`` (the primary one) on
        its ``candidates`` crossbars; the pass runs over ``mask_column``,
        where the last mask is stored.  One mask for a query without GROUP-BY
        (the filter column) and for each subgroup of the ``dispatch``
        oracle's loop (the group column), one per key for the batched
        pim-gb.  ``records``, ``starts`` and ``cells`` are the selected
        records of all masks as :func:`~repro.pim.arithmetic.record_runs`
        hands them back: sorted by key, then record, with each run of one
        key on one crossbar.  Each aggregated attribute is decoded once, for
        those records only.

        Every earlier pass's result row is overwritten by the next pass, so
        only the last key's rows are stored, in aggregate order, less any a
        later row covers (the bulk reduction's widths differ); the other
        passes are wear only.  Returns the result row of every key with a
        selected record, by key index.
        """
        bank = self.stored.allocations[partition].bank
        decoded: dict[str, np.ndarray] = {}
        combined: dict[str, list[int]] = {}
        result_rows = []
        for aggregate in query.aggregates:
            if aggregate.op == "count":
                values = np.ones(len(records), dtype=np.uint64)
            else:
                values = decoded.get(aggregate.attribute)
                if values is None:
                    values = decoded[aggregate.attribute] = self.stored.decode_cells(
                        aggregate.attribute, records
                    )
            combined[aggregate.name], row = self.aggregate(
                aggregate, partition, mask_column, executor, read_model,
                candidates, values, starts, cells, keys,
            )
            result_rows.append(row)

        last = keys - 1
        for index, (offset, width, covered, row) in enumerate(result_rows):
            later = result_rows[index + 1:]
            idx, xbars = crossbar_call(bank, covered)
            if idx.size and not any(o == offset and w >= width for o, w, *_ in later):
                bank.write_field_row(0, offset, width, row, xbars=xbars)
                bank.add_row_wear(last * width, idx, 0)
            else:
                bank.add_row_wear(keys * width, idx, 0)

        return {
            key: {name: values[key] for name, values in combined.items()}
            for key in np.unique(cells // bank.count).tolist()
        }

    def aggregate(
        self,
        aggregate: Aggregate,
        partition: int,
        mask_column: int,
        executor: PimExecutor,
        read_model: HostReadModel,
        candidates: np.ndarray,
        values: np.ndarray,
        starts: np.ndarray,
        cells: np.ndarray,
        keys: int,
    ) -> tuple[list[int], tuple]:
        """One aggregation pass per mask: billed, reduced and combined.

        ``values`` holds the aggregated field of the selected records (ones
        for a ``count``), in the runs ``starts`` / ``cells`` of
        :meth:`aggregate_all`.  The ``keys`` passes (circuit or bulk-bitwise,
        :meth:`_pass`) and their result reads are billed once
        (:meth:`charge_passes`); all ``keys`` x crossbar partials come from
        one :func:`~repro.pim.arithmetic.segmented_partials`, at the pass's
        accumulator width, and the host combines each key's.

        A ``min``'s identity is the all-ones value of the pass's own width
        (the circuit's accumulator, the bulk reduction's field): the host
        drops, and is billed for none of, the partials equal to it.  Returns
        each key's value — for a ``min`` to which no crossbar contributed a
        partial, that identity (no record of the mask was selected, or every
        selected value equals it; the two are indistinguishable in the
        partials the hardware exposes, and :meth:`aggregate_all` keeps only
        keys with a selected record) — and the last key's result row: its
        offset, width, crossbars (a mask) and partials.
        """
        with self.tracer.span("aggregate", op=aggregate.op, agg=aggregate.name):
            operation, offset, width, covered = self.charge_passes(
                aggregate, partition, mask_column, executor, read_model,
                candidates, keys,
            )
            count = self.stored.allocations[partition].bank.count
            partials = segmented_partials(
                values, starts, cells, (keys, count), operation, width,
            )[:, covered]
            identity = (1 << width) - 1 if operation == "min" else None
            combined = combine_partial_table(
                partials, operation, self.config.host, executor.stats, identity
            )
            if identity is not None:
                combined = [identity if value is None else value for value in combined]
            return combined, (offset, width, covered, partials[-1])

    def _pass(
        self, aggregate: Aggregate, partition: int, mask_column: int
    ) -> tuple[int, str, BulkAggregationPlan | None]:
        """A pass of ``aggregate`` over ``mask_column``: its field width and
        operation, and the bulk-bitwise plan that runs it — ``None`` when the
        aggregation circuit does (the one circuit-or-bulk choice)."""
        layout = self.stored.layouts[partition]
        if aggregate.op == "count":
            field_offset, field_width, operation = mask_column, 1, "sum"
        else:
            field_offset = layout.field_offset(aggregate.attribute)
            field_width = layout.field_width(aggregate.attribute)
            operation = aggregate.op
        if self.use_aggregation_circuit:
            return field_width, operation, None
        if layout.operand_offset is None:
            raise RuntimeError(
                "bulk-bitwise aggregation needs an operand area; store the "
                "relation with reserve_bulk_aggregation=True"
            )
        shape = (
            self.stored.allocations[partition].rows_per_crossbar, field_offset,
            field_width, mask_column, layout.accumulator_offset,
            layout.operand_offset, tuple(layout.scratch_columns), operation,
        )
        plan = self._bulk_plans.get(shape)
        if plan is None:
            plan = self._bulk_plans[shape] = BulkAggregationPlan(*shape)
        return field_width, operation, plan

    def charge_passes(
        self, aggregate: Aggregate, partition: int, mask_column: int,
        executor: PimExecutor, read_model: HostReadModel, candidates: np.ndarray, count: int,
    ) -> tuple[str, int, int, np.ndarray]:
        """Bill ``count`` passes of ``aggregate`` over ``mask_column`` — time,
        energy, wear, result reads — without running them or storing their
        results (:meth:`aggregate` computes the partials).  A circuit pass
        covers the ``candidates`` crossbars, the bulk-bitwise reduction every
        crossbar.  Returns a pass's operation, the field it leaves in row 0
        (offset, width) and the crossbars it covers (a mask)."""
        layout = self.stored.layouts[partition]
        allocation = self.stored.allocations[partition]
        field_width, operation, plan = self._pass(aggregate, partition, mask_column)
        if plan is None:
            executor.charge_aggregation_circuit(
                allocation.bank, field_width, operation, self._pages(partition),
                candidates, result_width=layout.accumulator_width, count=count,
            )
            offset, width = layout.result_offset, layout.accumulator_width
        else:
            executor.charge_bulk_aggregation(
                allocation.bank, plan, self._pages(partition), count
            )
            candidates = self._everywhere(partition)
            offset, width = plan.acc_offset, plan.acc_width
        read_model.read_aggregation_results(
            self.stored, partition,
            pages_fraction=np.count_nonzero(candidates) / allocation.crossbars,
            count=count,
        )
        return operation, offset, width, candidates
