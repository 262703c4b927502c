"""The end-to-end PIM query engine.

:class:`PimQueryEngine` executes select-from-where-group-by queries against a
relation stored in bulk-bitwise PIM memory (normally the pre-joined star
schema), combining every mechanism of the paper:

1. the WHERE clause is compiled into NOR programs and evaluated inside the
   memory, one result bit per record;
2. queries without GROUP-BY aggregate that bit-vector-selected attribute with
   the per-crossbar aggregation circuit (or, for the PIMDB baseline
   configuration, with the pure bulk-bitwise reduction), after which the host
   reads one partial result per crossbar and combines them;
3. GROUP-BY queries first sample one 2 MB page to estimate subgroup sizes,
   let the :class:`~repro.core.groupby.GroupByPlanner` minimise Eq. (3), then
   PIM-aggregate the ``k`` chosen subgroups and hand the remaining records to
   a host-side hash aggregation (host-gb);
4. vertically partitioned relations (two-xb) move intermediate bit-vectors
   between the partitions through the host, including once per PIM-aggregated
   subgroup — the worst-case placement evaluated in Section V-A.

Every execution returns a :class:`QueryExecution` carrying the functional
result rows (bit-exact with the reference engines), the accumulated
latency/energy/power statistics and the planning metadata reported in
Table II.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.config import SystemConfig
from repro.core.groupby import GroupByPlan, GroupByPlanner
from repro.core.latency_model import GroupByCostModel, build_analytic_cost_model
from repro.core.sampling import GroupKey, estimate_subgroups
from repro.core.program_cache import ProgramCache
from repro.core.stages import AggregationStage, FilterStage, GroupMaskStage
from repro.db.query import Query, And, attributes_referenced
from repro.db.storage import StoredRelation
from repro.host.aggregator import host_group_aggregate, merge_group_results
from repro.host.readpath import HostReadModel
from repro.obs.trace import tracer_from_config
from repro.pim.arithmetic import record_runs
from repro.pim.controller import PimExecutor
from repro.pim.stats import PimStats
from repro.planner.planner import CostPlanner, PlanDecision, execute_host_scan
from repro.planner.zonemap import PruneDecision


#: Decisions :class:`PimQueryEngine` keeps (least recently used out).
_DECISION_MEMO_CAPACITY = 64


@dataclass
class _Decision:
    """What the engine decides before a query runs: one memo entry.

    Every part is a function of the query and the store's statistics, which
    only DML changes, so the engine keeps one per statistics version.
    """

    #: The candidate crossbars: the zone maps' decision under pruning, else
    #: the engine's decision of every crossbar.
    prune: PruneDecision
    #: The histogram estimate (``None`` when neither pruning nor a router
    #: asked for one).
    selectivity: float | None = None
    #: The router's choice (``None`` without a router).
    route: PlanDecision | None = None
    #: The GROUP-BY plan, made by the first PIM execution that needs one.
    group_plan: GroupByPlan | None = None


@dataclass
class QueryExecution:
    """Result and measurements of one query execution."""

    query: Query
    label: str
    rows: dict[GroupKey, dict[str, int]]
    stats: PimStats
    selectivity: float
    total_subgroups: int
    subgroups_in_sample: int
    pim_subgroups: int
    max_writes_per_row: int
    plan: GroupByPlan | None = None
    #: Crossbars a run on every crossbar would touch (summed over the partitions).
    crossbars_total: int = 0
    #: Crossbars the filter actually scanned (== total without pruning).
    crossbars_scanned: int = 0
    #: Planner's selectivity estimate (``None`` when no planner consulted).
    estimated_selectivity: float | None = None
    #: ``"host"`` when the cost planner served it through the host scan.
    route: str = "pim"

    @property
    def time_s(self) -> float:
        """End-to-end execution latency (Fig. 6)."""
        return self.stats.total_time_s

    @property
    def energy_j(self) -> float:
        """PIM memory energy (Fig. 7)."""
        return self.stats.total_energy_j

    @property
    def peak_chip_power_w(self) -> float:
        """Peak power of a single PIM chip (Fig. 8)."""
        return self.stats.peak_chip_power_w

    def scalar(self, aggregate_name: str | None = None) -> int:
        """Value of an aggregate for a query without GROUP-BY."""
        if not self.rows:
            raise ValueError(
                "query selected no records and produced no result row"
            )
        if len(self.rows) != 1 or () not in self.rows:
            raise ValueError("query produced grouped results; use .rows")
        entry = self.rows[()]
        if aggregate_name is None:
            if not entry:
                raise ValueError("query produced no aggregate values")
            aggregate_name = next(iter(entry))
        if aggregate_name not in entry:
            raise ValueError(
                f"query has no aggregate named {aggregate_name!r}; "
                f"available: {sorted(entry)}"
            )
        return entry[aggregate_name]

    def decoded_rows(self, schema) -> dict[tuple, dict[str, int]]:
        """Result rows with the GROUP-BY key translated to raw values."""
        decoded = {}
        for key, entry in self.rows.items():
            decoded_key = tuple(
                schema.attribute(name).decode_value(code)
                for name, code in zip(self.query.group_by, key)
            )
            decoded[decoded_key] = dict(entry)
        return decoded


class PimQueryEngine:
    """Executes queries on a PIM-resident (pre-joined) relation."""

    def __init__(
        self,
        stored: StoredRelation,
        config: SystemConfig | None = None,
        label: str = "one_xb",
        cost_model: GroupByCostModel | None = None,
        timing_scale: float = 1.0,
        compiler: ProgramCache | None = None,
        pruning: bool = False,
        router: CostPlanner | None = None,
        scatter_pool=None,
        tracer=None,
    ) -> None:
        """Create an engine over a stored relation.

        Args:
            stored: The PIM-resident relation (usually the pre-joined SSB
                relation).
            config: System configuration; defaults to the module's.
            label: Name used in reports (``one_xb``, ``two_xb``, ``pimdb``).
            cost_model: GROUP-BY cost model; derived analytically if omitted.
            timing_scale: Linear extrapolation factor for the timing, energy
                and power accounting.  The functional execution always runs
                on the stored relation as-is; with ``timing_scale > 1`` the
                reported costs (and the planner's decisions) correspond to a
                relation that many times larger — e.g. a laptop-sized SSB
                instance with ``timing_scale`` chosen so the modelled size is
                the paper's SF=10.  Per-row wear is unaffected (it does not
                depend on the number of pages).
            compiler: Program cache shared by the stages; a private one if
                omitted.  Pass a shared
                :class:`~repro.core.program_cache.ProgramCache` to reuse
                compiled NOR programs across engines.
            pruning: Consult the relation's zone maps before every filter
                and run the NOR programs (and the aggregation-circuit pass)
                only on their candidate crossbars — bit-exact with a run on
                every crossbar, charging :class:`~repro.pim.stats.PimStats`
                for exactly the crossbars touched plus the modelled zone-map
                check.  A query whose predicate matches no crossbar at all
                skips execution entirely.  Without pruning every execution
                runs on :attr:`unpruned`, every crossbar.
            router: A :class:`~repro.planner.planner.CostPlanner` consulted
                once per execution, with the engine's own estimate and
                zone-map decision: a query whose estimated host-scan time
                beats its estimated PIM time is served through
                :func:`~repro.planner.planner.execute_host_scan` instead
                (bit-exact rows, host-path cost model).  ``None`` always
                executes on PIM.
            scatter_pool: A :class:`~repro.core.parallel.ScatterPool` the
                batched group-by path uses to evaluate independent
                per-partition batch kernels concurrently (the kernels are
                whole-array NumPy expressions, so they release the GIL).
                ``None`` keeps everything on the calling thread.
            tracer: A :class:`~repro.obs.trace.SpanTracer` the engine (and
                its stages) open hierarchical spans on.  Defaults to the
                tracer implied by ``config.tracing`` — the shared no-op
                tracer unless tracing is switched on.
        """
        if timing_scale <= 0:
            raise ValueError("timing_scale must be positive")
        self.stored = stored
        self.config = config if config is not None else stored.module.system_config
        self.label = label
        #: Pages sampled for subgroup-size estimation (a part of the decision
        #: memo's key; the sampling ablation varies it).
        self.sample_pages = 1
        self.timing_scale = float(timing_scale)
        self.use_aggregation_circuit = self.config.pim.aggregation_circuit.enabled
        self.transfer_per_subgroup = stored.partitions > 1
        if cost_model is None:
            cost_model = build_analytic_cost_model(
                self.config,
                use_aggregation_circuit=self.use_aggregation_circuit,
                transfer_per_subgroup=self.transfer_per_subgroup,
            )
        self.cost_model = cost_model
        self.planner = GroupByPlanner(cost_model)
        self.compiler = compiler if compiler is not None else ProgramCache()
        self.pruning = bool(pruning)
        self.router = router
        self.tracer = tracer if tracer is not None else tracer_from_config(self.config)
        self.filter_stage = FilterStage(
            stored, self.compiler, self.timing_scale, tracer=self.tracer
        )
        self.group_stage = GroupMaskStage(
            stored, self.compiler, self.timing_scale, tracer=self.tracer
        )
        self.aggregation_stage = AggregationStage(
            stored, self.config, self.timing_scale, tracer=self.tracer
        )
        self.scatter_pool = scatter_pool
        crossbars = [allocation.crossbars for allocation in stored.allocations]
        #: The candidate sets of an execution that consults no zone map:
        #: every crossbar of every partition, nothing checked or billed.
        self.unpruned = PruneDecision(
            [np.ones(count, dtype=bool) for count in crossbars],
            crossbars_total=sum(crossbars), crossbars_scanned=sum(crossbars),
            entries_checked=0, conjuncts_checked=0,
        )
        # Decisions keyed by (statistics version, query, sample_pages).
        self._decisions: OrderedDict[tuple, _Decision] = OrderedDict()

    # ------------------------------------------------------------------ main
    def execute(self, query: Query) -> QueryExecution:
        """Execute one query and return its results and measurements.

        Every execution runs on a fresh
        :class:`~repro.pim.controller.PimExecutor` with its own
        :class:`~repro.pim.stats.PimStats`, so it reports its own measurements.
        """
        with self.tracer.span("execute", label=self.label) as span:
            execution = self._execute_traced(query)
            if self.tracer.enabled:
                span.set(
                    selectivity=execution.selectivity,
                    crossbars_total=execution.crossbars_total,
                    crossbars_scanned=execution.crossbars_scanned,
                    pim_subgroups=execution.pim_subgroups,
                    result_rows=len(execution.rows),
                )
            return execution

    def _execute_traced(self, query: Query) -> QueryExecution:
        primary = self._primary_partition(query)
        stats = PimStats()
        self.tracer.bind(stats)
        decision = self._decide(query, stats)
        route = decision.route
        host_routed = route is not None and route.target == "host"
        if host_routed:
            execution = execute_host_scan(self, query, route)
        elif decision.prune.empty:
            # Some partition's conjunction matches no crossbar: the
            # selection is provably empty, so no filter program, no
            # aggregation and no result row — this is also how a sharded
            # engine skips entire shards.
            execution = self._pruned_out_execution(
                query, stats, decision.selectivity
            )
        else:
            execution = self._execute_pim(query, primary, stats, decision)
        if query.predicate is not None and execution.estimated_selectivity is not None:
            # Close the feedback loop: fold the scan volume into the
            # relation's adaptive accumulator.  Nothing is built here: the
            # next compaction applies what the accumulator decides.  The
            # span records how the estimate fared.
            reported, actual = execution.estimated_selectivity, execution.selectivity
            # A host scan streams every crossbar.
            scanned = (
                execution.crossbars_total if host_routed
                else execution.crossbars_scanned
            )
            with self.tracer.span("feedback", estimated=reported, actual=actual):
                self.stored.statistics.observe_execution(query.predicate, scanned)
        return execution

    def _decide(self, query: Query, stats: PimStats) -> _Decision:
        """Estimate, plan and route once per (statistics version, query).

        The decision is memoised per ``statistics._version``, which only DML
        moves: a replay estimates, walks and prices nothing again and bills a
        0 zone-map walk.  Only the PIM route pays the walk.  The ``plan`` span
        carries the decision and whether the memo held it.
        """
        statistics = self.stored.statistics
        key = (statistics._version, query, self.sample_pages)
        decision = self._decisions.pop(key, None)
        memo = "miss" if decision is None else "hit"
        # Most recently used last.
        self._decisions[key] = decision = decision or _Decision(self.unpruned)
        if len(self._decisions) > _DECISION_MEMO_CAPACITY:
            self._decisions.popitem(last=False)
        if not self.pruning and self.router is None:
            return decision
        with self.tracer.span("plan") as span:
            if memo == "miss":
                decision.selectivity = statistics.estimate(query.predicate)
                if self.pruning:
                    decision.prune = statistics.plan(
                        query.predicate,
                        self.stored.partition_attributes,
                        self.config.pim.crossbars_per_page,
                    )
                if self.router is not None:
                    decision.route = self.router.route(
                        query, self, decision.selectivity, decision.prune
                    )
            prune, route = decision.prune, decision.route
            entries = 0
            if memo == "miss" and (route is None or route.target == "pim"):
                # The unpruned decision checked no entry and bills nothing.
                entries = prune.entries_checked
                statistics.charge_check(
                    stats, self.config.host, entries * self.timing_scale
                )
            if self.tracer.enabled:
                span.set(estimated_selectivity=decision.selectivity, memo=memo)
                if self.pruning:
                    span.set(
                        crossbars_total=prune.crossbars_total,
                        crossbars_scanned=prune.crossbars_scanned,
                        crossbars_skipped=prune.crossbars_total - prune.crossbars_scanned,
                        entries_checked=entries,
                        empty=prune.empty,
                    )
                if route is not None:
                    span.set(
                        target=route.target,
                        est_pim_time_s=route.est_pim_time_s,
                        est_host_time_s=route.est_host_time_s,
                    )
        return decision

    def _execute_pim(
        self, query: Query, primary: int, stats: PimStats, decision: _Decision
    ) -> QueryExecution:
        """Filter, then aggregate (GROUP-BY: pim-gb / host-gb) in memory."""
        prune = decision.prune
        executor = PimExecutor(self.config, stats)
        read_model = HostReadModel(
            self.config, stats, traffic_scale=self.timing_scale
        )
        wear_before = self.stored.wear_snapshot()
        # The span's ``pruned`` says whether the zone maps were consulted.
        with self.tracer.span("filter", pruned=self.pruning):
            self.filter_stage.run(query, primary, executor, read_model, prune)
        mask = self.stored.filter_mask(primary)
        # Live-row fraction: the filter bit is ANDed with the valid column,
        # so normalizing by all slots in use would dilute the figure with
        # tombstones (the estimate is a live-row fraction too).
        selectivity = (
            float(mask.sum() / self.stored.live_count)
            if self.stored.live_count
            else 0.0
        )
        plan: GroupByPlan | None = None
        if not query.group_by:
            # An empty selection yields no result row (matching the columnar
            # reference engines).
            entry = self._aggregate_mask(
                query, primary, self.stored.layouts[primary].filter_column,
                mask, executor, read_model, prune,
            )
            rows = {} if entry is None else {(): entry}
            total_subgroups, in_sample, pim_subgroups = 1, 0, 1
        elif self.stored.num_records == 0:
            # Every slot was deleted and compacted away: there is nothing to
            # sample or plan over, and no subgroup can produce a row.
            rows = {}
            total_subgroups, in_sample, pim_subgroups = 0, 0, 0
        else:
            rows, plan = self._execute_group_by(
                query, primary, mask, executor, read_model, decision
            )
            total_subgroups = plan.total_subgroups
            in_sample = plan.estimate.observed_subgroups
            pim_subgroups = plan.k

        max_writes = self.stored.max_writes_since(wear_before)
        stats.observe_writes_per_row(max_writes)
        return QueryExecution(
            query=query,
            label=self.label,
            rows=rows,
            stats=stats,
            selectivity=selectivity,
            total_subgroups=total_subgroups,
            subgroups_in_sample=in_sample,
            pim_subgroups=pim_subgroups,
            max_writes_per_row=max_writes,
            plan=plan,
            crossbars_total=self.unpruned.crossbars_total,
            crossbars_scanned=prune.crossbars_scanned,
            # A PIM execution reports an estimate only when pruning made one.
            estimated_selectivity=decision.selectivity if self.pruning else None,
        )

    def _pruned_out_execution(
        self,
        query: Query,
        stats: PimStats,
        estimated_selectivity: float | None,
    ) -> QueryExecution:
        """The (empty) execution of a query the zone maps ruled out entirely."""
        if query.group_by:
            total_subgroups, in_sample, pim_subgroups = 0, 0, 0
        else:
            total_subgroups, in_sample, pim_subgroups = 1, 0, 1
        return QueryExecution(
            query=query,
            label=self.label,
            rows={},
            stats=stats,
            selectivity=0.0,
            total_subgroups=total_subgroups,
            subgroups_in_sample=in_sample,
            pim_subgroups=pim_subgroups,
            max_writes_per_row=0,
            plan=None,
            crossbars_total=self.unpruned.crossbars_total,
            crossbars_scanned=0,
            estimated_selectivity=estimated_selectivity,
        )

    # ---------------------------------------------------------------- filter
    def _primary_partition(self, query: Query) -> int:
        """Partition holding the aggregated attributes (and the final filter)."""
        partitions = {
            self.stored.partition_of(a.attribute)
            for a in query.aggregates
            if a.attribute is not None
        }
        if len(partitions) > 1:
            raise NotImplementedError(
                "aggregated attributes must share a vertical partition"
            )
        return partitions.pop() if partitions else 0

    def _aggregate_mask(
        self,
        query: Query,
        primary: int,
        mask_column: int,
        mask: np.ndarray,
        executor: PimExecutor,
        read_model: HostReadModel,
        prune: PruneDecision,
    ) -> dict[str, int] | None:
        """The aggregation stage's routine over one mask — ``mask``, the bits
        of ``mask_column`` of every slot in use: the mask's result row, or
        ``None`` when it selects no record."""
        records = np.flatnonzero(mask)
        return self.aggregation_stage.aggregate_all(
            query, primary, mask_column, executor, read_model,
            prune.candidates[primary],
            *record_runs(records, records // self.stored.rows_per_crossbar), 1,
        ).get(0)

    # ------------------------------------------------------------- GROUP-BY
    def _execute_group_by(
        self,
        query: Query,
        primary: int,
        mask: np.ndarray,
        executor: PimExecutor,
        read_model: HostReadModel,
        decision: _Decision,
    ) -> tuple[dict[GroupKey, dict[str, int]], GroupByPlan]:
        """Plan the pim-gb / host-gb split, then run both halves.

        The plan (candidate subgroups, sampled estimate, ``k``) depends only
        on the query and the store's data, so it is part of the engine's
        decision memo (:meth:`_decide`): a replay between two DML statements
        skips the candidate enumeration, the sample and the ``k`` sweep.
        Every execution, hit or miss, is charged the sample read the plan's
        estimate recorded.
        """
        group_attributes = list(query.group_by)
        prune = decision.prune
        with self.tracer.span("group-plan") as plan_span:
            plan = decision.group_plan
            memo = "miss" if plan is None else "hit"
            if plan is None:
                plan = decision.group_plan = self._plan_group_by(
                    query, primary, read_model
                )
            read_model.stats.add_time("sampling", plan.estimate.read_time_s)
            if self.tracer.enabled:
                plan_span.set(
                    total_subgroups=plan.total_subgroups,
                    subgroups_in_sample=plan.estimate.observed_subgroups,
                    pim_subgroups=plan.k,
                    host_pass=plan.host_pass_needed,
                    memo=memo,
                )

        rows: dict[GroupKey, dict[str, int]] = {}
        batched = bool(plan.pim_groups and executor.batched)
        with self.tracer.span(
            "pim-gb", batched=batched, subgroups=len(plan.pim_groups)
        ):
            if batched:
                # Every configuration's pim-gb: one template kernel per
                # partition, charges by multiplicity (repro.core.batched).
                from repro.core.batched import run_group_by_batched

                rows = run_group_by_batched(
                    self, query, primary, mask, plan.pim_groups, executor,
                    read_model, prune,
                )
            else:
                # The per-subgroup loop: the ``dispatch`` oracle only.
                for key in plan.pim_groups:
                    entry = self._pim_aggregate_group(
                        query, primary, group_attributes, key, executor,
                        read_model, prune,
                    )
                    if entry is not None:
                        rows[key] = entry
                    self.group_stage.clear(
                        primary, executor, prune.candidates[primary]
                    )

        if plan.host_pass_needed:
            with self.tracer.span("host-gb"):
                host_rows = self._host_group_by(
                    query, primary, group_attributes, executor, read_model
                )
            rows = merge_group_results(rows, host_rows, query.aggregates)
        return rows, plan

    def _plan_group_by(
        self, query: Query, primary: int, read_model: HostReadModel
    ) -> GroupByPlan:
        """Enumerate the candidates, sample the filtered records, pick ``k``."""
        candidates = self._candidate_groups(query)
        estimate = estimate_subgroups(
            self.stored, list(query.group_by), candidates,
            read_model=read_model,
            sample_pages=self.sample_pages,
            filter_partition=primary,
        )
        return self.planner.plan(
            estimate,
            pages=self.stored.pages * self.timing_scale,
            aggregation_reads=self._aggregation_reads(query, primary),
            reads_per_record=self._reads_per_record(query),
            total_subgroups=len(candidates),
        )

    def _pim_aggregate_group(
        self,
        query: Query,
        primary: int,
        group_attributes: Sequence[str],
        key: GroupKey,
        executor: PimExecutor,
        read_model: HostReadModel,
        prune: PruneDecision,
    ) -> dict[str, int] | None:
        """pim-gb for one subgroup: subgroup filter, then the aggregation
        stage's routine over the group column's bits; ``None`` when the
        subgroup has no selected record.

        The subgroup mask is a subset of the query filter, so the candidate
        crossbars of the filter bound the subgroup mask programs and the
        subgroup aggregation too.
        """
        group_values = dict(zip(group_attributes, key))
        mask_column = self.group_stage.prepare(
            group_values, primary, executor, read_model, prune
        )
        return self._aggregate_mask(
            query, primary, mask_column,
            self.stored.column_bit(primary, mask_column), executor, read_model,
            prune,
        )

    def _host_group_by(
        self,
        query: Query,
        primary: int,
        group_attributes: Sequence[str],
        executor: PimExecutor,
        read_model: HostReadModel,
    ) -> dict[GroupKey, dict[str, int]]:
        """host-gb: read the remaining selected records and hash-aggregate."""
        mask = read_model.read_filter_bitvector(self.stored, primary)
        indices = np.nonzero(mask)[0]
        needed = list(group_attributes) + [
            a.attribute for a in query.aggregates if a.attribute is not None
        ]
        by_partition: dict[int, list[str]] = {}
        for name in dict.fromkeys(needed):
            by_partition.setdefault(self.stored.partition_of(name), []).append(name)
        values: dict[str, np.ndarray] = {}
        for partition, names in by_partition.items():
            values.update(
                read_model.read_records(self.stored, partition, indices, names)
            )
        group_columns = {name: values[name] for name in group_attributes}
        value_columns = {
            a.attribute: values[a.attribute]
            for a in query.aggregates
            if a.attribute is not None
        }
        return host_group_aggregate(
            group_columns,
            value_columns,
            query.aggregates,
            self.config.host,
            stats=executor.stats,
            threads=self.config.host.query_threads,
            workload_scale=self.timing_scale,
        )

    # ------------------------------------------------------------- metadata
    def _aggregation_reads(self, query: Query, primary: int) -> int:
        """The paper's ``n``: 16-bit reads to fetch the aggregated attributes."""
        layout = self.stored.layouts[primary]
        read_width = layout.read_width_bits
        total = 0
        for aggregate in query.aggregates:
            if aggregate.attribute is None:
                total += 1
            else:
                total += int(math.ceil(layout.field_width(aggregate.attribute) / read_width))
        return max(1, total)

    def _reads_per_record(self, query: Query) -> int:
        """The paper's ``s``: 16-bit reads per record for host-gb."""
        needed = list(query.group_by) + [
            a.attribute for a in query.aggregates if a.attribute is not None
        ]
        by_partition: dict[int, list[str]] = {}
        for name in dict.fromkeys(needed):
            by_partition.setdefault(self.stored.partition_of(name), []).append(name)
        total = 0
        for partition, names in by_partition.items():
            total += len(self.stored.layouts[partition].words_for_fields(names))
        return max(1, total)

    def _candidate_groups(self, query: Query) -> list[GroupKey]:
        """Enumerate the potential subgroups from query and catalog knowledge.

        Following the paper's "total number of potential subgroups according
        to query and database details" (Table II), the candidate set is the
        Cartesian product of the per-attribute domains of the GROUP-BY
        attributes, where each attribute's domain is restricted by the
        predicate conjuncts on attributes of the *same* source relation.
        This captures the functional dependencies inside a dimension — for
        example ``p_brand1`` is restricted to the 40 brands of the selected
        ``p_category`` — and is catalog information, not charged to the
        query's execution time.  It is enumerated on a decision-memo miss
        only (see :meth:`_decide`), so once per statistics version.
        """
        schema = self.stored.relation.schema
        predicate = query.predicate
        nodes = list(predicate.children) if isinstance(predicate, And) else (
            [predicate] if predicate is not None else []
        )
        referenced = [
            {schema.attribute(name).source for name in attributes_referenced(node)}
            for node in nodes
        ]
        domains = [
            self.stored.group_domain(
                group_attribute,
                tuple(
                    node for node, sources in zip(nodes, referenced)
                    if sources == {schema.attribute(group_attribute).source}
                ),
            )
            for group_attribute in query.group_by
        ]
        if not domains:
            return []
        return list(itertools.product(*domains))
