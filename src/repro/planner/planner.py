"""Cost-based query planning over zone maps and histograms.

Three planner responsibilities live here:

* :class:`RelationStatistics` bundles the per-crossbar
  :class:`~repro.planner.zonemap.ZoneMaps` and the per-column
  :class:`~repro.planner.selectivity.SelectivityModel` of one stored
  relation.  Every :class:`~repro.db.storage.StoredRelation` builds one at
  load time and the DML paths keep it maintained, so engines and the service
  can consult it at any point of the relation's lifecycle.
* :meth:`RelationStatistics.plan` turns a WHERE clause into a
  :class:`~repro.planner.zonemap.PruneDecision` — per-partition candidate
  crossbars, with the conjuncts ordered most-selective first so the zone-map
  walk exits early.  A memo miss bills its walk, a replay bills nothing.
* :class:`CostPlanner` prices the two routes of one store execution: the
  PIM engine (broadcast cost bounded by the pruned crossbars) against a host
  scan, which can win for a high-selectivity query over a small relation —
  :func:`execute_host_scan` streams the referenced columns through the
  host's load path and hash-aggregates on the CPU, charging the same
  :class:`~repro.pim.stats.PimStats` machinery so the two routes stay
  comparable.  The router estimates and plans nothing itself: the engine
  (:meth:`~repro.core.executor.PimQueryEngine.execute`) hands it the
  selectivity estimate and zone-map decision it made once, runs the chosen
  route and closes the feedback loop.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, replace
from collections.abc import Sequence

import numpy as np

from repro.config import SystemConfig
from repro.db.compiler import partition_conjuncts
from repro.db.query import Comparison, Predicate, Query, evaluate_predicate
from repro.host import dram
from repro.host.processor import cpu_time
from repro.pim.stats import PimStats
from repro.planner.adaptive import AdaptiveController, AdaptiveSnapshot
from repro.planner.candidates import (
    CandidateCacheStats,
    CandidateSetCache,
    normalize_fragment,
)
from repro.planner.selectivity import SelectivityModel
from repro.planner.zonemap import PairZoneMap, PruneDecision, ZoneMaps


#: Memoized :meth:`RelationStatistics.plan` decisions kept per relation.
_PLAN_CACHE_CAPACITY = 64


class RelationStatistics:
    """Zone maps plus histograms of one stored relation, kept under DML."""

    def __init__(self, zonemaps: ZoneMaps, selectivity: SelectivityModel) -> None:
        self.zonemaps = zonemaps
        self.selectivity = selectivity
        #: Per-fragment candidate sets with per-crossbar epoch invalidation.
        self.candidates = CandidateSetCache(zonemaps)
        #: Feedback accumulator: estimation error, hot columns, hot pairs.
        self.adaptive = AdaptiveController()
        #: Correlated-pair sketch, built once the tracker names a hot pair.
        self.pair_map: PairZoneMap | None = None
        # Relation-wide change counter: *any* maintenance event (including
        # DELETE, which changes the live prefilter but not the cached
        # fragment masks) retires memoized whole-plan decisions, which are
        # then cheaply reassembled from the fragment cache.
        self._version = 0
        # plan() memo, (decision, _version) per predicate: serving workloads
        # replay predicates, and a replay skips the fragment-mask assembly
        # (tens of microseconds per SSB predicate).
        self._plan_cache: OrderedDict[object, tuple] = OrderedDict()
        # estimate() memo, keyed on (predicate, _version): a replay skips
        # the histogram walk, several times the cost of the lookup.
        self._estimate_cache: OrderedDict[tuple, float] = OrderedDict()
        # The store's data version at each column's last equi-depth rebuild:
        # rebuilt again from unchanged rows, it would be the same histogram.
        self._rebuilt_at: dict[str, int] = {}

    @classmethod
    def from_stored(cls, stored) -> RelationStatistics:
        return cls(
            ZoneMaps.from_stored(stored),
            SelectivityModel.from_relation(stored.relation),
        )

    # ------------------------------------------------------------------ plan
    def plan(
        self,
        predicate: Predicate,
        partition_attributes: Sequence[Sequence[str]],
        crossbars_per_page: int,
    ) -> PruneDecision:
        """Candidate crossbars for every vertical partition of a predicate.

        The returned decision's candidate masks are read-only and shared
        with the memo; ``entries_checked`` is the zone-map walk this call
        did: the whole walk on a memo miss, 0 on a replay.
        """
        # The memo keys on the predicate's *structural* normal form, so
        # structurally equal predicates built separately (a replayed query
        # text re-parsed into fresh objects) hit the whole-plan memo, not
        # just the per-fragment candidate cache underneath it.
        key = (
            normalize_fragment(predicate),
            tuple(tuple(attrs) for attrs in partition_attributes),
            crossbars_per_page,
        )
        cached = self._plan_cache.get(key)
        if cached is not None and cached[1] == self._version:
            self._plan_cache.move_to_end(key)
            return replace(cached[0], entries_checked=0)
        decision = self._assemble(
            predicate, partition_attributes, crossbars_per_page
        )
        self._plan_cache[key] = (decision, self._version)
        self._plan_cache.move_to_end(key)
        if len(self._plan_cache) > _PLAN_CACHE_CAPACITY:
            self._plan_cache.popitem(last=False)
        return decision

    def _assemble(
        self,
        predicate: Predicate,
        partition_attributes: Sequence[Sequence[str]],
        crossbars_per_page: int,
    ) -> PruneDecision:
        """Build a decision by intersecting cached fragment candidate sets.

        Per partition the live prefilter is applied fresh (DELETEs shrink it
        without touching the cache) and the fragments — ordered
        most-selective first — narrow it; the walk exits early once no
        candidate remains, exactly like the uncached
        :meth:`~repro.planner.zonemap.ZoneMaps.check`.
        """
        per_partition = partition_conjuncts(predicate, partition_attributes)
        live_mask = self.zonemaps.live > 0
        candidates: list[np.ndarray] = []
        consulted = 0
        conjuncts_checked = 0
        for conjunct in per_partition:
            ordered = self.selectivity.order_conjuncts(conjunct)
            mask = live_mask.copy()
            for fragment in ordered:
                if fragment is None:
                    continue
                if not mask.any():
                    break
                fragment_mask, entries = self.candidates.lookup(
                    fragment, crossbars_per_page
                )
                mask &= fragment_mask
                consulted += entries
                conjuncts_checked += 1
            if self.pair_map is not None and mask.any():
                pair_masks = self._pair_bucket_masks(ordered)
                if pair_masks is not None:
                    mask &= self.pair_map.possible(*pair_masks)
                    consulted += self.zonemaps.crossbars
            mask.setflags(write=False)
            candidates.append(mask)
        return PruneDecision(
            candidates=candidates,
            crossbars_total=self.zonemaps.crossbars * len(candidates),
            crossbars_scanned=int(sum(mask.sum() for mask in candidates)),
            entries_checked=consulted,
            conjuncts_checked=conjuncts_checked,
        )

    def _pair_bucket_masks(self, fragments) -> tuple[int, int] | None:
        """Bucket masks of the pair's two columns when *both* are constrained.

        Only plain comparison fragments constrain a bucket mask (anything
        else stays conservatively all-ones); and only when the same
        partition's conjunction constrains both columns is the joint sketch
        consulted — a pair restriction is the conjunction of two
        single-column constraints, so it is sound exactly where both belong
        to the conjunct the pruned program evaluates.
        """
        first, second = self.pair_map.attributes
        a_mask = b_mask = None
        for fragment in fragments:
            if not isinstance(fragment, Comparison):
                continue
            bucket = self.pair_map.bucket_mask(fragment)
            if bucket is None:
                continue
            if fragment.attribute == first:
                a_mask = bucket if a_mask is None else (a_mask & bucket)
            else:
                b_mask = bucket if b_mask is None else (b_mask & bucket)
        if a_mask is None or b_mask is None:
            return None
        return a_mask, b_mask

    def candidate_stats(self) -> CandidateCacheStats:
        """Point-in-time counters of the semantic candidate-set cache."""
        return self.candidates.stats()

    def _note_change(self) -> None:
        self._version += 1

    def estimate(self, predicate: Predicate) -> float:
        """Estimated selected fraction of the live records."""
        key = (predicate, self._version)
        fraction = self._estimate_cache.get(key)
        if fraction is None:
            fraction = self._estimate_cache[key] = self.selectivity.estimate(predicate)
            if len(self._estimate_cache) > _PLAN_CACHE_CAPACITY:
                self._estimate_cache.popitem(last=False)
        else:
            self._estimate_cache.move_to_end(key)
        return fraction

    # -------------------------------------------------------------- feedback
    def observe_execution(
        self,
        predicate: Predicate,
        estimated: float | None,
        actual: float,
        crossbars_scanned: int,
        stored=None,
        stats: PimStats | None = None,
        host=None,
        timing_scale: float = 1.0,
    ) -> list[str]:
        """Fold one execution's feedback and apply any triggered decisions.

        This is the closed loop's *decide* step: the
        :class:`~repro.planner.adaptive.AdaptiveController` accumulates the
        (estimated, actual) error and scan volume; when a column's error
        crosses the threshold its histogram is rebuilt **equi-depth** from
        the live rows — unless it already was at the store's current data
        version, when the rebuild would reproduce it — and when a correlated
        pair gets hot a :class:`~repro.planner.zonemap.PairZoneMap` sketch is
        built for it.  Both are charged to the execution's stats as
        ``stats-rebuild`` (one maintenance entry per crossbar and rebuilt
        structure, the same units DML maintenance charges).  Returns the
        rebuilt column names.
        """
        triggered = self.adaptive.observe(
            predicate, estimated, actual, crossbars_scanned
        )
        if stored is None:
            return triggered
        version = stored._data_version
        triggered = [
            name for name in triggered if self._rebuilt_at.get(name) != version
        ]
        entries = 0.0
        relation = stored.relation
        valid = None
        hot_pair = self.adaptive.hot_pair()
        build_pair = self.pair_map is None and hot_pair is not None
        if triggered or build_pair:
            valid = stored.valid_mask(0)
        for name in triggered:
            self.selectivity.rebuild_column(relation, name, valid=valid)
            self._rebuilt_at[name] = version
            entries += self.zonemaps.crossbars
        if triggered:
            self.adaptive.note_rebuild(len(triggered))
        if build_pair:
            self.pair_map = PairZoneMap.from_relation(
                hot_pair,
                self.zonemaps.schema,
                self.zonemaps.crossbars,
                self.zonemaps.rows,
                relation,
                valid,
            )
            self.adaptive.note_pair_sketch()
            entries += self.zonemaps.crossbars
        if triggered or build_pair:
            # Estimates (conjunct ordering) and — with a fresh pair sketch —
            # the candidate masks themselves changed: retire memoized plans.
            self._note_change()
        if entries and stats is not None and host is not None:
            self.charge_maintenance(
                stats, host, entries * timing_scale, phase="stats-rebuild"
            )
        return triggered

    def hot_column(self) -> str | None:
        """Predicate column with the largest accumulated scan volume."""
        return self.adaptive.hottest_column()

    def adaptive_snapshot(self) -> AdaptiveSnapshot:
        """Point-in-time counters of the feedback loop."""
        return self.adaptive.snapshot()

    # ------------------------------------------------------------ maintenance
    def note_insert(self, slots: np.ndarray, columns) -> None:
        """Fold an INSERT batch in: one encoded value per slot and column.

        State-identical to noting the records one at a time, in order.
        """
        slots = np.asarray(slots, dtype=np.int64)
        self.zonemaps.note_insert(slots, columns)
        self.selectivity.note_insert(columns)
        if self.pair_map is not None:
            self.pair_map.note_insert(slots, columns)
        # Only the crossbars the batch landed in changed their bounds.
        self.candidates.bump(slots // self.zonemaps.rows)
        self._version += len(slots)

    def note_delete(self, slots: np.ndarray, relation) -> None:
        slots = np.asarray(slots, dtype=np.int64)
        self.zonemaps.note_delete(slots)
        if slots.size:
            self.selectivity.note_remove(
                {
                    name: relation.columns[name][slots]
                    for name in relation.schema.names
                }
            )
        # No epoch bump: bounds only stay conservatively wide under DELETE;
        # the shrunken live prefilter is intersected fresh at plan assembly.
        self._note_change()

    def note_update(
        self, attribute: str, encoded: int, crossbars: np.ndarray, old_values
    ) -> None:
        self.zonemaps.note_update(attribute, encoded, crossbars)
        self.selectivity.note_update(attribute, old_values, encoded)
        if self.pair_map is not None:
            self.pair_map.note_update(attribute, crossbars)
        self.candidates.bump(crossbars)
        self._note_change()

    def rebuild(self, relation) -> None:
        """Refresh after a compaction left ``relation`` dense (all slots live).

        Zone maps and pair sketch are rebuilt exactly, equi-depth edges are
        re-derived; equi-width histograms are kept (the DML hooks keep them
        exact).
        """
        self.zonemaps.rebuild(relation)
        # An exact rebuild must leave no widen-only drift behind; the check
        # recomputes the bounds through an independent reduction path.
        self.zonemaps.assert_tight(relation)
        self.selectivity.rebuild(relation)
        if self.pair_map is not None:
            self.pair_map.rebuild(relation)
        # Compaction moves rows between crossbars and rebuilds the bounds
        # exactly (they may *narrow*), so every cached verdict is stale.
        self.candidates.bump_all()
        self._note_change()

    # ------------------------------------------------------------ cost model
    charge_check = staticmethod(ZoneMaps.charge_check)
    charge_maintenance = staticmethod(ZoneMaps.charge_maintenance)


def cold_walk(
    statistics: RelationStatistics,
    predicate: Predicate,
    partition_attributes: Sequence[Sequence[str]],
    crossbars_per_page: int,
) -> PruneDecision:
    """Reference plan: a fresh, uncached walk over the maintained zone maps.

    What :meth:`RelationStatistics.plan` must agree with — the same
    most-selective-first conjunct order through the uncached
    :meth:`~repro.planner.zonemap.ZoneMaps.check`, touching neither the
    candidate cache nor the plan memo, and billing the full two-level walk
    as ``entries_checked``.  The pair sketch is not consulted.  Tests
    compare cached decisions against it and take their cache-free entry
    baseline from it.
    """
    candidates: list[np.ndarray] = []
    entries = 0
    conjuncts_checked = 0
    for conjunct in partition_conjuncts(predicate, partition_attributes):
        ordered = statistics.selectivity.order_conjuncts(conjunct)
        check = statistics.zonemaps.check(ordered, crossbars_per_page)
        candidates.append(check.candidates)
        entries += check.entries_checked
        conjuncts_checked += check.conjuncts_checked
    return PruneDecision(
        candidates=candidates,
        crossbars_total=statistics.zonemaps.crossbars * len(candidates),
        crossbars_scanned=int(sum(mask.sum() for mask in candidates)),
        entries_checked=entries,
        conjuncts_checked=conjuncts_checked,
    )


# ---------------------------------------------------------------------------
# pim-vs-host routing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanDecision:
    """One routing decision of the cost planner."""

    #: Chosen execution route: ``"pim"`` or ``"host"``.
    target: str
    #: Estimated selected fraction of the records.
    estimated_selectivity: float
    #: Modelled cost estimates the decision compared, seconds.
    est_pim_time_s: float
    est_host_time_s: float


def _host_scan_read_plan(stored, query: Query) -> dict[int, tuple[list[str], int]]:
    """Columns a host scan must stream, per partition: ``(names, lines)``.

    The host streams the 16-bit words covering the referenced attributes of
    every slot; a cache line carries one word of the 32 records interleaved
    across a page's crossbars, so the line count is
    ``pages x rows x distinct words``.
    """
    by_partition: dict[int, list[str]] = {}
    for name in query.referenced_attributes:
        by_partition.setdefault(stored.partition_of(name), []).append(name)
    plan: dict[int, tuple[list[str], int]] = {}
    for partition, names in by_partition.items():
        layout = stored.layouts[partition]
        words = len(layout.words_for_fields(names))
        allocation = stored.allocations[partition]
        lines = allocation.pages * allocation.rows_per_crossbar * words
        plan[partition] = (names, lines)
    return plan


class CostPlanner:
    """Prices the PIM engine against a host scan for one store execution."""

    def route(
        self,
        query: Query,
        engine,
        selectivity: float,
        prune: PruneDecision | None,
    ) -> PlanDecision:
        """Choose the route of one query on one store's engine.

        ``selectivity`` and ``prune`` are the engine's own estimate and
        zone-map decision (``prune`` is ``None`` without pruning): the router
        prices the two routes with them and plans nothing itself.
        """
        tracer = engine.tracer
        with tracer.span("plan") as span:
            est_host = self._estimate_host(query, engine, selectivity)
            est_pim = self._estimate_pim(query, engine, selectivity, prune)
            target = "host" if est_host < est_pim else "pim"
            decision = PlanDecision(target, selectivity, est_pim, est_host)
            if tracer.enabled:
                span.set(
                    target=decision.target,
                    estimated_selectivity=decision.estimated_selectivity,
                    est_pim_time_s=decision.est_pim_time_s,
                    est_host_time_s=decision.est_host_time_s,
                )
            return decision

    # ------------------------------------------------------------- estimates
    def _estimate_host(self, query: Query, engine, selectivity: float) -> float:
        """Modelled time of :func:`execute_host_scan` for this query."""
        stored = engine.stored
        config: SystemConfig = engine.config
        scale = engine.timing_scale
        host = config.host
        read_time = sum(
            dram.stream_read_time(host, lines * dram.CACHE_LINE_BYTES * scale)
            for _, lines in _host_scan_read_plan(stored, query).values()
        )
        selected = selectivity * stored.live_count * scale
        agg_time = cpu_time(
            host, selected, host.host_agg_cycles_per_record, host.query_threads
        )
        return read_time + agg_time

    def _estimate_pim(
        self,
        query: Query,
        engine,
        selectivity: float,
        prune: PruneDecision | None,
    ) -> float:
        """Rough modelled time of the (pruned) PIM execution."""
        stored = engine.stored
        config: SystemConfig = engine.config
        scale = engine.timing_scale
        xbar = config.pim.crossbar
        gap = config.pim.request_issue_gap_s
        cp = config.pim.crossbars_per_page
        per_partition = partition_conjuncts(
            query.predicate, stored.partition_attributes
        )
        schema = stored.relation.schema
        primary = engine._primary_partition(query)
        total = 0.0
        partition_pages = []
        for index, conjunct in enumerate(per_partition):
            layout = stored.layouts[index]
            pages = stored.allocations[index].pages * scale
            if prune is not None:
                mask = prune.candidates[index]
                pages *= mask.sum() / max(1, len(mask))
            program = engine.compiler.filter_program(conjunct, schema, layout)
            total += pages * gap + program.cycles * xbar.logic_cycle_s
            partition_pages.append(pages)
        scanned_pages = partition_pages[primary]
        # Aggregation: the circuit streams every row of the primary
        # partition's scanned pages, then the host reads its result words.
        layout = stored.layouts[primary]
        circuit = config.pim.aggregation_circuit
        for aggregate in query.aggregates:
            if aggregate.attribute is None:
                reads = 1
            else:
                width = stored.layout_of(aggregate.attribute).field_width(
                    aggregate.attribute
                )
                reads = int(math.ceil(width / xbar.read_width_bits))
            total += scanned_pages * gap + layout.rows * reads * circuit.cycle_s
        total += dram.scattered_read_time(
            config.host,
            scanned_pages * len(layout.result_word_indexes),
            config.host.query_threads,
        )
        if query.group_by:
            # host-gb over the selected records (the common residual pass):
            # distinct (page, row) line groups, then the hash aggregation.
            pages = stored.pages * scale
            pairs = pages * layout.rows * (1.0 - (1.0 - selectivity) ** cp)
            # Referenced attributes may be spread over the vertical
            # partitions; count the touched row-fragment words in each.
            words = sum(
                len(part_layout.words_for_fields(
                    [name for name in query.referenced_attributes
                     if name in part_layout.fields]
                ))
                for part_layout in stored.layouts
            )
            total += dram.scattered_read_time(
                config.host, pairs * words, config.host.query_threads
            )
            total += cpu_time(
                config.host,
                selectivity * stored.live_count * scale,
                config.host.host_agg_cycles_per_record,
                config.host.query_threads,
            )
            total += dram.stream_read_time(
                config.host, stored.num_records / 8 * scale
            )
        return total


def execute_host_scan(engine, query: Query, decision: PlanDecision):
    """Execute a query by streaming the relation through the host load path.

    The functional answer is the reference aggregation over the live ground
    truth — bit-exact with the PIM engine by construction.  The modelled cost
    is a bandwidth-bound stream of the referenced columns plus the host-side
    hash aggregation of the selected records, charged through the same
    :class:`~repro.pim.stats.PimStats` the PIM path uses.  The execution
    carries the router's estimate; the engine feeds it back.
    """
    from repro.core.executor import QueryExecution
    from repro.host.aggregator import host_group_aggregate
    from repro.host.readpath import HostReadModel

    stored = engine.stored
    config: SystemConfig = engine.config
    scale = engine.timing_scale
    with engine.tracer.span("host-scan", label=engine.label):
        stats = PimStats()
        engine.tracer.bind(stats)
        read_model = HostReadModel(config, stats, traffic_scale=scale)

        mask = evaluate_predicate(query.predicate, stored.relation)
        mask &= stored.valid_mask(0)
        for _, lines in _host_scan_read_plan(stored, query).values():
            read_model.charge_stream_lines(lines, phase="host-scan-read")
        group_columns = {
            name: stored.relation.column(name)[mask] for name in query.group_by
        }
        value_columns = {
            a.attribute: stored.relation.column(a.attribute)[mask]
            for a in query.aggregates
            if a.attribute is not None
        }
        rows = host_group_aggregate(
            group_columns,
            value_columns,
            query.aggregates,
            config.host,
            stats=stats,
            threads=config.host.query_threads,
            phase="host-scan-agg",
            workload_scale=scale,
        )
        # Normalize by the live rows, not the slots in use: tombstoned slots
        # can never be selected (the valid mask was just ANDed in), and the
        # PIM path and the selectivity estimator both speak live-row fractions.
        selectivity = (
            float(mask.sum() / stored.live_count) if stored.live_count else 0.0
        )
        return QueryExecution(
            query=query,
            label=f"{engine.label}/host-scan",
            rows=rows,
            stats=stats,
            selectivity=selectivity,
            total_subgroups=len(rows) if query.group_by else 1,
            subgroups_in_sample=0,
            pim_subgroups=0,
            max_writes_per_row=0,
            plan=None,
            crossbars_total=sum(a.crossbars for a in stored.allocations),
            crossbars_scanned=0,
            estimated_selectivity=decision.estimated_selectivity,
            route="host",
        )
