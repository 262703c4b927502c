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
  walk exits early.  It intersects the per-fragment candidate sets of the
  :class:`~repro.planner.candidates.CandidateSetCache`, so it bills only the
  fragments that cache had to walk or re-validate.
* :class:`CostPlanner` prices the two routes of one store execution: the
  PIM engine (broadcast cost bounded by the pruned crossbars) against a host
  scan, which can win for a high-selectivity query over a small relation —
  :func:`execute_host_scan` streams the referenced columns through the
  host's load path and hash-aggregates on the CPU, charging the same
  :class:`~repro.pim.stats.PimStats` machinery so the two routes stay
  comparable.  The router estimates, plans and traces nothing itself: the
  engine (:meth:`~repro.core.executor.PimQueryEngine.execute`) hands it the
  selectivity estimate and zone-map decision, memoises all three per
  statistics version (a replay decides nothing again), runs the chosen route
  and feeds the execution's scan volume back
  (:meth:`RelationStatistics.observe_execution`).

Only DML changes the statistics; a query reads them and feeds the
accumulator.  The histograms are built equi-depth once, when the store
loads, and keep their edges for the life of the store; the DML hooks keep
their counts exact.  Compaction rebuilds the zone maps and the
correlated-pair sketch, and builds the sketch once the feedback names a hot
pair.
"""

from __future__ import annotations

import math
from functools import partial
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.config import SystemConfig
from repro.db.compiler import partition_conjuncts
from repro.db.query import Comparison, Predicate, Query, evaluate_predicate
from repro.host import dram
from repro.host.processor import cpu_time
from repro.pim.stats import PimStats
from repro.planner.adaptive import AdaptiveController, AdaptiveSnapshot
from repro.planner.candidates import CandidateCacheStats, CandidateSetCache
from repro.planner.selectivity import SelectivityModel
from repro.planner.zonemap import PairZoneMap, PruneDecision, ZoneMaps


class RelationStatistics:
    """Zone maps plus histograms of one stored relation, kept under DML."""

    def __init__(self, zonemaps: ZoneMaps, selectivity: SelectivityModel) -> None:
        self.zonemaps = zonemaps
        self.selectivity = selectivity
        #: Per-fragment candidate sets with per-crossbar epoch invalidation.
        self.candidates = CandidateSetCache(zonemaps)
        #: Feedback accumulator: hot columns, hot pairs.
        self.adaptive = AdaptiveController()
        #: Correlated-pair sketch, built by the first compaction after the
        #: tracker names a hot pair.
        self.pair_map: PairZoneMap | None = None
        # Relation-wide change counter, moved only by DML and compaction:
        # *any* maintenance event (including DELETE, which changes the live
        # prefilter but not the cached fragment masks) retires the decisions
        # PimQueryEngine memoises per version, which are then cheaply
        # reassembled from the fragment cache.
        self._version = 0

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

        Built by intersecting cached fragment candidate sets.  Per partition
        the live prefilter is applied fresh (DELETEs shrink it without
        touching the cache) and the fragments — ordered most-selective first
        — narrow it; the walk exits early once no candidate remains, exactly
        like the uncached :meth:`~repro.planner.zonemap.ZoneMaps.check`.  The
        returned candidate masks are read-only; ``entries_checked`` is the
        zone-map work this call did: fragment walks and re-validations, plus
        the pair sketch's crossbars when its verdict is not cached under the
        current epochs.
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
                    pair_mask, entries = self.candidates.pair_lookup(
                        ("pair", self.pair_map.attributes, *pair_masks),
                        partial(self.pair_map.possible, *pair_masks),
                    )
                    mask &= pair_mask
                    consulted += entries
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
        return self.selectivity.estimate(predicate)

    # -------------------------------------------------------------- feedback
    def observe_execution(self, predicate: Predicate, crossbars_scanned: int) -> None:
        """Fold one execution's scan volume into the feedback accumulator.

        Bookkeeping only: a query changes no statistic a plan reads.  The
        decisions the accumulator reaches (the re-cluster key, the pair to
        sketch) are applied by the next compaction (:meth:`rebuild`).
        """
        self.adaptive.observe(predicate, crossbars_scanned)

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

        Zone maps and the pair sketch are rebuilt exactly from the ground
        truth.  A store without a sketch gets one
        here once the feedback names a hot pair: compaction is where the
        feedback's decisions are applied, and the compaction's zone-map
        maintenance charge covers the build.  The histograms are kept:
        moving rows changes no value, the DML hooks keep their counts exact
        and their edges stay those of the load.
        """
        self.zonemaps.rebuild(relation.columns)
        # An exact rebuild must leave no widen-only drift behind; the check
        # recomputes the bounds through an independent reduction path.
        self.zonemaps.assert_tight(relation)
        hot_pair = self.adaptive.hot_pair()
        if self.pair_map is None and hot_pair is not None:
            zonemaps = self.zonemaps
            self.pair_map = PairZoneMap(
                hot_pair, zonemaps.schema, zonemaps.crossbars, zonemaps.rows
            )
            self.adaptive.rebuilds += 1
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
    :meth:`~repro.planner.zonemap.ZoneMaps.check`, touching no memo (neither
    the candidate cache nor any engine's decision memo), and billing the
    full two-level walk as ``entries_checked``.  The pair sketch is not consulted.  Tests
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
        prune: PruneDecision,
    ) -> PlanDecision:
        """Choose the route of one query on one store's engine.

        ``selectivity`` and ``prune`` are the engine's own estimate and
        candidate crossbars (its zone-map decision, or ``engine.unpruned``
        without pruning): the router prices the two routes with them and
        plans nothing itself.  The
        engine memoises the result and traces it in its ``plan`` span.
        """
        est_host = self._estimate_host(query, engine, selectivity)
        est_pim = self._estimate_pim(query, engine, selectivity, prune)
        target = "host" if est_host < est_pim else "pim"
        return PlanDecision(target, selectivity, est_pim, est_host)

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
        prune: PruneDecision,
    ) -> float:
        """Rough modelled time of the PIM execution on ``prune``'s crossbars."""
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
            mask = prune.candidates[index]
            pages = stored.allocations[index].pages * scale
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
