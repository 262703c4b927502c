"""Self-tuning storage under churn — the feedback loop's acceptance story.

An *unclustered* tiling of the pre-joined SSB relation (rows shuffled, so
every crossbar spans nearly the full key domain) serves selective point
queries on ``lo_orderkey``.  Zone maps cannot prune a single crossbar: every
probe scans the whole relation.  Then the closed loop runs:

1. **Churn** — a range DELETE tombstones ~35% of the rows (crossing the
   compaction threshold), INSERTs reuse a few slots, a point UPDATE patches
   a surviving key.  DML runs *pruned*: each statement consults the zone
   maps like the query engine and a lockstep twin replays it broadcast to
   prove the tombstoned/patched bits identical.
2. **Feedback** — replayed point queries on the deleted key range estimate
   non-zero selectivity but select nothing; the per-column error
   accumulator crosses its threshold and rebuilds the ``lo_orderkey``
   histogram equi-depth from the live rows.  The same executions make
   ``lo_orderkey`` the relation's hottest column by scan volume.
3. **Re-clustering compaction** — fragmentation has crossed the threshold,
   so compaction rewrites the live rows densely, *sorted by the hottest
   column*, and rebuilds zone maps and histograms exactly.
4. **Payoff** — the same point probes now touch a handful of crossbars: the
   cold zone-map walk checks >= 8x fewer entries and the filters scan
   >= 8x fewer crossbars.

Gates (both simulation backends, identical modelled stats):

* bit-exact probe rows packed vs bool, every phase;
* bit-identical per-execution ``PimStats`` phase timings packed vs bool;
* pruned DELETE/UPDATE bit-exact with the broadcast twin (valid masks and
  ground-truth columns compared after every statement);
* >= 1 error-triggered equi-depth rebuild, hottest column == probe column;
* compaction performed and clustered by the probe column;
* >= 8x reduction in cold-walk zone-map entries and in crossbars scanned.

``render`` produces the human-readable report and ``artifact`` the
``BENCH_cluster.json`` trajectory record consumed by CI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.config import DEFAULT_CONFIG
from repro.core.executor import PimQueryEngine
from repro.db import dml
from repro.db.query import Aggregate, Comparison, Query
from repro.db.relation import Relation
from repro.db.storage import StoredRelation
from repro.db.update import execute_update
from repro.experiments import emit
from repro.experiments.common import default_scale_factor
from repro.pim.controller import PimExecutor
from repro.pim.module import PimModule
from repro.planner.planner import cold_walk
from repro.ssb import build_ssb_prejoined, generate
from repro.ssb.prejoined import max_aggregated_width

BACKENDS = ("packed", "bool")

#: Column the probes filter on and compaction learns to cluster by.
PROBE_COLUMN = "lo_orderkey"

#: Slot pages of the tiled relation (12 pages -> a ~9x cold-walk entry
#: ratio: unclustered 12 + 12*32 entries vs clustered 12 + 1*32).
DEFAULT_PAGES = 12

#: Point probes per measured phase.
DEFAULT_PROBES = 12

#: Queries replayed against the deleted key range to feed the error
#: accumulator (each contributes ~1.0 relative error to the probe column).
DEFAULT_ERROR_QUERIES = 8

#: Fraction of the key domain the churn DELETE tombstones.
DELETE_FRACTION = 0.35

#: Records re-inserted (into reused tombstone slots) during churn.
DEFAULT_INSERTS = 64

#: The acceptance gates.
MIN_ENTRY_REDUCTION = 8.0
MIN_SCAN_REDUCTION = 8.0


def _build_unclustered(scale_factor: float, pages: int, seed: int) -> Relation:
    """Tile the pre-joined SSB relation to ``pages`` pages and shuffle it.

    Shuffling makes the relation unclustered *by construction*: every
    crossbar's ``lo_orderkey`` bounds span nearly the whole key domain, so
    zone maps prune nothing until compaction re-clusters.
    """
    dataset = generate(scale_factor=scale_factor, skew=0.5, seed=42)
    prejoined = build_ssb_prejoined(dataset.database)
    target = pages * DEFAULT_CONFIG.pim.records_per_page
    reps = -(-target // len(prejoined))  # ceil
    rng = np.random.default_rng(seed)
    order = rng.permutation(target)
    columns = {
        name: np.tile(column, reps)[:target][order]
        for name, column in prejoined.columns.items()
    }
    return Relation(prejoined.schema, columns)


def _point_query(key: int, tag: str) -> Query:
    return Query(
        name=f"probe-{tag}-{key}",
        predicate=Comparison(PROBE_COLUMN, "==", int(key)),
        aggregates=(Aggregate("sum", "lo_revenue", "revenue"),),
    )


@dataclass
class PhaseMeasurement:
    """One engine's trip through one measured probe phase."""

    #: Per-probe result rows (encoded), for cross-engine comparison.
    rows: list[dict] = field(default_factory=list)
    #: Per-probe PimStats fingerprints, for cross-backend comparison.
    fingerprints: list[dict] = field(default_factory=list)
    #: Crossbars the probes' filters scanned, summed.
    crossbars_scanned: int = 0
    #: Zone-map entries a *cold* cache-free walk checks for the probes.
    cold_entries: int = 0


@dataclass
class EngineRun:
    """One backend's full trip through the workload."""

    backend: str
    wall_s: float = 0.0
    pre: PhaseMeasurement = field(default_factory=PhaseMeasurement)
    post: PhaseMeasurement = field(default_factory=PhaseMeasurement)
    rebuilds: int = 0
    observations: int = 0
    hot_column: str | None = None
    compaction_performed: bool = False
    clustered_by: str | None = None
    fragmentation_before: float = 0.0


@dataclass
class ClusteringResults:
    """Everything ``bench_clustering`` reports and gates on."""

    scale_factor: float
    pages: int
    probes: int
    error_queries: int
    runs: list[EngineRun] = field(default_factory=list)
    #: Pruned DELETE/UPDATE left bit-identical state to the broadcast twin.
    dml_lockstep: bool = True

    def run(self, backend: str) -> EngineRun:
        for candidate in self.runs:
            if candidate.backend == backend:
                return candidate
        raise KeyError(f"no run for {backend}")

    @property
    def backends_agree(self) -> bool:
        """Probe rows identical across the simulation backends."""
        reference = self.runs[0]
        return all(
            run.pre.rows == reference.pre.rows
            and run.post.rows == reference.post.rows
            for run in self.runs[1:]
        )

    @property
    def stats_identical(self) -> bool:
        """Per-probe modelled stats identical across the backends."""
        reference = self.runs[0]
        return all(
            run.pre.fingerprints == reference.pre.fingerprints
            and run.post.fingerprints == reference.post.fingerprints
            for run in self.runs[1:]
        )

    @property
    def loop_closed(self) -> bool:
        """Every backend rebuilt, ranked the probe column hottest and
        re-clustered by it."""
        return all(
            run.rebuilds >= 1
            and run.hot_column == PROBE_COLUMN
            and run.compaction_performed
            and run.clustered_by == PROBE_COLUMN
            for run in self.runs
        )

    def entry_reduction(self, backend: str) -> float:
        run = self.run(backend)
        if run.post.cold_entries <= 0:
            return float("inf") if run.pre.cold_entries > 0 else 1.0
        return run.pre.cold_entries / run.post.cold_entries

    def scan_reduction(self, backend: str) -> float:
        run = self.run(backend)
        if run.post.crossbars_scanned <= 0:
            return float("inf") if run.pre.crossbars_scanned > 0 else 1.0
        return run.pre.crossbars_scanned / run.post.crossbars_scanned

    def min_entry_reduction(self) -> float:
        return min(self.entry_reduction(r.backend) for r in self.runs)

    def min_scan_reduction(self) -> float:
        return min(self.scan_reduction(r.backend) for r in self.runs)


def _copy_relation(relation: Relation) -> Relation:
    return Relation(
        relation.schema,
        {name: column.copy() for name, column in relation.columns.items()},
    )


def _build_engine(
    relation: Relation, backend: str, label: str, aggregation_width: int
) -> PimQueryEngine:
    system = DEFAULT_CONFIG.with_backend(backend)
    module = PimModule(system)
    stored = StoredRelation(
        relation, module, label=label,
        aggregation_width=aggregation_width,
        reserve_bulk_aggregation=False,
    )
    return PimQueryEngine(
        stored, config=system, label=label, pruning=True,
    )


def _fingerprint(execution) -> dict:
    """The cross-backend identity of one execution's modelled stats."""
    stats = execution.stats
    return {
        "time_by_phase": dict(sorted(stats.time_by_phase.items())),
        "logic_ops": stats.logic_ops,
        "bits_read": stats.bits_read,
        "bits_written": stats.bits_written,
        "energy_j": stats.total_energy_j,
    }


def _cold_entries(engine: PimQueryEngine, query: Query) -> int:
    """Zone-map entries a cache-free cold walk checks for one predicate.

    :func:`~repro.planner.planner.cold_walk` over the engine's *maintained*
    zone maps bills the full two-level walk — decoupling the entry count
    from the engine's cache state.
    """
    stored = engine.stored
    return cold_walk(
        stored.statistics, query.predicate, stored.partition_attributes,
        engine.config.pim.crossbars_per_page,
    ).entries_checked


def _measure_phase(
    engine: PimQueryEngine, probes: list[Query]
) -> PhaseMeasurement:
    measurement = PhaseMeasurement()
    for query in probes:
        measurement.cold_entries += _cold_entries(engine, query)
        execution = engine.execute(query)
        measurement.rows.append(
            {str(k): dict(v) for k, v in sorted(execution.rows.items())}
        )
        measurement.fingerprints.append(_fingerprint(execution))
        measurement.crossbars_scanned += execution.crossbars_scanned
    return measurement


def _lockstep_equal(stored: StoredRelation, twin: StoredRelation) -> bool:
    """Bit-level agreement of the pruned engine with the broadcast twin."""
    if not np.array_equal(stored.valid_mask(0), twin.valid_mask(0)):
        return False
    return all(
        np.array_equal(stored.relation.columns[name], twin.relation.columns[name])
        for name in stored.relation.schema.names
    )


def run_clustering(
    scale_factor: float | None = None,
    pages: int = DEFAULT_PAGES,
    probes: int = DEFAULT_PROBES,
    error_queries: int = DEFAULT_ERROR_QUERIES,
    inserts: int = DEFAULT_INSERTS,
    seed: int = 11,
) -> ClusteringResults:
    """Run the closed loop on every backend plus the broadcast-DML twin."""
    if scale_factor is None:
        scale_factor = default_scale_factor()
    unclustered = _build_unclustered(scale_factor, pages, seed)
    aggregation_width = max_aggregated_width(unclustered)
    keys = unclustered.columns[PROBE_COLUMN]
    key_max = int(keys.max())
    delete_below = int(key_max * DELETE_FRACTION)

    # Probes target surviving keys, spread across the surviving domain.
    rng = np.random.default_rng(seed)
    survivors = np.unique(keys[keys > delete_below])
    probe_keys = survivors[
        np.linspace(0, len(survivors) - 1, probes).astype(int)
    ]
    probe_queries = [_point_query(int(k), "live") for k in probe_keys]
    # Error feeders target tombstoned keys: the stale histogram estimates
    # non-zero selectivity, the scan selects nothing, and each miss adds
    # ~1.0 relative error to the probe column's accumulator.
    doomed = np.unique(keys[keys <= delete_below])
    error_keys = doomed[
        np.linspace(0, len(doomed) - 1, error_queries).astype(int)
    ]
    error_feed = [_point_query(int(k), "gone") for k in error_keys]

    # Churn statements (shared verbatim by every engine and the twin).
    delete_predicate = Comparison(
        PROBE_COLUMN, "between", low=1, high=delete_below
    )
    survivor_rows = np.nonzero(keys > delete_below)[0]
    picks = rng.choice(survivor_rows, size=inserts, replace=False)
    names = list(unclustered.schema.names)
    insert_records = [
        {name: int(unclustered.columns[name][i]) for name in names}
        for i in picks
    ]
    update_key = int(probe_keys[len(probe_keys) // 2])
    update_predicate = Comparison(PROBE_COLUMN, "==", update_key)
    update_assignments = {"lo_tax": 3}

    results = ClusteringResults(
        scale_factor=scale_factor, pages=pages,
        probes=probes, error_queries=error_queries,
    )

    # The broadcast twin: packed backend, same queries, broadcast DML.
    twin = _build_engine(
        _copy_relation(unclustered), "packed", "twin-broadcast",
        aggregation_width,
    )

    for backend in BACKENDS:
        run = EngineRun(backend=backend)
        engine = _build_engine(
            _copy_relation(unclustered), backend, f"adaptive-{backend}",
            aggregation_width,
        )
        stored = engine.stored
        lockstep = backend == "packed"
        start = time.perf_counter()

        # Phase 1: unclustered baseline — every probe scans everything.
        run.pre = _measure_phase(engine, probe_queries)
        if lockstep:
            _measure_phase(twin, probe_queries)

        # Phase 2: churn, pruned vs the broadcast twin in lockstep.
        executor = PimExecutor(engine.config)
        twin_executor = PimExecutor(twin.config)
        dml.execute_delete(stored, delete_predicate, executor, pruned=True)
        if lockstep:
            dml.execute_delete(
                twin.stored, delete_predicate, twin_executor, pruned=False,
            )
            results.dml_lockstep &= _lockstep_equal(stored, twin.stored)
        dml.execute_insert(stored, insert_records, executor, encoded=True)
        if lockstep:
            dml.execute_insert(
                twin.stored, insert_records, twin_executor, encoded=True
            )
        execute_update(
            stored, update_predicate, update_assignments, executor,
            pruned=True,
        )
        if lockstep:
            execute_update(
                twin.stored, update_predicate, update_assignments,
                twin_executor, pruned=False,
            )
            results.dml_lockstep &= _lockstep_equal(stored, twin.stored)

        # Phase 3: feed the error accumulator until it rebuilds.
        for query in error_feed:
            engine.execute(query)
        if lockstep:
            for query in error_feed:
                twin.execute(query)
        snapshot = stored.statistics.adaptive_snapshot()
        run.rebuilds = snapshot.rebuilds
        run.observations = snapshot.observations
        run.hot_column = snapshot.hot_column

        # Phase 4: threshold compaction re-clusters by the hottest column.
        compaction = dml.execute_compaction(stored, executor)
        run.compaction_performed = compaction.performed
        run.clustered_by = compaction.clustered_by
        run.fragmentation_before = compaction.fragmentation_before
        if lockstep:
            dml.execute_compaction(twin.stored, twin_executor)
            results.dml_lockstep &= _lockstep_equal(stored, twin.stored)

        # Phase 5: the payoff replay over the clustered relation.
        run.post = _measure_phase(engine, probe_queries)
        if lockstep:
            twin_post = _measure_phase(twin, probe_queries)
            results.dml_lockstep &= twin_post.rows == run.post.rows

        run.wall_s = time.perf_counter() - start
        results.runs.append(run)
    return results


def render(results: ClusteringResults) -> str:
    """Human-readable closed-loop report."""
    lines = [
        f"Self-tuning storage: SF {results.scale_factor}, "
        f"{results.pages} pages tiled+shuffled (unclustered), "
        f"{results.probes} point probes on {PROBE_COLUMN}, "
        f"{results.error_queries} error feeders, "
        f"{DELETE_FRACTION:.0%} range DELETE",
        f"{'backend':<8} {'pre entries':>12} {'post entries':>13} "
        f"{'pre xbars':>10} {'post xbars':>11} {'rebuilds':>9} {'wall [s]':>9}",
    ]
    for run in results.runs:
        lines.append(
            f"{run.backend:<8} {run.pre.cold_entries:>12} "
            f"{run.post.cold_entries:>13} {run.pre.crossbars_scanned:>10} "
            f"{run.post.crossbars_scanned:>11} {run.rebuilds:>9} "
            f"{run.wall_s:>9.3f}"
        )
    for run in results.runs:
        lines.append(
            f"{run.backend}: cold-walk entries cut "
            f"{results.entry_reduction(run.backend):.1f}x, crossbars scanned "
            f"cut {results.scan_reduction(run.backend):.1f}x (gates >= "
            f"{MIN_ENTRY_REDUCTION:.0f}x / {MIN_SCAN_REDUCTION:.0f}x); "
            f"hot column {run.hot_column}, clustered by {run.clustered_by} "
            f"at {run.fragmentation_before:.0%} fragmentation"
        )
    lines.append(
        f"bit-exact rows across backends: "
        f"{'yes' if results.backends_agree else 'NO'}; "
        f"modelled stats identical: "
        f"{'yes' if results.stats_identical else 'NO'}; "
        f"pruned DML lockstep with broadcast twin: "
        f"{'yes' if results.dml_lockstep else 'NO'}; "
        f"loop closed: {'yes' if results.loop_closed else 'NO'}"
    )
    return "\n".join(lines)


def artifact(results: ClusteringResults) -> dict:
    """The ``BENCH_cluster.json`` trajectory record."""
    return {
        "benchmark": "clustering",
        "scale_factor": results.scale_factor,
        "pages": results.pages,
        "probes": results.probes,
        "error_queries": results.error_queries,
        "probe_column": PROBE_COLUMN,
        "backends_agree": results.backends_agree,
        "stats_identical": results.stats_identical,
        "dml_lockstep": results.dml_lockstep,
        "loop_closed": results.loop_closed,
        "min_entry_reduction": (
            None if results.min_entry_reduction() == float("inf")
            else results.min_entry_reduction()
        ),
        "min_scan_reduction": (
            None if results.min_scan_reduction() == float("inf")
            else results.min_scan_reduction()
        ),
        "runs": [
            {
                "backend": run.backend,
                "wall_s": run.wall_s,
                "pre_cold_entries": run.pre.cold_entries,
                "post_cold_entries": run.post.cold_entries,
                "pre_crossbars_scanned": run.pre.crossbars_scanned,
                "post_crossbars_scanned": run.post.crossbars_scanned,
                "rebuilds": run.rebuilds,
                "observations": run.observations,
                "hot_column": run.hot_column,
                "compaction_performed": run.compaction_performed,
                "clustered_by": run.clustered_by,
                "fragmentation_before": run.fragmentation_before,
            }
            for run in results.runs
        ],
    }


def write_artifact(results: ClusteringResults, path) -> None:
    """Persist the schema-versioned trajectory artifact as JSON."""
    emit.write_artifact(
        path,
        "clustering",
        artifact(results),
        gates={
            "loop_closed": results.loop_closed,
            "dml_lockstep": results.dml_lockstep,
            "backends_agree": results.backends_agree,
            "stats_identical": results.stats_identical,
        },
    )
