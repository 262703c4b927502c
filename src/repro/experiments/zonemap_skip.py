"""Zone-map crossbar skipping — modelled-latency and wall-clock wins.

The planner's acceptance story: on selective SSB-style point/range queries
over a day-clustered relation, consulting the per-crossbar zone maps and
broadcasting the filter program (and the aggregation-circuit pass) only to
candidate crossbars must

* return **bit-exact** rows with the unpruned broadcast, on both simulation
  backends,
* scan **strictly fewer** crossbars,
* cut the **modelled latency** by at least 2x at serving scale (the modelled
  relation is ``timing_scale`` times the stored one), and
* stay bit-exact **under DML**, with the zone-map maintenance charged to
  :class:`~repro.pim.stats.PimStats` (``zonemap-maintain``).

A control query on an unclustered column shows the other side of the coin:
zone maps cannot prune it, so the pruned path pays the (small) check cost on
top of the full broadcast.  A K=4 sharded service demonstrates shard-level
skipping: the point query's zone maps rule out every crossbar of three of
the four shards, which skip execution entirely.

``render`` produces the human-readable report and ``artifact`` the
``BENCH_planner.json`` trajectory record consumed by CI.
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
from repro.db.schema import Schema, dict_attribute, int_attribute
from repro.db.storage import StoredRelation
from repro.experiments import emit
from repro.pim.module import PimModule
from repro.service import QueryService

BACKENDS = ("packed", "bool")
REGIONS = [f"R{i}" for i in range(8)]

#: The modelled relation is this many times the stored one (2 pages stored
#: -> 2048 modelled pages, a serving-scale fact table).
DEFAULT_TIMING_SCALE = 1024.0

#: Day domain of the clustered column (the data is sorted by day, so each
#: crossbar covers a narrow day range — the classic zone-map-friendly load).
DAY_DOMAIN = 2048

QUERIES = {
    "point": Query(
        "point",
        Comparison("day", "==", 777),
        (Aggregate("sum", "amount"), Aggregate("count")),
    ),
    "range": Query(
        "range",
        Comparison("day", "between", low=700, high=760),
        (Aggregate("sum", "amount"), Aggregate("min", "amount")),
    ),
    # Unclustered column: every crossbar holds every region, so the zone
    # maps prune nothing and the pruned path only adds the check cost.
    "control": Query(
        "control",
        Comparison("region", "==", "R3"),
        (Aggregate("sum", "amount"), Aggregate("count")),
    ),
}

#: Queries the gates apply to (selective and prunable by clustering).
SELECTIVE = ("point", "range")


def orders_schema() -> Schema:
    return Schema("orders", [
        int_attribute("day", 16, source="fact"),
        int_attribute("amount", 20, source="fact"),
        dict_attribute("region", REGIONS, source="dim"),
    ])


def orders_relation(records: int, seed: int) -> Relation:
    rng = np.random.default_rng(seed)
    return Relation(orders_schema(), {
        "day": np.sort(rng.integers(0, DAY_DOMAIN, records).astype(np.uint64)),
        "amount": rng.integers(0, 1 << 20, records).astype(np.uint64),
        "region": rng.integers(0, len(REGIONS), records).astype(np.uint64),
    })


@dataclass
class QueryComparison:
    """One query's pruned-vs-unpruned measurement on one backend."""

    name: str
    rows_match: bool
    time_unpruned_s: float
    time_pruned_s: float
    crossbars_total: int
    scanned_unpruned: int
    scanned_pruned: int
    wall_unpruned_s: float
    wall_pruned_s: float

    @property
    def modelled_speedup(self) -> float:
        return self.time_unpruned_s / self.time_pruned_s if self.time_pruned_s else 0.0

    @property
    def wall_speedup(self) -> float:
        return self.wall_unpruned_s / self.wall_pruned_s if self.wall_pruned_s else 0.0


@dataclass
class BackendRun:
    """One backend's trip through the comparison suite."""

    backend: str
    comparisons: list[QueryComparison] = field(default_factory=list)
    #: Point-query rows after the DML interlude, pruned vs unpruned.
    dml_rows_match: bool = True
    #: Modelled seconds the DML interlude charged to zone-map maintenance.
    maintenance_time_s: float = 0.0
    #: Encoded result rows per query, for cross-backend comparison.
    rows: dict[str, dict] = field(default_factory=dict)


@dataclass
class ZonemapSkipResults:
    """Everything ``bench_zonemap_skip`` reports and gates on."""

    records: int
    timing_scale: float
    runs: list[BackendRun] = field(default_factory=list)
    shards: int = 0
    shards_skipped: int = 0
    sharded_rows_match: bool = True

    @property
    def bit_exact(self) -> bool:
        """Pruned rows == unpruned rows, everywhere, including under DML."""
        per_backend = all(
            comparison.rows_match and run.dml_rows_match
            for run in self.runs
            for comparison in run.comparisons
        )
        return per_backend and self.backends_agree and self.sharded_rows_match

    @property
    def backends_agree(self) -> bool:
        if len(self.runs) < 2:
            return True
        reference = self.runs[0].rows
        return all(run.rows == reference for run in self.runs[1:])

    @property
    def strictly_fewer_scanned(self) -> bool:
        """Every selective query scanned strictly fewer crossbars pruned."""
        return all(
            comparison.scanned_pruned < comparison.scanned_unpruned
            for run in self.runs
            for comparison in run.comparisons
            if comparison.name in SELECTIVE
        )

    @property
    def maintenance_charged(self) -> bool:
        return all(run.maintenance_time_s > 0.0 for run in self.runs)

    def min_selective_speedup(self) -> float:
        speedups = [
            comparison.modelled_speedup
            for run in self.runs
            for comparison in run.comparisons
            if comparison.name in SELECTIVE
        ]
        return min(speedups) if speedups else 0.0


def _build_engine(
    relation: Relation, backend: str, pruning: bool, timing_scale: float
) -> PimQueryEngine:
    module = PimModule(DEFAULT_CONFIG.with_backend(backend))
    stored = StoredRelation(
        relation, module, label=f"orders/{backend}/{'pruned' if pruning else 'full'}",
        aggregation_width=20, reserve_bulk_aggregation=False,
    )
    return PimQueryEngine(
        stored, config=module.system_config, label="orders",
        timing_scale=timing_scale, pruning=pruning,
    )


def _wall_time(engine: PimQueryEngine, query: Query, repeats: int) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        engine.execute(query)
    return (time.perf_counter() - start) / repeats


def _run_backend(
    backend: str, records: int, seed: int, timing_scale: float, wall_repeats: int
) -> BackendRun:
    relation = orders_relation(records, seed)
    unpruned = _build_engine(relation, backend, False, timing_scale)
    pruned = _build_engine(orders_relation(records, seed), backend, True, timing_scale)
    # Wall-clock is measured on engines of their own, so the timing repeats
    # do not feed the statistics of the engines whose modelled cost is read.
    wall_full = _build_engine(
        orders_relation(records, seed), backend, False, timing_scale
    )
    wall_pruned = _build_engine(
        orders_relation(records, seed), backend, True, timing_scale
    )
    run = BackendRun(backend=backend)

    for name, query in QUERIES.items():
        full = unpruned.execute(query)
        skip = pruned.execute(query)
        run.comparisons.append(QueryComparison(
            name=name,
            rows_match=full.rows == skip.rows,
            time_unpruned_s=full.time_s,
            time_pruned_s=skip.time_s,
            crossbars_total=full.crossbars_total,
            scanned_unpruned=full.crossbars_scanned,
            scanned_pruned=skip.crossbars_scanned,
            wall_unpruned_s=_wall_time(wall_full, query, wall_repeats),
            wall_pruned_s=_wall_time(wall_pruned, query, wall_repeats),
        ))
        run.rows[name] = {str(k): v for k, v in sorted(skip.rows.items())}

    # DML interlude: tombstone a day slice, insert records with a brand-new
    # day value (the zone maps must widen), then prove the pruned point query
    # still agrees with the unpruned one — on the same mutated relation.
    fresh_day = DAY_DOMAIN - 1
    delete = Comparison("day", "between", low=400, high=420)
    inserts = [
        {"day": fresh_day, "amount": 1000 + i, "region": REGIONS[i % len(REGIONS)]}
        for i in range(64)
    ]
    probe = Query(
        "dml-probe",
        Comparison("day", "==", fresh_day),
        (Aggregate("sum", "amount"), Aggregate("count")),
    )
    maintenance = 0.0
    for engine in (unpruned, pruned):
        from repro.pim.controller import PimExecutor

        executor = PimExecutor(engine.config)
        dml.execute_delete(engine.stored, delete, executor)
        dml.execute_insert(engine.stored, inserts, executor)
        maintenance += executor.stats.time_by_phase.get("zonemap-maintain", 0.0)
    full = unpruned.execute(probe)
    skip = pruned.execute(probe)
    run.dml_rows_match = full.rows == skip.rows and bool(full.rows)
    run.maintenance_time_s = maintenance
    run.rows["dml-probe"] = {str(k): v for k, v in sorted(skip.rows.items())}
    return run


def _run_sharded(
    records: int, seed: int, timing_scale: float, shards: int
) -> tuple[int, bool]:
    """Shard-level skipping through the service: ``(skipped, rows_match)``."""
    relation = orders_relation(records, seed)
    service = QueryService()
    engine = service.register_sharded(
        "orders", relation, shards=shards, timing_scale=timing_scale,
        aggregation_width=20, reserve_bulk_aggregation=False,
    )
    execution = service.execute(QUERIES["point"])
    engine.close()
    reference = _build_engine(
        orders_relation(records, seed), DEFAULT_CONFIG.backend, False, timing_scale
    ).execute(QUERIES["point"])
    return execution.shards_skipped, execution.rows == reference.rows


def run_zonemap_skip(
    records: int = 65536,
    seed: int = 23,
    timing_scale: float = DEFAULT_TIMING_SCALE,
    shards: int = 4,
    wall_repeats: int = 3,
) -> ZonemapSkipResults:
    """Run the pruned-vs-unpruned comparison on every backend."""
    results = ZonemapSkipResults(records=records, timing_scale=timing_scale)
    for backend in BACKENDS:
        results.runs.append(
            _run_backend(backend, records, seed, timing_scale, wall_repeats)
        )
    results.shards = shards
    results.shards_skipped, results.sharded_rows_match = _run_sharded(
        records, seed, timing_scale, shards
    )
    return results


def render(results: ZonemapSkipResults) -> str:
    """Human-readable report."""
    lines = [
        f"Zone-map crossbar skipping: {results.records} records "
        f"(modelled x{results.timing_scale:.0f}), queries pruned vs broadcast",
        f"{'backend':<8} {'query':<9} {'scanned':>12} {'modelled':>20} "
        f"{'speedup':>8} {'wall':>8}",
    ]
    for run in results.runs:
        for c in run.comparisons:
            lines.append(
                f"{run.backend:<8} {c.name:<9} "
                f"{c.scanned_pruned:>4}/{c.scanned_unpruned:<4}of{c.crossbars_total:<4}"
                f"{c.time_pruned_s * 1e6:>9.2f}/{c.time_unpruned_s * 1e6:<9.2f}us"
                f"{c.modelled_speedup:>7.2f}x {c.wall_speedup:>7.2f}x"
            )
    for run in results.runs:
        lines.append(
            f"{run.backend} DML probe bit-exact: "
            f"{'yes' if run.dml_rows_match else 'NO'}; zone-map maintenance "
            f"charged {run.maintenance_time_s * 1e6:.3f} us"
        )
    lines.append(
        f"sharded (K={results.shards}): {results.shards_skipped} shards "
        f"skipped on the point query, rows "
        f"{'match' if results.sharded_rows_match else 'DIFFER'}"
    )
    lines.append(
        f"bit-exact: {'yes' if results.bit_exact else 'NO'}; "
        f"strictly fewer crossbars on selective queries: "
        f"{'yes' if results.strictly_fewer_scanned else 'NO'}; "
        f"min selective speedup {results.min_selective_speedup():.2f}x"
    )
    return "\n".join(lines)


def artifact(results: ZonemapSkipResults) -> dict:
    """The ``BENCH_planner.json`` trajectory record."""
    return {
        "benchmark": "zonemap_skip",
        "records": results.records,
        "timing_scale": results.timing_scale,
        "bit_exact": results.bit_exact,
        "backends_agree": results.backends_agree,
        "strictly_fewer_scanned": results.strictly_fewer_scanned,
        "maintenance_charged": results.maintenance_charged,
        "min_selective_speedup": results.min_selective_speedup(),
        "shards": results.shards,
        "shards_skipped": results.shards_skipped,
        "runs": [
            {
                "backend": run.backend,
                "dml_rows_match": run.dml_rows_match,
                "maintenance_time_s": run.maintenance_time_s,
                "queries": [
                    {
                        "name": c.name,
                        "rows_match": c.rows_match,
                        "time_unpruned_s": c.time_unpruned_s,
                        "time_pruned_s": c.time_pruned_s,
                        "modelled_speedup": c.modelled_speedup,
                        "wall_speedup": c.wall_speedup,
                        "crossbars_total": c.crossbars_total,
                        "scanned_unpruned": c.scanned_unpruned,
                        "scanned_pruned": c.scanned_pruned,
                    }
                    for c in run.comparisons
                ],
            }
            for run in results.runs
        ],
    }


def write_artifact(results: ZonemapSkipResults, path) -> None:
    """Persist the schema-versioned trajectory artifact as JSON."""
    emit.write_artifact(
        path,
        "zonemap_skip",
        artifact(results),
        gates={
            "bit_exact": results.bit_exact,
            "backends_agree": results.backends_agree,
            "strictly_fewer_scanned": results.strictly_fewer_scanned,
            "maintenance_charged": results.maintenance_charged,
        },
    )
