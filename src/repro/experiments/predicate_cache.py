"""SSB template replay under DML churn — semantic candidate cache vs cold walk.

The semantic candidate-set cache's acceptance story: a serving workload
replays the 13 SSB query templates round after round while the relation
churns underneath (tombstoning DELETEs, slot-reusing INSERTs, Algorithm 1
UPDATEs).  Without the cache every request pays the full two-level
zone-map walk; the cache keyed on normalized predicate fragments
re-validates only the crossbars whose epochs the DML actually bumped — and
a DELETE bumps none.

The experiment runs the same deterministic workload through one engine per
simulation backend over identical copies of the generated pre-joined
relation.  After every round each template is also planned by the uncached
reference :func:`~repro.planner.planner.cold_walk` over the same maintained
zone maps, and the run gates on:

* **bit-exact rows** — every query, every round, packed vs bool;
* **identical masks** — each round the engine's cached decisions equal the
  cold walk's;
* **>= 5x fewer zone-map entries** billed on the cached replay rounds than
  the cold walk consults for the same rounds.

``render`` produces the human-readable report and ``artifact`` the
``BENCH_pcache.json`` trajectory record consumed by CI.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.config import DEFAULT_CONFIG
from repro.core.executor import PimQueryEngine
from repro.db import dml
from repro.db.query import And, Comparison
from repro.db.relation import Relation
from repro.db.storage import StoredRelation
from repro.db.update import execute_update
from repro.experiments import emit
from repro.experiments.common import default_scale_factor
from repro.pim.controller import PimExecutor
from repro.pim.module import PimModule
from repro.planner.planner import cold_walk
from repro.planner.zonemap import CHECK_CYCLES
from repro.ssb import ALL_QUERIES, QUERY_ORDER, build_ssb_prejoined, generate
from repro.ssb.prejoined import max_aggregated_width

BACKENDS = ("packed", "bool")

#: Replay rounds after the cold first round; DML runs before each of them.
DEFAULT_ROUNDS = 4

#: INSERTs per round.  Kept small on purpose: each lands in (at most) one
#: crossbar and bumps only that epoch, which is the locality the cache
#: exploits.  The DELETE is deliberately *large* — it never bumps an epoch.
DEFAULT_INSERTS_PER_ROUND = 8

#: The acceptance gate on replay rounds (cold-walk entries / billed entries).
MIN_ENTRY_REDUCTION = 5.0


def _generate_workload(
    relation: Relation, rounds: int, inserts_per_round: int, seed: int
) -> list[dict]:
    """One concrete op list per replay round, replayed verbatim everywhere.

    All ops are pure data (encoded records, predicates), so the engines see
    byte-identical DML.
    """
    rng = np.random.default_rng(seed)
    names = [a.name for a in relation.schema.attributes]
    orderdates = np.unique(relation.columns["lo_orderdate"])
    workload = []
    for index in range(rounds):
        # Re-insert copies of existing rows: already-encoded, guaranteed
        # in-domain, and identical across the engines.
        picks = rng.integers(0, len(relation), inserts_per_round)
        records = [
            {name: int(relation.columns[name][i]) for name in names}
            for i in picks
        ]
        # A rotating quantity window tombstones a visible slice of the fact
        # rows (lo_quantity is 1..50, so ~2-4% of the relation) — the cache
        # must absorb this without re-checking a single zone-map entry.
        low = 1 + (index * 11) % 45
        delete = Comparison("lo_quantity", "between", low=low, high=low + 1)
        # A near-point UPDATE: one order date x one quantity selects a
        # handful of rows, so only their crossbars' epochs are bumped.
        # (Predicate constants are raw values; the column holds dict codes.)
        code = int(orderdates[int(rng.integers(0, len(orderdates)))])
        date = relation.schema.attribute("lo_orderdate").decode_value(code)
        update = (
            And((
                Comparison("lo_orderdate", "==", date),
                Comparison("lo_quantity", "==", int(rng.integers(1, 51))),
            )),
            {"lo_tax": int(rng.integers(0, 9))},
        )
        workload.append({"insert": records, "delete": delete, "update": update})
    return workload


@dataclass
class EngineReplayRun:
    """One backend's trip through the replay workload."""

    backend: str
    wall_s: float
    #: Zone-map entries billed to the queries of each round (round 0 is the
    #: cold round; DML precedes every later round).
    round_entries: list[float]
    #: Entries the uncached cold walk consults for the same templates, taken
    #: at the end of each round — the cache-free baseline.
    round_cold_walk_entries: list[int]
    #: Per-round, per-query result rows (encoded), for cross-run comparison.
    round_rows: list[list[dict]]
    #: Every round's cached/re-validated decisions matched a cold full walk
    #: over the same maintained zone maps.
    masks_identical: bool
    #: Candidate-cache counters at the end of the run.
    cache: dict

    @property
    def cold_entries(self) -> float:
        return self.round_entries[0] if self.round_entries else 0.0

    @property
    def replay_entries(self) -> float:
        """Entries billed across the cached replay rounds (all but round 0)."""
        return float(sum(self.round_entries[1:]))

    @property
    def replay_cold_walk_entries(self) -> int:
        """Entries the cold walk consults across the same replay rounds."""
        return sum(self.round_cold_walk_entries[1:])

    @property
    def entry_reduction(self) -> float:
        """Replay-round entry ratio, cold walk over cached billing."""
        if self.replay_entries <= 0:
            return float("inf") if self.replay_cold_walk_entries > 0 else 1.0
        return self.replay_cold_walk_entries / self.replay_entries


@dataclass
class PredicateCacheResults:
    """Everything ``bench_predicate_cache`` reports and gates on."""

    scale_factor: float
    rounds: int
    inserts_per_round: int
    queries: list[str]
    runs: list[EngineReplayRun] = field(default_factory=list)

    @property
    def masks_identical(self) -> bool:
        return all(run.masks_identical for run in self.runs)

    @property
    def bit_exact(self) -> bool:
        """Rows identical across the simulation backends."""
        reference = self.runs[0].round_rows
        return all(run.round_rows == reference for run in self.runs[1:])

    def min_entry_reduction(self) -> float:
        return min(run.entry_reduction for run in self.runs)


def _copy_relation(relation: Relation) -> Relation:
    """An independent functional copy (DML mutates the ground truth)."""
    return Relation(
        relation.schema,
        {name: column.copy() for name, column in relation.columns.items()},
    )


def _build_engine(
    relation: Relation, backend: str, aggregation_width: int
) -> PimQueryEngine:
    system = DEFAULT_CONFIG.with_backend(backend)
    module = PimModule(system)
    stored = StoredRelation(
        relation, module, label=backend,
        aggregation_width=aggregation_width,
        reserve_bulk_aggregation=False,
    )
    return PimQueryEngine(
        stored, config=system, label=backend, pruning=True,
    )


def _entries_billed(execution, engine: PimQueryEngine) -> float:
    """Invert the zone-map cost model: billed entries from the check phase."""
    seconds = execution.stats.time_by_phase.get("zonemap-check", 0.0)
    return seconds * engine.config.host.frequency_hz / CHECK_CYCLES


def _cold_walk_round(engine: PimQueryEngine, queries: list[str]) -> tuple[bool, int]:
    """Walk every template cold: ``(cached masks match, entries consulted)``.

    The cold reference shares the *maintained* zone maps (a from-scratch
    rebuild could legitimately have narrower bounds) but walks them without
    any cache.
    """
    stored = engine.stored
    crossbars_per_page = engine.config.pim.crossbars_per_page
    masks_ok = True
    entries = 0
    for name in queries:
        predicate = ALL_QUERIES[name].predicate
        cached = stored.statistics.plan(
            predicate, stored.partition_attributes, crossbars_per_page,
            peek=True,
        )
        cold = cold_walk(
            stored.statistics, predicate, stored.partition_attributes,
            crossbars_per_page,
        )
        entries += cold.entries_checked
        masks_ok = (
            masks_ok
            and len(cached.candidates) == len(cold.candidates)
            and all(
                np.array_equal(a, b)
                for a, b in zip(cached.candidates, cold.candidates)
            )
        )
    return masks_ok, entries


def _apply_dml(engine: PimQueryEngine, ops: dict) -> None:
    executor = PimExecutor(engine.config)
    dml.execute_delete(engine.stored, ops["delete"], executor)
    dml.execute_insert(engine.stored, ops["insert"], executor, encoded=True)
    predicate, assignments = ops["update"]
    execute_update(engine.stored, predicate, assignments, executor)


def _run_engine(
    backend: str,
    prejoined: Relation,
    workload: list[dict],
    queries: list[str],
    aggregation_width: int,
) -> EngineReplayRun:
    """Replay the workload through one backend's engine."""
    pim = _build_engine(_copy_relation(prejoined), backend, aggregation_width)
    round_entries: list[float] = []
    round_cold_walk_entries: list[int] = []
    round_rows: list[list[dict]] = []
    masks_ok = True
    start = time.perf_counter()
    for round_index in range(len(workload) + 1):
        if round_index > 0:
            _apply_dml(pim, workload[round_index - 1])
        entries = 0.0
        rows: list[dict] = []
        for name in queries:
            execution = pim.execute(ALL_QUERIES[name])
            entries += _entries_billed(execution, pim)
            rows.append(
                {str(k): dict(v) for k, v in sorted(execution.rows.items())}
            )
        round_entries.append(entries)
        round_rows.append(rows)
        round_ok, cold_entries = _cold_walk_round(pim, queries)
        masks_ok = masks_ok and round_ok
        round_cold_walk_entries.append(cold_entries)
    return EngineReplayRun(
        backend=backend,
        wall_s=time.perf_counter() - start,
        round_entries=round_entries,
        round_cold_walk_entries=round_cold_walk_entries,
        round_rows=round_rows,
        masks_identical=masks_ok,
        cache=asdict(pim.stored.statistics.candidate_stats()),
    )


def run_predicate_cache(
    scale_factor: float | None = None,
    rounds: int = DEFAULT_ROUNDS,
    inserts_per_round: int = DEFAULT_INSERTS_PER_ROUND,
    seed: int = 23,
    queries: list[str] | None = None,
) -> PredicateCacheResults:
    """Replay the SSB templates under churn on one engine per backend."""
    if scale_factor is None:
        scale_factor = default_scale_factor()
    if queries is None:
        queries = list(QUERY_ORDER)
    dataset = generate(scale_factor=scale_factor, skew=0.5, seed=42)
    prejoined = build_ssb_prejoined(dataset.database)
    aggregation_width = max_aggregated_width(prejoined)
    workload = _generate_workload(prejoined, rounds, inserts_per_round, seed)

    results = PredicateCacheResults(
        scale_factor=scale_factor,
        rounds=rounds,
        inserts_per_round=inserts_per_round,
        queries=queries,
    )
    for backend in BACKENDS:
        results.runs.append(
            _run_engine(backend, prejoined, workload, queries, aggregation_width)
        )
    return results


def render(results: PredicateCacheResults) -> str:
    """Human-readable replay report."""
    lines = [
        f"Predicate-cache replay: SF {results.scale_factor}, "
        f"{len(results.queries)} SSB templates x {results.rounds} replay "
        f"rounds, {results.inserts_per_round} inserts + range DELETE + "
        f"point UPDATE per round",
        f"{'backend':<8} {'cold entries':>13} {'replay entries':>15} "
        f"{'cold-walk replay':>17} {'wall [s]':>9}",
    ]
    for run in results.runs:
        lines.append(
            f"{run.backend:<8} {run.cold_entries:>13.0f} "
            f"{run.replay_entries:>15.0f} "
            f"{run.replay_cold_walk_entries:>17d} {run.wall_s:>9.3f}"
        )
    for run in results.runs:
        lines.append(
            f"{run.backend}: replay zone-map entries cut "
            f"{run.entry_reduction:.1f}x vs the cold walk (gate "
            f">= {MIN_ENTRY_REDUCTION:.0f}x)"
        )
    for run in results.runs:
        c = run.cache
        lines.append(
            f"{run.backend} candidate cache: {c['hits']} hits / "
            f"{c['misses']} misses / {c['revalidations']} re-validations "
            f"({c['stale_crossbars']} stale crossbars re-checked), "
            f"{c['evictions']} evictions"
        )
    lines.append(
        f"bit-exact rows across backends: "
        f"{'yes' if results.bit_exact else 'NO'}; cached masks "
        f"== cold walk: {'yes' if results.masks_identical else 'NO'}"
    )
    return "\n".join(lines)


def _finite(value: float) -> float | None:
    return None if value == float("inf") else value


def artifact(results: PredicateCacheResults) -> dict:
    """The ``BENCH_pcache.json`` trajectory record."""
    return {
        "benchmark": "predicate_cache",
        "scale_factor": results.scale_factor,
        "rounds": results.rounds,
        "inserts_per_round": results.inserts_per_round,
        "queries": list(results.queries),
        "bit_exact": results.bit_exact,
        "masks_identical": results.masks_identical,
        "min_entry_reduction": _finite(results.min_entry_reduction()),
        "entry_reduction": {
            run.backend: _finite(run.entry_reduction) for run in results.runs
        },
        "runs": [
            {
                "backend": run.backend,
                "wall_s": run.wall_s,
                "cold_entries": run.cold_entries,
                "replay_entries": run.replay_entries,
                "round_entries": list(run.round_entries),
                "replay_cold_walk_entries": run.replay_cold_walk_entries,
                "round_cold_walk_entries": list(run.round_cold_walk_entries),
                "cache": run.cache,
            }
            for run in results.runs
        ],
    }


def write_artifact(results: PredicateCacheResults, path) -> None:
    """Persist the schema-versioned trajectory artifact as JSON."""
    emit.write_artifact(
        path,
        "predicate_cache",
        artifact(results),
        gates={
            "bit_exact": results.bit_exact,
            "masks_identical": results.masks_identical,
        },
    )
