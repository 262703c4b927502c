"""Sustained INSERT/DELETE/UPDATE/query churn through the service layer.

The DML subsystem's acceptance story: a relation serving queries while its
contents churn — batches of inserts landing in reused tombstone slots and
the spare capacity tail, broadcast deletes tombstoning rows in place,
Algorithm 1 updates, and threshold-triggered compaction — must stay
**bit-exact** with the functional ground truth on every backend, round after
round, with modelled :class:`~repro.pim.stats.PimStats` charged for every
DML phase.

One deterministic workload (generated once from the seed) is replayed on
both simulation backends through a sharded :class:`~repro.service.QueryService`;
every round checks the three probe queries against a reference aggregation
over the live ground truth, and the two backends' rows are compared against
each other.  ``render`` produces the human-readable report and ``artifact``
the ``BENCH_dml.json`` trajectory record consumed by CI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.db.dml import DEFAULT_COMPACTION_THRESHOLD
from repro.db.query import (
    Aggregate,
    Comparison,
    Query,
    evaluate_predicate,
    reference_group_aggregate,
)
from repro.db.relation import Relation
from repro.db.schema import Schema, dict_attribute, int_attribute
from repro.experiments import emit
from repro.service import QueryService
from repro.sharding import execute_sharded_update

BACKENDS = ("bool", "packed")
CITIES = [f"CITY{i}" for i in range(8)]

PROBE_QUERIES = (
    Query(
        "scalar",
        Comparison("value", "<", 3000),
        (Aggregate("sum", "value"), Aggregate("count"), Aggregate("min", "value")),
    ),
    Query(
        "by-city",
        Comparison("value", ">=", 500),
        (Aggregate("sum", "value"), Aggregate("count")),
        group_by=("city",),
    ),
    Query(
        "by-flag",
        Comparison("city", "in", values=tuple(CITIES[:4])),
        (Aggregate("max", "value"), Aggregate("count")),
        group_by=("flag",),
    ),
)

#: The relation is stored two-xb (vertically partitioned) so the churn also
#: exercises the cross-partition tombstone transfer of DELETE.
PARTITIONS = (("key", "value", "flag"), ("city",))

#: DML phases the workload must charge modelled stats to.
DML_PHASES = (
    "insert-write",
    "delete-filter",
    "delete-clear",
    "delete-transfer",
    "compact-read",
    "compact-write",
)


def churn_schema() -> Schema:
    return Schema("churn", [
        int_attribute("key", 16, source="fact"),
        int_attribute("value", 12, source="fact"),
        int_attribute("flag", 2, source="fact"),
        dict_attribute("city", CITIES, source="dim"),
    ])


def churn_relation(records: int, seed: int) -> Relation:
    rng = np.random.default_rng(seed)
    return Relation(churn_schema(), {
        "key": rng.integers(0, 1 << 16, records).astype(np.uint64),
        "value": rng.integers(0, 1 << 12, records).astype(np.uint64),
        "flag": rng.integers(0, 4, records).astype(np.uint64),
        "city": rng.integers(0, len(CITIES), records).astype(np.uint64),
    })


def _generate_workload(rounds: int, inserts_per_round: int, seed: int) -> list[dict]:
    """One concrete op list per round, generated once and replayed verbatim."""
    rng = np.random.default_rng(seed + 1)
    workload = []
    for _ in range(rounds):
        records = [
            {
                "key": int(rng.integers(0, 1 << 16)),
                "value": int(rng.integers(0, 1 << 12)),
                "flag": int(rng.integers(0, 4)),
                "city": CITIES[int(rng.integers(0, len(CITIES)))],
            }
            for _ in range(inserts_per_round)
        ]
        low = int(rng.integers(0, 1 << 12))
        span = int(rng.integers(100, 600))
        workload.append({
            "insert": records,
            # A value-range delete tombstoning a slice of the key space.
            "delete": Comparison("value", "between", low=low, high=low + span),
            "update": (
                Comparison("flag", "==", int(rng.integers(0, 4))),
                {"value": int(rng.integers(0, 1 << 12))},
            ),
        })
    return workload


@dataclass
class BackendChurnRun:
    """One backend's trip through the churn workload."""

    backend: str
    wall_s: float
    rows_match_reference: bool
    inserted: int
    deleted: int
    compactions: int
    slots_reclaimed: int
    final_live: int
    final_tombstones: int
    final_slots: int
    #: Modelled seconds charged per DML phase, summed over every shard and
    #: every call of the run — a physical total of work performed, not the
    #: max-over-shards latency (which ``DmlOutcome.stats`` models per call).
    phase_time_s: dict[str, float] = field(default_factory=dict)
    #: Modelled energy charged by DML calls, summed over the run.
    dml_energy_j: float = 0.0
    #: Per-round probe-query rows (encoded), for cross-backend comparison.
    round_rows: list[list[dict]] = field(default_factory=list)


@dataclass
class DmlChurnResults:
    """Everything ``bench_dml_churn`` reports and gates on."""

    records: int
    rounds: int
    shards: int
    inserts_per_round: int
    threshold: float
    runs: list[BackendChurnRun] = field(default_factory=list)

    @property
    def backends_agree(self) -> bool:
        """Both backends returned identical probe rows every round."""
        if len(self.runs) < 2:
            return True
        reference = self.runs[0].round_rows
        return all(run.round_rows == reference for run in self.runs[1:])

    @property
    def bit_exact(self) -> bool:
        """Every round of every backend matched the functional ground truth."""
        return all(run.rows_match_reference for run in self.runs) and (
            self.backends_agree
        )

    @property
    def all_phases_charged(self) -> bool:
        """Every DML phase charged nonzero modelled time on every backend."""
        return all(
            run.phase_time_s.get(phase, 0.0) > 0.0
            for run in self.runs
            for phase in DML_PHASES
        )

    @property
    def stats_identical(self) -> bool:
        """Modelled DML stats are bit-identical across the backends.

        Stats are charged from program/layout metadata, never from the bank
        representation, so a packed-vs-boolean difference here means a
        backend regression even when the result rows still agree.
        """
        if len(self.runs) < 2:
            return True
        reference = self.runs[0]
        return all(
            run.phase_time_s == reference.phase_time_s
            and run.dml_energy_j == reference.dml_energy_j
            for run in self.runs[1:]
        )


def _run_backend(
    backend: str,
    records: int,
    seed: int,
    shards: int,
    workload: list[dict],
    threshold: float,
) -> BackendChurnRun:
    relation = churn_relation(records, seed)
    service = QueryService()
    engine = service.register_sharded(
        "churn", relation, shards=shards, backend=backend,
        partitions=PARTITIONS,
    )
    sharded = engine.sharded
    phase_time: dict[str, float] = {phase: 0.0 for phase in DML_PHASES}
    dml_energy = 0.0
    rows_ok = True
    round_rows: list[list[dict]] = []

    def charge(outcome) -> None:
        nonlocal dml_energy
        # The per-shard breakdown keeps the per-phase detail; summing it
        # gives the physical work total across shards (the merged
        # outcome.stats collapses a broadcast into one max-over-shards
        # scatter phase instead).
        for shard_stats in outcome.shard_stats:
            for phase, seconds in shard_stats.time_by_phase.items():
                if phase in phase_time:
                    phase_time[phase] += seconds
        dml_energy += outcome.stats.total_energy_j

    start = time.perf_counter()
    for ops in workload:
        charge(service.insert(ops["insert"]))
        charge(service.delete(ops["delete"]))
        predicate, assignments = ops["update"]
        execute_sharded_update(sharded, predicate, assignments)
        charge(service.compact(threshold=threshold))

        live = sharded.live_relation()
        this_round: list[dict] = []
        for query in PROBE_QUERIES:
            execution = service.execute(query)
            expected = reference_group_aggregate(
                live, evaluate_predicate(query.predicate, live),
                query.group_by, query.aggregates,
            )
            rows_ok = rows_ok and execution.rows == expected
            this_round.append(
                {str(key): value for key, value in sorted(execution.rows.items())}
            )
        round_rows.append(this_round)
    # A final forced compaction exercises compact-read/-write even on runs
    # whose churn never crossed the threshold organically.
    charge(service.compact(force=True))
    wall = time.perf_counter() - start

    stats = service.dml_stats("churn")
    return BackendChurnRun(
        backend=backend,
        wall_s=wall,
        rows_match_reference=rows_ok,
        inserted=stats.inserted,
        deleted=stats.deleted,
        compactions=stats.compactions,
        slots_reclaimed=stats.slots_reclaimed,
        final_live=stats.live_rows,
        final_tombstones=stats.tombstones,
        final_slots=stats.slots_in_use,
        phase_time_s=phase_time,
        dml_energy_j=dml_energy,
        round_rows=round_rows,
    )


def run_dml_churn(
    records: int = 2000,
    rounds: int = 6,
    inserts_per_round: int = 120,
    shards: int = 4,
    seed: int = 17,
    threshold: float = DEFAULT_COMPACTION_THRESHOLD,
) -> DmlChurnResults:
    """Replay one generated churn workload on every backend and verify."""
    workload = _generate_workload(rounds, inserts_per_round, seed)
    results = DmlChurnResults(
        records=records,
        rounds=rounds,
        shards=shards,
        inserts_per_round=inserts_per_round,
        threshold=threshold,
    )
    for backend in BACKENDS:
        results.runs.append(
            _run_backend(backend, records, seed, shards, workload, threshold)
        )
    return results


def render(results: DmlChurnResults) -> str:
    """Human-readable churn report."""
    lines = [
        f"DML churn: {results.records} records, {results.rounds} rounds x "
        f"{results.inserts_per_round} inserts, K={results.shards} shards, "
        f"compaction threshold {results.threshold:.0%}",
        f"{'backend':<8} {'wall [s]':>9} {'ins':>6} {'del':>6} {'compact':>8} "
        f"{'reclaimed':>10} {'live':>6} {'tomb':>5}  rows",
    ]
    for run in results.runs:
        lines.append(
            f"{run.backend:<8} {run.wall_s:>9.3f} {run.inserted:>6} "
            f"{run.deleted:>6} {run.compactions:>8} {run.slots_reclaimed:>10} "
            f"{run.final_live:>6} {run.final_tombstones:>5}  "
            f"{'ok' if run.rows_match_reference else 'DIFF'}"
        )
    for run in results.runs:
        phases = ", ".join(
            f"{phase} {seconds * 1e3:.3f} ms"
            for phase, seconds in run.phase_time_s.items()
        )
        lines.append(f"{run.backend} modelled DML phases: {phases}")
    lines.append(
        f"backends agree: {'yes' if results.backends_agree else 'NO'}; "
        f"bit-exact under churn: {'yes' if results.bit_exact else 'NO'}; "
        f"modelled DML stats identical: {'yes' if results.stats_identical else 'NO'}"
    )
    return "\n".join(lines)


def artifact(results: DmlChurnResults) -> dict:
    """The ``BENCH_dml.json`` trajectory record."""
    return {
        "benchmark": "dml_churn",
        "records": results.records,
        "rounds": results.rounds,
        "inserts_per_round": results.inserts_per_round,
        "shards": results.shards,
        "compaction_threshold": results.threshold,
        "bit_exact": results.bit_exact,
        "backends_agree": results.backends_agree,
        "all_phases_charged": results.all_phases_charged,
        "stats_identical": results.stats_identical,
        "runs": [
            {
                "backend": run.backend,
                "wall_s": run.wall_s,
                "rows_match_reference": run.rows_match_reference,
                "inserted": run.inserted,
                "deleted": run.deleted,
                "compactions": run.compactions,
                "slots_reclaimed": run.slots_reclaimed,
                "final_live": run.final_live,
                "final_tombstones": run.final_tombstones,
                "final_slots": run.final_slots,
                "phase_time_s": run.phase_time_s,
                "dml_energy_j": run.dml_energy_j,
            }
            for run in results.runs
        ],
    }


def write_artifact(results: DmlChurnResults, path) -> None:
    """Persist the schema-versioned trajectory artifact as JSON."""
    emit.write_artifact(
        path,
        "dml_churn",
        artifact(results),
        gates={
            "bit_exact": results.bit_exact,
            "backends_agree": results.backends_agree,
            "stats_identical": results.stats_identical,
            "all_phases_charged": results.all_phases_charged,
        },
    )
