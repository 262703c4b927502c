"""Sharded scatter-gather scaling over the 13 SSB queries.

Runs the full SSB workload on an unsharded engine and on sharded engines at
K = 1, 2, 4 shards, verifying three things:

* **bit-exactness** — every sharded execution returns exactly the rows of
  the unsharded engine and of the NumPy reference evaluator;
* **latency scaling** — the modelled end-to-end latency (max-over-shards
  plus the gather term, never the sum) improves monotonically from K=1 to
  K=4;
* **cost accounting** — total modelled energy and worst per-row wear stay
  within accounting of the unsharded run (sharding redistributes the work,
  it does not create or hide any).

The generated instance is sized so the crossbar pages divide evenly among
every shard count (LCM-of-K pages): with contiguous balanced shards, each
shard at K then owns exactly ``pages / K`` pages and the issue-gap term of
the broadcast latency scales as cleanly as the paper's timing model allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.core.executor import PimQueryEngine
from repro.db.query import evaluate_predicate, reference_group_aggregate
from repro.db.storage import StoredRelation
from repro.experiments.common import PAPER_SCALE_FACTOR
from repro.pim.module import PimModule
from repro.service.cache import ProgramCache
from repro.sharding import ShardedQueryEngine, ShardedStoredRelation
from repro.ssb import ALL_QUERIES, QUERY_ORDER, build_ssb_prejoined, generate
from repro.ssb.datagen import LINEORDERS_PER_SF
from repro.ssb.prejoined import max_aggregated_width

DEFAULT_SHARD_COUNTS: tuple[int, ...] = (1, 2, 4)

#: The scalar (no GROUP-BY) queries used for the strict energy-accounting
#: check: with no per-shard planner freedom, the dynamic (non-controller)
#: energy of a sharded run must equal the unsharded run's almost exactly.
SCALAR_QUERIES: tuple[str, ...] = ("Q1.1", "Q1.2", "Q1.3")


def _dynamic_energy(stats) -> float:
    """Energy excluding the static per-page controller term.

    The controller term scales with how long the broadcast keeps each
    page's controller active, so it legitimately *shrinks* under sharding
    (each shard's issue window is shorter); every other component is work
    actually performed and must be conserved.
    """
    return sum(
        joules
        for component, joules in stats.energy_by_component.items()
        if component != "controller"
    )


def _lcm(values: Sequence[int]) -> int:
    result = 1
    for value in values:
        result = result * value // math.gcd(result, value)
    return result


def aligned_record_count(
    shard_counts: Sequence[int], config: SystemConfig | None = None
) -> int:
    """Smallest record count whose pages divide evenly at every shard count."""
    system = config if config is not None else DEFAULT_CONFIG
    return system.pim.records_per_page * _lcm(shard_counts)


@dataclass
class ScalingPoint:
    """The whole SSB workload executed at one shard count."""

    shards: int
    #: Sum over the 13 queries of the modelled sharded latency
    #: (max-over-shards + merge term per query).
    total_time_s: float
    total_energy_j: float
    max_writes_per_row: int
    mean_parallel_speedup: float
    total_merge_time_s: float
    per_query_time_s: dict[str, float] = field(default_factory=dict)
    cache_misses: int = 0
    cache_hits: int = 0
    #: Dynamic (non-controller) energy over :data:`SCALAR_QUERIES`.
    scalar_dynamic_energy_j: float = 0.0


@dataclass
class ScalingResults:
    """Sharded scaling measurements plus the unsharded baseline."""

    records: int
    pages: int
    timing_scale: float
    shard_counts: tuple[int, ...]
    unsharded_time_s: float
    unsharded_energy_j: float
    unsharded_max_writes_per_row: int
    unsharded_scalar_dynamic_energy_j: float
    points: list[ScalingPoint]
    bit_exact: bool

    def point(self, shards: int) -> ScalingPoint:
        for point in self.points:
            if point.shards == shards:
                return point
        raise KeyError(f"no scaling point for {shards} shards")

    def speedup(self, shards: int) -> float:
        """Unsharded latency over the sharded latency at ``shards``."""
        return self.unsharded_time_s / self.point(shards).total_time_s

    @property
    def latency_monotonic(self) -> bool:
        """Whether modelled latency strictly improves with every added shard."""
        times = [self.point(k).total_time_s for k in sorted(self.shard_counts)]
        return all(a > b for a, b in zip(times, times[1:]))

    def energy_ratio(self, shards: int) -> float:
        return self.point(shards).total_energy_j / self.unsharded_energy_j

    def wear_ratio(self, shards: int) -> float:
        return (
            self.point(shards).max_writes_per_row
            / self.unsharded_max_writes_per_row
        )

    def scalar_dynamic_energy_ratio(self, shards: int) -> float:
        """Sharded over unsharded dynamic energy on the scalar queries.

        Scalar queries leave the planner no freedom, so this ratio is the
        strict conservation check: scattering work over shards must neither
        create nor lose any modelled dynamic energy (expected ~1.0).
        """
        return (
            self.point(shards).scalar_dynamic_energy_j
            / self.unsharded_scalar_dynamic_energy_j
        )


def run_scaling(
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    scale_factor: float | None = None,
    queries: Sequence[str] = QUERY_ORDER,
    config: SystemConfig | None = None,
    target_scale_factor: float = PAPER_SCALE_FACTOR,
    seed: int = 42,
    skew: float = 0.5,
) -> ScalingResults:
    """Execute the SSB workload unsharded and at every requested shard count.

    ``scale_factor`` sizes the generated instance; by default (and as a
    floor) the instance is sized to :func:`aligned_record_count` so every
    shard count divides the pages evenly.  Larger explicit scale factors are
    trimmed down to the nearest aligned record count.
    """
    system = config if config is not None else DEFAULT_CONFIG
    shard_counts = tuple(sorted(set(int(k) for k in shard_counts)))
    aligned = aligned_record_count(shard_counts, system)
    if scale_factor is None:
        records = aligned
    else:
        generated = int(round(LINEORDERS_PER_SF * scale_factor))
        records = max(aligned, generated // aligned * aligned)
    dataset = generate(
        scale_factor=records / LINEORDERS_PER_SF, skew=skew, seed=seed
    )
    prejoined = build_ssb_prejoined(dataset.database).head(records)
    aggregation_width = max_aggregated_width(prejoined)
    timing_scale = (LINEORDERS_PER_SF * target_scale_factor) / records

    module = PimModule(system)
    unsharded_stored = StoredRelation(
        prejoined, module, label="unsharded",
        aggregation_width=aggregation_width, reserve_bulk_aggregation=False,
    )
    unsharded = PimQueryEngine(
        unsharded_stored, label="unsharded",
        timing_scale=timing_scale, compiler=ProgramCache(512),
    )

    bit_exact = True
    baseline_rows: dict[str, dict] = {}
    unsharded_time = unsharded_energy = unsharded_scalar_dyn = 0.0
    unsharded_wear = 0
    for name in queries:
        query = ALL_QUERIES[name]
        execution = unsharded.execute(query)
        reference = reference_group_aggregate(
            prejoined, evaluate_predicate(query.predicate, prejoined),
            query.group_by, query.aggregates,
        )
        bit_exact &= execution.rows == reference
        baseline_rows[name] = execution.rows
        unsharded_time += execution.time_s
        unsharded_energy += execution.energy_j
        unsharded_wear = max(unsharded_wear, execution.max_writes_per_row)
        if name in SCALAR_QUERIES:
            unsharded_scalar_dyn += _dynamic_energy(execution.stats)

    points: list[ScalingPoint] = []
    for shards in shard_counts:
        cache = ProgramCache(512)
        shard_module = PimModule(system)
        sharded = ShardedStoredRelation(
            prejoined, shard_module, shards=shards, label=f"sharded{shards}",
            aggregation_width=aggregation_width, reserve_bulk_aggregation=False,
        )
        engine = ShardedQueryEngine(
            sharded, label=f"sharded{shards}",
            timing_scale=timing_scale, compiler=cache,
        )
        total_time = total_energy = total_merge = scalar_dyn = 0.0
        wear = 0
        speedups: list[float] = []
        per_query: dict[str, float] = {}
        for name in queries:
            execution = engine.execute(ALL_QUERIES[name])
            bit_exact &= execution.rows == baseline_rows[name]
            per_query[name] = execution.time_s
            total_time += execution.time_s
            total_energy += execution.energy_j
            total_merge += execution.merge_time_s
            wear = max(wear, execution.max_writes_per_row)
            speedups.append(execution.parallel_speedup)
            if name in SCALAR_QUERIES:
                scalar_dyn += _dynamic_energy(execution.stats)
        points.append(ScalingPoint(
            shards=shards,
            total_time_s=total_time,
            total_energy_j=total_energy,
            max_writes_per_row=wear,
            mean_parallel_speedup=sum(speedups) / len(speedups),
            total_merge_time_s=total_merge,
            per_query_time_s=per_query,
            cache_misses=cache.stats.misses,
            cache_hits=cache.stats.hits,
            scalar_dynamic_energy_j=scalar_dyn,
        ))

    return ScalingResults(
        records=records,
        pages=unsharded_stored.pages,
        timing_scale=timing_scale,
        shard_counts=shard_counts,
        unsharded_time_s=unsharded_time,
        unsharded_energy_j=unsharded_energy,
        unsharded_max_writes_per_row=unsharded_wear,
        unsharded_scalar_dynamic_energy_j=unsharded_scalar_dyn,
        points=points,
        bit_exact=bit_exact,
    )


def render(results: ScalingResults) -> str:
    """Render the scaling sweep as a paper-style text table."""
    lines = [
        f"sharded scatter-gather scaling — {results.records} records, "
        f"{results.pages} pages, timing x{results.timing_scale:.0f} "
        f"(modelled SF={PAPER_SCALE_FACTOR:g})",
        "",
        f"{'config':>10} {'time_ms':>10} {'speedup':>8} {'energy_mJ':>10} "
        f"{'wear':>6} {'par_spd':>8} {'merge_us':>9} {'compile':>12}",
        f"{'unsharded':>10} {results.unsharded_time_s * 1e3:>10.3f} "
        f"{'1.00x':>8} {results.unsharded_energy_j * 1e3:>10.3f} "
        f"{results.unsharded_max_writes_per_row:>6} {'-':>8} {'-':>9} {'-':>12}",
    ]
    for point in results.points:
        lines.append(
            f"{f'K={point.shards}':>10} {point.total_time_s * 1e3:>10.3f} "
            f"{f'{results.speedup(point.shards):.2f}x':>8} "
            f"{point.total_energy_j * 1e3:>10.3f} "
            f"{point.max_writes_per_row:>6} "
            f"{point.mean_parallel_speedup:>7.2f}x "
            f"{point.total_merge_time_s * 1e6:>9.3f} "
            f"{f'{point.cache_misses}m/{point.cache_hits}h':>12}"
        )
    lines.append("")
    lines.append(
        "latency monotonic K=1..4: "
        + ("yes" if results.latency_monotonic else "NO")
    )
    largest = max(results.shard_counts)
    lines.append(
        f"K={largest}: energy x{results.energy_ratio(largest):.3f}, "
        f"wear x{results.wear_ratio(largest):.3f} vs unsharded "
        f"(scalar-query dynamic energy "
        f"x{results.scalar_dynamic_energy_ratio(largest):.4f})"
    )
    lines.append("bit-exact vs unsharded + reference: "
                 + ("yes" if results.bit_exact else "NO"))
    return "\n".join(lines)
