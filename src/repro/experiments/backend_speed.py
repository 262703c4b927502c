"""Backend speed: packed vs boolean simulation of the 13 SSB queries.

The packed crossbar backend (:mod:`repro.pim.packed`) exists purely to make
the *functional simulation* faster — the modelled hardware is unchanged.
This experiment proves both halves of that claim at once:

* **equivalence** — every SSB query must produce bit-identical result rows
  and bit-identical :class:`~repro.pim.stats.PimStats` (latency, energy,
  power samples, wear) on both backends, through a bare engine and through
  the batched service (every NOR program runs on the stored bits either way);
* **speed** — the packed backend must beat the boolean reference by a
  configurable wall-clock factor (>=5x by default) on the gate-level query
  path, which is the simulation-bound regime every experiment, benchmark and
  the sharded service ultimately sit on.

Two further sections cover the fused kernel pipeline (PR 6):

* **fused replay** — the 13 compiled SSB filter programs replayed warm on
  the stored packed bank, per-operation dispatch vs the fused NOR-DAG
  kernel (gated >=5x, the headline fused-execution speedup);
* **kernel scatter** — the same warm programs replayed over four
  serving-scale shard banks, sequentially vs on a 4-wide thread pool
  (gated >1x on multi-core hosts: fused kernels run inside NumPy with the
  GIL released, so the pool must deliver real wall-clock overlap; on a
  single core the measurement is recorded but the gate is skipped).

A last section times the **field codec** — the functional stand-in for the
aggregation circuit's read port and the host load path: ``read_field_all``
and ``write_field_column`` of every field of the relation's layouts, on both
banks at the relation's geometry, min-of-7 absolute milliseconds per field
width (gated: the packed bank's summed decode and summed encode time must
each be no slower than the boolean reference's).  It also times, ungated, the
gather ``read_field_cells`` against full decode + index at 0.5 %, 3 % and 20 %
of the cells — the measurement behind ``repro.db.storage.GATHER_MAX_SHARE``.

The bool-vs-packed sections pin the per-operation *dispatch* strategy —
the regime the packed backend was introduced against — so their trajectory
stays comparable across versions; the fused sections quantify the strategy
speedup separately.

``render`` produces the human-readable table and ``artifact`` the
``BENCH_backend.json`` trajectory record consumed by CI.
"""

from __future__ import annotations

import os
import time
import timeit
from collections.abc import Callable, Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.core.executor import PimQueryEngine, QueryExecution
from repro.core.stages import ProgramCompiler
from repro.db.storage import StoredRelation
from repro.experiments import emit
from repro.experiments.common import default_scale_factor, format_table
from repro.pim.module import PimModule
from repro.pim.packed import make_bank
from repro.pim.stats import PimStats
from repro.service import QueryService
from repro.ssb import ALL_QUERIES, QUERY_ORDER, build_ssb_prejoined, generate
from repro.ssb.prejoined import max_aggregated_width

BACKENDS = ("bool", "packed")


def stats_identical(a: PimStats, b: PimStats) -> bool:
    """Whether two executions charged bit-identical modelled statistics.

    :class:`PimStats` is a dataclass, so equality compares every field
    (per-phase times, per-component energies, counters, power samples,
    wear) — including fields added in the future.
    """
    return a == b


@dataclass
class QueryComparison:
    """One SSB query timed on both backends (gate-level execution)."""

    query: str
    bool_s: float
    packed_s: float
    rows_match: bool
    stats_match: bool

    @property
    def speedup(self) -> float:
        return self.bool_s / self.packed_s if self.packed_s > 0 else float("inf")


@dataclass
class ServiceComparison:
    """The warm service batch timed on both backends."""

    bool_s: float
    packed_s: float
    rows_match: bool

    @property
    def speedup(self) -> float:
        return self.bool_s / self.packed_s if self.packed_s > 0 else float("inf")


@dataclass
class FusedComparison:
    """The compiled SSB filter programs replayed dispatch vs fused.

    This is the simulation-kernel microbenchmark behind the fused execution
    strategy: the 13 WHERE-clause NOR programs are compiled once, their
    fused kernels warmed, and each program is then replayed on the stored
    packed bank — once stepping through the operation list (dispatch, the
    PR-3 reference) and once as the single fused NumPy expression.  Both
    paths leave bit-identical cells and wear, so the ratio is pure
    simulation speed.
    """

    programs: int
    cycles: int          # charged NOR/INIT cycles across all programs
    live_nors: int       # gates surviving CSE + folding in the NOR DAGs
    total_depth: int     # summed critical-path depths
    dispatch_s: float
    fused_s: float

    @property
    def speedup(self) -> float:
        return self.dispatch_s / self.fused_s if self.fused_s > 0 else float("inf")


@dataclass
class ScatterComparison:
    """The fused-kernel scatter over K shard banks, serial vs thread pool.

    Fused kernels spend their time inside NumPy ufuncs with the
    interpreter lock released, so a K-shard scatter can genuinely overlap
    shard simulations on a thread pool.  This replays the warm filter
    programs over K serving-scale packed banks, once sequentially and once
    on a K-wide pool.  ``cpu_count`` is recorded because the comparison is
    only meaningful with a core per pool worker — fewer cores serialise
    (part of) the pool by construction, so the >1x gate is skipped there.
    """

    shards: int
    crossbars_per_shard: int
    cpu_count: int
    serial_s: float
    parallel_s: float
    bits_match: bool

    @property
    def speedup(self) -> float:
        return self.serial_s / self.parallel_s if self.parallel_s > 0 else float("inf")

    @property
    def gateable(self) -> bool:
        """Whether a wall-clock pool speedup is physically observable.

        The section times a ``shards``-wide pool; on fewer cores the workers
        time-slice and the ratio (0.7-1.2x on two cores) is scheduler noise.
        """
        return self.cpu_count >= self.shards


#: The four timed (backend, operation) cells of the field-codec section.
CODEC_CELLS = tuple(f"{b}_{op}" for op in ("decode", "encode") for b in BACKENDS)


#: Shares of the bank's cells the gather cells read (sparse, ~1/32, dense);
#: ``gather`` is ``read_field_cells``, ``index`` full decode + index.
GATHER_SHARES = (0.005, 0.03, 0.2)
GATHER_CELLS = tuple(
    f"{b}_{how}_{share:g}"
    for b in BACKENDS for share in GATHER_SHARES for how in ("gather", "index")
)


@dataclass
class CodecWidth:
    """Field decode/encode at one field width, summed over its fields."""

    width: int
    fields: int = 0
    #: Milliseconds per cell of :data:`CODEC_CELLS` (e.g. ``"packed_decode"``)
    #: and :data:`GATHER_CELLS` (``"packed_gather_0.03"``).
    ms: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(CODEC_CELLS + GATHER_CELLS, 0.0)
    )


@dataclass
class CodecComparison:
    """``read_field_all`` / ``write_field_column`` on both banks, per width.

    Every field of the relation's layouts is decoded and re-encoded on the
    stored banks; times are the minimum of ``repeats`` calls in absolute
    milliseconds, so the record reads as a cost per bulk decode at the
    stated geometry rather than as a ratio against a slowed-down reference.
    """

    crossbars: int
    rows: int
    cpu_count: int
    repeats: int
    widths: list[CodecWidth]
    values_match: bool

    def total_ms(self, cell: str) -> float:
        return sum(w.ms[cell] for w in self.widths)

    def speedup(self, operation: str) -> float:
        """Summed ``bool`` time over summed ``packed`` time of one operation."""
        packed = self.total_ms(f"packed_{operation}")
        reference = self.total_ms(f"bool_{operation}")
        return reference / packed if packed > 0 else float("inf")


@dataclass
class BackendSpeedResults:
    """Everything ``bench_backend_speed`` reports and gates on."""

    scale_factor: float
    records: int
    queries: list[QueryComparison] = field(default_factory=list)
    service: ServiceComparison | None = None
    fused: FusedComparison | None = None
    scatter: ScatterComparison | None = None
    codec: CodecComparison | None = None

    @property
    def bool_total_s(self) -> float:
        return sum(q.bool_s for q in self.queries)

    @property
    def packed_total_s(self) -> float:
        return sum(q.packed_s for q in self.queries)

    @property
    def speedup(self) -> float:
        packed = self.packed_total_s
        return self.bool_total_s / packed if packed > 0 else float("inf")

    @property
    def bit_exact(self) -> bool:
        return (
            all(q.rows_match for q in self.queries)
            and (self.service is None or self.service.rows_match)
            and (self.codec is None or self.codec.values_match)
        )

    @property
    def stats_identical(self) -> bool:
        return all(q.stats_match for q in self.queries)


def _gate_level_engine(prejoined, config: SystemConfig) -> PimQueryEngine:
    stored = StoredRelation(
        prejoined, PimModule(config), label="one_xb",
        aggregation_width=max_aggregated_width(prejoined),
        reserve_bulk_aggregation=False,
    )
    return PimQueryEngine(stored, config=config, label="one_xb")


def _timed_executions(engine) -> dict[str, tuple]:
    out: dict[str, tuple] = {}
    for name in QUERY_ORDER:
        start = time.perf_counter()
        execution: QueryExecution = engine.execute(ALL_QUERIES[name])
        out[name] = (time.perf_counter() - start, execution)
    return out


def _timed_service_batch(prejoined, config: SystemConfig):
    service = QueryService()
    stored = StoredRelation(
        prejoined, PimModule(config), label="ssb",
        aggregation_width=max_aggregated_width(prejoined),
        reserve_bulk_aggregation=False,
    )
    service.register("ssb", stored, config=config)
    queries = [ALL_QUERIES[name] for name in QUERY_ORDER]
    service.execute_batch(queries)          # warm the program cache
    start = time.perf_counter()
    batch = service.execute_batch(queries)
    return time.perf_counter() - start, batch


def _timed_fused_replay(
    prejoined, config: SystemConfig, repeats: int = 3
) -> FusedComparison:
    """Replay the 13 compiled filter programs dispatch vs fused (warm)."""
    stored = StoredRelation(
        prejoined, PimModule(config), label="replay",
        aggregation_width=max_aggregated_width(prejoined),
        reserve_bulk_aggregation=False,
    )
    compiler = ProgramCompiler()
    layout = stored.layouts[0]
    programs = [
        compiler.filter_program(
            ALL_QUERIES[name].predicate, prejoined.schema, layout
        )
        for name in QUERY_ORDER
        if ALL_QUERIES[name].predicate is not None
    ]
    bank = stored.allocations[0].bank
    for program in programs:
        program.fused_kernel()          # compile outside the timed region
    start = time.perf_counter()
    for _ in range(repeats):
        for program in programs:
            program.execute(bank)
    dispatch_s = (time.perf_counter() - start) / repeats
    start = time.perf_counter()
    for _ in range(repeats):
        for program in programs:
            program.run_fused(bank)
    fused_s = (time.perf_counter() - start) / repeats
    return FusedComparison(
        programs=len(programs),
        cycles=sum(p.cycles for p in programs),
        live_nors=sum(p.ir().nor_count for p in programs),
        total_depth=sum(p.ir().depth for p in programs),
        dispatch_s=dispatch_s,
        fused_s=fused_s,
    )


def _timed_scatter(
    prejoined,
    config: SystemConfig,
    shards: int = 4,
    crossbars_per_shard: int = 1024,
    repeats: int = 5,
) -> ScatterComparison:
    """Time the warm fused-kernel scatter serially vs on a K-wide pool.

    The shard banks are synthetic packed banks at a *fixed* serving scale
    (``crossbars_per_shard``, independent of the benchmark's SSB scale
    factor): bitwise kernels are data-independent, so zero-filled banks
    measure exactly the same work, and the fixed size keeps each ufunc
    large enough that the NumPy inner loops — which run with the GIL
    released — dominate the per-instruction Python dispatch.  The real
    compiled SSB filter programs are replayed, so the instruction mix is
    the production one.
    """
    stored = StoredRelation(
        prejoined, PimModule(config), label="scatter",
        aggregation_width=max_aggregated_width(prejoined),
        reserve_bulk_aggregation=False,
    )
    reference = stored.allocations[0].bank
    compiler = ProgramCompiler()
    programs = [
        compiler.filter_program(
            ALL_QUERIES[name].predicate, prejoined.schema, stored.layouts[0]
        )
        for name in QUERY_ORDER
        if ALL_QUERIES[name].predicate is not None
    ]
    for program in programs:
        program.fused_kernel()          # compile outside the timed region
    banks = [
        make_bank("packed", crossbars_per_shard, reference.rows, reference.columns)
        for _ in range(shards)
    ]

    def replay(bank) -> None:
        for program in programs:
            program.run_fused(bank)

    for bank in banks:                  # warm caches and page in the arrays
        replay(bank)
    start = time.perf_counter()
    for _ in range(repeats):
        for bank in banks:
            replay(bank)
    serial_s = (time.perf_counter() - start) / repeats
    with ThreadPoolExecutor(max_workers=shards) as pool:
        list(pool.map(replay, banks))   # warm the pool threads
        start = time.perf_counter()
        for _ in range(repeats):
            list(pool.map(replay, banks))
        parallel_s = (time.perf_counter() - start) / repeats
    # Every bank ran the identical program sequence from the identical
    # initial state, so pooled execution must leave identical bits.
    output_columns = sorted(
        {column for program in programs for column in program.output_columns}
    )
    bits_match = all(
        np.array_equal(banks[0].read_column(column), bank.read_column(column))
        for bank in banks[1:]
        for column in output_columns
    )
    return ScatterComparison(
        shards=shards,
        crossbars_per_shard=crossbars_per_shard,
        cpu_count=os.cpu_count() or 1,
        serial_s=serial_s,
        parallel_s=parallel_s,
        bits_match=bits_match,
    )


def _min_ms(call: Callable[[], object], repeats: int) -> float:
    """Minimum wall time of ``repeats`` calls, in milliseconds."""
    return min(timeit.repeat(call, number=1, repeat=repeats)) * 1e3


def _timed_field_codec(
    stored: Mapping[str, StoredRelation], repeats: int = 7
) -> CodecComparison:
    """Decode and re-encode every layout field on both stored banks.

    ``stored`` maps each backend to the same relation loaded on it.  The
    fields are rewritten with the values just decoded and without wear, so
    the stores are left exactly as they were found.
    """
    widths: dict[int, CodecWidth] = {}
    values_match = True
    rng = np.random.default_rng(0)

    def decode_and_index(bank, offset, width, cells):
        return bank.read_field_all(offset, width).reshape(-1)[cells]

    for partition, layout in enumerate(stored["packed"].layouts):
        banks = {b: stored[b].allocations[partition].bank for b in BACKENDS}
        per_xbar = banks["packed"].rows
        total = banks["packed"].count * per_xbar
        # Sorted distinct cells, as the record indices of a selection are.
        selections = {
            share: np.sort(rng.choice(total, int(total * share), replace=False))
            for share in GATHER_SHARES
        }
        for offset, width in layout.fields.values():
            row = widths.setdefault(width, CodecWidth(width))
            row.fields += 1
            decoded = {}
            for backend, bank in banks.items():
                decoded[backend] = values = bank.read_field_all(offset, width)
                row.ms[f"{backend}_decode"] += _min_ms(
                    partial(bank.read_field_all, offset, width), repeats
                )
                row.ms[f"{backend}_encode"] += _min_ms(
                    partial(bank.write_field_column, offset, width, values,
                            count_wear=False),
                    repeats,
                )
            values_match &= np.array_equal(decoded["bool"], decoded["packed"])
            values_match &= np.array_equal(
                banks["packed"].read_field_all(offset, width), decoded["bool"]
            )
            for share, cells in selections.items():
                expected = decoded["bool"].reshape(-1)[cells]
                for backend, bank in banks.items():
                    calls = {
                        "gather": partial(bank.read_field_cells, cells // per_xbar,
                                          cells % per_xbar, offset, width),
                        "index": partial(decode_and_index, bank, offset, width, cells),
                    }
                    for how, call in calls.items():
                        values_match &= np.array_equal(call(), expected)
                        row.ms[f"{backend}_{how}_{share:g}"] += _min_ms(call, repeats)
    bank = stored["packed"].allocations[0].bank
    return CodecComparison(
        crossbars=bank.count,
        rows=bank.rows,
        cpu_count=os.cpu_count() or 1,
        repeats=repeats,
        widths=[widths[w] for w in sorted(widths)],
        values_match=values_match,
    )


def run_backend_speed(
    scale_factor: float | None = None,
    skew: float = 0.5,
    seed: int = 42,
    with_service: bool = True,
    with_fused: bool = True,
    with_scatter: bool = True,
    scatter_shards: int = 4,
) -> BackendSpeedResults:
    """Time the 13 SSB queries on both backends and verify equivalence."""
    if scale_factor is None:
        scale_factor = default_scale_factor()
    dataset = generate(scale_factor=scale_factor, skew=skew, seed=seed)
    prejoined = build_ssb_prejoined(dataset.database)
    # The bool-vs-packed comparison isolates the data-*representation*
    # speedup, so both backends run the per-operation dispatch strategy the
    # packed backend was introduced against (PR 3): under the batched default
    # both backends collapse into a handful of whole-array expressions and
    # the per-op overhead this section exists to compare disappears.  The
    # fused-vs-dispatch strategy speedup is measured by the fused-replay
    # section below, on the packed backend both sections share.
    configs = {
        backend: DEFAULT_CONFIG.with_backend(backend).with_execution("dispatch")
        for backend in BACKENDS
    }

    engines = {
        backend: _gate_level_engine(prejoined, configs[backend])
        for backend in BACKENDS
    }
    timed = {backend: _timed_executions(engines[backend]) for backend in BACKENDS}

    results = BackendSpeedResults(
        scale_factor=scale_factor, records=len(prejoined)
    )
    for name in QUERY_ORDER:
        bool_s, bool_exec = timed["bool"][name]
        packed_s, packed_exec = timed["packed"][name]
        results.queries.append(QueryComparison(
            query=name,
            bool_s=bool_s,
            packed_s=packed_s,
            rows_match=packed_exec.rows == bool_exec.rows,
            stats_match=stats_identical(packed_exec.stats, bool_exec.stats),
        ))

    if with_service:
        bool_s, bool_batch = _timed_service_batch(prejoined, configs["bool"])
        packed_s, packed_batch = _timed_service_batch(prejoined, configs["packed"])
        results.service = ServiceComparison(
            bool_s=bool_s,
            packed_s=packed_s,
            rows_match=all(
                p.rows == b.rows
                for p, b in zip(packed_batch.executions, bool_batch.executions)
            ),
        )

    results.codec = _timed_field_codec(
        {backend: engines[backend].stored for backend in BACKENDS}
    )
    if with_fused:
        results.fused = _timed_fused_replay(prejoined, configs["packed"])
    if with_scatter:
        results.scatter = _timed_scatter(
            prejoined, configs["packed"], shards=scatter_shards
        )
    return results


def render(results: BackendSpeedResults) -> str:
    """Paper-style comparison table of the two backends."""
    lines = [
        f"Backend speed, SSB SF={results.scale_factor} "
        f"({results.records} pre-joined records), gate-level NOR execution",
        f"{'query':<8} {'bool [s]':>10} {'packed [s]':>11} "
        f"{'speedup':>8}  rows  stats",
    ]
    for q in results.queries:
        lines.append(
            f"{q.query:<8} {q.bool_s:>10.4f} {q.packed_s:>11.4f} "
            f"{q.speedup:>7.1f}x  {'ok' if q.rows_match else 'DIFF':<4}  "
            f"{'ok' if q.stats_match else 'DIFF'}"
        )
    lines.append(
        f"{'total':<8} {results.bool_total_s:>10.4f} "
        f"{results.packed_total_s:>11.4f} {results.speedup:>7.1f}x"
    )
    if results.service is not None:
        s = results.service
        lines.append(
            f"service batch (13 queries, warm): "
            f"bool {s.bool_s:.4f}s / packed {s.packed_s:.4f}s "
            f"= {s.speedup:.1f}x, rows {'ok' if s.rows_match else 'DIFF'}"
        )
    if results.fused is not None:
        f = results.fused
        lines.append(
            f"fused replay ({f.programs} filter programs, packed, warm): "
            f"dispatch {f.dispatch_s:.4f}s / fused {f.fused_s:.4f}s "
            f"= {f.speedup:.1f}x"
        )
        lines.append(
            f"  NOR-DAG: {f.cycles} charged cycles -> {f.live_nors} live "
            f"gates after CSE, summed critical-path depth {f.total_depth}"
        )
    if results.scatter is not None:
        sc = results.scatter
        note = "" if sc.gateable else (
            f" [{sc.cpu_count} core(s) for a {sc.shards}-wide pool: "
            f"workers time-slice, gate skipped]"
        )
        lines.append(
            f"fused-kernel scatter ({sc.shards} shards x "
            f"{sc.crossbars_per_shard} crossbars, warm): "
            f"serial {sc.serial_s:.4f}s / pooled {sc.parallel_s:.4f}s "
            f"= {sc.speedup:.2f}x, bits {'ok' if sc.bits_match else 'DIFF'}"
            f"{note}"
        )
    if results.codec is not None:
        c = results.codec
        lines.append(
            f"field codec ({c.crossbars} crossbars x {c.rows} rows, every "
            f"layout field, min of {c.repeats}, {c.cpu_count} CPU): values "
            f"{'ok' if c.values_match else 'DIFF'}"
        )
        rows = [
            [w.width, w.fields, *(w.ms[cell] for cell in CODEC_CELLS)]
            for w in c.widths
        ]
        rows.append([
            "total", sum(w.fields for w in c.widths),
            *(c.total_ms(cell) for cell in CODEC_CELLS),
        ])
        lines.append(format_table(
            ["width", "fields", *(f"{cell} [ms]" for cell in CODEC_CELLS)], rows
        ))
        lines.append(
            f"packed vs bool: decode {c.speedup('decode'):.1f}x, "
            f"encode {c.speedup('encode'):.1f}x"
        )
        lines.append("read_field_cells (gather) vs read_field_all + index, by "
                     "share of the bank's cells read [ms]:")
        lines.append(format_table(
            ["width", *GATHER_CELLS],
            [[w.width, *(w.ms[cell] for cell in GATHER_CELLS)] for w in c.widths],
        ))
    return "\n".join(lines)


def artifact(results: BackendSpeedResults) -> dict:
    """The ``BENCH_backend.json`` trajectory record."""
    record = {
        "benchmark": "backend_speed",
        "scale_factor": results.scale_factor,
        "records": results.records,
        # Recorded at the top level so trajectory diffs show immediately
        # whether a scatter-speedup change is a code change or a host change
        # (the >1x pool gate only applies when cpu_count > 1).
        "cpu_count": os.cpu_count() or 1,
        "gate_level": {
            "execution": "dispatch",
            "bool_total_s": results.bool_total_s,
            "packed_total_s": results.packed_total_s,
            "speedup": results.speedup,
        },
        "queries": [
            {
                "query": q.query,
                "bool_s": q.bool_s,
                "packed_s": q.packed_s,
                "speedup": q.speedup,
                "rows_match": q.rows_match,
                "stats_match": q.stats_match,
            }
            for q in results.queries
        ],
        "bit_exact": results.bit_exact,
        "stats_identical": results.stats_identical,
    }
    if results.service is not None:
        record["service_batch"] = {
            "bool_s": results.service.bool_s,
            "packed_s": results.service.packed_s,
            "speedup": results.service.speedup,
            "rows_match": results.service.rows_match,
        }
    if results.fused is not None:
        record["fused_replay"] = {
            "programs": results.fused.programs,
            "cycles": results.fused.cycles,
            "live_nors": results.fused.live_nors,
            "total_depth": results.fused.total_depth,
            "dispatch_s": results.fused.dispatch_s,
            "fused_s": results.fused.fused_s,
            "speedup": results.fused.speedup,
        }
    if results.scatter is not None:
        record["kernel_scatter"] = {
            "shards": results.scatter.shards,
            "crossbars_per_shard": results.scatter.crossbars_per_shard,
            "cpu_count": results.scatter.cpu_count,
            "serial_s": results.scatter.serial_s,
            "parallel_s": results.scatter.parallel_s,
            "speedup": results.scatter.speedup,
            "bits_match": results.scatter.bits_match,
            "gateable": results.scatter.gateable,
        }
    if results.codec is not None:
        c = results.codec
        record["field_codec"] = {
            "crossbars": c.crossbars,
            "rows": c.rows,
            "cpu_count": c.cpu_count,
            "repeats": c.repeats,
            "unit": "ms, min of repeats, summed over the fields of a width",
            "widths": [
                {
                    "width": w.width,
                    "fields": w.fields,
                    **{f"{cell}_ms": ms for cell, ms in w.ms.items()},
                }
                for w in c.widths
            ],
            "gather_shares": list(GATHER_SHARES),
            **{f"{cell}_ms": c.total_ms(cell) for cell in CODEC_CELLS},
            "decode_speedup": c.speedup("decode"),
            "encode_speedup": c.speedup("encode"),
            "values_match": c.values_match,
        }
    return record


def write_artifact(results: BackendSpeedResults, path) -> None:
    """Persist the schema-versioned trajectory artifact as JSON."""
    emit.write_artifact(
        path,
        "backend_speed",
        artifact(results),
        gates={
            "bit_exact": results.bit_exact,
            "stats_identical": results.stats_identical,
        },
    )
