#!/usr/bin/env python3
"""One layered benchmark for the PIM query-engine simulator.

Driver form (one workload, one measurement, last stdout line is JSON)::

    python3 perf/run.py --workload ssb_default --seed 7 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics closed-loop with one client and
no wrapper installed; ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics.  Without ``--workload`` every workload runs in
its own subprocess (both forms) and one record is written to
``perf/results/``; see ``README.md`` for ``--runs``, ``--aa`` and
``--compare``.

Two time bases, never mixed: *modelled* (what the simulated PIM hardware
would take — deterministic for a seed) and *host* (what this Python simulator
takes here — noisy, reported in calibrated seconds, see :mod:`measure`).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The program under test is imported from the checkout's sources.
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402  (sibling modules, after the path set-up)
import measure  # noqa: E402
import spans  # noqa: E402

#: Environment switches of the simulator this benchmark refuses to inherit.
FORBIDDEN_ENV = (
    "REPRO_BACKEND", "REPRO_EXECUTION", "REPRO_DML", "REPRO_TRACE", "REPRO_SSB_SF",
)
SETUP_REPEATS = 3
#: Kernel runs thrown away at start (first-touch page faults, cold caches).
CALIBRATION_WARMUP = 25
#: Passes before the timed window: the cold pass of set-up plus these.
EXTRA_WARMUP_PASSES = 2
#: The window never closes before this many passes, and the modelled metrics
#: and the peak RSS are taken over exactly the first this-many, so they do
#: not depend on how many passes the host managed in the window.
MIN_TIMED_PASSES = 4
#: Traced passes the per-layer *counts* are taken from (times use them all).
COUNTED_TRACED_PASSES = 2
RESULTS_DIR = HERE / "results"


# ------------------------------------------------------------------ the client
@dataclass
class PassLog:
    """What one pass did, read off the results the service returned."""

    #: Position of the pass's first op in the client's op sequence.
    first_op: int
    walls: list[float] = field(default_factory=list)
    #: The full collection that precedes the pass (outside every timed op).
    gc_s: float = 0.0
    modelled_time_s: float = 0.0
    modelled_energy_j: float = 0.0
    max_writes_per_row: int = 0
    phases: dict[str, float] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.walls)

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value


class Client:
    """The single closed-loop client: times, calibrates and checks every op."""

    def __init__(self, instance) -> None:
        self.instance = instance
        #: Set by the per-layer measurement; active only inside traced ops.
        self.recorder: spans.Recorder | None = None
        self.traced = False
        self.verify = False
        self.passes: list[PassLog] = []
        #: ``calibrations[k]`` precedes op ``k`` and ``[k + 1]`` follows it.
        self.calibrations = [measure.calibrate()]
        self.attempted = 0
        self.failed = 0
        self.next_pass = 0

    # ------------------------------------------------------------------ ops
    def __call__(self, kind, fn, check):
        log = self.passes[-1]
        self.attempted += 1
        result = None
        if self.traced:
            self.recorder.active = True
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:  # an op that raises is a failed op, not a crash
            traceback.print_exc()
        finally:
            wall = time.perf_counter() - start
            if self.traced:
                self.recorder.active = False
        log.walls.append(wall)
        self.calibrations.append(measure.calibrate())
        if result is None:
            self.failed += 1
            return None
        self._fold(log, kind, result)
        if self.verify and check(result):
            self.failed += 1
        return result

    def run_pass(self, verify: bool = False, traced: bool = False) -> PassLog:
        """Run the instance's next pass; returns its log.

        ``verify`` checks every op against the independent evaluator (and,
        for a workload that writes, the shadow copy at the end of the pass).

        A full garbage collection runs first, so that the collector's full
        sweeps (0.2-0.5 s each on ``ssb_allpim`` at HEAD, growing with the
        heap) happen here, where they are measured, and not inside whichever
        op the allocation counters happen to pick.
        """
        service = self.instance.service
        log = PassLog(sum(len(p.walls) for p in self.passes))
        self.passes.append(log)
        start = time.perf_counter()
        gc.collect()
        log.gc_s = time.perf_counter() - start
        self.verify, self.traced = verify, traced
        cache = service.cache_stats()
        candidates = service.candidate_cache_stats()
        rebuilds = service.adaptive_stats().rebuilds
        if verify:
            self.instance.begin_shadow()
        self.instance.run_pass(self.next_pass, self)
        if verify:
            self.failed += self.instance.end_shadow()
        self.next_pass += 1
        cache = service.cache_stats() - cache
        candidates = service.candidate_cache_stats() - candidates
        log.count("cache_hits", cache.hits)
        log.count("cache_misses", cache.misses)
        log.count("cache_evictions", cache.evictions)
        log.count("candidate_hits", candidates.hits)
        log.count("candidate_lookups", candidates.lookups)
        log.count("stats_rebuilds", service.adaptive_stats().rebuilds - rebuilds)
        return log

    def _fold(self, log: PassLog, kind: str, result) -> None:
        if kind == "batch":
            all_stats = [execution.stats for execution in result]
            phase_stats = [critical_path_stats(execution) for execution in result]
            planner = result.stats.planner
            log.count("host_routed", planner.host_routed if planner else 0)
            for execution in result:
                log.count("crossbars_total", execution.crossbars_total)
                log.count("crossbars_scanned", execution.crossbars_scanned)
                log.count("shards_skipped", getattr(execution, "shards_skipped", 0))
                if execution.query.group_by:
                    log.count("pim_subgroups", execution.pim_subgroups)
                    log.count(
                        "host_subgroups",
                        execution.total_subgroups - execution.pim_subgroups,
                    )
        else:
            all_stats = phase_stats = [result.stats]
            outcome = result.result
            log.count("rows_inserted", getattr(outcome, "records_inserted", 0))
            log.count("rows_deleted", getattr(outcome, "records_deleted", 0))
            log.count("slots_reclaimed", getattr(outcome, "slots_reclaimed", 0))
        for stats in all_stats:
            log.modelled_time_s += stats.total_time_s
            log.modelled_energy_j += stats.total_energy_j
            log.max_writes_per_row = max(
                log.max_writes_per_row, stats.max_writes_per_row
            )
        for stats in phase_stats:
            for phase, seconds in stats.time_by_phase.items():
                log.phases[phase] = log.phases.get(phase, 0.0) + seconds

    # ------------------------------------------------------------ summaries
    def calibrated_ops(self, log: PassLog) -> list[float]:
        return [
            measure.calibrated(
                wall, measure.local_speed(self.calibrations, log.first_op + offset)
            )
            for offset, wall in enumerate(log.walls)
        ]

    def calibrated_pass(self, log: PassLog) -> float:
        return sum(self.calibrated_ops(log))


def peak_rss() -> float:
    """Peak resident set of this process so far, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def critical_path_stats(execution):
    """The stats whose phases explain an execution's modelled time.

    A sharded execution restates its time as one ``scatter`` phase (the
    slowest shard) plus the merge; the slowest shard's own phases say what
    that time was spent on.
    """
    shards = getattr(execution, "shard_executions", None)
    if not shards:
        return execution.stats
    critical = max(shards, key=lambda shard: shard.time_s).stats.copy()
    critical.add_time("shard-merge", execution.merge_time_s)
    return critical


def set_up(workload, seed: int, quick: bool):
    """Everything a user waits for before the first warm result: build the
    relation and the service, then run the cold pass.

    Returns ``(client, raw wall, calibrated wall)``; the build is calibrated
    against kernel samples around it, the cold pass op by op like any other.
    """
    before = [measure.calibrate() for _ in range(measure.CALIBRATION_WINDOW)]
    start = time.perf_counter()
    instance = workload.build(seed, quick=quick)
    build_s = time.perf_counter() - start
    client = Client(instance)
    speed = statistics.median(before + client.calibrations)
    cold = client.run_pass()
    return (
        client,
        build_s + cold.wall,
        measure.calibrated(build_s, speed) + client.calibrated_pass(cold),
    )


# ---------------------------------------------------------------- end to end
def measure_end_to_end(workload, seed: int, seconds: float, quick: bool) -> dict:
    """Tracing off: set-up (several times), warm-up, the timed window, a
    verified pass; returns the record of one run."""
    setups_raw: list[float] = []
    setups: list[float] = []
    client = None
    for _ in range(1 if quick else SETUP_REPEATS):
        if client is not None:
            client.instance.close()
            client = None
            gc.collect()
        client, wall, calibrated = set_up(workload, seed, quick)
        setups_raw.append(wall)
        setups.append(calibrated)
    for _ in range(0 if quick else EXTRA_WARMUP_PASSES):
        client.run_pass()
    warm = len(client.passes)

    window_start = time.perf_counter()
    min_passes = 2 if quick else MIN_TIMED_PASSES
    peak_rss_mb = 0.0
    while (
        time.perf_counter() - window_start < seconds
        or len(client.passes) - warm < min_passes
    ):
        client.run_pass(verify=client.instance.static)
        if len(client.passes) - warm == min_passes:
            # Read at a fixed amount of work: the heap of some workloads
            # keeps growing with every pass, and the pass count varies.
            peak_rss_mb = peak_rss()
    window_s = time.perf_counter() - window_start
    rss_at_end_mb = peak_rss()
    timed = client.passes[warm:]
    client.run_pass(verify=True)
    client.instance.close()

    pass_walls = [client.calibrated_pass(log) for log in timed]
    op_walls = [wall for log in timed for wall in client.calibrated_ops(log)]
    modelled = timed[:min_passes]
    noise = measure.spread(client.calibrations)
    values = {
        "pass_wall_s": statistics.median(pass_walls),
        "op_wall_p90_s": measure.percentile(op_walls, 0.90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "modelled_time_s": statistics.fmean(p.modelled_time_s for p in modelled),
        "modelled_energy_j": statistics.fmean(p.modelled_energy_j for p in modelled),
        "max_writes_per_row": max(p.max_writes_per_row for p in modelled),
    }
    return {
        "values": values,
        "samples": {
            "pass_wall_s": measure.summary(pass_walls),
            "op_wall_p90_s": measure.summary(op_walls),
            "setup_s": measure.summary(setups),
            "pass_wall_raw_s": measure.summary([log.wall for log in timed]),
            "setup_raw_s": measure.summary(setups_raw),
            "calibration_s": measure.summary(client.calibrations),
        },
        "attempted": client.attempted,
        "failed": client.failed,
        "noise_frac": noise,
        "noisy": noise > measure.NOISY_THRESHOLD,
        "passes": {
            "setups": len(setups), "warmup": warm, "timed": len(timed),
            "modelled": len(modelled), "ops": len(op_walls),
        },
        "window_s": window_s,
        "rss_at_window_end_mb": rss_at_end_mb,
        "gc_s_per_pass": statistics.fmean(log.gc_s for log in timed),
    }


# ----------------------------------------------------------------- per layer
def measure_layers(workload, seed: int, seconds: float, quick: bool) -> dict:
    """Alternate untraced and traced passes; fold the spans into layer metrics."""
    client, _, _ = set_up(workload, seed, quick)
    instance = client.instance
    cold_pass_s = client.passes[0].wall
    for _ in range(0 if quick else EXTRA_WARMUP_PASSES):
        client.run_pass()
    recorder = spans.Recorder()
    recorder.resolve(layers.targets())
    client.recorder = recorder
    untraced: list[PassLog] = []
    traced: list[PassLog] = []
    main_thread = threading.get_ident()
    window_start = time.perf_counter()
    try:
        while (
            time.perf_counter() - window_start < seconds
            or len(traced) < COUNTED_TRACED_PASSES
        ):
            untraced.append(client.run_pass())
            recorder.patch()
            try:
                traced.append(client.run_pass(verify=True, traced=True))
            finally:
                recorder.unpatch()
    finally:
        instance.close()

    passes = len(traced)
    by_name = spans.totals_by_name(recorder.spans)
    unresolved = set(recorder.unresolved)

    def per_traced_pass(metric: str, quantity: str) -> float:
        return sum(
            by_name[path][quantity]
            for path in layers.SPAN_METRICS[metric] if path in by_name
        ) / passes

    values = {metric: per_traced_pass(metric, "self_s") for metric in layers.SPAN_METRICS}
    for metric, source in layers.CALL_METRICS.items():
        values[metric] = per_traced_pass(source, "calls")
    for metric, (source, _) in layers.MEASURED_METRICS.items():
        values[metric] = per_traced_pass(source, "measured")
    unresolved_metrics = [
        metric for metric, paths in layers.SPAN_METRICS.items()
        if unresolved.issuperset(paths)
    ]

    # Counts come from a fixed set of passes, so they repeat exactly however
    # many passes the host managed; times use every traced pass.
    counted = traced[:COUNTED_TRACED_PASSES]

    def per_pass(name: str) -> float:
        return sum(log.counters.get(name, 0.0) for log in counted) / len(counted)

    hits, misses = per_pass("cache_hits"), per_pass("cache_misses")
    lookups = per_pass("candidate_lookups")
    total_xbars = per_pass("crossbars_total")
    values.update({
        "service.program_cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "service.program_cache.misses": misses,
        "service.program_cache.evictions": per_pass("cache_evictions"),
        "service.host_routed": per_pass("host_routed"),
        "service.cold_pass_s": cold_pass_s,
        "planner.candidate_cache.hit_rate": (
            per_pass("candidate_hits") / lookups if lookups else 0.0
        ),
        "planner.crossbars_scanned_frac": (
            per_pass("crossbars_scanned") / total_xbars if total_xbars else 0.0
        ),
        "planner.stats_rebuilds": per_pass("stats_rebuilds"),
        "core.pim_subgroups": per_pass("pim_subgroups"),
        "core.host_subgroups": per_pass("host_subgroups"),
        "db.dml.rows_inserted": per_pass("rows_inserted"),
        "db.dml.rows_deleted": per_pass("rows_deleted"),
        "db.dml.slots_reclaimed": per_pass("slots_reclaimed"),
        "db.load_s": instance.setup.load_s,
        "sharding.shards_skipped": per_pass("shards_skipped"),
        "sharding.shard_wall_skew": shard_wall_skew(recorder.spans),
        "ssb.generate_s": instance.setup.generate_s,
        "ssb.prejoin_s": instance.setup.prejoin_s,
    })
    phases: dict[str, float] = {}
    for log in counted:
        for phase, secs in log.phases.items():
            phases[phase] = phases.get(phase, 0.0) + secs / len(counted)
    values.update(dict.fromkeys(layers.MODELLED_PHASES, 0.0))
    for phase, secs in phases.items():
        values[layers.modelled_bucket(phase)] += secs

    traced_wall = sum(log.wall for log in traced)
    ratios = [
        client.calibrated_pass(t) / client.calibrated_pass(u)
        for t, u in zip(traced, untraced)
    ]
    noise = measure.spread(client.calibrations)
    values.update({
        "trace.overhead_frac": statistics.median(ratios) - 1.0,
        "trace.coverage_frac": (
            spans.self_time_on_thread(recorder.spans, main_thread) / traced_wall
        ),
        "trace.unresolved_targets": len(unresolved),
        "host.noise_frac": noise,
        "host.calibration_s": statistics.median(client.calibrations),
        "host.gc_s": statistics.fmean(log.gc_s for log in untraced),
        "host.pass_wall_raw_s": statistics.median(log.wall for log in untraced),
    })
    return {
        "values": values,
        "unresolved_targets": sorted(unresolved),
        "unresolved_metrics": unresolved_metrics,
        "modelled_phases": phases,
        "attempted": client.attempted,
        "failed": client.failed,
        "noise_frac": noise,
        "noisy": noise > measure.NOISY_THRESHOLD,
        "passes": {"untraced": len(untraced), "traced": passes, "spans": len(recorder.spans)},
    }


def shard_wall_skew(all_spans) -> float:
    """Mean over sharded executions of (slowest shard wall / mean shard wall)."""
    by_id = {span.id: span for span in all_spans}
    shards: dict[int, list[float]] = {}
    for span in all_spans:
        if span.name != layers.SHARD_RUN:
            continue
        owner = spans.enclosing(span, by_id, layers.SHARD_EXECUTE)
        if owner is not None:
            shards.setdefault(owner.id, []).append(span.duration)
    skews = [
        max(walls) / statistics.fmean(walls) for walls in shards.values() if walls
    ]
    return statistics.fmean(skews) if skews else 0.0


# ------------------------------------------------------------------ reporting
def stamp(seed: int) -> dict:
    """Where and on what this record was measured."""
    import numpy

    revision, dirty = "unknown", None
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=10,
        ).stdout.strip()
        dirty = bool(subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=10,
        ).stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass  # not a git checkout (the driver's copy is not)
    return {
        "git_revision": revision,
        "git_dirty": dirty,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "unix_time": time.time(),
    }


def catalogue(trace: bool):
    return layers.PER_LAYER if trace else layers.END_TO_END


def print_report(workload, record: dict, trace: bool) -> None:
    """Every metric by name with its unit and time base."""
    flag = "  [NOISY HOST: calibration IQR/median > 10 %]" if record["noisy"] else ""
    print(
        f"== {workload.name} seed={record['stamp']['seed']} "
        f"{'per-layer (traced)' if trace else 'end-to-end (tracing off)'} "
        f"passes={record['passes']} host.noise_frac={record['noise_frac']:.3f}{flag}"
    )
    for metric in catalogue(trace):
        value = record["values"][metric.name]
        line = f"  {metric.name:<34} {value:>14.6g} {metric.unit:<6} [{metric.base}]"
        sample = record.get("samples", {}).get(metric.name)
        if sample:
            line += (
                f"  n={sample['n']} min={sample['min']:.4g} q1={sample['q1']:.4g} "
                f"med={sample['median']:.4g} q3={sample['q3']:.4g} max={sample['max']:.4g}"
            )
        if metric.name in record.get("unresolved_metrics", ()):
            line += "  UNRESOLVED (null)"
        print(line)
    for path in record.get("unresolved_targets", ()):
        print(f"  trace.unresolved_targets: {path}")
    if "rss_at_window_end_mb" in record:
        print(
            f"  (peak RSS at the end of the window {record['rss_at_window_end_mb']:.1f} MiB; "
            f"inter-pass gc.collect() {record['gc_s_per_pass']:.4f} s per pass)"
        )
    print(f"  ops attempted={record['attempted']} failed={record['failed']}")


def driver_line(record: dict, trace: bool) -> str:
    """The contract's last stdout line."""
    metrics = {
        metric.name: {"value": record["values"][metric.name], "unit": metric.unit}
        for metric in catalogue(trace)
    }
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    })


def run_one(args) -> int:
    """Driver form: one workload, one measurement."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    for _ in range(CALIBRATION_WARMUP):
        measure.calibrate()
    measure_fn = measure_layers if args.trace else measure_end_to_end
    record = measure_fn(workload, args.seed, args.seconds, args.quick)
    record["workload"] = workload.name
    record["trace"] = bool(args.trace)
    record["stamp"] = stamp(args.seed)
    print_report(workload, record, bool(args.trace))
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, default=float))
    print(driver_line(record, bool(args.trace)), flush=True)
    return 0 if record["failed"] == 0 else 1


# -------------------------------------------------------------- orchestration
def run_all(args) -> dict:
    """Every workload in its own subprocess: ``--runs`` end-to-end runs on
    consecutive seeds, then one traced run; returns the combined record."""
    from workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    combined = {"stamp": stamp(args.seed), "seconds": args.seconds, "workloads": {}}
    with tempfile.TemporaryDirectory(dir=HERE) as scratch:
        for name in names:
            entry = {"end_to_end": [], "per_layer": None}
            jobs = [(args.seed + i, 0) for i in range(args.runs)]
            if not args.no_trace:
                jobs.append((args.seed, 1))
            for seed, trace in jobs:
                out = Path(scratch) / f"{name}-{seed}-{trace}.json"
                command = [
                    sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--out", str(out),
                ] + (["--quick"] if args.quick else [])
                status = subprocess.run(command, check=False).returncode
                if not out.exists():
                    raise SystemExit(f"{name} seed {seed} produced no record (exit {status})")
                record = json.loads(out.read_text())
                if trace:
                    entry["per_layer"] = record
                else:
                    entry["end_to_end"].append(record)
            combined["workloads"][name] = entry
    return combined


def save(record: dict, label: str) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{label}-{int(record['stamp']['unix_time'])}.json"
    path.write_text(json.dumps(record, indent=1, default=float))
    return path


def failures(record: dict) -> int:
    return sum(
        run["failed"]
        for entry in record["workloads"].values()
        for run in entry["end_to_end"] + ([entry["per_layer"]] if entry["per_layer"] else [])
    )


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """Per-workload rows of B against A; ``ok`` is False on any regression.

    Modelled metrics and counts must be identical seed by seed; a host-time
    metric regresses when B's median is worse than A's by more than the
    bound, and is *unresolved* when either side's run-to-run spread exceeds
    the bound (it cannot be called unchanged).
    """
    rows = [
        f"{'workload':<12} {'metric':<20} {'A':>12} {'B':>12} {'delta':>9} "
        f"{'bound':>7} {'spread':>7}  verdict"
    ]
    ok = True
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            continue
        for metric in layers.END_TO_END:
            series_a = [run["values"][metric.name] for run in entry_a["end_to_end"]]
            series_b = [run["values"][metric.name] for run in entry_b["end_to_end"]]
            median_a, median_b = statistics.median(series_a), statistics.median(series_b)
            delta = (median_b - median_a) / median_a if median_a else 0.0
            run_spread = max(measure.spread(series_a), measure.spread(series_b))
            if metric.base == "modelled":
                same = series_a == series_b
                verdict = "identical" if same else "DIFFERS (must be exact)"
                ok = ok and same
            elif run_spread > metric.bound:
                verdict = "unresolved (spread > bound)"
            elif delta > metric.bound:
                verdict = "REGRESSION"
                ok = False
            else:
                verdict = "within bound"
            rows.append(
                f"{name:<12} {metric.name:<20} {median_a:>12.6g} {median_b:>12.6g} "
                f"{delta:>+9.2%} {metric.bound:>7.2f} {run_spread:>7.2%}  {verdict}"
            )
        layer_a, layer_b = entry_a.get("per_layer"), entry_b.get("per_layer")
        if layer_a and layer_b:
            for metric in layers.PER_LAYER:
                if metric.base == "host":
                    continue
                va, vb = layer_a["values"][metric.name], layer_b["values"][metric.name]
                if va != vb:
                    ok = False
                    rows.append(
                        f"{name:<12} {metric.name:<34} {va!r} -> {vb!r}  "
                        "DIFFERS (count/modelled, must be exact)"
                    )
    return rows, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="SF 0.002, one set-up, 1+2 passes (smoke test)")
    parser.add_argument("--out", help="also write this run's full record here")
    parser.add_argument("--runs", type=int, default=1,
                        help="end-to-end runs per workload, on consecutive seeds")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--aa", action="store_true",
                        help="run everything twice and compare the two records")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        rows, ok = compare(a, b)
        print("\n".join(rows))
        return 0 if ok else 1

    inherited = [name for name in FORBIDDEN_ENV if name in os.environ]
    if inherited:
        print(f"refusing to run with {', '.join(inherited)} set: the benchmark "
              "pins its configuration", file=sys.stderr)
        return 2
    if args.seconds is None:
        benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = 1.0 if args.quick else float(benchmark["run_seconds"])

    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return run_one(args)

    first = run_all(args)
    print(f"record: {save(first, 'run')}")
    status = 1 if failures(first) else 0
    if args.aa:
        second = run_all(args)
        print(f"record: {save(second, 'run')}")
        rows, ok = compare(first, second)
        print("\n".join(rows))
        status = status or (1 if failures(second) or not ok else 0)
    return status


if __name__ == "__main__":
    sys.exit(main())
