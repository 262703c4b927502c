"""Harness tests: ``python -m pytest perf -q`` (not collected by tier-1).

The span arithmetic is unit-tested on synthetic callables; the end of the
file drives ``run.py --quick`` (SF 0.002, one set-up, 1+2 passes) on every
workload and checks the emitted metrics against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# ----------------------------------------------------------- span arithmetic
def _module(**functions) -> types.ModuleType:
    module = types.ModuleType("repro._perf_fake")
    vars(module).update(functions)
    sys.modules[module.__name__] = module
    return module


@pytest.fixture
def fake():
    """A throwaway ``repro.*`` module: outer() calls inner() twice, then waits."""
    def inner():
        time.sleep(0.01)
        return [1, 2, 3]

    def outer():
        module.inner()
        module.inner()
        time.sleep(0.02)

    module = _module(inner=inner, outer=outer)
    yield module
    del sys.modules[module.__name__]


def _recorder(*targets: spans.Target) -> spans.Recorder:
    recorder = spans.Recorder()
    recorder.resolve(targets)
    recorder.patch()
    recorder.active = True
    return recorder


def test_self_time_is_duration_minus_children(fake):
    recorder = _recorder(
        spans.Target("repro._perf_fake:outer"),
        spans.Target("repro._perf_fake:inner", measure=len),
    )
    start = time.perf_counter()
    fake.outer()
    wall = time.perf_counter() - start
    recorder.unpatch()

    outer = next(s for s in recorder.spans if s.name.endswith(":outer"))
    inners = [s for s in recorder.spans if s.name.endswith(":inner")]
    assert len(inners) == 2 and all(s.parent == outer.id for s in inners)
    assert outer.self_s == pytest.approx(
        outer.duration - sum(s.duration for s in inners), abs=1e-9
    )
    assert outer.self_s >= 0.02
    totals = spans.totals_by_name(recorder.spans)
    assert totals["repro._perf_fake:inner"]["calls"] == 2
    assert totals["repro._perf_fake:inner"]["measured"] == 6
    # Self times partition the thread's time: they can never exceed the wall.
    assert spans.self_time_on_thread(recorder.spans, threading.get_ident()) <= wall


def test_unpatch_restores_and_inactive_records_nothing(fake):
    original = fake.inner
    recorder = _recorder(spans.Target("repro._perf_fake:inner"))
    assert fake.inner is not original
    recorder.active = False
    fake.inner()
    assert recorder.spans == []
    recorder.unpatch()
    assert fake.inner is original


def test_missing_target_is_unresolved_not_a_crash(fake):
    recorder = spans.Recorder()
    recorder.resolve([
        spans.Target("repro._perf_fake:inner"),
        spans.Target("repro._perf_fake:deleted_by_a_refactor"),
        spans.Target("repro.no_such_module:f"),
        spans.Target("repro.pim.controller:PimExecutor.no_such_method"),
    ])
    assert recorder.unresolved == [
        "repro._perf_fake:deleted_by_a_refactor",
        "repro.no_such_module:f",
        "repro.pim.controller:PimExecutor.no_such_method",
    ]


def test_worker_thread_spans_parent_to_the_scatter_call():
    from repro.core.parallel import ScatterPool

    def work(item):
        time.sleep(0.01)
        return item * 2

    module = _module(work=work)
    try:
        recorder = _recorder(
            spans.Target(layers.POOL_MAP, scatters=True),
            spans.Target("repro._perf_fake:work"),
        )
        with ScatterPool(2) as pool:
            assert pool.map(lambda item: module.work(item), [1, 2, 3, 4]) == [2, 4, 6, 8]
        recorder.unpatch()
    finally:
        del sys.modules[module.__name__]

    scatter = next(s for s in recorder.spans if s.name == layers.POOL_MAP)
    workers = [s for s in recorder.spans if s.name.endswith(":work")]
    assert len(workers) == 4
    assert all(s.parent == scatter.id for s in workers)
    assert all(s.thread != scatter.thread for s in workers)
    # The caller was blocked for the whole scatter: other threads' children
    # do not shrink its self time, and its own thread's total stays <= wall.
    assert scatter.self_s == pytest.approx(scatter.duration, abs=1e-9)
    assert spans.self_time_on_thread(recorder.spans, scatter.thread) <= scatter.duration + 1e-9


def test_calibrated_seconds_and_spread():
    assert measure.calibrated(2.0, measure.CALIBRATION_REFERENCE_S) == pytest.approx(2.0)
    assert measure.calibrated(2.0, 2 * measure.CALIBRATION_REFERENCE_S) == pytest.approx(1.0)
    assert measure.spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert measure.local_speed([1.0, 9.0, 1.0, 1.0, 1.0], 1) == 1.0
    assert measure.calibrate() > 0


# ------------------------------------------------------------- the catalogue
def test_benchmark_json_matches_the_catalogue():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in BENCHMARK[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]
    ] == [(m.name, m.unit, m.better, m.bound) for m in layers.END_TO_END]
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == [(m.name, m.unit, m.better) for m in layers.PER_LAYER]
    assert all(m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert any(m["name"] == "setup_s" for m in BENCHMARK["end_to_end"])
    from workloads import WORKLOADS

    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    derived = set(layers.SPAN_METRICS) | set(layers.CALL_METRICS) | set(layers.MEASURED_METRICS)
    assert derived <= {m.name for m in layers.PER_LAYER}


def _record(pass_walls, modelled=0.5) -> dict:
    values = {m.name: 1.0 for m in layers.END_TO_END}
    runs = [
        {"values": {**values, "pass_wall_s": wall, "modelled_time_s": modelled}}
        for wall in pass_walls
    ]
    return {"workloads": {"w": {"end_to_end": runs, "per_layer": None}}}


def test_compare_verdicts():
    import run

    def verdict(a, b, metric="pass_wall_s"):
        rows, ok = run.compare(a, b)
        return next(row for row in rows if f" {metric} " in row), ok

    steady = _record([1.00, 1.01, 0.99, 1.00])
    row, ok = verdict(steady, _record([1.05, 1.04, 1.06, 1.05]))
    assert "within bound" in row and ok
    row, ok = verdict(steady, _record([1.40, 1.41, 1.39, 1.40]))
    assert "REGRESSION" in row and not ok
    # A spread wider than the bound cannot be called unchanged.
    row, ok = verdict(steady, _record([0.6, 1.0, 1.4, 1.8]))
    assert "unresolved" in row and ok
    # Modelled metrics must repeat exactly, whatever the bound says.
    row, ok = verdict(steady, _record([1.0] * 4, modelled=0.5000001), "modelled_time_s")
    assert "DIFFERS" in row and not ok


# ------------------------------------------------------------- the quick run
def _quick(workload: str, trace: int) -> dict:
    command = BENCHMARK["command"] + [
        "--workload", workload, "--seed", "5", "--seconds", "1",
        "--trace", str(trace), "--quick",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=170, check=False
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_quick_run_emits_every_declared_metric(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _quick(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert set(result["metrics"]) == set(declared)
        for name, entry in result["metrics"].items():
            assert entry["unit"] == declared[name]
            assert isinstance(entry["value"], (int, float))
        if trace == 0:
            assert all(entry["value"] > 0 for entry in result["metrics"].values())
        else:
            assert result["metrics"]["trace.unresolved_targets"]["value"] == 0
            assert result["metrics"]["trace.coverage_frac"]["value"] >= 0.85


def test_refuses_inherited_simulator_switches():
    import os

    done = subprocess.run(
        BENCHMARK["command"] + ["--workload", "ssb_default", "--trace", "0", "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=False,
        env={**os.environ, "REPRO_BACKEND": "bool"},
    )
    assert done.returncode == 2 and "REPRO_BACKEND" in done.stderr
    assert done.stdout == ""
