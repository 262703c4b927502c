"""Host-time measurement helpers: the calibration kernel and robust summaries.

The hosts this benchmark runs on are noisy in CPU *speed* (process-CPU time
tracks wall time, so it is not scheduling): the same pass takes 0.38 s in one
minute and 0.48 s in the next.  A fixed calibration kernel is therefore
interleaved between the timed operations, and every host-time end-to-end
metric is reported in *reference-speed seconds*:

    calibrated = wall * CALIBRATION_REFERENCE_S / local calibration time

where the local calibration time is the median of the kernel samples taken
just before and after the operation.  On a host running at the reference
speed, calibrated seconds equal wall seconds.  The raw wall figures and the
kernel's own spread (``host.noise_frac``) are reported beside them.
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Sequence

import numpy as np

#: What one calibration kernel takes on the reference host at an ordinary
#: moment.  A constant, so that calibrated seconds read like seconds.
CALIBRATION_REFERENCE_S = 0.0050

#: A run is marked ``noisy`` when the kernel's IQR/median exceeds this.
NOISY_THRESHOLD = 0.10

#: Kernel samples on each side of an operation that form its local speed.
CALIBRATION_WINDOW = 4

_LOOP_ITERATIONS = 25_000
_ALLOCATIONS = 1_500
_NOR_WORDS = 1 << 16
_NOR_REPEATS = 50
_A = np.arange(_NOR_WORDS, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
_B = _A[::-1].copy()
#: Written in place: a temporary of this size may or may not be served by
#: ``mmap`` depending on the allocator's history, which is not host speed.
_OUT = np.empty_like(_A)


def calibrate() -> float:
    """Run the fixed kernel once; returns its wall time in seconds.

    Three parts of about equal length, the kinds of work the simulator's
    layers are made of: interpreter arithmetic (a pure-Python loop), small
    object churn (tuples, lists and dicts, as the program compiler makes
    them) and NumPy bulk bitwise work (a ``uint64`` NOR over a fixed
    512 KiB array).
    """
    start = time.perf_counter()
    total = 0
    for i in range(_LOOP_ITERATIONS):
        total += i & 7
    table = {}
    for i in range(_ALLOCATIONS):
        key = (i, i & 3, str(i & 15))
        table[key] = [{"index": i, "key": key}]
    for _ in range(_NOR_REPEATS):
        np.bitwise_or(_A, _B, out=_OUT)
        np.bitwise_not(_OUT, out=_OUT)
    return time.perf_counter() - start


def local_speed(calibrations: Sequence[float], index: int) -> float:
    """Local kernel time around the gap between samples ``index`` and ``index+1``.

    ``calibrations[i]`` was taken before operation ``i`` and
    ``calibrations[i + 1]`` after it; the median over a small window on both
    sides rides out a one-sample spike.
    """
    low = max(0, index + 1 - CALIBRATION_WINDOW)
    high = min(len(calibrations), index + 1 + CALIBRATION_WINDOW)
    return statistics.median(calibrations[low:high])


def calibrated(wall: float, speed: float) -> float:
    """``wall`` seconds at local kernel time ``speed``, in reference seconds."""
    return wall * CALIBRATION_REFERENCE_S / speed


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); degenerate for < 2 values."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """The ``fraction`` quantile (linear interpolation between order statistics)."""
    return float(np.quantile(np.asarray(values, dtype=float), fraction))


def summary(values: Sequence[float]) -> dict[str, float]:
    """min / quartiles / max and the sample count, for printing beside a metric."""
    q1, q2, q3 = quartiles(values)
    return {
        "n": len(values),
        "min": float(min(values)),
        "q1": q1,
        "median": q2,
        "q3": q3,
        "max": float(max(values)),
    }
