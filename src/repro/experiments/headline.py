"""The paper's headline numbers, computed from the Fig. 6/7/9 data.

The abstract claims that, compared to PIMDB, the proposed system improves
execution time by 1.83x, energy by 4.31x and lifetime by 3.21x, and that it
is 7.46x / 4.65x faster than MonetDB without / with pre-joined relations.
This module computes the same aggregates from the reproduction's measurements
so they can be compared side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.config import SystemConfig
from repro.experiments.common import QueryRecord, format_table, pimdb_ratio
from repro.experiments.fig6_latency import speedups
from repro.experiments.fig9_endurance import lifetime_improvement


@dataclass(frozen=True)
class HeadlineMetric:
    """One headline comparison: measured value versus the paper's."""

    name: str
    measured: float
    paper: float

    @property
    def direction_matches(self) -> bool:
        """Whether the measured ratio points the same way as the paper's."""
        return (self.measured > 1.0) == (self.paper > 1.0)


def headline_metrics(
    records: Sequence[QueryRecord], config: SystemConfig = None
) -> list[HeadlineMetric]:
    """Compute every headline metric available from the records."""
    available = {r.config for r in records}
    metrics: list[HeadlineMetric] = []
    if {"one_xb", "mnt_reg"} <= available:
        metrics.append(HeadlineMetric(
            "speedup of one_xb over mnt_reg (geo-mean)",
            speedups(records, "mnt_reg")["geomean"], 7.46,
        ))
    if {"one_xb", "mnt_join"} <= available:
        metrics.append(HeadlineMetric(
            "speedup of one_xb over mnt_join (geo-mean)",
            speedups(records, "mnt_join")["geomean"], 4.65,
        ))
    if {"one_xb", "pimdb"} <= available:
        metrics.append(HeadlineMetric(
            "speedup of one_xb over pimdb (geo-mean)",
            speedups(records, "pimdb")["geomean"], 1.83,
        ))
        metrics.append(HeadlineMetric(
            "energy: pimdb / one_xb on PIM-aggregation queries",
            pimdb_ratio(records, "energy_j"), 4.31,
        ))
        metrics.append(HeadlineMetric(
            "lifetime: one_xb / pimdb on low-aggregation queries",
            lifetime_improvement(records, config), 3.21,
        ))
    if {"one_xb", "two_xb"} <= available:
        metrics.append(HeadlineMetric(
            "slowdown of two_xb vs one_xb (geo-mean)",
            speedups(records, "two_xb", target="one_xb")["geomean"], 3.39,
        ))
    if {"two_xb", "mnt_join"} <= available:
        metrics.append(HeadlineMetric(
            "speedup of two_xb over mnt_join (geo-mean)",
            speedups(records, "mnt_join", target="two_xb")["geomean"], 1.37,
        ))
    return metrics


def render(records: Sequence[QueryRecord], config: SystemConfig = None) -> str:
    """The headline comparison as printable text."""
    rows = [
        [m.name, f"{m.measured:.2f}x", f"{m.paper:.2f}x",
         "yes" if m.direction_matches else "NO"]
        for m in headline_metrics(records, config)
    ]
    return format_table(["Metric", "Measured", "Paper", "Same direction"], rows)
