"""Fig. 6 — SSB execution latency for all five configurations."""

from __future__ import annotations

from collections.abc import Sequence

from repro.experiments.common import (
    ALL_CONFIGS,
    QueryRecord,
    format_table,
    geomean,
    metric_rows,
    records_by,
)
from repro.ssb import QUERY_ORDER


def speedups(records: Sequence[QueryRecord], baseline: str, target: str = "one_xb") -> dict[str, float]:
    """Per-query speedup of ``target`` over ``baseline`` plus the geo-mean."""
    indexed = records_by(records)
    ratios = {}
    for query in QUERY_ORDER:
        base = indexed.get((baseline, query))
        other = indexed.get((target, query))
        if base and other and other.time_s > 0:
            ratios[query] = base.time_s / other.time_s
    ratios["geomean"] = geomean(list(ratios.values()))
    return ratios


def render(setup_records: Sequence[QueryRecord], configs: Sequence[str] = ALL_CONFIGS) -> str:
    """Fig. 6 as printable text (run times in milliseconds)."""
    rows = []
    for row in metric_rows(setup_records, configs, "time_s"):
        rows.append([row[0]] + [f"{value * 1e3:.2f}" for value in row[1:]])
    table = format_table(["Query"] + [f"{c} [ms]" for c in configs], rows)
    lines = [table, ""]
    available = {r.config for r in setup_records}
    for baseline, paper in (("mnt_reg", 7.46), ("mnt_join", 4.65), ("pimdb", 1.83)):
        if baseline in available and "one_xb" in available:
            ratio = speedups(setup_records, baseline)["geomean"]
            lines.append(
                f"geo-mean speedup of one_xb over {baseline}: {ratio:.2f}x "
                f"(paper: {paper:.2f}x)"
            )
    if {"one_xb", "two_xb"} <= available:
        slowdown = speedups(setup_records, "two_xb", target="one_xb")["geomean"]
        lines.append(
            f"geo-mean slowdown of two_xb vs one_xb: {slowdown:.2f}x (paper: 3.39x)"
        )
    return "\n".join(lines)
