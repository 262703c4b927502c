"""Fig. 8 — peak power of a single PIM chip for the SSB queries."""

from __future__ import annotations

from collections.abc import Sequence

from repro.experiments.common import (
    PIM_CONFIGS,
    QueryRecord,
    format_table,
    metric_rows,
    pimdb_ratio,
)

#: The paper reports every query staying below 44 W per chip.
PAPER_PEAK_LIMIT_W = 44.0


def render(records: Sequence[QueryRecord], configs: Sequence[str] = PIM_CONFIGS) -> str:
    """Fig. 8 as printable text."""
    rows = []
    for row in metric_rows(records, configs, "peak_power_w"):
        rows.append([row[0]] + [f"{value:.2f}" for value in row[1:]])
    table = format_table(["Query"] + [f"{c} [W]" for c in configs], rows)
    within = all(
        r.peak_power_w <= PAPER_PEAK_LIMIT_W for r in records if r.config in configs
    )
    ratio = pimdb_ratio(records, "peak_power_w")
    footer = (
        f"\ngeo-mean PIMDB/one_xb peak power on PIM-aggregation queries: "
        f"{ratio:.2f}x (paper: 2.92x); "
        f"all below {PAPER_PEAK_LIMIT_W:.0f} W per chip: {within}"
    )
    return table + footer
