"""Fig. 7 — PIM memory energy for the SSB queries."""

from __future__ import annotations

from collections.abc import Sequence

from repro.experiments.common import (
    PIM_CONFIGS,
    QueryRecord,
    format_table,
    metric_rows,
    pimdb_ratio,
)


def render(records: Sequence[QueryRecord], configs: Sequence[str] = PIM_CONFIGS) -> str:
    """Fig. 7 as printable text (energies in millijoules)."""
    rows = []
    for row in metric_rows(records, configs, "energy_j"):
        rows.append([row[0]] + [f"{value * 1e3:.2f}" for value in row[1:]])
    table = format_table(["Query"] + [f"{c} [mJ]" for c in configs], rows)
    ratio = pimdb_ratio(records, "energy_j")
    footer = (
        f"\ngeo-mean PIMDB/one_xb energy on PIM-aggregation queries: "
        f"{ratio:.2f}x (paper: 4.31x); all queries below 1 J as in the paper: "
        f"{all(r.energy_j < 1.0 for r in records if r.config in configs)}"
    )
    return table + footer
