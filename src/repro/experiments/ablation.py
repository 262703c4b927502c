"""Ablations beyond the paper's figures.

Three design choices of the engine (README, "Architecture") are quantified
here:

* **Aggregation-circuit ablation** — latency/energy of the same query with
  and without the circuit on identical data and plans (the per-query view
  behind the paper's one-xb vs PIMDB comparison).
* **Sampling-budget ablation** — how the number of sampled pages changes the
  subgroup estimate and the chosen ``k``.
* **Pre-join storage accounting** — the Section III argument that the
  pre-joined relation occupies no more pages than the fact relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.core.prejoin import storage_overhead
from repro.experiments.common import ExperimentSetup, format_table
from repro.ssb import ALL_QUERIES


@dataclass
class AblationRow:
    """One ablation measurement."""

    name: str
    variant: str
    time_s: float
    energy_j: float
    pim_subgroups: int


def aggregation_circuit_ablation(
    setup: ExperimentSetup, queries: Sequence[str] = ("Q1.1", "Q2.3", "Q4.1")
) -> list[AblationRow]:
    """Same queries with (one_xb) and without (pimdb) the aggregation circuit."""
    rows: list[AblationRow] = []
    for name in queries:
        query = ALL_QUERIES[name]
        for config in ("one_xb", "pimdb"):
            if config not in setup.pim_engines:
                continue
            execution = setup.pim_engines[config].execute(query)
            rows.append(AblationRow(
                name=name,
                variant="with circuit" if config == "one_xb" else "bulk-bitwise only",
                time_s=execution.time_s,
                energy_j=execution.energy_j,
                pim_subgroups=execution.pim_subgroups,
            ))
    return rows


def sampling_ablation(
    setup: ExperimentSetup,
    query_name: str = "Q3.2",
    sample_pages: Sequence[int] = (1, 2, 4),
) -> list[AblationRow]:
    """Effect of the sampling budget on the GROUP-BY plan."""
    if "one_xb" not in setup.pim_engines:
        return []
    base = setup.pim_engines["one_xb"]
    query = ALL_QUERIES[query_name]
    rows: list[AblationRow] = []
    original = base.sample_pages
    try:
        for pages in sample_pages:
            base.sample_pages = pages
            execution = base.execute(query)
            rows.append(AblationRow(
                name=query_name,
                variant=f"{pages} sampled page(s)",
                time_s=execution.time_s,
                energy_j=execution.energy_j,
                pim_subgroups=execution.pim_subgroups,
            ))
    finally:
        base.sample_pages = original
    return rows


def prejoin_storage_report(setup: ExperimentSetup):
    """Storage accounting of the pre-joined relation (Section III)."""
    return storage_overhead(
        setup.dataset.database,
        setup.prejoined,
        crossbar_row_bits=setup.config.pim.crossbar.columns,
        records_per_page=setup.config.pim.records_per_page,
    )


def render(setup: ExperimentSetup) -> str:
    """All ablations as printable text."""
    lines = ["Aggregation-circuit ablation"]
    rows = [
        [r.name, r.variant, f"{r.time_s * 1e3:.2f}", f"{r.energy_j * 1e3:.2f}", r.pim_subgroups]
        for r in aggregation_circuit_ablation(setup)
    ]
    lines.append(format_table(["Query", "Variant", "Time [ms]", "Energy [mJ]", "k"], rows))

    lines.append("")
    lines.append("Sampling-budget ablation")
    rows = [
        [r.name, r.variant, f"{r.time_s * 1e3:.2f}", r.pim_subgroups]
        for r in sampling_ablation(setup)
    ]
    lines.append(format_table(["Query", "Variant", "Time [ms]", "k"], rows))

    report = prejoin_storage_report(setup)
    lines.append("")
    lines.append("Pre-join storage accounting (Section III)")
    lines.append(format_table(["Metric", "Value"], [
        ["fact records", report.fact_records],
        ["fact record bits", report.fact_record_bits],
        ["pre-joined record bits", report.prejoined_record_bits],
        ["fits in one crossbar row", report.fits_in_single_row],
        ["fact pages", report.fact_pages],
        ["pre-joined pages (one-xb)", report.prejoined_pages_one_xb],
        ["extra pages vs fact only", report.extra_pages_one_xb],
        ["row utilisation", f"{report.row_utilisation * 100:.1f}%"],
    ]))
    return "\n".join(lines)
