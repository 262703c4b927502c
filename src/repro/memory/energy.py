"""Energy reporting helpers.

All dynamic energy is accumulated per component by
:class:`~repro.pim.stats.PimStats` while a query executes; this module turns
those counters into the per-query totals and breakdowns behind Fig. 7 and
into average-power summaries.
"""

from __future__ import annotations


from repro.pim.stats import PimStats

#: Order in which components are reported (matching the accounting labels).
COMPONENT_ORDER = (
    "logic",
    "read",
    "write",
    "agg_circuit",
    "controller",
)


def energy_breakdown(stats: PimStats) -> dict[str, float]:
    """Per-component PIM energy (joules) of one execution."""
    breakdown = {component: 0.0 for component in COMPONENT_ORDER}
    for component, joules in stats.energy_by_component.items():
        breakdown[component] = breakdown.get(component, 0.0) + joules
    breakdown["total"] = stats.total_energy_j
    return breakdown

