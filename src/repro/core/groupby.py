"""The hybrid GROUP-BY planner (Section IV).

pim-gb's latency grows with the number of subgroups but is independent of
their sizes; host-gb's latency grows with the number of records it must read
but handles any number of subgroups at once.  Database data is skewed, so a
few subgroups hold most of the records: the planner therefore PIM-aggregates
the ``k`` (estimated) largest subgroups and leaves the long tail to the host,
choosing ``k`` by minimising the Eq. (3) cost model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.latency_model import GroupByCostModel
from repro.core.sampling import GroupKey, SubgroupEstimate


@dataclass(frozen=True)
class GroupByPlan:
    """The planner's decision for one query.

    Frozen: the engine memoises plans, so executions share them.
    """

    #: Subgroups assigned to pim-gb, largest (estimated) first.
    pim_groups: tuple[GroupKey, ...]
    #: Whether a host-gb pass over the remaining records is needed.
    host_pass_needed: bool
    #: Total number of potential subgroups (Table II's "total subgroups").
    total_subgroups: int
    #: The subgroup-size estimate the decision was based on.
    estimate: SubgroupEstimate
    #: Predicted Eq. (3) latency of the chosen plan.
    predicted_time_s: float
    #: Predicted latency had all subgroups been left to host-gb (k = 0).
    predicted_host_only_s: float
    #: Predicted latency had all subgroups been PIM-aggregated (k = k_max).
    predicted_pim_only_s: float

    @property
    def k(self) -> int:
        """Number of PIM-aggregated subgroups (Table II's last columns)."""
        return len(self.pim_groups)


class GroupByPlanner:
    """Chooses the pim-gb / host-gb split for a GROUP-BY query."""

    def __init__(self, cost_model: GroupByCostModel):
        self.cost_model = cost_model

    def plan(
        self,
        estimate: SubgroupEstimate,
        pages: float,
        aggregation_reads: int,
        reads_per_record: int,
        total_subgroups: int | None = None,
    ) -> GroupByPlan:
        """Pick ``k`` and the subgroups to PIM-aggregate.

        ``total_subgroups`` defaults to the number of candidate subgroups in
        the estimate (the domain enumerated from the query and database
        definitions); pim-gb may be assigned subgroups never seen in the
        sample — aggregating an empty subgroup is cheap and removes the need
        for a host pass when ``k`` reaches the total.
        """
        if total_subgroups is None:
            total_subgroups = len(estimate.ordered_groups)
        total_subgroups = max(total_subgroups, len(estimate.ordered_groups))

        k, predicted = self.cost_model.choose_k(
            pages=pages,
            aggregation_reads=aggregation_reads,
            reads_per_record=reads_per_record,
            total_subgroups=total_subgroups,
            remaining_ratio=estimate.remaining_ratio,
            candidate_ks=self._candidate_ks(estimate, total_subgroups),
        )
        host_only = self.cost_model.total_latency(
            pages, aggregation_reads, reads_per_record, 0,
            total_subgroups, estimate.remaining_ratio,
        )
        pim_only = self.cost_model.total_latency(
            pages, aggregation_reads, reads_per_record, total_subgroups,
            total_subgroups, estimate.remaining_ratio,
        )
        return GroupByPlan(
            pim_groups=tuple(estimate.ordered_groups[:k]),
            host_pass_needed=k < total_subgroups,
            total_subgroups=total_subgroups,
            estimate=estimate,
            predicted_time_s=predicted,
            predicted_host_only_s=host_only,
            predicted_pim_only_s=pim_only,
        )

    @staticmethod
    def _candidate_ks(estimate: SubgroupEstimate, total_subgroups: int) -> list[int]:
        """Values of ``k`` worth evaluating.

        Beyond the subgroups observed in the sample, ``r(k)`` no longer
        decreases, so intermediate ``k`` values only add pim-gb cost; the only
        additionally interesting point is ``k = total_subgroups`` (skip
        host-gb entirely).
        """
        observed = estimate.observed_subgroups
        candidates = list(range(0, observed + 1))
        if total_subgroups not in candidates:
            candidates.append(total_subgroups)
        return candidates
