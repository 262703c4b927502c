"""Sampling-based estimation of subgroup sizes (Section IV).

Before deciding how to split the GROUP-BY work, the host samples the records
selected by the query over a single 2 MB page (32 K records in the Table I
geometry) and estimates the size of every subgroup from that sample.  The
estimate supplies two things to the planner:

* an ordering of the candidate subgroups from (estimated) largest to
  smallest — the ``k`` chosen subgroups for pim-gb are taken in this order,
* the function ``r(k)``: the fraction of *all* relation records that the
  host still has to read if the ``k`` largest subgroups are removed, which
  is the ``r`` plugged into the host-gb latency model of Eq. (1).

The paper's runtime samples before every GROUP-BY.  The sample, and so the
plan built on it, is a function of the query and the stored data only, so
the simulator samples once per data version:
:class:`~repro.core.executor.PimQueryEngine` memoises the plan and charges
every execution, hit or miss, the sample read the estimate recorded in
:attr:`SubgroupEstimate.read_time_s` — the modelled cost is the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence
from itertools import accumulate

import numpy as np

from repro.db.storage import StoredRelation
from repro.host.readpath import HostReadModel


GroupKey = tuple[int, ...]


@dataclass(frozen=True)
class SubgroupEstimate:
    """Result of sampling one page of query-selected records.

    Frozen: a memoised plan shares its estimate between executions.
    """

    #: Candidate subgroup keys (encoded values of the GROUP-BY attributes),
    #: ordered from the largest estimated size to the smallest.  Candidates
    #: never observed in the sample follow the observed ones, in stable
    #: (domain) order, with an estimated size of zero.
    ordered_groups: tuple[GroupKey, ...]
    #: Estimated fraction of *selected* records belonging to each subgroup.
    group_fractions: dict[GroupKey, float]
    #: Estimated query selectivity (selected records / total records).
    selectivity: float
    #: Number of records inspected by the sample.
    sample_size: int
    #: Number of sampled records that passed the filter.
    sample_selected: int
    #: Number of distinct subgroups observed in the sample (Table II's
    #: "subgroups in sample" column).
    observed_subgroups: int
    #: Modelled latency of reading the sample (filter bits of the sampled
    #: page plus the selected records' GROUP-BY attributes), charged to the
    #: ``sampling`` phase of every execution the estimate plans.
    read_time_s: float = 0.0

    #: ``_covered[k]``: summed fraction of the top-``k`` subgroups, added left
    #: to right once per estimate — the planner asks for ``r(k)`` at every
    #: ``k``, which re-summing a prefix per call would make quadratic.
    _covered: list[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_covered", list(accumulate(
            (self.group_fractions.get(key, 0.0) for key in self.ordered_groups),
            initial=0,
        )))

    def remaining_ratio(self, k: int) -> float:
        """``r(k)``: record fraction left for host-gb after the top-``k`` groups."""
        k = max(0, min(k, len(self.ordered_groups)))
        covered = min(self._covered[k], 1.0)
        return self.selectivity * (1.0 - covered)


def estimate_subgroups(
    stored: StoredRelation,
    group_attributes: Sequence[str],
    candidate_groups: Sequence[GroupKey],
    read_model: HostReadModel | None = None,
    sample_pages: int = 1,
    filter_partition: int = 0,
) -> SubgroupEstimate:
    """Sample the first ``sample_pages`` pages and estimate subgroup sizes.

    The query's filter must already have been evaluated (the filter bits are
    in place).  When a :class:`HostReadModel` is supplied, the latency of
    reading the sample page's filter bits and the selected records' GROUP-BY
    attributes is recorded in :attr:`SubgroupEstimate.read_time_s` (nothing
    is charged here: the caller charges it per execution, as the paper's
    runtime pays for the sampling before planning).
    """
    if not candidate_groups:
        raise ValueError("candidate_groups must not be empty")
    records_per_page = stored.records_per_page
    sample_size = min(stored.num_records, max(1, sample_pages) * records_per_page)
    # Only the sample page's filter bits are read, as the charge below says.
    selected = np.flatnonzero(
        stored.filter_mask(filter_partition, limit=sample_size)
    )

    group_columns = [
        stored.decode_cells(name, selected) for name in group_attributes
    ]
    fractions: dict[GroupKey, float] = {}
    if len(selected):
        keys = np.stack(group_columns, axis=1) if group_columns else np.zeros((len(selected), 0))
        unique_keys, counts = np.unique(keys, axis=0, return_counts=True)
        for key, count in zip(unique_keys, counts):
            fractions[tuple(int(v) for v in key)] = float(count) / float(len(selected))

    observed = list(fractions)
    observed.sort(key=lambda key: fractions[key], reverse=True)
    observed_set = set(observed)
    unseen = [key for key in candidate_groups if key not in observed_set]
    ordered = tuple(observed + unseen)

    # A relation whose every slot was compacted away has an empty sample.
    selectivity = float(len(selected)) / float(sample_size) if sample_size else 0.0
    return SubgroupEstimate(
        ordered_groups=ordered,
        group_fractions=fractions,
        selectivity=selectivity,
        sample_size=int(sample_size),
        sample_selected=int(len(selected)),
        observed_subgroups=len(observed),
        read_time_s=(
            _sample_read_time(stored, read_model, selected, group_attributes)
            if read_model is not None else 0.0
        ),
    )


def _sample_read_time(
    stored: StoredRelation,
    read_model: HostReadModel,
    selected_indices: np.ndarray,
    group_attributes: Sequence[str],
) -> float:
    """Latency of reading the sample (bit-vector plus selected group ids)."""
    from repro.host import dram

    host = read_model.config.host
    bitvector_bytes = stored.records_per_page / 8
    time_s = dram.stream_read_time(host, bitvector_bytes)
    if len(selected_indices) and group_attributes:
        by_partition: dict[int, list[str]] = {}
        for name in group_attributes:
            by_partition.setdefault(stored.partition_of(name), []).append(name)
        for partition, names in by_partition.items():
            lines = read_model.count_record_lines(
                stored, partition, selected_indices, names
            )
            time_s += dram.scattered_read_time(host, lines, threads=1)
    return time_s
