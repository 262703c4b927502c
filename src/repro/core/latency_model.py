"""Latency models for the hybrid GROUP-BY decision (Section IV, Eq. 1-3).

The GROUP-BY technique must decide, per query, how many subgroups ``k`` to
aggregate with PIM (pim-gb) and how many to leave to the host (host-gb).  The
decision needs latency models for both options:

* ``T_host-gb(M, s, r) = M * (a(s) * sqrt(r) + b(s))`` — Eq. (1): linear in
  the relation size ``M`` (2 MB pages), concave in the ratio ``r`` of records
  the host must read, with lookup tables over the discrete number of 16-bit
  reads per record ``s``.
* ``T_pim-gb(M, n) = M * dT/dM(n) + T0(n)`` — Eq. (2): linear in ``M`` with
  lookup tables over the number of reads ``n`` needed to retrieve the
  aggregated attribute, independent of subgroup sizes.
* ``T_gb`` — Eq. (3): ``k`` PIM aggregations plus, unless every subgroup is
  PIM-aggregated, one host-gb pass over the remaining records.

The models can be *fitted* from measurements (the paper's methodology,
reproduced by the Fig. 4 experiment, which measures this simulator on
synthetic databases) or *derived analytically* from the simulator's own cost
model; both routes produce the same functional form and agree closely, and
the query engine accepts either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Sequence

import numpy as np

from repro.config import SystemConfig
from repro.host import dram
from repro.host.processor import cpu_time
from repro.pim.arithmetic import BulkAggregationPlan

#: :func:`predict_pim_gb`'s subgroup filter cycles and result lines per page.
GROUP_FILTER_CYCLES = 60
RESULT_WORDS = 3
#: The ``s`` / ``n`` / ``r`` / pages grid of :func:`build_analytic_cost_model`.
S_VALUES = (1, 2, 3, 4, 6, 8)
N_VALUES = (1, 2, 3, 4)
R_VALUES = (0.0005, 0.002, 0.01, 0.05, 0.2, 0.5, 0.8, 1.0)
REFERENCE_PAGES = 64


# --------------------------------------------------------------------------
# Measurements
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HostGbMeasurement:
    """One measured host-gb latency point."""

    pages: int
    reads_per_record: int
    read_ratio: float
    time_s: float


@dataclass(frozen=True)
class PimGbMeasurement:
    """One measured single-subgroup pim-gb latency point."""

    pages: int
    aggregation_reads: int
    time_s: float


# --------------------------------------------------------------------------
# Eq. (1): host-gb
# --------------------------------------------------------------------------

class HostGbLatencyModel:
    """``T_host-gb(M, s, r) = M * (a(s) * sqrt(r) + b(s))``."""

    def __init__(self, a: dict[int, float], b: dict[int, float]):
        if set(a) != set(b) or not a:
            raise ValueError("a and b must be non-empty lookup tables over the same s")
        self.a = dict(a)
        self.b = dict(b)

    def predict(self, pages: float, reads_per_record: int, read_ratio: float) -> float:
        """Predicted host-gb latency in seconds."""
        s = _nearest_key(self.a, reads_per_record)
        read_ratio = min(max(read_ratio, 0.0), 1.0)
        return pages * (self.a[s] * math.sqrt(read_ratio) + self.b[s])

    def slope(self, reads_per_record: int, read_ratio: float) -> float:
        """``dT/dM`` for the given ``s`` and ``r`` (the quantity of Fig. 4b)."""
        s = _nearest_key(self.a, reads_per_record)
        return self.a[s] * math.sqrt(min(max(read_ratio, 0.0), 1.0)) + self.b[s]

    @classmethod
    def fit(cls, measurements: Iterable[HostGbMeasurement]) -> HostGbLatencyModel:
        """Fit the lookup tables from measurements (least squares per ``s``)."""
        by_s: dict[int, list[HostGbMeasurement]] = {}
        for m in measurements:
            by_s.setdefault(m.reads_per_record, []).append(m)
        if not by_s:
            raise ValueError("no measurements")
        a: dict[int, float] = {}
        b: dict[int, float] = {}
        for s, points in by_s.items():
            slopes = np.array([p.time_s / max(p.pages, 1) for p in points])
            roots = np.array([math.sqrt(min(max(p.read_ratio, 0.0), 1.0)) for p in points])
            design = np.stack([roots, np.ones_like(roots)], axis=1)
            coeffs, *_ = np.linalg.lstsq(design, slopes, rcond=None)
            a[s] = float(max(coeffs[0], 0.0))
            b[s] = float(max(coeffs[1], 0.0))
        return cls(a, b)


# --------------------------------------------------------------------------
# Eq. (2): pim-gb
# --------------------------------------------------------------------------

class PimGbLatencyModel:
    """``T_pim-gb(M, n) = M * slope(n) + intercept(n)`` for one subgroup."""

    def __init__(self, slope: dict[int, float], intercept: dict[int, float]):
        if set(slope) != set(intercept) or not slope:
            raise ValueError("slope and intercept must cover the same n values")
        self.slope_table = dict(slope)
        self.intercept_table = dict(intercept)

    def predict(self, pages: float, aggregation_reads: int) -> float:
        """Predicted latency of PIM-aggregating one subgroup, in seconds."""
        n = _nearest_key(self.slope_table, aggregation_reads)
        return pages * self.slope_table[n] + self.intercept_table[n]

    @classmethod
    def fit(cls, measurements: Iterable[PimGbMeasurement]) -> PimGbLatencyModel:
        """Fit the per-``n`` linear models from measurements."""
        by_n: dict[int, list[PimGbMeasurement]] = {}
        for m in measurements:
            by_n.setdefault(m.aggregation_reads, []).append(m)
        if not by_n:
            raise ValueError("no measurements")
        slope: dict[int, float] = {}
        intercept: dict[int, float] = {}
        for n, points in by_n.items():
            pages = np.array([p.pages for p in points], dtype=float)
            times = np.array([p.time_s for p in points], dtype=float)
            if len(points) == 1:
                slope[n] = float(times[0] / max(pages[0], 1.0))
                intercept[n] = 0.0
                continue
            design = np.stack([pages, np.ones_like(pages)], axis=1)
            coeffs, *_ = np.linalg.lstsq(design, times, rcond=None)
            slope[n] = float(max(coeffs[0], 0.0))
            intercept[n] = float(max(coeffs[1], 0.0))
        return cls(slope, intercept)


def _nearest_key(table: dict[int, float], key: int) -> int:
    if key in table:
        return key
    return min(table, key=lambda k: abs(k - key))


# --------------------------------------------------------------------------
# Eq. (3): the combined GROUP-BY cost and the choice of k
# --------------------------------------------------------------------------

class GroupByCostModel:
    """Combines the host-gb and pim-gb models into the Eq. (3) total."""

    def __init__(self, host: HostGbLatencyModel, pim: PimGbLatencyModel):
        self.host = host
        self.pim = pim

    def total_latency(
        self,
        pages: float,
        aggregation_reads: int,
        reads_per_record: int,
        k: int,
        total_subgroups: int,
        remaining_ratio: Callable[[int], float],
    ) -> float:
        """Eq. (3): k PIM aggregations plus host-gb for the rest."""
        total = k * self.pim.predict(pages, aggregation_reads)
        if k < total_subgroups:
            total += self.host.predict(pages, reads_per_record, remaining_ratio(k))
        return total

    def choose_k(
        self,
        pages: float,
        aggregation_reads: int,
        reads_per_record: int,
        total_subgroups: int,
        remaining_ratio: Callable[[int], float],
        candidate_ks: Sequence[int] | None = None,
    ) -> tuple[int, float]:
        """Return the ``k`` minimising Eq. (3) and its predicted latency."""
        if candidate_ks is None:
            candidate_ks = range(total_subgroups + 1)
        best_k, best_time = 0, float("inf")
        for k in candidate_ks:
            time_s = self.total_latency(
                pages, aggregation_reads, reads_per_record, k,
                total_subgroups, remaining_ratio,
            )
            if time_s < best_time - 1e-15:
                best_k, best_time = k, time_s
        return best_k, best_time


# --------------------------------------------------------------------------
# Analytic predictors (closed-form evaluation of the simulator's cost model)
# --------------------------------------------------------------------------

def predict_host_gb(
    config: SystemConfig,
    pages: float,
    reads_per_record: int,
    read_ratio: float,
) -> float:
    """Analytic host-gb latency for a relation of ``pages`` 2 MB pages.

    Components: streaming the packed filter bit-vector, the scattered reads
    of the selected records (distinct (page,row) lines per 16-bit word, which
    is where the 32-record read amplification enters), and the host-side hash
    aggregation.  One bit-vector stream is modelled, also for two-xb, whose
    second partition streams another.
    """
    pim = config.pim
    host = config.host
    records = pages * pim.records_per_page
    rows = pim.crossbar.rows
    threads = host.query_threads
    read_ratio = min(max(read_ratio, 0.0), 1.0)

    bitvector_bytes = records / 8
    bitvector_time = dram.stream_read_time(host, bitvector_bytes)

    touched_rows = pages * rows * (1.0 - (1.0 - read_ratio) ** pim.crossbars_per_page)
    lines = touched_rows * max(1, reads_per_record)
    record_time = dram.scattered_read_time(host, lines, threads)

    cpu = cpu_time(host, records * read_ratio, host.host_agg_cycles_per_record, threads)
    return bitvector_time + record_time + cpu


def predict_pim_gb(
    config: SystemConfig,
    pages: float,
    aggregation_reads: int,
    use_aggregation_circuit: bool = True,
    transfer_per_subgroup: bool = False,
) -> float:
    """Analytic latency of PIM-aggregating one subgroup.

    Components: the subgroup filter program (:data:`GROUP_FILTER_CYCLES`
    cycles), the aggregation itself (with the
    aggregation circuit or with the pure bulk-bitwise reduction of the PIMDB
    baseline), the host's read of the per-crossbar results and their final
    combination.  ``transfer_per_subgroup`` adds the host-mediated transfer
    of the subgroup filter between vertical partitions (the two-xb worst
    case of Section V-A).
    """
    pim = config.pim
    host = config.host
    xbar = pim.crossbar
    threads = host.query_threads
    records = pages * pim.records_per_page

    issue = pages * pim.request_issue_gap_s
    filter_time = issue + GROUP_FILTER_CYCLES * xbar.logic_cycle_s

    if use_aggregation_circuit:
        agg_request = (
            xbar.rows * max(1, aggregation_reads) * pim.aggregation_circuit.cycle_s
        )
    else:
        field_width = max(1, aggregation_reads) * xbar.read_width_bits
        plan = BulkAggregationPlan(
            rows=xbar.rows,
            field_offset=0,
            field_width=min(field_width, 40),
            mask_column=0,
            acc_offset=0,
            operand_offset=0,
            scratch_columns=range(16),
            operation="sum",
        )
        agg_request = plan.cost().total_cycles * xbar.logic_cycle_s
    agg_time = issue + agg_request

    result_lines = pages * RESULT_WORDS
    result_time = dram.scattered_read_time(host, result_lines, threads)
    combine = cpu_time(host, pages * pim.crossbars_per_page, 4.0, threads)

    transfer = 0.0
    if transfer_per_subgroup:
        bitvector_bytes = records / 8
        transfer = dram.stream_read_time(host, bitvector_bytes) + dram.write_time(
            host, bitvector_bytes, threads
        )
    return filter_time + agg_time + result_time + combine + transfer


def build_analytic_cost_model(
    config: SystemConfig,
    use_aggregation_circuit: bool = True,
    transfer_per_subgroup: bool = False,
) -> GroupByCostModel:
    """Derive Eq. (1)/(2) lookup tables from the analytic predictors.

    This reproduces the paper's fitting procedure (Fig. 4) against the
    simulator's closed-form cost expressions instead of end-to-end runs, on
    the grid :data:`S_VALUES` x :data:`R_VALUES` at :data:`REFERENCE_PAGES`
    and :data:`N_VALUES` x three relation sizes; the Fig. 4 experiment
    performs the measured variant and the tests check the two agree.
    """
    host_points = [
        HostGbMeasurement(
            pages=REFERENCE_PAGES,
            reads_per_record=s,
            read_ratio=r,
            time_s=predict_host_gb(config, REFERENCE_PAGES, s, r),
        )
        for s in S_VALUES
        for r in R_VALUES
    ]
    pim_points = [
        PimGbMeasurement(
            pages=pages,
            aggregation_reads=n,
            time_s=predict_pim_gb(
                config, pages, n,
                use_aggregation_circuit=use_aggregation_circuit,
                transfer_per_subgroup=transfer_per_subgroup,
            ),
        )
        for n in N_VALUES
        for pages in (REFERENCE_PAGES // 8, REFERENCE_PAGES, REFERENCE_PAGES * 4)
    ]
    return GroupByCostModel(
        host=HostGbLatencyModel.fit(host_points),
        pim=PimGbLatencyModel.fit(pim_points),
    )
