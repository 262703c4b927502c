"""Accounting of time, energy, power and wear for PIM executions.

A :class:`PimStats` object is filled in by :class:`repro.pim.controller.PimExecutor`
and by the host read-path model while a query executes.  It is the single
source for the numbers behind Figs. 6-9 of the paper:

* ``time_s`` per phase -> execution latency (Fig. 6),
* energy per component -> PIM memory energy (Fig. 7),
* power samples -> peak power of a single PIM chip (Fig. 8),
* ``max_writes_per_row`` -> required cell endurance (Fig. 9).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable

import numpy as np


@dataclass
class PowerSample:
    """Average power drawn during one execution phase.

    Attributes:
        phase: Free-form label of the phase (``"filter"``, ``"pim-agg"`` ...).
        duration_s: Length of the phase.
        chip_power_w: Average power drawn by a single PIM chip during the
            phase (the module power divided by the number of chips).
    """

    phase: str
    duration_s: float
    chip_power_w: float


@dataclass
class PimStats:
    """Mutable accumulator of PIM-side execution statistics."""

    #: Wall-clock time attributed to each phase, seconds.
    time_by_phase: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: Energy attributed to each component, joules.  Components used by the
    #: simulator: ``logic``, ``read``, ``write``, ``agg_circuit``,
    #: ``controller``, ``host_read``.
    energy_by_component: dict[str, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    #: Counts of primitive events.
    logic_ops: int = 0
    bits_read: int = 0
    bits_written: int = 0
    pim_requests: int = 0
    host_lines_read: int = 0
    host_lines_written: int = 0
    #: Power samples from which the peak chip power is derived.
    power_samples: list[PowerSample] = field(default_factory=list)
    #: Maximum number of cell writes experienced by any single crossbar row.
    max_writes_per_row: int = 0
    #: Observability hook (see :meth:`repro.obs.trace.SpanTracer.bind`):
    #: when set, every :meth:`add_time`/:meth:`add_energy` charge is also
    #: reported as ``hook(kind, key, value)`` so a tracer can attribute it
    #: to the active span.  The merge paths bypass it deliberately —
    #: folding already-charged stats (shard gather, DML roll-ups) must not
    #: double-report.  Excluded from equality: two stats objects with
    #: identical charges compare equal whether or not one was traced.
    trace_hook: Callable[[str, str, float], None] | None = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------------ time
    def add_time(self, phase: str, seconds: float) -> None:
        """Attribute ``seconds`` of wall-clock time to ``phase``."""
        if seconds < 0:
            raise ValueError(f"negative time for phase {phase!r}: {seconds}")
        self.time_by_phase[phase] += seconds
        if self.trace_hook is not None:
            self.trace_hook("time", phase, seconds)

    @property
    def total_time_s(self) -> float:
        """Total attributed time across all phases."""
        return float(sum(self.time_by_phase.values()))

    # ---------------------------------------------------------------- energy
    def add_energy(self, component: str, joules: float) -> None:
        """Attribute ``joules`` of energy to ``component``."""
        if joules < 0:
            raise ValueError(f"negative energy for component {component!r}")
        self.energy_by_component[component] += joules
        if self.trace_hook is not None:
            self.trace_hook("energy", component, joules)

    def add_series(self, kind: str, key: str, values) -> None:
        """Fold a series of ``"time"`` / ``"energy"`` charges in, left to right.

        Bit-identical to :meth:`add_time` / :meth:`add_energy` per element:
        ``np.add.accumulate`` is sequential by definition (``n * x`` or a
        pairwise ``np.sum`` round differently); :attr:`trace_hook` sees each.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return
        if values.min() < 0:
            raise ValueError(f"negative {kind} charge for {key!r}")
        totals = self.time_by_phase if kind == "time" else self.energy_by_component
        totals[key] = float(
            np.add.accumulate(np.concatenate(([totals[key]], values)))[-1]
        )
        if self.trace_hook is not None:
            for value in values.tolist():
                self.trace_hook(kind, key, value)

    @property
    def total_energy_j(self) -> float:
        """Total PIM-side energy across all components."""
        return float(sum(self.energy_by_component.values()))

    # ----------------------------------------------------------------- power
    def add_power_sample(
        self, phase: str, duration_s: float, chip_power_w: float
    ) -> None:
        """Record the average chip power of one phase."""
        if duration_s <= 0:
            return
        self.power_samples.append(PowerSample(phase, duration_s, chip_power_w))

    @property
    def peak_chip_power_w(self) -> float:
        """Peak power drawn by a single PIM chip over the execution."""
        if not self.power_samples:
            return 0.0
        return max(sample.chip_power_w for sample in self.power_samples)

    # ------------------------------------------------------------------ wear
    def observe_writes_per_row(self, writes_per_row_max: int) -> None:
        """Record the worst per-row write count seen by any crossbar."""
        self.max_writes_per_row = max(self.max_writes_per_row, int(writes_per_row_max))

    # ----------------------------------------------------------------- merge
    def merge(self, other: PimStats) -> PimStats:
        """Fold another stats object into this one (in place) and return self.

        Times are summed per phase; this is appropriate for sequential
        phases.  For parallel phases (the four worker threads), use
        :meth:`merge_parallel` instead.
        """
        for phase, seconds in other.time_by_phase.items():
            self.time_by_phase[phase] += seconds
        self._merge_non_time(other)
        return self

    def merge_parallel(self, others: Iterable[PimStats], phase: str) -> PimStats:
        """Fold concurrently executed stats objects into this one.

        The wall-clock contribution is the *maximum* total time of the
        concurrent executions (they overlap), attributed to ``phase``, while
        energy and wear are summed (they are physical totals).
        """
        others = list(others)
        if not others:
            return self
        self.add_time(phase, max(o.total_time_s for o in others))
        for other in others:
            self._merge_non_time(other)
        return self

    def _merge_non_time(self, other: PimStats) -> None:
        for component, joules in other.energy_by_component.items():
            self.energy_by_component[component] += joules
        self.logic_ops += other.logic_ops
        self.bits_read += other.bits_read
        self.bits_written += other.bits_written
        self.pim_requests += other.pim_requests
        self.host_lines_read += other.host_lines_read
        self.host_lines_written += other.host_lines_written
        self.power_samples.extend(other.power_samples)
        self.max_writes_per_row = max(self.max_writes_per_row, other.max_writes_per_row)

    # ------------------------------------------------------------- reporting
    def totals(self) -> dict[str, float]:
        """Every modelled total, exactly as accumulated — for bit-identity checks.

        Unlike :meth:`summary` (headline metrics, rounded by nobody but also
        summed over dictionaries), this keeps the per-phase and per-component
        breakdowns, so two executions compare equal here iff their charging
        sequences produced identical floats.  The benchmark gates use it to
        assert the batched execution strategy charges *bit-identical* totals
        to per-subgroup dispatch.
        """
        totals: dict[str, float] = {
            f"time:{phase}": seconds
            for phase, seconds in sorted(self.time_by_phase.items())
        }
        totals.update(
            (f"energy:{component}", joules)
            for component, joules in sorted(self.energy_by_component.items())
        )
        totals.update(
            logic_ops=float(self.logic_ops),
            bits_read=float(self.bits_read),
            bits_written=float(self.bits_written),
            pim_requests=float(self.pim_requests),
            host_lines_read=float(self.host_lines_read),
            host_lines_written=float(self.host_lines_written),
            max_writes_per_row=float(self.max_writes_per_row),
            peak_chip_power_w=self.peak_chip_power_w,
        )
        return totals

    def summary(self) -> dict[str, float]:
        """Return a flat dictionary of headline metrics for reporting."""
        return {
            "time_s": self.total_time_s,
            "energy_j": self.total_energy_j,
            "peak_chip_power_w": self.peak_chip_power_w,
            "max_writes_per_row": float(self.max_writes_per_row),
            "logic_ops": float(self.logic_ops),
            "bits_read": float(self.bits_read),
            "bits_written": float(self.bits_written),
            "host_lines_read": float(self.host_lines_read),
        }

    def copy(self) -> PimStats:
        """Return a deep-enough copy of this stats object."""
        clone = PimStats()
        clone.merge(self)
        return clone


def combine_parallel(stats_list: list[PimStats], phase: str = "parallel") -> PimStats:
    """Combine per-thread stats of a parallel phase into a single object."""
    combined = PimStats()
    combined.merge_parallel(stats_list, phase)
    return combined
