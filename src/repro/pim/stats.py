"""Accounting of time, energy, power and wear for PIM executions.

A :class:`PimStats` object is filled in by :class:`repro.pim.controller.PimExecutor`
and by the host read-path model while a query executes.  It is the single
source for the numbers behind Figs. 6-9 of the paper:

* ``time_s`` per phase -> execution latency (Fig. 6),
* energy per component -> PIM memory energy (Fig. 7),
* power samples -> peak power of a single PIM chip (Fig. 8),
* ``max_writes_per_row`` -> required cell endurance (Fig. 9).

The accumulator is an **exact multiset**, not a running float.  A charge is
``(bucket, unit cost, multiplicity)`` — K identical circuit passes are one
charge with ``count=K`` — stored as ``{bucket: {unit: count}}`` and converted
to seconds / joules only at read-out, as the exactly rounded
:func:`math.fsum` of ``unit * count``.  Integer addition and ``max`` commute,
so any permutation, split or regrouping of the same charges (batched against
per-subgroup GROUP-BY, shards merged in any order, a trace folded back) gives
*equal* statistics by construction: there is no addition order to reproduce.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from numbers import Integral

#: Primitive-event totals kept in the exact accumulator (fractional whenever
#: the charged page count is: pruned crossbars x ``timing_scale``).
EVENT_COUNTS = ("logic_ops", "bits_read", "bits_written")


def _fold(terms: dict[float, int]) -> float:
    """``Σ unit · count`` of one bucket, exactly rounded (so order-free)."""
    return math.fsum(unit * count for unit, count in terms.items())


def _multiplicity(count) -> int:
    """A non-negative ``int`` from any integer type (NumPy's too), or ``ValueError``."""
    if count.__class__ is not int:      # the ABC check is slow; charges are hot
        count = int(count) if isinstance(count, Integral) else -1
    if count < 0:
        raise ValueError("a charge multiplicity is a non-negative integer")
    return count


def _event_total(name: str, doc: str) -> property:
    return property(lambda self: _fold(self._terms["events"].get(name, {})), doc=doc)


@dataclass(frozen=True, order=True)
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


class PimStats:
    """Mutable, order-free accumulator of PIM-side execution statistics."""

    def __init__(self) -> None:
        #: ``kind -> bucket -> unit -> count``: ``"time"`` by phase (seconds),
        #: ``"energy"`` by component (joules; the simulator uses ``logic``,
        #: ``read``, ``write``, ``agg_circuit``, ``controller``), ``"events"``
        #: by :data:`EVENT_COUNTS` name and ``"power"`` by phase, where the
        #: unit is a sample's ``(duration_s, chip_power_w)``.
        self._terms: dict[str, dict[str, dict]] = {
            "time": {}, "energy": {}, "events": {}, "power": {},
        }
        #: Integer request / cache-line counts.
        self.pim_requests = 0
        self.host_lines_read = 0
        self.host_lines_written = 0
        #: Maximum number of cell writes experienced by any single crossbar row.
        self.max_writes_per_row = 0
        #: Observability hook (see :meth:`repro.obs.trace.SpanTracer.bind`):
        #: when set, every :meth:`add_time`/:meth:`add_energy` charge is also
        #: reported as ``hook(kind, key, unit, count)`` so a tracer can
        #: attribute it to the active span.  The merge paths bypass it
        #: deliberately — folding already-charged stats (shard gather, DML
        #: roll-ups) must not double-report.  Excluded from equality.
        self.trace_hook: Callable[[str, str, float, int], None] | None = None

    # --------------------------------------------------------------- charges
    def _add(self, kind: str, key: str, unit, count: int) -> None:
        terms = self._terms[kind].setdefault(key, {})
        terms[unit] = terms.get(unit, 0) + count

    def _charge(self, kind: str, key: str, unit: float, count) -> None:
        count = _multiplicity(count)
        if unit < 0:
            raise ValueError(f"negative {kind} charge for {key!r}: {unit}")
        if count:
            unit = float(unit)
            self._add(kind, key, unit, count)
            if self.trace_hook is not None and kind != "events":
                self.trace_hook(kind, key, unit, count)

    def add_time(self, phase: str, seconds: float, count: int = 1) -> None:
        """Attribute ``count`` charges of ``seconds`` wall-clock time to ``phase``."""
        self._charge("time", phase, seconds, count)

    def add_energy(self, component: str, joules: float, count: int = 1) -> None:
        """Attribute ``count`` charges of ``joules`` to ``component``."""
        self._charge("energy", component, joules, count)

    def add_events(self, name: str, amount: float, count: int = 1) -> None:
        """Count ``count`` x ``amount`` primitive events (:data:`EVENT_COUNTS`)."""
        if name not in EVENT_COUNTS:
            raise ValueError(f"unknown event count {name!r}; one of {EVENT_COUNTS}")
        self._charge("events", name, amount, count)

    def add_power_sample(
        self, phase: str, duration_s: float, chip_power_w: float, count: int = 1
    ) -> None:
        """Record the average chip power of ``count`` phases of one shape."""
        count = _multiplicity(count)
        if duration_s > 0 and count:
            self._add("power", phase, (float(duration_s), float(chip_power_w)), count)

    def observe_writes_per_row(self, writes_per_row_max: int) -> None:
        """Record the worst per-row write count seen by any crossbar."""
        self.max_writes_per_row = max(self.max_writes_per_row, int(writes_per_row_max))

    # -------------------------------------------------------------- read-outs
    def _read(self, kind: str) -> dict[str, float]:
        return {key: _fold(terms) for key, terms in sorted(self._terms[kind].items())}

    def _total(self, kind: str) -> float:
        return math.fsum(
            unit * count
            for terms in self._terms[kind].values()
            for unit, count in terms.items()
        )

    @property
    def time_by_phase(self) -> dict[str, float]:
        """Wall-clock time attributed to each phase, seconds (a read-out)."""
        return self._read("time")

    @property
    def energy_by_component(self) -> dict[str, float]:
        """Energy attributed to each component, joules (a read-out)."""
        return self._read("energy")

    @property
    def total_time_s(self) -> float:
        """Total attributed time across all phases."""
        return self._total("time")

    @property
    def total_energy_j(self) -> float:
        """Total PIM-side energy across all components."""
        return self._total("energy")

    logic_ops = _event_total(
        "logic_ops", "NOR primitives executed, summed over the active crossbars."
    )
    bits_read = _event_total("bits_read", "Bits read out of the PIM arrays.")
    bits_written = _event_total("bits_written", "Bits written into the PIM arrays.")

    @property
    def power_samples(self) -> list[PowerSample]:
        """One sample per recorded phase, sorted (stored once per distinct shape)."""
        return [
            sample
            for phase, shapes in sorted(self._terms["power"].items())
            for shape, count in sorted(shapes.items())
            for sample in [PowerSample(phase, *shape)] * count
        ]

    @property
    def peak_chip_power_w(self) -> float:
        """Peak power drawn by a single PIM chip over the execution."""
        return max(
            (power for shapes in self._terms["power"].values() for _, power in shapes),
            default=0.0,
        )

    # ----------------------------------------------------------------- merge
    def merge(self, other: PimStats) -> PimStats:
        """Fold another stats object into this one (in place) and return self.

        A counter add: times are summed per phase, which is appropriate for
        sequential phases.  For parallel phases (the four worker threads),
        use :meth:`merge_parallel` instead.
        """
        return self._merge(other, ("time", "energy", "events", "power"))

    def merge_parallel(self, others: Iterable[PimStats], phase: str) -> PimStats:
        """Fold concurrently executed stats objects into this one.

        The wall-clock contribution is the *maximum* total time of the
        concurrent executions (they overlap), added to ``phase`` as one
        term, while energy and wear are summed (they are physical totals).
        """
        others = list(others)
        if others:
            self.add_time(phase, max(o.total_time_s for o in others))
        for other in others:
            self._merge(other, ("energy", "events", "power"))
        return self

    def _merge(self, other: PimStats, kinds: tuple[str, ...]) -> PimStats:
        for kind in kinds:
            for key, terms in other._terms[kind].items():
                for unit, count in terms.items():
                    self._add(kind, key, unit, count)
        self.pim_requests += other.pim_requests
        self.host_lines_read += other.host_lines_read
        self.host_lines_written += other.host_lines_written
        self.max_writes_per_row = max(self.max_writes_per_row, other.max_writes_per_row)
        return self

    def copy(self) -> PimStats:
        """Return an independent copy of this stats object."""
        return PimStats().merge(self)

    # -------------------------------------------------------------- identity
    def _state(self) -> tuple:
        """The charges as sorted tuples: what ``==`` and ``repr`` compare."""
        terms = tuple(
            (kind, key, tuple(sorted(units.items())))
            for kind, buckets in self._terms.items()
            for key, units in sorted(buckets.items())
        )
        return (
            terms, self.pim_requests, self.host_lines_read,
            self.host_lines_written, self.max_writes_per_row,
        )

    def __eq__(self, other: object) -> bool:
        """Equal iff the same charges with the same multiplicities, in any order."""
        if not isinstance(other, PimStats):
            return NotImplemented
        return self._state() == other._state()

    __hash__ = None

    def __repr__(self) -> str:
        return f"PimStats{self._state()}"

    # ------------------------------------------------------------- reporting
    def totals(self) -> dict[str, float]:
        """Every modelled total with its per-phase / per-component breakdown.

        Unlike :meth:`summary` (headline metrics) this keeps the breakdowns;
        two executions that charged the same multiset read out bit-identical
        totals.  The benchmark gates compare the batched execution strategy
        with per-subgroup dispatch through it.
        """
        return {
            **{f"time:{phase}": s for phase, s in self.time_by_phase.items()},
            **{f"energy:{c}": joules for c, joules in self.energy_by_component.items()},
            "logic_ops": self.logic_ops,
            "bits_read": self.bits_read,
            "bits_written": self.bits_written,
            "pim_requests": float(self.pim_requests),
            "host_lines_read": float(self.host_lines_read),
            "host_lines_written": float(self.host_lines_written),
            "max_writes_per_row": float(self.max_writes_per_row),
            "peak_chip_power_w": self.peak_chip_power_w,
        }

    def summary(self) -> dict[str, float]:
        """Return a flat dictionary of headline metrics for reporting."""
        return {
            "time_s": self.total_time_s,
            "energy_j": self.total_energy_j,
            "peak_chip_power_w": self.peak_chip_power_w,
            "max_writes_per_row": float(self.max_writes_per_row),
            "logic_ops": self.logic_ops,
            "bits_read": self.bits_read,
            "bits_written": self.bits_written,
            "host_lines_read": float(self.host_lines_read),
        }
