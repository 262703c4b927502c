"""Hierarchical span tracing for query, DML and maintenance execution.

A :class:`SpanTracer` records one tree of :class:`SpanRecord`\\ s per root
operation (a served query, a DML statement, a compaction).  The engine, its
stages, the cost planner, the sharded scatter-gather and the service all
open spans through the tracer they share, so a single trace shows where a
query's modelled time went: ``query -> execute -> scatter -> shard ->
execute -> prune -> plan``, then the chosen route (``host-scan``, or
``filter / group-plan / pim-gb / host-gb``) and ``feedback`` under the store's
``execute``, one ``shard`` child per store under the scatter.

Two properties make the tracer safe to leave compiled into every hot path:

* **The disabled path is branch-cheap.**  ``span()`` performs one attribute
  check and returns a shared no-op context manager; ``bind()`` leaves the
  stats object's hook ``None``, so the per-charge cost of tracing-off is a
  single ``is not None`` test inside :meth:`~repro.pim.stats.PimStats.add_time`.

* **Charge attribution is exact.**  Rather than differencing stats
  snapshots (whose floating-point deltas do not telescope bit-exactly), the
  tracer hooks :class:`~repro.pim.stats.PimStats` and records every
  ``add_time``/``add_energy`` charge — unit cost and multiplicity — as an
  event on the innermost active span.  The stats object is an exact
  multiset, so folding a trace's events back *in any order* gives the same
  multiset and hence the same read-outs — the per-phase sums equal
  ``time_by_phase`` bit for bit (``tests/test_observability.py`` checks
  exactly that on the 13 SSB queries).

Span nesting uses a :class:`contextvars.ContextVar`, so every thread sees its
own stack; shard executions run on the caller's and nest under its scatter span.

Tracing is selected by ``SystemConfig.tracing`` / the ``REPRO_TRACE``
environment variable (see :mod:`repro.config`); a value naming a path (it
contains a separator or ends in ``.jsonl``) additionally routes every
completed root span to that JSONL sink, one JSON object per line.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import math
import os
import threading
import time
from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator


@dataclass
class ChargeEvent:
    """``count`` identical ``PimStats`` charges attributed to a span."""

    kind: str  # "time" | "energy"
    key: str  # phase name or energy component
    value: float  # the unit cost of one charge
    count: int = 1


@dataclass
class SpanRecord:
    """One node of a trace: name, wall time, charges and attributes."""

    name: str
    span_id: int
    parent_id: int | None = None
    attributes: dict = field(default_factory=dict)
    wall_s: float = 0.0
    charges: list[ChargeEvent] = field(default_factory=list)
    children: list[SpanRecord] = field(default_factory=list)

    def set(self, **attributes) -> None:
        """Attach attributes computed after the span was opened."""
        self.attributes.update(attributes)

    # ------------------------------------------------------------- traversal
    def iter_spans(self) -> Iterator[SpanRecord]:
        """This span and every descendant, preorder."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def find(self, name: str) -> SpanRecord | None:
        """First span named ``name`` in preorder (``None`` if absent)."""
        for span in self.iter_spans():
            if span.name == name:
                return span
        return None

    # ------------------------------------------------------------ accounting
    def time_by_phase(self) -> dict[str, float]:
        """Modelled time charged to *this* span, per phase."""
        return _fold_events(self.charges)["time"]

    def _total(self, kind: str) -> float:
        return math.fsum(e.value * e.count for e in self.charges if e.kind == kind)

    @property
    def modelled_time_s(self) -> float:
        """Modelled time charged directly to this span."""
        return self._total("time")

    @property
    def modelled_energy_j(self) -> float:
        """Modelled energy charged directly to this span."""
        return self._total("energy")

    def subtree_time_s(self) -> float:
        """Modelled time charged anywhere in this span's subtree."""
        return sum(span.modelled_time_s for span in self.iter_spans())

    def to_dict(self) -> dict:
        """JSON-serialisable form (the JSONL sink writes one per root)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "wall_s": self.wall_s,
            "modelled_time_s": self.modelled_time_s,
            "modelled_energy_j": self.modelled_energy_j,
            "time_by_phase": self.time_by_phase(),
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }


def _fold_events(events: Iterable[ChargeEvent]) -> dict[str, dict[str, float]]:
    """Fold charge events into a fresh ``PimStats`` and read it out."""
    from repro.pim.stats import PimStats  # repro.pim imports this module

    stats = PimStats()
    for event in events:
        add = stats.add_time if event.kind == "time" else stats.add_energy
        add(event.key, event.value, event.count)
    return {"time": stats.time_by_phase, "energy": stats.energy_by_component}


def fold_trace_charges(root: SpanRecord) -> dict[str, dict[str, float]]:
    """Re-accumulate the charge multiset of a whole trace.

    Returns ``{"time": {phase: seconds}, "energy": {component: joules}}``.
    The events are folded into the same exact ``{unit: count}`` structure
    the stats object keeps — a multiset, so the order the spans are walked
    in is irrelevant — and read out the same way: the result is
    *bit-identical* to the ``time_by_phase`` / ``energy_by_component`` of
    the execution the trace covered — the trace-completeness contract.
    """
    return _fold_events(e for span in root.iter_spans() for e in span.charges)


class _NullSpan:
    """Shared no-op span: the entire cost of tracing-off inside a ``with``."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attributes) -> None:
        """Discard the attributes (disabled tracer)."""


NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager entering one :class:`SpanRecord` (enabled tracer)."""

    __slots__ = ("_tracer", "_record", "_token", "_start")

    def __init__(self, tracer: SpanTracer, record: SpanRecord) -> None:
        self._tracer = tracer
        self._record = record
        self._token: contextvars.Token | None = None
        self._start = 0.0

    def __enter__(self) -> SpanRecord:
        self._start = time.perf_counter()
        self._token = self._tracer._current.set(self._record)
        return self._record

    def __exit__(self, *exc_info) -> bool:
        record = self._record
        record.wall_s = time.perf_counter() - self._start
        self._tracer._current.reset(self._token)
        if record.parent_id is None:
            self._tracer._finish_root(record)
        return False


class SpanTracer:
    """Records hierarchical spans and attributes ``PimStats`` charges to them.

    One tracer is shared by a service, its engines and their stages; the
    ``enabled`` flag can be toggled between operations (``explain()`` flips
    it around a single execution).  Completed root spans accumulate on
    :attr:`traces` and, when :attr:`sink` names a path, are appended to it
    as JSON lines.
    """

    def __init__(self, enabled: bool = False, sink: str | os.PathLike | None = None):
        self.enabled = bool(enabled)
        self.sink = sink
        #: Completed root spans, in completion order.
        self.traces: list[SpanRecord] = []
        self._current: contextvars.ContextVar[SpanRecord | None] = (
            contextvars.ContextVar("repro_obs_span", default=None)
        )
        self._ids = itertools.count(1)
        # A tracer may be shared by threads; the lock covers the root-trace
        # list and the sink file (children append under their parent from
        # exactly one thread, so span trees need no lock).
        self._lock = threading.Lock()

    # ---------------------------------------------------------------- spans
    def span(self, name: str, **attributes):
        """Open a span (``with tracer.span("filter") as rec: ...``) under the
        calling thread's innermost one; disabled tracers return a no-op span."""
        if not self.enabled:
            return NULL_SPAN
        parent = self._current.get()
        record = SpanRecord(
            name=name,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            attributes=attributes,
        )
        if parent is not None:
            parent.children.append(record)
        return _ActiveSpan(self, record)

    def current(self) -> SpanRecord | None:
        """The innermost active span of the calling thread (or ``None``)."""
        return self._current.get()

    # -------------------------------------------------------------- charges
    def on_charge(self, kind: str, key: str, value: float, count: int = 1) -> None:
        """Record ``count`` stats charges of ``value`` against the innermost span."""
        record = self._current.get()
        if record is not None:
            record.charges.append(ChargeEvent(kind, key, value, count))

    def bind(self, stats) -> None:
        """Route a :class:`~repro.pim.stats.PimStats`'s charges to this tracer.

        Called wherever an execution creates or re-binds a fresh stats
        object.  With tracing disabled the hook stays ``None`` and the
        stats object charges at full speed.
        """
        stats.trace_hook = self.on_charge if self.enabled else None

    # ---------------------------------------------------------------- roots
    def _finish_root(self, record: SpanRecord) -> None:
        with self._lock:
            self.traces.append(record)
            if self.sink is not None:
                with open(self.sink, "a") as handle:
                    json.dump(record.to_dict(), handle)
                    handle.write("\n")

    def pop_trace(self) -> SpanRecord | None:
        """Remove and return the most recently completed root span."""
        with self._lock:
            return self.traces.pop() if self.traces else None

    def clear(self) -> None:
        """Drop every retained trace (the sink file is left alone)."""
        with self._lock:
            self.traces.clear()


class NullTracer(SpanTracer):
    """The shared always-disabled tracer standalone engines default to.

    It refuses to be enabled: the singleton is shared by every engine
    created without an explicit tracer, so enabling it would silently trace
    unrelated engines.  Create a private :class:`SpanTracer` (or construct
    the engine/service with tracing on) instead.
    """

    def __setattr__(self, name: str, value) -> None:
        if name == "enabled" and value and hasattr(self, "enabled"):
            raise ValueError(
                "NULL_TRACER is shared and stays disabled; pass a "
                "SpanTracer(enabled=True) to the engine or service instead"
            )
        super().__setattr__(name, value)


NULL_TRACER = NullTracer()
"""Module-wide disabled tracer; the default for standalone engines."""


def tracer_from_config(config) -> SpanTracer:
    """The tracer an engine/service resolves from its ``SystemConfig``.

    Returns the shared :data:`NULL_TRACER` when ``config.tracing`` is off
    (nothing to own, nothing to pay), and a fresh enabled tracer — with the
    ``REPRO_TRACE`` sink path, when one was given — otherwise.
    """
    from repro.config import default_trace_sink

    if not getattr(config, "tracing", False):
        return NULL_TRACER
    return SpanTracer(enabled=True, sink=default_trace_sink())
