"""Metrics registry and the shared snapshot/delta algebra of the stats classes.

Every stats dataclass in the stack (`CacheStats`, `CandidateCacheStats`,
`AdaptiveSnapshot`, the `ServiceStats` sections) declares its point-in-time
fields once, as a class-level ``GAUGES`` tuple.  That one tuple drives both
halves of this module:

* :func:`add_stats`/:func:`sub_stats` are the one definition of the
  roll-up/delta algebra — numeric fields combine, except that a delta keeps
  the left operand's ``GAUGES`` (occupancy, capacity), and non-numeric
  fields resolve first-non-``None``;
* :func:`register_fields` exports a dataclass into a
  :class:`MetricsRegistry` — ``GAUGES`` as gauges, every other numeric field
  as a counter — which renders as JSON or Prometheus-style text exposition.
"""

from __future__ import annotations

import dataclasses
import json
import operator
from collections.abc import Mapping

#: A normalised label set: sorted ``(name, value)`` pairs.
LabelSet = tuple[tuple[str, str], ...]


# ---------------------------------------------------------------------------
# dataclass snapshot/delta algebra
# ---------------------------------------------------------------------------

def _gauges(stats) -> tuple[str, ...]:
    """The point-in-time fields (and derived ratios) a stats class declares."""
    return getattr(type(stats), "GAUGES", ())


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _combine(a, b, op, keep: tuple[str, ...]):
    if type(a) is not type(b):
        raise TypeError(
            f"cannot combine {type(a).__name__} with {type(b).__name__}"
        )
    values = {}
    for f in dataclasses.fields(a):
        left = getattr(a, f.name)
        right = getattr(b, f.name)
        if f.name not in keep and _is_number(left) and _is_number(right):
            values[f.name] = op(left, right)
        else:
            values[f.name] = left if left is not None else right
    return type(a)(**values)


def add_stats(a, b):
    """Field-wise sum of two stats dataclasses of the same type.

    Numeric fields add — occupancy too, since adding aggregates *distinct*
    objects — and non-numeric ones take the first non-``None`` operand.
    """
    return _combine(a, b, operator.add, ())


def sub_stats(a, b):
    """Field-wise delta ``a - b``, preserving ``a``'s ``GAUGES`` fields.

    The delta of two snapshots of one object subtracts the counters but
    keeps the *later* snapshot's point-in-time fields (occupancy,
    capacity) — deltas of those would be meaningless.
    """
    return _combine(a, b, operator.sub, _gauges(a))


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

def _labels(labels: Mapping[str, object] | None) -> LabelSet:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_text(labels: LabelSet) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f'{key}="{_escape(value)}"' for key, value in labels) + "}"


class MetricsRegistry:
    """Counters and gauges with label sets.

    Counters accumulate (``counter()`` adds), gauges record the last value
    set.  Both are keyed by ``(name, labels)``; re-using a name with the
    other kind raises.  Series keep their registration order.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelSet], list] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def _entry(
        self, kind: str, name: str, labels: Mapping[str, object] | None
    ) -> list:
        entry = self._metrics.setdefault((name, _labels(labels)), [kind, 0.0])
        if entry[0] != kind:
            raise ValueError(f"metric {name!r} is a {entry[0]}, not a {kind}")
        return entry

    # --------------------------------------------------------------- updates
    def counter(
        self,
        name: str,
        value: float = 1.0,
        labels: Mapping[str, object] | None = None,
    ) -> None:
        """Add ``value`` to a monotonically accumulating series."""
        self._entry("counter", name, labels)[1] += float(value)

    def gauge(
        self,
        name: str,
        value: float,
        labels: Mapping[str, object] | None = None,
    ) -> None:
        """Set a point-in-time series to ``value``."""
        self._entry("gauge", name, labels)[1] = float(value)

    # --------------------------------------------------------------- queries
    def value(
        self, name: str, labels: Mapping[str, object] | None = None
    ) -> float:
        """Current value of one series."""
        return self._metrics[(name, _labels(labels))][1]

    def names(self) -> list[str]:
        """Sorted distinct metric names."""
        return sorted({name for name, _ in self._metrics})

    # ------------------------------------------------------------ exposition
    def to_json(self) -> dict:
        """JSON-serialisable export of every series."""
        return {
            "metrics": [
                {"name": name, "kind": kind, "labels": dict(labels), "value": value}
                for (name, labels), (kind, value) in sorted(self._metrics.items())
            ]
        }

    def render_json(self) -> str:
        """:meth:`to_json` as an indented JSON document."""
        return json.dumps(self.to_json(), indent=2)

    def render_prometheus(self) -> str:
        """Prometheus-style text exposition."""
        lines: list[str] = []
        seen_headers: set[str] = set()
        for (name, labels), (kind, value) in sorted(self._metrics.items()):
            if name not in seen_headers:
                seen_headers.add(name)
                lines.append(f"# TYPE {name} {kind}")
            lines.append(f"{name}{_label_text(labels)} {value!r}")
        return "\n".join(lines) + "\n"

    def render_text(self) -> str:
        """Every series as ``name{labels}=value`` on one line, in registration order."""
        return " ".join(
            f"{name}{_label_text(labels)}={value:.6g}"
            for (name, labels), (_, value) in self._metrics.items()
        )


def register_fields(registry: MetricsRegistry, stats, prefix: str) -> None:
    """Register a stats dataclass's numbers as ``<prefix>_<field>`` series.

    The names in the class's ``GAUGES`` tuple — point-in-time fields and
    derived ratios (properties) — register as gauges, the remaining numeric
    fields as counters.  String and tuple fields (a hot column, a column
    pair) become labels of every series; ``None`` and nested sections are
    skipped.
    """
    gauges = _gauges(stats)
    fields = [f.name for f in dataclasses.fields(stats)]
    labels: dict[str, str] = {}
    numbers: dict[str, float] = {}
    for name in fields + [g for g in gauges if g not in fields]:
        value = getattr(stats, name)
        if isinstance(value, str):
            labels[name] = value
        elif isinstance(value, tuple):
            labels[name] = "x".join(value)
        elif _is_number(value):
            numbers[name] = value
    for name, value in numbers.items():
        if name in gauges:
            registry.gauge(f"{prefix}_{name}", value, labels=labels)
        else:
            registry.counter(f"{prefix}_{name}", value, labels=labels)
