"""Unified observability: span traces, metrics, EXPLAIN ANALYZE, wear.

* :mod:`repro.obs.trace` — hierarchical span tracer with bit-exact
  ``PimStats`` charge attribution and a JSONL sink;
* :mod:`repro.obs.metrics` — counters/gauges with label sets, JSON and
  Prometheus-style exposition, plus the shared snapshot/delta algebra of
  the stats dataclasses;
* :mod:`repro.obs.explain` — rendering of one traced execution
  (``QueryService.explain``);
* :mod:`repro.obs.wear` — per-crossbar write-count observatory behind the
  Fig. 9 endurance scalar.
"""

from repro.obs.explain import ExplainResult
from repro.obs.metrics import MetricsRegistry, add_stats, register_fields, sub_stats
from repro.obs.trace import (
    NULL_TRACER,
    ChargeEvent,
    SpanRecord,
    SpanTracer,
    fold_trace_charges,
    tracer_from_config,
)
from repro.obs.wear import WearReport

__all__ = [
    "ChargeEvent",
    "ExplainResult",
    "MetricsRegistry",
    "NULL_TRACER",
    "SpanRecord",
    "SpanTracer",
    "WearReport",
    "add_stats",
    "fold_trace_charges",
    "register_fields",
    "sub_stats",
    "tracer_from_config",
]
