"""Trace an SSB query end to end: spans, EXPLAIN ANALYZE, metrics, wear.

The telemetry layer attributes every modelled :class:`~repro.pim.stats.PimStats`
charge to the engine stage that incurred it.  This example

* runs a tiny SSB workload through a tracing-enabled
  :class:`~repro.service.service.QueryService`, writing each query's span
  tree to a JSONL sink,
* verifies the trace-completeness contract — re-folding one trace's charge
  events reproduces the execution's ``time_by_phase`` bit-for-bit,
* prints ``EXPLAIN ANALYZE`` for a GROUP-BY query,
* renders the batch metrics in Prometheus text format and the per-crossbar
  wear heatmap.

Run with::

    python examples/trace_query.py [trace.jsonl]

The sink path may also come from the ``REPRO_TRACE`` environment variable
(which enables tracing service-wide without code changes).
"""

import json
import sys
import tempfile

from repro.config import DEFAULT_CONFIG
from repro.db.storage import StoredRelation
from repro.obs.trace import fold_trace_charges
from repro.pim.module import PimModule
from repro.service import QueryService
from repro.ssb import ALL_QUERIES, build_ssb_prejoined, generate
from repro.ssb.prejoined import max_aggregated_width


def main() -> None:
    sink = sys.argv[1] if len(sys.argv) > 1 else (
        tempfile.NamedTemporaryFile(
            suffix=".jsonl", prefix="repro_trace_", delete=False
        ).name
    )
    dataset = generate(scale_factor=0.002, skew=0.5)
    prejoined = build_ssb_prejoined(dataset.database)
    stored = StoredRelation(
        prejoined, PimModule(DEFAULT_CONFIG), label="ssb",
        aggregation_width=max_aggregated_width(prejoined),
        reserve_bulk_aggregation=False,
    )
    service = QueryService(tracing=True, trace_sink=sink)
    service.register("ssb", stored)

    # --- traced replay -----------------------------------------------------
    workload = ["Q1.1", "Q2.1", "Q3.2", "Q4.1"]
    executions = {name: service.execute(ALL_QUERIES[name]) for name in workload}

    # Trace completeness: the last query's charge events fold back into the
    # execution's own per-phase accounting, bit for bit.
    last = workload[-1]
    trace = service.tracer.traces[-1]
    folded = fold_trace_charges(trace)
    assert folded["time"] == dict(executions[last].stats.time_by_phase)
    assert folded["energy"] == dict(executions[last].stats.energy_by_component)
    print(f"verified: trace of {last} reproduces its modelled stats bit-exact")
    with open(sink) as handle:
        lines = handle.readlines()
    assert len(lines) == len(workload)
    spans = sum(
        1 for line in lines for _ in _walk(json.loads(line))
    )
    print(f"verified: {len(lines)} JSONL traces ({spans} spans) in {sink}")

    # --- EXPLAIN ANALYZE ---------------------------------------------------
    print()
    print(service.explain(ALL_QUERIES["Q3.2"]).render())

    # --- metrics + wear ----------------------------------------------------
    batch = service.execute_batch([ALL_QUERIES[name] for name in workload])
    print()
    print(batch.stats.metrics().render_prometheus().rstrip())
    print()
    print(service.wear_report().heatmap())


def _walk(node):
    yield node
    for child in node["children"]:
        yield from _walk(child)


if __name__ == "__main__":
    main()
