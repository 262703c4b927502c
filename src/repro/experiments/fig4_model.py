"""Fig. 4 — empirical latency modelling of host-gb and pim-gb.

The paper obtains the Eq. (1)/(2) lookup tables by measuring synthetic
workloads on its gem5 system and fitting the results.  This experiment
reproduces the methodology against the simulator: it stores a synthetic
relation, sweeps

* the relation size ``M`` (2 MB pages, emulated through the timing scale),
* the ratio of selected records ``r`` and the reads per record ``s`` for
  host-gb (Figs. 4a/4b), and
* the number of aggregation reads ``n`` for a single-subgroup pim-gb
  (Fig. 4c),

measures the latency of each point with the same read-path / executor models
the query engine uses, fits :class:`~repro.core.latency_model.HostGbLatencyModel`
and :class:`~repro.core.latency_model.PimGbLatencyModel` to the measurements,
and reports the fit against the analytic model the engine uses by default.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.core.latency_model import (
    GroupByCostModel,
    HostGbLatencyModel,
    HostGbMeasurement,
    PimGbLatencyModel,
    PimGbMeasurement,
    build_analytic_cost_model,
)
from repro.db.compiler import compile_group_mask, compile_predicate
from repro.db.query import Comparison, LT
from repro.db.relation import Relation
from repro.db.schema import Schema, int_attribute
from repro.db.storage import StoredRelation
from repro.experiments.common import format_table
from repro.host.aggregator import host_group_aggregate
from repro.host.readpath import HostReadModel
from repro.pim.controller import PimExecutor, every_crossbar
from repro.pim.module import PimModule
from repro.pim.stats import PimStats
from repro.db.query import Aggregate


#: Attribute widths chosen so the aggregated attribute needs n = 1..4 reads.
_AGGREGATE_WIDTHS = {1: 14, 2: 28, 3: 44, 4: 50}

#: The swept ratios of selected records ``r`` (Fig. 4b).
READ_RATIOS = (0.01, 0.05, 0.2, 0.4, 0.8)

#: The swept 16-bit reads per record ``s`` (Fig. 4a).
READS_PER_RECORD = (2, 4, 6, 8)


def _synthetic_relation(records: int) -> Relation:
    """A synthetic relation for the latency sweeps.

    ``key`` drives the selectivity filter, ``group_id`` is the subgroup
    identifier, ``read0..read3`` are 16-bit attributes the host reads (their
    number sets ``s``), and ``agg_n*`` are the aggregated attributes of
    widths requiring one to four 16-bit reads.
    """
    rng = np.random.default_rng(11)
    attributes = [
        int_attribute("key", 20),
        int_attribute("group_id", 8),
        int_attribute("read0", 16),
        int_attribute("read1", 16),
        int_attribute("read2", 16),
        int_attribute("read3", 16),
    ]
    columns = {
        "key": rng.integers(0, 1 << 20, records).astype(np.uint64),
        "group_id": rng.integers(0, 100, records).astype(np.uint64),
        "read0": rng.integers(0, 1 << 16, records).astype(np.uint64),
        "read1": rng.integers(0, 1 << 16, records).astype(np.uint64),
        "read2": rng.integers(0, 1 << 16, records).astype(np.uint64),
        "read3": rng.integers(0, 1 << 16, records).astype(np.uint64),
    }
    for n, width in _AGGREGATE_WIDTHS.items():
        name = f"agg_n{n}"
        attributes.append(int_attribute(name, width))
        columns[name] = rng.integers(0, 1 << 30, records).astype(np.uint64) & np.uint64(
            (1 << width) - 1
        )
    return Relation(Schema("fig4_synthetic", attributes), columns)


@dataclass
class Fig4Result:
    """Measurements and fitted models of the Fig. 4 experiment."""

    host_measurements: list[HostGbMeasurement]
    pim_measurements: list[PimGbMeasurement]
    fitted: GroupByCostModel
    analytic: GroupByCostModel


def run_fig4(
    config: SystemConfig = None,
    records: int = 60_000,
    page_counts: Sequence[int] = (64, 128, 256, 512),
) -> Fig4Result:
    """Measure the host-gb and pim-gb latency sweeps and fit Eq. (1)/(2).

    pim-gb aggregates with the aggregation circuit, for ``n`` = 1..4 reads
    (Fig. 4c).
    """
    system = config if config is not None else DEFAULT_CONFIG
    relation = _synthetic_relation(records)
    module = PimModule(system)
    stored = StoredRelation(
        relation, module, label="fig4",
        aggregation_width=max(_AGGREGATE_WIDTHS.values()),
        reserve_bulk_aggregation=False,
    )
    layout = stored.layouts[0]
    allocation = stored.allocations[0]
    actual_pages = stored.pages

    host_points: list[HostGbMeasurement] = []
    pim_points: list[PimGbMeasurement] = []

    for pages in page_counts:
        scale = pages / actual_pages
        for ratio in READ_RATIOS:
            threshold = int(ratio * (1 << 20))
            stats = PimStats()
            executor = PimExecutor(system, stats)
            read_model = HostReadModel(system, stats, traffic_scale=scale)
            program = compile_predicate(
                Comparison("key", LT, threshold), relation.schema, layout
            )
            executor.run_program(allocation.bank, program, pages=pages, phase="filter")

            for s in READS_PER_RECORD:
                point_stats = PimStats()
                point_reader = HostReadModel(system, point_stats, traffic_scale=scale)
                mask = point_reader.read_filter_bitvector(stored, 0)
                indices = np.nonzero(mask)[0]
                # Read enough distinct attributes to require ~s 16-bit words
                # per record (the synthetic schema provides nine candidates).
                candidates = ["group_id", "read0", "read1", "read2", "read3",
                              "agg_n1", "agg_n2", "agg_n3", "agg_n4"]
                attributes = candidates[:min(s, len(candidates))]
                values = point_reader.read_records(stored, 0, indices, attributes)
                host_group_aggregate(
                    {"group_id": values.get("group_id", indices)},
                    {},
                    [Aggregate("count")],
                    system.host,
                    stats=point_stats,
                    threads=system.host.query_threads,
                    workload_scale=scale,
                )
                host_points.append(HostGbMeasurement(
                    pages=pages,
                    reads_per_record=s,
                    read_ratio=float(mask.mean()),
                    time_s=point_stats.total_time_s,
                ))

        for n in _AGGREGATE_WIDTHS:
            stats = PimStats()
            executor = PimExecutor(system, stats)
            read_model = HostReadModel(system, stats, traffic_scale=scale)
            group_program = compile_group_mask(
                {"group_id": 3}, layout, layout.valid_column, False
            )
            executor.run_program(
                allocation.bank, group_program, pages=pages, phase="pim-gb-filter"
            )
            name = f"agg_n{n}"
            executor.aggregate_with_circuit(
                allocation.bank,
                layout.field_offset(name), layout.field_width(name),
                layout.group_column, layout.result_offset,
                pages, every_crossbar(allocation.bank),
                result_width=layout.accumulator_width,
            )
            read_model.read_aggregation_results(stored, 0)
            pim_points.append(PimGbMeasurement(
                pages=pages, aggregation_reads=n, time_s=stats.total_time_s
            ))

    fitted = GroupByCostModel(
        host=HostGbLatencyModel.fit(host_points),
        pim=PimGbLatencyModel.fit(pim_points),
    )
    analytic = build_analytic_cost_model(system)
    return Fig4Result(
        host_measurements=host_points,
        pim_measurements=pim_points,
        fitted=fitted,
        analytic=analytic,
    )


def render(result: Fig4Result) -> str:
    """Fig. 4 as printable text: measured points, fitted and analytic models."""
    lines = ["Fig. 4a/4b - host-gb (measured vs fitted M*(a(s)*sqrt(r)+b(s)))"]
    rows = []
    for point in result.host_measurements:
        fitted = result.fitted.host.predict(
            point.pages, point.reads_per_record, point.read_ratio
        )
        analytic = result.analytic.host.predict(
            point.pages, point.reads_per_record, point.read_ratio
        )
        rows.append([
            point.pages, point.reads_per_record, f"{point.read_ratio:.3f}",
            f"{point.time_s * 1e3:.3f}", f"{fitted * 1e3:.3f}", f"{analytic * 1e3:.3f}",
        ])
    lines.append(format_table(
        ["M", "s", "r", "measured [ms]", "fit [ms]", "analytic [ms]"], rows
    ))
    lines.append("")
    lines.append("Fig. 4c - pim-gb single subgroup (measured vs fitted M*slope(n)+T0(n))")
    rows = []
    for point in result.pim_measurements:
        fitted = result.fitted.pim.predict(point.pages, point.aggregation_reads)
        analytic = result.analytic.pim.predict(point.pages, point.aggregation_reads)
        rows.append([
            point.pages, point.aggregation_reads,
            f"{point.time_s * 1e3:.3f}", f"{fitted * 1e3:.3f}", f"{analytic * 1e3:.3f}",
        ])
    lines.append(format_table(
        ["M", "n", "measured [ms]", "fit [ms]", "analytic [ms]"], rows
    ))
    lines.append("")
    host_a = {k: round(v, 9) for k, v in result.fitted.host.a.items()}
    host_b = {k: round(v, 9) for k, v in result.fitted.host.b.items()}
    lines.append(f"fitted host-gb slope tables: a(s)={host_a} b(s)={host_b}")
    pim_slope = {k: round(v, 9) for k, v in result.fitted.pim.slope_table.items()}
    pim_t0 = {k: round(v, 9) for k, v in result.fitted.pim.intercept_table.items()}
    lines.append(f"fitted pim-gb tables: slope(n)={pim_slope} T0(n)={pim_t0}")
    return "\n".join(lines)
