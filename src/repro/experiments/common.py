"""Shared set-up and execution for the evaluation experiments.

The evaluation runs the 13 SSB queries on five configurations:

* ``one_xb``  — this paper's system, pre-joined record in one crossbar row;
* ``two_xb``  — this paper's system with the record vertically partitioned
  across two crossbars (the worst-case placement of Section V-A);
* ``pimdb``   — the PIMDB baseline (no aggregation circuit);
* ``mnt_join`` — the columnar baseline on the pre-joined relation;
* ``mnt_reg``  — the columnar baseline on the original star schema.

:func:`build_setup` generates the dataset, loads the PIM configurations and
constructs the engines; :func:`run_all_queries` executes every query on every
configuration once and returns flat :class:`QueryRecord` rows, which all the
figure/table modules consume.  Because the five engines share the same
functional data, the runner also cross-checks that every configuration
returns identical result rows — a query execution that produced a wrong
answer never makes it into a figure.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from collections.abc import Sequence

from repro.baselines import build_pimdb_engine
from repro.columnar import ColumnarEngine
from repro.config import DEFAULT_CONFIG, SystemConfig
from repro.core.executor import PimQueryEngine, QueryExecution
from repro.db.query import Query
from repro.db.relation import Relation
from repro.db.storage import StoredRelation
from repro.pim.module import PimModule
from repro.ssb import ALL_QUERIES, QUERY_ORDER, build_ssb_prejoined, generate
from repro.ssb.datagen import LINEORDERS_PER_SF, SSBDataset
from repro.ssb.prejoined import DERIVED_ATTRIBUTES, max_aggregated_width, two_xb_partitions

#: The scale factor of the paper's evaluation; costs are extrapolated to it.
PAPER_SCALE_FACTOR = 10.0

#: Zipf skew of the generated SSB instance.
SKEW = 0.5

#: All configurations of the evaluation, in reporting order.
PIM_CONFIGS = ("one_xb", "two_xb", "pimdb")
COLUMNAR_CONFIGS = ("mnt_join", "mnt_reg")
ALL_CONFIGS = PIM_CONFIGS + COLUMNAR_CONFIGS

#: Queries for which both one-xb and PIMDB perform PIM aggregation in the
#: paper (its 4.31x energy and 2.92x peak-power comparisons are taken over
#: these).
PIM_AGGREGATION_QUERIES = ("Q1.1", "Q1.2", "Q1.3", "Q2.3", "Q3.4", "Q4.1")

#: Environment variable overriding the generated scale factor.
SCALE_ENV_VAR = "REPRO_SSB_SF"


@dataclass
class QueryRecord:
    """One (configuration, query) measurement used by the figures."""

    config: str
    query: str
    time_s: float
    energy_j: float
    peak_power_w: float
    max_writes_per_row: int
    selectivity: float
    total_subgroups: int
    subgroups_in_sample: int
    pim_subgroups: int
    result_rows: int


@dataclass
class ExperimentSetup:
    """Dataset, pre-joined relation and the five configured engines."""

    dataset: SSBDataset
    prejoined: Relation
    config: SystemConfig
    timing_scale: float
    pim_engines: dict[str, PimQueryEngine]
    columnar: ColumnarEngine
    configs: tuple[str, ...] = ALL_CONFIGS
    _records: list[QueryRecord] | None = None

    def execute(self, config: str, query: Query):
        """Execute one query on one configuration."""
        if config in self.pim_engines:
            return self.pim_engines[config].execute(query)
        if config == "mnt_join":
            return self.columnar.execute_prejoined(query, self.prejoined, label=config)
        if config == "mnt_reg":
            return self.columnar.execute_star(query, self.dataset.database, label=config)
        raise KeyError(f"unknown configuration {config!r}")


def default_scale_factor() -> float:
    """Scale factor used by the benchmarks (overridable via REPRO_SSB_SF)."""
    value = os.environ.get(SCALE_ENV_VAR)
    return float(value) if value else 0.01


def build_setup(
    scale_factor: float | None = None,
    seed: int = 42,
    configs: Sequence[str] = ALL_CONFIGS,
    config: SystemConfig | None = None,
) -> ExperimentSetup:
    """Generate the SSB instance and construct the requested configurations.

    The costs are extrapolated to the paper's :data:`PAPER_SCALE_FACTOR`.
    """
    if scale_factor is None:
        scale_factor = default_scale_factor()
    system = config if config is not None else DEFAULT_CONFIG
    dataset = generate(scale_factor=scale_factor, skew=SKEW, seed=seed)
    prejoined = build_ssb_prejoined(dataset.database)
    aggregation_width = max_aggregated_width(prejoined)
    timing_scale = (LINEORDERS_PER_SF * PAPER_SCALE_FACTOR) / len(prejoined)

    pim_engines: dict[str, PimQueryEngine] = {}
    if "one_xb" in configs:
        module = PimModule(system)
        stored = StoredRelation(
            prejoined, module, label="one_xb",
            aggregation_width=aggregation_width,
            reserve_bulk_aggregation=False,
        )
        pim_engines["one_xb"] = PimQueryEngine(
            stored, config=system, label="one_xb", timing_scale=timing_scale
        )
    if "two_xb" in configs:
        module = PimModule(system)
        stored = StoredRelation(
            prejoined, module, label="two_xb",
            partitions=two_xb_partitions(prejoined),
            aggregation_width=aggregation_width,
            reserve_bulk_aggregation=False,
        )
        pim_engines["two_xb"] = PimQueryEngine(
            stored, config=system, label="two_xb", timing_scale=timing_scale
        )
    if "pimdb" in configs:
        engine, _ = build_pimdb_engine(
            prejoined, config=system,
            aggregation_width=aggregation_width,
            timing_scale=timing_scale,
        )
        pim_engines["pimdb"] = engine

    columnar = ColumnarEngine(
        system, derived=DERIVED_ATTRIBUTES, workload_scale=timing_scale
    )
    return ExperimentSetup(
        dataset=dataset,
        prejoined=prejoined,
        config=system,
        timing_scale=timing_scale,
        pim_engines=pim_engines,
        columnar=columnar,
        configs=tuple(c for c in ALL_CONFIGS if c in configs),
    )


def run_all_queries(
    setup: ExperimentSetup,
    queries: Sequence[str] = QUERY_ORDER,
) -> list[QueryRecord]:
    """Run every query on every configuration of the set-up (cached).

    The runner raises ``AssertionError`` naming the configuration and the
    query when a configuration's result rows differ from the first one's.
    """
    if setup._records is not None:
        return setup._records
    records: list[QueryRecord] = []
    for name in queries:
        query = ALL_QUERIES[name]
        reference_rows = None
        for config in setup.configs:
            execution = setup.execute(config, query)
            rows = execution.rows
            if reference_rows is None:
                reference_rows = rows
            elif _comparable(rows) != _comparable(reference_rows):
                raise AssertionError(f"configuration {config} disagrees on {name}")
            records.append(_record_from(config, name, execution))
    setup._records = records
    return records


def _comparable(rows) -> dict:
    return {key: dict(value) for key, value in rows.items()}


def _record_from(config: str, name: str, execution) -> QueryRecord:
    if isinstance(execution, QueryExecution):
        return QueryRecord(
            config=config,
            query=name,
            time_s=execution.time_s,
            energy_j=execution.energy_j,
            peak_power_w=execution.peak_chip_power_w,
            max_writes_per_row=execution.max_writes_per_row,
            selectivity=execution.selectivity,
            total_subgroups=execution.total_subgroups,
            subgroups_in_sample=execution.subgroups_in_sample,
            pim_subgroups=execution.pim_subgroups,
            result_rows=len(execution.rows),
        )
    return QueryRecord(
        config=config,
        query=name,
        time_s=execution.time_s,
        energy_j=0.0,
        peak_power_w=0.0,
        max_writes_per_row=0,
        selectivity=0.0,
        total_subgroups=0,
        subgroups_in_sample=0,
        pim_subgroups=0,
        result_rows=len(execution.rows),
    )


# ---------------------------------------------------------------------------
# Small reporting helpers shared by the figure modules
# ---------------------------------------------------------------------------

def records_by(records: Sequence[QueryRecord]) -> dict[tuple[str, str], QueryRecord]:
    """Index records by (config, query)."""
    return {(r.config, r.query): r for r in records}


def metric_rows(
    records: Sequence[QueryRecord], configs: Sequence[str], field: str
) -> list[list[object]]:
    """One row per query: its name, then each configuration's ``field``
    (``time_s``, ``energy_j``, ...; NaN where a record is missing)."""
    indexed = records_by(records)
    return [
        [query] + [
            getattr(indexed[config, query], field)
            if (config, query) in indexed else float("nan")
            for config in configs
        ]
        for query in QUERY_ORDER
    ]


def pimdb_ratio(records: Sequence[QueryRecord], field: str) -> float:
    """Geo-mean of PIMDB's ``field`` over one-xb's on the PIM-aggregation queries."""
    indexed = records_by(records)
    ratios = []
    for query in PIM_AGGREGATION_QUERIES:
        one = indexed.get(("one_xb", query))
        pimdb = indexed.get(("pimdb", query))
        if one and pimdb and getattr(one, field) > 0:
            ratios.append(getattr(pimdb, field) / getattr(one, field))
    return geomean(ratios)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (ignoring non-positive values)."""
    filtered = [v for v in values if v > 0]
    if not filtered:
        return 0.0
    return math.exp(sum(math.log(v) for v in filtered) / len(filtered))


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a simple aligned text table."""
    columns = [str(h) for h in headers]
    text_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(columns[i]), *(len(r[i]) for r in text_rows)) if text_rows else len(columns[i])
        for i in range(len(columns))
    ]
    lines = [
        "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns)),
        "  ".join("-" * widths[i] for i in range(len(columns))),
    ]
    for row in text_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.001:
            return f"{cell:.3e}"
        return f"{cell:.4g}"
    return str(cell)
