"""The four benchmark workloads, each a fixed op sequence made from the seed.

A workload builds its own :class:`~repro.service.QueryService` (explicit
``SystemConfig``, tracing off) and exposes one *pass*: a fixed sequence of
service calls.  Every call is one *operation* — an ``execute_batch`` of one
SSB query flight, or one ``insert`` / ``delete`` / ``compact`` — issued
closed-loop by a single client through the ``call`` hook the harness passes
in, which is where timing, tracing and checking happen.

The seed overwrites a random 1 % of the generated SSB records with copies of
other records, permutes the order of the flights and of the queries inside a
flight (fixed for the run), and picks the rows a DELETE hits and the values
an INSERT writes.  The other 99 % of the records keep generator seed
``DATA_SEED``: the sampling planner's PIM/host split and the cost router are
*discrete* functions of the data, and another generator seed moves a pass's
modelled and wall time by tens of percent through those decisions alone (see
README.md) — run-to-run spread that would hide every smaller regression.

Results are checked against ``repro.columnar`` — an evaluator that shares no
code with the PIM path — on ``StoredRelation.live_relation()``; the DML
workload additionally keeps a shadow copy of the live rows that it edits
itself and compares as a multiset.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.columnar import ColumnarEngine
from repro.config import SystemConfig
from repro.core.latency_model import (
    GroupByCostModel,
    HostGbLatencyModel,
    PimGbLatencyModel,
)
from repro.db.query import And, Comparison, evaluate_predicate
from repro.db.relation import Relation, concatenate
from repro.db.storage import StoredRelation
from repro.pim.module import PimModule
from repro.service import QueryService
from repro.ssb import ALL_QUERIES, build_ssb_prejoined, generate
from repro.ssb.datagen import LINEORDERS_PER_SF
from repro.ssb.prejoined import DERIVED_ATTRIBUTES, max_aggregated_width
from repro.ssb.queries import queries_in_group

#: Modelled costs are extrapolated to the paper's scale factor.
PAPER_SCALE_FACTOR = 10.0
SSB_SKEW = 0.5
#: Generator seed of the SSB instance (see the module docstring).
DATA_SEED = 42
#: Share of the records ``--seed`` overwrites with copies of other records.
RESAMPLED_SHARE = 0.01
#: The scale factor of ``--quick`` smoke runs (harness tests).
QUICK_SCALE_FACTOR = 0.002

#: ``call(kind, fn, check)`` runs ``fn()`` as one operation and returns its
#: result; ``check(result)`` returns the number of mismatches against the
#: independent evaluator and is only invoked when the harness is verifying.
Call = Callable[[str, Callable[[], object], Callable[[object], int]], object]


def system_config() -> SystemConfig:
    """The pinned configuration: never inherited from the environment."""
    return SystemConfig(backend="packed", execution="batched", tracing=False)


def all_pim_cost_model() -> GroupByCostModel:
    """Host GROUP-BY absurdly expensive, PIM free: every subgroup stays on PIM."""
    return GroupByCostModel(
        HostGbLatencyModel({2: 1.0}, {2: 1.0}),
        PimGbLatencyModel({2: 0.0}, {2: 0.0}),
    )


def comparable(rows) -> dict:
    """Result rows as plain nested dicts (engine-independent equality)."""
    return {key: dict(value) for key, value in rows.items()}


def sorted_rows(relation: Relation) -> np.ndarray:
    """All records as a lexicographically sorted 2-D array (multiset identity)."""
    table = np.stack(
        [relation.column(name) for name in relation.schema.names], axis=1
    )
    return table[np.lexsort(table.T[::-1])]


@dataclass
class SetupTimes:
    """Wall seconds of the set-up stages, measured around the calls."""

    generate_s: float = 0.0
    prejoin_s: float = 0.0
    load_s: float = 0.0


@dataclass
class Instance:
    """One built workload: a service over a freshly loaded relation."""

    workload: Workload
    seed: int
    service: QueryService
    timing_scale: float
    setup: SetupTimes
    flights: list[list[str]]
    #: ``None`` for the sharded relation (its shards own the storage).
    stored: StoredRelation | None = None
    _columnar: ColumnarEngine | None = None
    _reference: dict[str, dict] = field(default_factory=dict)
    #: A workload that writes keeps its own copy of the live rows while a
    #: pass is being verified, edited by the checks of its DML ops.
    shadow: Relation | None = None

    @property
    def static(self) -> bool:
        """No op changes the data, so reference rows are computed once."""
        return self.workload.static

    # ---------------------------------------------------------------- checks
    def live_relation(self) -> Relation:
        if self.stored is not None:
            return self.stored.live_relation()
        return self.service.engine().sharded.live_relation()

    def _reference_rows(self, query) -> dict:
        if self.static and query.name in self._reference:
            return self._reference[query.name]
        if self._columnar is None:
            self._columnar = ColumnarEngine(
                system_config(), derived=DERIVED_ATTRIBUTES,
                workload_scale=self.timing_scale,
            )
        rows = comparable(
            self._columnar.execute_prejoined(query, self.live_relation()).rows
        )
        if self.static:
            self._reference[query.name] = rows
        return rows

    def check_batch(self, result) -> int:
        """Executions of a batch whose rows differ from ``repro.columnar``."""
        return sum(
            comparable(execution.rows) != self._reference_rows(execution.query)
            for execution in result
        )

    def begin_shadow(self) -> None:
        """Start shadowing the live rows (a no-op when nothing writes)."""
        if not self.static:
            self.shadow = self.live_relation()

    def end_shadow(self) -> int:
        """Multiset-compare the shadow with the stored live rows; 1 on mismatch."""
        if self.static:
            return 0
        expected = sorted_rows(self.shadow)
        actual = sorted_rows(self.live_relation())
        self.shadow = None
        return int(
            expected.shape != actual.shape or not np.array_equal(expected, actual)
        )

    # ---------------------------------------------------------------- passes
    def run_pass(self, index: int, call: Call) -> None:
        """Issue the operations of pass ``index`` through ``call``."""
        self.workload.run_pass(self, index, call)

    def batch(self, names: list[str], call: Call):
        queries = [ALL_QUERIES[name] for name in names]
        return call(
            "batch", lambda: self.service.execute_batch(queries), self.check_batch
        )

    def close(self) -> None:
        self.service.close()


class Workload:
    """Base: the SSB read pass (four flights, one ``execute_batch`` each)."""

    name = ""
    why = ""
    scale_factor = 0.01
    #: Queries left out of the pass (see the subclass that sets it).
    skipped_queries: frozenset[str] = frozenset()
    cache_capacity = 512
    scatter_workers = 1
    #: No operation of the pass changes the data.
    static = True

    def build(self, seed: int, quick: bool = False) -> Instance:
        """Generate, pre-join, load and register — everything before pass 0."""
        scale_factor = QUICK_SCALE_FACTOR if quick else self.scale_factor
        setup = SetupTimes()
        start = time.perf_counter()
        dataset = generate(scale_factor=scale_factor, skew=SSB_SKEW, seed=DATA_SEED)
        setup.generate_s = time.perf_counter() - start
        start = time.perf_counter()
        relation = build_ssb_prejoined(dataset.database)
        rng = np.random.default_rng(seed)
        count = len(relation)
        overwritten = rng.choice(
            count, max(1, int(count * RESAMPLED_SHARE)), replace=False
        )
        copied = rng.integers(0, count, len(overwritten))
        columns = {}
        for name, column in relation.columns.items():
            columns[name] = column.copy()
            columns[name][overwritten] = column[copied]
        relation = Relation(relation.schema, columns)
        setup.prejoin_s = time.perf_counter() - start
        timing_scale = LINEORDERS_PER_SF * PAPER_SCALE_FACTOR / len(relation)
        service = QueryService(
            cache_capacity=self.cache_capacity,
            scatter_workers=self.scatter_workers,
            tracing=False,
        )
        start = time.perf_counter()
        stored = self.register(service, relation, timing_scale)
        setup.load_s = time.perf_counter() - start
        flights = []
        for group in rng.permutation([1, 2, 3, 4]):
            names = [
                name for name in queries_in_group(int(group))
                if name not in self.skipped_queries
            ]
            flights.append([names[i] for i in rng.permutation(len(names))])
        return Instance(
            workload=self, seed=seed, service=service,
            timing_scale=timing_scale, setup=setup, flights=flights,
            stored=stored,
        )

    def register(
        self, service: QueryService, relation: Relation, timing_scale: float
    ) -> StoredRelation | None:
        stored = StoredRelation(
            relation, PimModule(system_config()), label="ssb",
            aggregation_width=max_aggregated_width(relation),
            reserve_bulk_aggregation=False,
        )
        service.register(
            "ssb", stored, config=system_config(),
            timing_scale=timing_scale, cost_model=self.cost_model(),
        )
        return stored

    def cost_model(self) -> GroupByCostModel | None:
        return None

    def run_pass(self, instance: Instance, index: int, call: Call) -> None:
        for names in instance.flights:
            instance.batch(names, call)


class SsbDefault(Workload):
    name = "ssb_default"
    why = (
        "13 SSB queries on the default config and fitted cost model; its ~300 "
        "programs fit the 512-entry program cache, data-proportional work "
        "(field decode) dominates"
    )
    scale_factor = 0.015


class SsbAllPim(Workload):
    name = "ssb_allpim"
    why = (
        "all-PIM GROUP-BY cost model; ~510 subgroup programs per pass thrash a "
        "256-entry program cache, per-program Python work (compile, lower, "
        "charge replay) dominates"
    )
    scale_factor = 0.005
    # Q3.2 (600 subgroups) and Q4.3 (800) cost 1.5-2 s each per pass in this
    # regime whatever the data size; with them the timed window would hold
    # fewer than 30 operations.  The other eleven still issue ~510 distinct
    # subgroup programs per pass, twice the cache configured here.
    skipped_queries = frozenset({"Q3.2", "Q4.3"})
    cache_capacity = 256

    def cost_model(self) -> GroupByCostModel:
        return all_pim_cost_model()


class SsbSharded(Workload):
    name = "ssb_sharded"
    why = (
        "the same queries through register_sharded(shards=4, max_workers=2): "
        "scatter/gather, per-shard routing, the thread pool; the slowest "
        "shard sets the time"
    )
    scale_factor = 0.005
    scatter_workers = 2
    shards = 4

    def register(self, service, relation, timing_scale):
        service.register_sharded(
            "ssb", relation, shards=self.shards, config=system_config(),
            timing_scale=timing_scale, max_workers=self.scatter_workers,
            aggregation_width=max_aggregated_width(relation),
            reserve_bulk_aggregation=False,
        )
        return None


class DmlChurn(Workload):
    name = "dml_churn"
    why = (
        "DELETE/INSERT/compact beside probe batches on one relation: "
        "per-field host writes, zone-map and candidate-cache invalidation, "
        "re-clustering, wear"
    )
    scale_factor = 0.01
    static = False
    cycles = 2
    probes = ("Q1.1", "Q2.3", "Q3.4", "Q4.3")
    #: Measures an INSERT rewrites (the predicate columns keep their values,
    #: so every (quantity, year) cell keeps its population).
    perturbed = ("lo_extendedprice", "lo_revenue", "lo_supplycost")

    def run_pass(self, instance: Instance, index: int, call: Call) -> None:
        """``cycles`` x [{DELETE a cell slice, INSERT it back, probe}, then
        {DELETE a bigger slice, compact(force), INSERT it back, probe}].

        A cell is one ``(lo_quantity, d_year)`` pair (~170 rows at SF 0.01);
        consecutive steps walk the 350 cells, so every DELETE finds victims
        and the live count is the same after every pass.  One op in seven is
        a compaction, whose cost does not depend on the cell, so the 90th
        percentile of the op walls sits inside the compactions' mass and not
        on the INSERTs, whose size follows the cell's.
        """
        rng = np.random.default_rng([instance.seed, index])
        probes = list(self.probes)
        steps = 2 * self.cycles
        for step in range(steps):
            cell = index * steps + step
            compaction = step % 2 == 1
            predicate = self.cell_predicate(instance, cell, 5 if compaction else 2)
            victims = self.victims(instance, predicate, rng)
            self.delete(instance, predicate, len(victims), call)
            if compaction:
                call(
                    "compact",
                    lambda: instance.service.compact(force=True),
                    lambda outcome: int(not outcome.result.performed),
                )
            self.insert(instance, victims, call)
            instance.batch(probes, call)

    @staticmethod
    def cell_predicate(instance: Instance, cell: int, max_discount: int):
        offset = cell + 7 * instance.seed
        years = 7
        return And((
            Comparison("lo_quantity", "==", 1 + (offset // years) % 50),
            Comparison("d_year", "==", 1992 + offset % years),
            Comparison("lo_discount", "<=", max_discount),
        ))

    def victims(self, instance: Instance, predicate, rng) -> list[dict]:
        """The live records ``predicate`` selects, with perturbed measures."""
        stored = instance.stored
        relation = stored.relation
        live = stored.valid_mask(0)[: len(relation)]
        slots = np.flatnonzero(evaluate_predicate(predicate, relation) & live)
        records = relation.records(slots)
        for name in self.perturbed:
            limit = relation.schema.attribute(name).max_value
            bumps = rng.integers(1, 1000, len(records))
            for record, bump in zip(records, bumps):
                record[name] = (int(record[name]) + int(bump)) % (limit + 1)
        return records

    def delete(self, instance: Instance, predicate, expected: int, call: Call):
        def check(outcome) -> int:
            shadow = instance.shadow
            keep = ~evaluate_predicate(predicate, shadow)
            instance.shadow = shadow.select(keep)
            return int(outcome.result.records_deleted != expected)

        call("delete", lambda: instance.service.delete(predicate), check)

    def insert(self, instance: Instance, records: list[dict], call: Call):
        def check(outcome) -> int:
            schema = instance.shadow.schema
            added = Relation(schema, {
                name: np.array([r[name] for r in records], dtype=np.uint64)
                for name in schema.names
            })
            instance.shadow = concatenate([instance.shadow, added])
            return int(outcome.result.records_inserted != len(records))

        call("insert", lambda: instance.service.insert(records), check)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (SsbDefault(), SsbAllPim(), DmlChurn(), SsbSharded())
}
