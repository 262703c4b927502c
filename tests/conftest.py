"""Shared fixtures for the test suite.

The expensive fixtures (a small generated SSB instance and the engines built
on it) are session-scoped so the integration tests pay for them once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DEFAULT_CONFIG
from repro.db.relation import Relation
from repro.db.schema import Schema, dict_attribute, int_attribute
from repro.db.storage import StoredRelation
from repro.pim.module import PimModule


TOY_CITIES = [f"CITY{i}" for i in range(10)]
TOY_REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]


def make_toy_relation(records: int = 4000, seed: int = 3) -> Relation:
    """A small relation exercising int and dictionary attributes."""
    rng = np.random.default_rng(seed)
    schema = Schema("toy", [
        int_attribute("key", 20, source="fact"),
        int_attribute("price", 22, source="fact"),
        int_attribute("discount", 4, source="fact"),
        int_attribute("quantity", 6, source="fact"),
        dict_attribute("city", TOY_CITIES, source="dim"),
        dict_attribute("region", TOY_REGIONS, source="dim"),
        int_attribute("year", 11, source="dim"),
    ])
    columns = {
        "key": np.arange(records, dtype=np.uint64),
        "price": rng.integers(0, 1 << 20, records).astype(np.uint64),
        "discount": rng.integers(0, 11, records).astype(np.uint64),
        "quantity": rng.integers(1, 51, records).astype(np.uint64),
        "city": rng.integers(0, len(TOY_CITIES), records).astype(np.uint64),
        "region": rng.integers(0, len(TOY_REGIONS), records).astype(np.uint64),
        "year": rng.integers(1992, 1999, records).astype(np.uint64),
    }
    return Relation(schema, columns)


@pytest.fixture(scope="session")
def toy_relation() -> Relation:
    return make_toy_relation()


@pytest.fixture()
def toy_relation_factory():
    """Build fresh (mutation-safe) toy relations, e.g. for UPDATE tests."""
    return make_toy_relation


@pytest.fixture()
def toy_stored(toy_relation):
    """The toy relation stored one-record-per-row in a fresh PIM module."""
    module = PimModule(DEFAULT_CONFIG)
    return StoredRelation(
        toy_relation, module, label="toy",
        aggregation_width=22, reserve_bulk_aggregation=True,
    )


@pytest.fixture(scope="session")
def ssb_dataset():
    """A tiny generated SSB instance (session-scoped)."""
    from repro.ssb import generate

    return generate(scale_factor=0.002, skew=0.5, seed=11)


@pytest.fixture(scope="session")
def ssb_prejoined(ssb_dataset):
    from repro.ssb import build_ssb_prejoined

    return build_ssb_prejoined(ssb_dataset.database)


@pytest.fixture(scope="session")
def ssb_one_xb_engine(ssb_prejoined):
    """A one-xb engine over the tiny SSB instance (session-scoped)."""
    from repro.core.executor import PimQueryEngine
    from repro.ssb.prejoined import max_aggregated_width

    module = PimModule(DEFAULT_CONFIG)
    stored = StoredRelation(
        ssb_prejoined, module, label="one_xb",
        aggregation_width=max_aggregated_width(ssb_prejoined),
        reserve_bulk_aggregation=False,
    )
    return PimQueryEngine(stored, label="one_xb", timing_scale=100.0)


# ------------------------------------------------ ground truth as the oracle
class GroundTruthOracle:
    """NumPy on the host-side ground truth, checking what the programs stored.

    ``evaluate_predicate`` on the ground-truth relation is not an execution
    path of the product; the ``ground_truth`` arms of the engine and DML tests
    use it to assert that the bits the NOR programs left in the bookkeeping
    columns are the selection ANDed with the valid bits — and zero outside
    the crossbars the last program was run on (the zone-map candidates when
    pruned, which is what the column's dirty mask records).  DELETE and
    UPDATE always run pruned, so these checks are what pins the crossbars a
    statement touched.
    """

    @classmethod
    def column(cls, stored, partition: int, column: int, expected: np.ndarray) -> None:
        bits = stored.column_bit(partition, column)
        assert np.array_equal(bits, expected), f"partition {partition} column {column}"
        cls.clean_outside_dirty(stored, partition, column)

    @staticmethod
    def clean_outside_dirty(stored, partition: int, column: int) -> None:
        from repro.core.stages import candidate_rows

        bits = stored.column_bit(partition, column)
        touched = candidate_rows(
            stored, partition, stored.column_dirty_mask(partition, column)
        )
        assert not bits[~touched].any(), f"partition {partition} column {column}"

    @classmethod
    def selection(cls, stored, partition: int, selection: np.ndarray) -> None:
        """The filter column a DELETE / UPDATE left behind.

        An empty selection may have been proved empty by the zone maps, in
        which case no program ran and the column keeps whatever the last
        program left — still zero outside its dirty crossbars.
        """
        column = stored.layouts[partition].filter_column
        if selection.any():
            cls.column(stored, partition, column, selection)
        else:
            cls.clean_outside_dirty(stored, partition, column)

    @classmethod
    def query(cls, engine, execution) -> None:
        """The filter / group columns after ``engine`` ran ``execution.query``."""
        from repro.db.compiler import partition_conjuncts
        from repro.db.query import evaluate_predicate

        stored, query = engine.stored, execution.query
        if engine.pruning and execution.crossbars_scanned == 0:
            return                  # provably empty: no program ran at all
        relation = stored.relation
        primary = engine._primary_partition(query)
        layout = stored.layouts[primary]
        selection = evaluate_predicate(query.predicate, relation) & stored.valid_mask(primary)
        conjuncts = partition_conjuncts(query.predicate, stored.partition_attributes)
        for partition, conjunct in enumerate(conjuncts):
            if partition != primary:
                cls.column(
                    stored, partition, stored.layouts[partition].filter_column,
                    evaluate_predicate(conjunct, relation) & stored.valid_mask(partition),
                )
        # pim-gb removes every subgroup it aggregated from the host's filter
        # and leaves the last subgroup's mask in the group column.
        pim_groups = execution.plan.pim_groups if execution.plan is not None else []
        for key in pim_groups:
            group = selection.copy()
            for name, value in zip(query.group_by, key):
                group &= relation.column(name) == np.uint64(value)
            selection &= ~group
        if pim_groups:
            cls.column(stored, primary, layout.group_column, group)
        cls.column(stored, primary, layout.filter_column, selection)

    @staticmethod
    def snapshot(stored) -> tuple[Relation, np.ndarray]:
        """``(before, valid_before)`` for :meth:`update` / :meth:`delete`."""
        relation = stored.relation
        before = Relation(
            relation.schema,
            {name: relation.column(name).copy() for name in relation.schema.names},
        )
        return before, stored.valid_mask(0)

    @classmethod
    def delete(cls, stored, predicate, valid_before: np.ndarray) -> None:
        """The filter / valid columns after a DELETE of ``predicate``."""
        from repro.db.dml import compile_delete
        from repro.db.query import evaluate_predicate

        doomed = evaluate_predicate(predicate, stored.relation) & valid_before
        primary = compile_delete(stored, predicate).partition
        cls.selection(stored, primary, doomed)
        for partition, layout in enumerate(stored.layouts):
            cls.column(stored, partition, layout.valid_column, valid_before & ~doomed)

    @classmethod
    def update(
        cls, stored, predicate, assignments, before: Relation,
        valid_before: np.ndarray,
    ) -> None:
        """The filter column and assigned fields after an UPDATE.

        ``before`` is a copy of the ground truth taken before the statement
        (:meth:`snapshot`).  Every assigned field decodes to the constant on
        the selection and to its old value elsewhere, in the stored bits and
        in the ground truth alike.
        """
        from repro.db.query import evaluate_predicate
        from repro.db.update import compile_update

        selection = evaluate_predicate(predicate, before) & valid_before
        primary = compile_update(stored, predicate, assignments).partition
        cls.selection(stored, primary, selection)
        schema = stored.relation.schema
        for name, value in assignments.items():
            expected = before.column(name).copy()
            expected[selection] = schema.attribute(name).encode_value(value)
            assert np.array_equal(stored.decode_column(name), expected), name
            assert np.array_equal(stored.relation.column(name), expected), name

    @classmethod
    def state(cls, stored) -> None:
        """Stored bits against the ground truth and the slot bookkeeping.

        Every partition's valid column holds exactly the slots that are not
        tombstones, and every attribute decodes to its ground-truth column
        (tombstoned slots included: nothing rewrites them until compaction).
        The planner statistics agree with the live rows too
        (:meth:`statistics`).
        """
        live = np.ones(stored.num_records, dtype=bool)
        live[list(stored._free_slots)] = False
        assert int(live.sum()) == stored.live_count
        for partition, layout in enumerate(stored.layouts):
            valid = stored.column_bit(partition, layout.valid_column)
            assert np.array_equal(valid, live), f"partition {partition} valid"
        for name in stored.relation.schema.names:
            assert np.array_equal(
                stored.decode_column(name), stored.relation.column(name)
            ), name
        cls.statistics(stored, live)

    @staticmethod
    def statistics(stored, live: np.ndarray) -> None:
        """Zone-map live counts and histograms against the live rows.

        Per crossbar, the zone maps count exactly the live slots.  Every
        histogram counts ``live_count`` rows, and an equi-width one equals a
        fresh histogram of the live values: the DML hooks keep it exact, and
        compaction relies on that instead of rebuilding it.
        """
        from repro.planner.selectivity import ColumnHistogram

        statistics = stored.statistics
        zonemaps = statistics.zonemaps
        slots = np.flatnonzero(live)
        per_crossbar = np.bincount(slots // zonemaps.rows, minlength=zonemaps.crossbars)
        assert np.array_equal(zonemaps.live, per_crossbar), "zone-map live counts"
        assert int(zonemaps.live.sum()) == stored.live_count
        for name, histogram in statistics.selectivity.histograms.items():
            assert histogram.total == stored.live_count, name
            if isinstance(histogram, ColumnHistogram):
                fresh = ColumnHistogram.from_values(
                    stored.relation.column(name)[slots],
                    histogram.width, histogram.buckets,
                )
                assert np.array_equal(histogram.counts, fresh.counts), name


@pytest.fixture(scope="session")
def ground_truth_oracle():
    return GroundTruthOracle


@pytest.fixture()
def made_executors(monkeypatch):
    """Every :class:`PimExecutor` the engines and the service make, in order.

    Executors are made per call (one per query, one per store and DML
    statement); this records each one as it is made.
    """
    from repro.pim.controller import PimExecutor

    made = []

    class Recorded(PimExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    for module in ("repro.core.executor", "repro.service.service"):
        monkeypatch.setattr(f"{module}.PimExecutor", Recorded)
    return made
