"""End-to-end integration: every engine answers SSB queries identically.

These tests execute a representative subset of the SSB queries (covering all
four query flights, scalar and GROUP-BY shapes, and the one-xb / two-xb /
PIMDB / mnt-join / mnt-reg configurations) on the tiny generated instance and
require bit-exact agreement with the NumPy reference evaluator.
"""

import numpy as np
import pytest
from twins import reference_group_aggregate

from repro.baselines import build_pimdb_engine
from repro.columnar import ColumnarEngine
from repro.config import DEFAULT_CONFIG
from repro.core.executor import PimQueryEngine
from repro.db.query import evaluate_predicate
from repro.db.storage import StoredRelation
from repro.pim.module import PimModule
from repro.ssb import ALL_QUERIES
from repro.ssb.prejoined import DERIVED_ATTRIBUTES, max_aggregated_width, two_xb_partitions


QUERIES_UNDER_TEST = ("Q1.1", "Q1.3", "Q2.1", "Q2.3", "Q3.2", "Q3.4", "Q4.1", "Q4.3")


def _reference(prejoined, query):
    mask = evaluate_predicate(query.predicate, prejoined)
    return reference_group_aggregate(prejoined, mask, query.group_by, query.aggregates)


@pytest.fixture(scope="module")
def engines(ssb_dataset, ssb_prejoined):
    aggregation_width = max_aggregated_width(ssb_prejoined)
    built = {}
    module = PimModule(DEFAULT_CONFIG)
    built["one_xb"] = PimQueryEngine(
        StoredRelation(ssb_prejoined, module, label="one_xb",
                       aggregation_width=aggregation_width,
                       reserve_bulk_aggregation=False),
        label="one_xb", timing_scale=200.0,
    )
    module_two = PimModule(DEFAULT_CONFIG)
    built["two_xb"] = PimQueryEngine(
        StoredRelation(ssb_prejoined, module_two, label="two_xb",
                       partitions=two_xb_partitions(ssb_prejoined),
                       aggregation_width=aggregation_width,
                       reserve_bulk_aggregation=False),
        label="two_xb", timing_scale=200.0,
    )
    built["pimdb"], _ = build_pimdb_engine(
        ssb_prejoined, aggregation_width=aggregation_width, timing_scale=200.0
    )
    return built


@pytest.fixture(scope="module")
def columnar():
    return ColumnarEngine(DEFAULT_CONFIG, derived=DERIVED_ATTRIBUTES, workload_scale=200.0)


@pytest.mark.parametrize("query_name", QUERIES_UNDER_TEST)
def test_pim_configurations_match_reference(engines, ssb_prejoined, query_name):
    query = ALL_QUERIES[query_name]
    reference = _reference(ssb_prejoined, query)
    for label, engine in engines.items():
        execution = engine.execute(query)
        assert execution.rows == reference, (label, query_name)
        assert execution.time_s > 0
        assert execution.energy_j > 0


@pytest.mark.parametrize("query_name", QUERIES_UNDER_TEST)
def test_columnar_configurations_match_reference(
    columnar, ssb_dataset, ssb_prejoined, query_name
):
    query = ALL_QUERIES[query_name]
    reference = _reference(ssb_prejoined, query)
    assert columnar.execute_prejoined(query, ssb_prejoined).rows == reference
    assert columnar.execute_star(query, ssb_dataset.database).rows == reference


def test_shape_of_headline_comparisons(engines, ssb_prejoined, columnar):
    """Coarse shape checks of the paper's claims on the tiny instance."""
    query = ALL_QUERIES["Q1.1"]
    one = engines["one_xb"].execute(query)
    two = engines["two_xb"].execute(query)
    pimdb = engines["pimdb"].execute(query)
    mnt_join = columnar.execute_prejoined(query, ssb_prejoined)

    # On the fully PIM-aggregated flight-1 query: one-xb beats PIMDB in time,
    # energy and wear, the two-xb partitioning costs extra, and the PIM path
    # beats the columnar baseline.
    assert one.time_s < pimdb.time_s
    assert one.energy_j < pimdb.energy_j
    assert one.max_writes_per_row < pimdb.max_writes_per_row
    assert one.time_s < two.time_s
    assert one.time_s < mnt_join.time_s


def test_update_then_query_through_pim(ssb_prejoined):
    """A Section III UPDATE through Algorithm 1 is visible to later queries."""
    from repro.db.query import Comparison, EQ
    from repro.db.update import execute_update
    from repro.pim.controller import PimExecutor

    # UPDATE rewrites the stored relation's ground truth in place: store a
    # copy, not the session-scoped fixture other engines were loaded from.
    relation = ssb_prejoined.select(np.ones(len(ssb_prejoined), dtype=bool))
    module = PimModule(DEFAULT_CONFIG)
    stored = StoredRelation(relation, module, label="update-int",
                            aggregation_width=28, reserve_bulk_aggregation=False)
    engine = PimQueryEngine(stored, label="one_xb")
    executor = PimExecutor(DEFAULT_CONFIG)
    # Re-label every EUROPE customer's region as ASIA, then count by region.
    result = execute_update(
        stored, Comparison("c_region", EQ, "EUROPE"), {"c_region": "ASIA"}, executor
    )
    assert result.records_updated > 0
    query = ALL_QUERIES["Q3.1"]  # filters on c_region = ASIA
    execution = engine.execute(query)
    reference = _reference(stored.relation, query)
    assert execution.rows == reference
