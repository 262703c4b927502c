"""Dedicated tests of in-memory UPDATE (Algorithm 1), unsharded and sharded.

``execute_update`` previously had only indirect coverage through the SSB
integration test; these tests exercise it directly — selection, stored-bit
and ground-truth consistency, wear accounting through
:mod:`repro.memory.endurance` — and, through
:meth:`~repro.service.QueryService.update`, its run on every shard of a
relation registered with ``register_sharded``.
"""

import numpy as np
import pytest
from twins import reference_group_aggregate

from repro.config import DEFAULT_CONFIG
from repro.core.executor import PimQueryEngine
from repro.db.compiler import CompilationError
from repro.db.query import (
    Aggregate,
    And,
    Comparison,
    EQ,
    LT,
    Query,
    evaluate_predicate,
)
from repro.db.storage import StoredRelation
from repro.db.update import execute_update
from repro.memory.endurance import lifetime_years, required_endurance
from repro.pim.controller import PimExecutor
from repro.pim.module import PimModule
from repro.service import QueryService


def _sharded_service(relation, shards, label):
    """A service with ``relation`` registered in ``shards`` shards."""
    service = QueryService()
    engine = service.register_sharded(
        label, relation, shards=shards, config=DEFAULT_CONFIG,
        aggregation_width=22, reserve_bulk_aggregation=False,
    )
    return service, engine.sharded


def _fresh_stored(factory, records=2000, seed=5, **kwargs):
    relation = factory(records=records, seed=seed)
    module = PimModule(DEFAULT_CONFIG)
    stored = StoredRelation(
        relation, module, label=kwargs.pop("label", "upd"),
        aggregation_width=22, reserve_bulk_aggregation=False, **kwargs
    )
    return relation, stored


# ------------------------------------------------------------------ unsharded
def test_update_rewrites_stored_bits_and_ground_truth(toy_relation_factory):
    relation, stored = _fresh_stored(toy_relation_factory)
    predicate = Comparison("region", EQ, "EUROPE")
    expected_mask = evaluate_predicate(predicate, relation)
    executor = PimExecutor(DEFAULT_CONFIG)

    asia = relation.schema.attribute("region").encode_value("ASIA")
    result = execute_update(stored, predicate, {"region": "ASIA"}, executor)

    assert result.records_updated == int(expected_mask.sum()) > 0
    assert result.filter_cycles > 0 and result.update_cycles > 0
    # Stored bits and ground truth agree, record by record.
    decoded = stored.decode_column("region")
    assert np.array_equal(decoded, relation.column("region"))
    assert np.all(decoded[expected_mask] == np.uint64(asia))
    # Untouched attributes are intact.
    assert np.array_equal(stored.decode_column("price"), relation.column("price"))


def test_update_with_multiple_assignments_and_numeric_attribute(toy_relation_factory):
    relation, stored = _fresh_stored(toy_relation_factory, seed=9)
    predicate = Comparison("discount", LT, 2)
    mask = evaluate_predicate(predicate, relation)
    before_price = relation.column("price").copy()
    executor = PimExecutor(DEFAULT_CONFIG)

    result = execute_update(
        stored, predicate, {"discount": 5, "quantity": 10}, executor
    )
    assert result.records_updated == int(mask.sum())
    assert np.all(relation.column("discount")[mask] == np.uint64(5))
    assert np.all(relation.column("quantity")[mask] == np.uint64(10))
    assert np.array_equal(relation.column("price"), before_price)
    assert np.array_equal(stored.decode_column("discount"), relation.column("discount"))


def test_update_is_visible_to_subsequent_queries(toy_relation_factory):
    relation, stored = _fresh_stored(toy_relation_factory, seed=13)
    engine = PimQueryEngine(stored)
    execute_update(
        stored, Comparison("region", EQ, "AFRICA"), {"region": "AMERICA"},
        PimExecutor(DEFAULT_CONFIG),
    )
    query = Query("after", Comparison("region", EQ, "AMERICA"),
                  (Aggregate("count"), Aggregate("sum", "price")))
    execution = engine.execute(query)
    reference = reference_group_aggregate(
        relation, evaluate_predicate(query.predicate, relation), (), query.aggregates
    )
    assert execution.rows == reference


def test_update_accumulates_wear_for_endurance_accounting(toy_relation_factory):
    relation, stored = _fresh_stored(toy_relation_factory, seed=21)
    snapshot = stored.wear_snapshot()
    executor = PimExecutor(DEFAULT_CONFIG)
    execute_update(
        stored, Comparison("region", EQ, "ASIA"), {"region": "EUROPE"}, executor
    )
    worst = stored.max_writes_since(snapshot)
    assert worst > 0
    columns = DEFAULT_CONFIG.pim.crossbar.columns
    endurance = required_endurance(worst, columns, query_time_s=1e-3)
    years = lifetime_years(worst, columns, query_time_s=1e-3)
    assert endurance > 0 and np.isfinite(endurance)
    assert years > 0 and np.isfinite(years)


def test_compiled_update_reuse_and_mismatch_guard(toy_relation_factory):
    from repro.db.update import compile_update

    relation, stored = _fresh_stored(toy_relation_factory, seed=31)
    predicate = Comparison("region", EQ, "ASIA")
    compiled = compile_update(stored, predicate, {"discount": 7})
    result = execute_update(
        stored, predicate, {"discount": 7}, PimExecutor(DEFAULT_CONFIG),
        compiled=compiled,
    )
    mask = evaluate_predicate(predicate, relation)
    assert result.records_updated == int(mask.sum())
    assert np.all(relation.column("discount")[mask] == np.uint64(7))
    # Replaying a compiled update with a different statement must refuse
    # rather than silently desynchronise stored bits and ground truth.
    with pytest.raises(ValueError, match="does not match"):
        execute_update(
            stored, Comparison("region", EQ, "EUROPE"), {"discount": 7},
            PimExecutor(DEFAULT_CONFIG), compiled=compiled,
        )
    with pytest.raises(ValueError, match="does not match"):
        execute_update(
            stored, predicate, {"discount": 8},
            PimExecutor(DEFAULT_CONFIG), compiled=compiled,
        )


def test_update_error_paths(toy_relation_factory):
    relation, stored = _fresh_stored(toy_relation_factory, seed=2)
    executor = PimExecutor(DEFAULT_CONFIG)
    with pytest.raises(ValueError, match="no assignments"):
        execute_update(stored, Comparison("year", EQ, 1995), {}, executor)

    split = toy_relation_factory(records=1000, seed=3)
    two_xb = StoredRelation(
        split, PimModule(DEFAULT_CONFIG), label="two-xb-upd",
        partitions=[["key", "price", "discount", "quantity"],
                    ["city", "region", "year"]],
        aggregation_width=22, reserve_bulk_aggregation=False,
    )
    with pytest.raises(CompilationError, match="vertical partitions"):
        execute_update(
            two_xb, Comparison("year", EQ, 1995), {"price": 1}, PimExecutor(DEFAULT_CONFIG)
        )


# -------------------------------------------------------------------- sharded
def test_sharded_update_hits_every_matching_shard(toy_relation_factory):
    relation = toy_relation_factory(records=4000, seed=7)
    service, sharded = _sharded_service(relation, 4, "upd-sharded")
    # "key" is 0..N-1 in record order and the shards are contiguous, so a
    # range predicate on it pins the matching records to specific shards.
    shard1_start = sharded.bounds[1][0]
    predicate = Comparison("key", LT, shard1_start + 10)
    expected_mask = evaluate_predicate(predicate, relation)

    outcome = service.update(predicate, {"discount": 9})
    result = outcome.result
    assert result.records_updated == int(expected_mask.sum())
    # Matches live in shards 0 and 1 only; the zone maps of shards 2 and 3
    # prove the predicate empty there.
    assert [r.records_updated > 0 for r in outcome.results] == [
        True, True, False, False
    ]
    assert result.filter_cycles > 0 and result.update_cycles > 0
    # Each shard updated its own copy of its records, not the caller's.
    live = sharded.live_relation()
    assert np.all(live.column("discount")[expected_mask] == 9)
    assert np.array_equal(sharded.decode_column("discount"), live.column("discount"))


def test_sharded_update_accumulates_wear_on_every_shard(toy_relation_factory):
    relation = toy_relation_factory(records=2000, seed=17)
    service, sharded = _sharded_service(relation, 4, "upd-wear")
    snapshots = [shard.wear_snapshot() for shard in sharded.shards]
    service.update(Comparison("region", EQ, "EUROPE"), {"region": "ASIA"})
    per_shard = [
        shard.max_writes_since(snapshot)
        for shard, snapshot in zip(sharded.shards, snapshots)
    ]
    # Every shard holds EUROPE rows, so every shard runs the Algorithm 1
    # filter + mux programs.
    assert all(writes > 0 for writes in per_shard)
    # The service's wear report sees the same per-shard writes.
    assert service.wear_report().max_writes_per_row >= max(per_shard)


def test_sharded_update_then_query_is_bit_exact(toy_relation_factory):
    relation = toy_relation_factory(records=3000, seed=23)
    service, sharded = _sharded_service(relation, 3, "upd-query")
    engine = service.engine()
    service.update(
        And((Comparison("region", EQ, "ASIA"), Comparison("discount", LT, 5))),
        {"discount": 10},
    )
    query = Query("after", Comparison("discount", EQ, 10),
                  (Aggregate("count"), Aggregate("min", "price")),
                  group_by=("region",))
    execution = engine.execute(query)
    live = sharded.live_relation()
    reference = reference_group_aggregate(
        live, evaluate_predicate(query.predicate, live),
        query.group_by, query.aggregates,
    )
    assert execution.rows == reference

