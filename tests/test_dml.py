"""The DML subsystem: in-place INSERT/DELETE with slot reuse and compaction.

The contract under test: after *any* interleaving of INSERT, DELETE, UPDATE
and queries, every engine path — packed or boolean backend, unsharded or
sharded — returns rows bit-exact with an
independently maintained functional ground truth, and deleted rows never
contribute to any aggregate.  A hypothesis state-machine-style property test
drives random interleavings at K=1 and sharded K=4 on both backends; focused
unit tests pin down slot reuse order, capacity errors, compaction thresholds,
two-xb tombstone propagation and the hardened validation paths.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DEFAULT_CONFIG
from repro.core.executor import PimQueryEngine
from repro.db.dml import (
    CompactionResult,
    DeleteResult,
    InsertResult,
    compile_delete,
    execute_compaction,
    execute_delete,
    execute_insert,
)
from repro.db.query import (
    Aggregate,
    Comparison,
    Query,
    evaluate_predicate,
    reference_group_aggregate,
)
from repro.db.relation import Relation
from repro.db.schema import Schema, dict_attribute, int_attribute
from repro.db.storage import RelationFullError, StoredRelation
from repro.db.update import UpdateResult, execute_update
from repro.pim.controller import PimExecutor
from repro.pim.module import PimModule
from repro.service import QueryService
from repro.sharding import ShardedStoredRelation

BACKENDS = ("packed", "bool")
CITIES = ["LYON", "OSLO", "PERTH"]


def small_schema() -> Schema:
    return Schema("dml", [
        int_attribute("key", 8, source="fact"),
        int_attribute("value", 10, source="fact"),
        dict_attribute("city", CITIES, source="dim"),
    ])


def small_relation(records: int = 48, seed: int = 7) -> Relation:
    rng = np.random.default_rng(seed)
    schema = small_schema()
    return Relation(schema, {
        "key": rng.integers(0, 256, records).astype(np.uint64),
        "value": rng.integers(0, 1024, records).astype(np.uint64),
        "city": rng.integers(0, len(CITIES), records).astype(np.uint64),
    })


def config_for(backend: str):
    return DEFAULT_CONFIG.with_backend(backend)


def sharded_service(relation: Relation, config, shards: int = 4):
    """A service with ``relation`` registered as ``"t"`` in ``shards`` shards."""
    service = QueryService(planner=False)     # every shard executes on PIM
    engine = service.register_sharded("t", relation, shards=shards, config=config)
    return service, engine.sharded


def live_count(sharded) -> int:
    return sum(shard.live_count for shard in sharded.shards)


def tombstone_count(sharded) -> int:
    return sum(shard.tombstone_count for shard in sharded.shards)


SCALAR_QUERY = Query(
    "scalar", Comparison("value", "<", 700),
    (Aggregate("sum", "value"), Aggregate("count"), Aggregate("min", "value")),
)
GROUP_QUERY = Query(
    "grouped", Comparison("value", ">=", 100),
    (Aggregate("sum", "value"), Aggregate("count"), Aggregate("max", "value")),
    group_by=("city",),
)


def reference_rows(live: Relation, query: Query):
    mask = evaluate_predicate(query.predicate, live)
    return reference_group_aggregate(live, mask, query.group_by, query.aggregates)


def assert_live_matches(live: Relation, model_rows) -> None:
    """The stored live ground truth equals the independent model (as bags)."""
    got = sorted(
        tuple(int(live.columns[n][i]) for n in live.schema.names)
        for i in range(len(live))
    )
    expected = sorted(
        tuple(int(row[n]) for n in live.schema.names) for row in model_rows
    )
    assert got == expected


# ------------------------------------------------------------------- DELETE
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("ground_truth", [False, True])
def test_delete_tombstones_every_query_path(backend, ground_truth, ground_truth_oracle):
    config = config_for(backend)
    relation = small_relation(64)
    stored = StoredRelation(relation, PimModule(config), label="t")
    engine = PimQueryEngine(stored, config=config)
    executor = PimExecutor(config)

    predicate = Comparison("city", "==", "OSLO")
    doomed = evaluate_predicate(predicate, relation)
    valid_before = stored.valid_mask()
    result = execute_delete(stored, predicate, executor)
    if ground_truth:
        ground_truth_oracle.delete(stored, predicate, valid_before)

    assert result.records_deleted == int(doomed.sum()) > 0
    assert stored.tombstone_count == result.records_deleted
    assert stored.live_count == 64 - result.records_deleted
    assert not stored.valid_mask()[doomed].any()

    live = stored.live_relation()
    for query in (SCALAR_QUERY, GROUP_QUERY):
        execution = engine.execute(query)
        assert execution.rows == reference_rows(live, query)
        if ground_truth:
            ground_truth_oracle.query(engine, execution)
    # Deleted rows never contribute: the OSLO group is gone entirely.
    grouped = engine.execute(GROUP_QUERY).rows
    oslo = CITIES.index("OSLO")
    assert all(key != (oslo,) for key in grouped)
    # Modelled stats were charged for both DELETE phases.
    assert executor.stats.time_by_phase["delete-filter"] > 0
    assert executor.stats.time_by_phase["delete-clear"] > 0


def test_delete_two_xb_propagates_tombstones_across_partitions():
    config = config_for("packed")
    relation = small_relation(40)
    stored = StoredRelation(
        relation, PimModule(config), label="two",
        partitions=[["key", "value"], ["city"]],
    )
    executor = PimExecutor(config)
    result = execute_delete(stored, Comparison("city", "==", "LYON"), executor)
    assert result.records_deleted > 0
    # Both partitions' valid columns agree after the host transfer.
    assert np.array_equal(stored.valid_mask(0), stored.valid_mask(1))
    assert executor.stats.time_by_phase["delete-transfer"] > 0
    engine = PimQueryEngine(stored, config=config)
    live = stored.live_relation()
    assert engine.execute(SCALAR_QUERY).rows == reference_rows(live, SCALAR_QUERY)


def test_delete_rejects_mismatched_compiled_statement():
    config = config_for("packed")
    stored = StoredRelation(small_relation(), PimModule(config), label="t")
    compiled = compile_delete(stored, Comparison("value", "<", 10))
    with pytest.raises(ValueError, match="compiled delete"):
        execute_delete(
            stored, Comparison("value", "<", 20), PimExecutor(config),
            compiled=compiled,
        )


def test_delete_everything_then_queries_return_no_rows():
    config = config_for("packed")
    stored = StoredRelation(small_relation(32), PimModule(config), label="t")
    engine = PimQueryEngine(stored, config=config)
    execute_delete(stored, None, PimExecutor(config))
    assert stored.live_count == 0
    assert engine.execute(SCALAR_QUERY).rows == {}
    assert engine.execute(GROUP_QUERY).rows == {}


# ------------------------------------------------------------------- INSERT
def test_insert_reuses_lowest_tombstones_then_grows_tail():
    config = config_for("packed")
    schema = small_schema()
    relation = Relation(schema, {
        "key": np.arange(30, dtype=np.uint64),
        "value": np.arange(30, dtype=np.uint64) * 30 % 1024,
        "city": np.arange(30, dtype=np.uint64) % 3,
    })
    stored = StoredRelation(relation, PimModule(config), label="t")
    executor = PimExecutor(config)
    execute_delete(
        stored, Comparison("key", "in", values=(3, 11, 20)), executor
    )
    tombstones = sorted(np.nonzero(~stored.valid_mask())[0])
    assert tombstones == [3, 11, 20]
    fresh = [{"key": 1, "value": 2, "city": "LYON"}
             for _ in range(len(tombstones) + 2)]
    result = execute_insert(stored, fresh, executor)
    # Tombstones reused lowest-first, then the spare tail grows num_records.
    assert result.slots[: len(tombstones)] == [int(t) for t in tombstones]
    assert result.slots[len(tombstones):] == [30, 31]
    assert result.reused_slots == len(tombstones)
    assert result.appended_slots == 2
    assert stored.num_records == 32 == len(stored.relation)
    assert stored.tombstone_count == 0
    # The inserted rows are live and visible to queries and ground truth.
    live = stored.live_relation()
    assert len(live) == stored.live_count == 32
    engine = PimQueryEngine(stored, config=config)
    assert engine.execute(GROUP_QUERY).rows == reference_rows(live, GROUP_QUERY)
    assert executor.stats.time_by_phase["insert-write"] > 0


def test_insert_validates_records_loudly_and_atomically():
    config = config_for("packed")
    stored = StoredRelation(small_relation(16), PimModule(config), label="t")
    executor = PimExecutor(config)
    good = {"key": 1, "value": 2, "city": "LYON"}
    with pytest.raises(ValueError, match="missing attribute"):
        execute_insert(stored, [good, {"key": 1, "value": 2}], executor)
    with pytest.raises(ValueError, match="does not fit"):
        execute_insert(
            stored, [good, {"key": 1 << 9, "value": 2, "city": "LYON"}], executor
        )
    with pytest.raises(KeyError):
        execute_insert(
            stored, [good, {"key": 1, "value": 2, "city": "ATLANTIS"}], executor
        )
    # A bad record anywhere in the batch means nothing was applied: the good
    # record ahead of it must not have been half-inserted.
    assert stored.live_count == 16
    assert stored.num_records == 16 == len(stored.relation)
    assert executor.stats.total_time_s == 0.0


@pytest.mark.parametrize("shards", [1, 4])
def test_insert_reports_the_first_bad_record_and_writes_nothing(shards, made_executors):
    """Record-major order: record 1's late attribute, not record 2's early one.

    The batch is encoded column by column, which meets record 2's bad ``key``
    before record 1's bad ``city``; the error must still be record 1's,
    worded exactly as encoding it alone words it.
    """
    config = config_for("packed")
    relation = small_relation(48)
    if shards == 1:
        target = StoredRelation(relation, PimModule(config), label="t")
        executors = [PimExecutor(config)]

        def insert(batch):
            return execute_insert(target, batch, executors[0])
    else:
        service, target = sharded_service(relation, config, shards)
        executors = made_executors          # the service's, made per call

        def insert(batch):
            return service.insert(batch).result
    good = {"key": 1, "value": 2, "city": "LYON"}
    late = {"key": 3, "value": 4, "city": 9}          # city codes fit 2 bits
    early = {"key": 1 << 8, "value": 4, "city": "OSLO"}
    with pytest.raises(ValueError) as alone:
        relation.encode_record(late)
    digest = target.state_digest()
    nothing = PimExecutor(config).stats.totals()
    made_executors.clear()
    with pytest.raises(ValueError) as raised:
        insert([good, late, early])
    assert str(raised.value) == str(alone.value)
    assert "'city'" in str(raised.value)
    assert target.state_digest() == digest
    assert len(executors) == shards
    assert [executor.stats.totals() for executor in executors] == [nothing] * shards
    # Raw dictionary strings and codes encode column-wise exactly as they do
    # one record at a time.
    batch = [good, {"key": 5, "value": 6, "city": "PERTH"}, {"key": 7, "value": 8, "city": 1}]
    columns = relation.encode_records(batch)
    for index, record in enumerate(batch):
        assert {name: column[index] for name, column in columns.items()} == (
            relation.encode_record(record)
        )
    assert all(column.dtype == np.uint64 for column in columns.values())
    assert insert(batch).records_inserted == 3


def test_insert_full_relation_raises_before_touching_anything():
    config = config_for("packed")
    relation = small_relation(20)
    stored = StoredRelation(relation, PimModule(config), label="t")
    stored.num_records = stored.record_capacity  # pretend the tail is gone
    stored.live_count = stored.record_capacity
    with pytest.raises(RelationFullError):
        execute_insert(
            stored, [{"key": 1, "value": 2, "city": "LYON"}], PimExecutor(config)
        )


# --------------------------------------------------------------- COMPACTION
def test_compaction_threshold_and_slot_reclaim():
    config = config_for("packed")
    relation = small_relation(50)
    stored = StoredRelation(relation, PimModule(config), label="t")
    executor = PimExecutor(config)
    execute_delete(stored, Comparison("value", "<", 200), executor)
    fragmentation = stored.fragmentation
    assert 0 < fragmentation < 1

    skipped = execute_compaction(stored, executor, threshold=1.1)
    assert not skipped.performed

    before_live = stored.live_relation()
    result = execute_compaction(stored, executor, threshold=fragmentation / 2)
    assert result.performed
    assert result.slots_after == stored.num_records == stored.live_count
    assert result.slots_reclaimed == result.slots_before - result.slots_after
    assert stored.tombstone_count == 0
    assert stored.fragmentation == 0.0
    # Compaction preserves the live contents exactly (dense, order-preserving).
    after_live = stored.live_relation()
    for name in relation.schema.names:
        assert np.array_equal(after_live.columns[name], before_live.columns[name])
        assert np.array_equal(stored.decode_column(name), after_live.columns[name])
    assert executor.stats.time_by_phase["compact-read"] > 0
    assert executor.stats.time_by_phase["compact-write"] > 0

    engine = PimQueryEngine(stored, config=config)
    assert engine.execute(GROUP_QUERY).rows == reference_rows(after_live, GROUP_QUERY)


def test_compaction_noop_without_tombstones():
    config = config_for("packed")
    stored = StoredRelation(small_relation(16), PimModule(config), label="t")
    assert not execute_compaction(stored, PimExecutor(config), force=True).performed


def test_compaction_of_fully_deleted_relation_reclaims_all_slots():
    config = config_for("packed")
    stored = StoredRelation(small_relation(16), PimModule(config), label="t")
    executor = PimExecutor(config)
    engine = PimQueryEngine(stored, config=config)
    execute_delete(stored, None, executor)
    assert stored.live_count == 0

    # Metadata-only reclaim: nothing to rewrite, all 16 slots come back.
    result = execute_compaction(stored, executor, force=True)
    assert result.performed
    assert result.slots_reclaimed == 16
    assert stored.num_records == 0 == len(stored.relation)
    assert stored.fragmentation == 0.0
    # Queries over the emptied relation still work and return no rows.
    assert engine.execute(SCALAR_QUERY).rows == {}
    assert engine.execute(GROUP_QUERY).rows == {}
    # And the relation is usable again: inserts land in the reclaimed slots.
    insert = execute_insert(
        stored, [{"key": 1, "value": 150, "city": "OSLO"}] * 2, executor
    )
    assert insert.slots == [0, 1]
    live = stored.live_relation()
    assert engine.execute(GROUP_QUERY).rows == reference_rows(live, GROUP_QUERY)


def _bank_state(stored):
    """Every cell and wear counter of a stored relation's banks (copies)."""
    return [
        (
            [a.bank.read_column(c).copy() for c in range(a.bank.columns)],
            a.bank.wear_snapshot(),
        )
        for a in stored.allocations
    ]


def _assert_compaction_refused(stored, before, attempt) -> None:
    """``attempt()`` raises naming the relation's attributes; nothing moved."""
    slots = (stored.num_records, stored.live_count, list(stored._free_slots))
    with pytest.raises(ValueError, match=r"value2.*'key', 'value', 'city'"):
        attempt()
    assert (stored.num_records, stored.live_count, list(stored._free_slots)) == slots
    for (cells, wear), (cells_before, wear_before) in zip(_bank_state(stored), before):
        assert all(np.array_equal(a, b) for a, b in zip(cells, cells_before))
        assert np.array_equal(wear, wear_before)


@pytest.mark.parametrize("tombstones", [False, True])
def test_compaction_rejects_unknown_cluster_column(tombstones):
    """A typo in ``cluster_by`` fails loudly — even when the call would have
    been a no-op — instead of silently re-clustering by nothing."""
    config = config_for("packed")
    stored = StoredRelation(small_relation(40), PimModule(config), label="t")
    if tombstones:
        execute_delete(stored, Comparison("value", "<", 300), PimExecutor(config))
    executor = PimExecutor(config)
    _assert_compaction_refused(
        stored, _bank_state(stored),
        lambda: execute_compaction(
            stored, executor, force=True, cluster_by="value2"
        ),
    )
    assert executor.stats == PimExecutor(config).stats
    # The adaptive default stays tolerant, and a real column still works.
    result = execute_compaction(stored, executor, force=True, cluster_by="value")
    assert result.performed == tombstones
    assert result.clustered_by == ("value" if tombstones else None)


def test_sharded_compaction_rejects_unknown_cluster_column(made_executors):
    config = config_for("packed")
    service, sharded = sharded_service(small_relation(40), config)
    service.delete(Comparison("value", "<", 300))
    made_executors.clear()
    before = [_bank_state(shard) for shard in sharded.shards]
    for shard, state in zip(sharded.shards, before):
        _assert_compaction_refused(
            shard, state,
            lambda: service.compact(force=True, cluster_by="value2"),
        )
    # Each refused call made four fresh executors and charged none of them.
    assert len(made_executors) == 4 * len(sharded.shards)
    assert all(executor.stats == PimExecutor(config).stats for executor in made_executors)
    assert tombstone_count(sharded) > 0


def test_service_compact_rejects_unknown_cluster_column(made_executors):
    config = config_for("packed")
    service = QueryService()
    stored = StoredRelation(small_relation(40), PimModule(config), label="t")
    service.register("t", stored, config=config)
    service.delete(Comparison("value", "<", 300))
    made_executors.clear()
    _assert_compaction_refused(
        stored, _bank_state(stored),
        lambda: service.compact(force=True, cluster_by="value2"),
    )
    assert service.dml_stats("t").compactions == 0
    (executor,) = made_executors
    assert executor.stats == PimExecutor(config).stats
    assert service.compact(force=True, cluster_by="value").result.clustered_by == "value"
    service.close()


# ------------------------------------------------------- hardened validation
def test_write_bit_column_rejects_wrong_length():
    config = config_for("packed")
    stored = StoredRelation(small_relation(24), PimModule(config), label="t")
    layout = stored.layouts[0]
    with pytest.raises(ValueError, match="one value per slot"):
        stored.write_bit_column(0, layout.remote_column, np.zeros(23, dtype=bool))
    with pytest.raises(ValueError, match="one value per slot"):
        stored.write_bit_column(0, layout.remote_column, np.zeros(25, dtype=bool))
    stored.write_bit_column(0, layout.remote_column, np.ones(24, dtype=bool))
    assert stored.column_bit(0, layout.remote_column).all()


def test_update_skips_tombstoned_rows():
    config = config_for("packed")
    relation = small_relation(40)
    stored = StoredRelation(relation, PimModule(config), label="t")
    executor = PimExecutor(config)
    predicate = Comparison("city", "==", "PERTH")
    perth_rows = int(evaluate_predicate(predicate, relation).sum())
    deleted = execute_delete(stored, Comparison("value", ">=", 512), executor)
    assert deleted.records_deleted > 0
    live_perth = int(
        (evaluate_predicate(predicate, relation) & stored.valid_mask()).sum()
    )
    result = execute_update(stored, predicate, {"value": 3}, executor)
    # Only live rows are updated — in the stored bits *and* the ground truth.
    assert result.records_updated == live_perth < perth_rows
    assert np.array_equal(stored.decode_column("value"), relation.columns["value"])


# ------------------------------------------------ sharded routing & boundary
def test_shard_bounds_place_every_record():
    config = config_for("packed")
    relation = small_relation(10)
    sharded = ShardedStoredRelation(relation, PimModule(config), shards=3)
    assert sharded.bounds == [(0, 4), (4, 7), (7, 10)]
    # Every record is stored in the shard whose [start, stop) contains it,
    # including both edges of every boundary.
    for shard, (start, stop) in zip(sharded.shards, sharded.bounds):
        for name in relation.schema.names:
            assert np.array_equal(
                shard.decode_column(name), relation.columns[name][start:stop]
            )


def test_sharded_insert_routes_to_least_full_shard():
    config = config_for("packed")
    relation = small_relation(40)
    service, sharded = sharded_service(relation, config)
    # Tombstone a chunk of shard 2 only: it becomes the least-full shard.
    target = sharded.shards[2]
    values = tuple(int(v) for v in target.relation.columns["value"][:5])
    execute_delete(
        target, Comparison("value", "in", values=values), PimExecutor(config)
    )
    tombstones = target.tombstone_count
    assert tombstones > 0

    outcome = service.insert(
        [{"key": 9, "value": 9, "city": "OSLO"} for _ in range(tombstones)]
    )
    assert [r.records_inserted for r in outcome.results] == [0, 0, tombstones, 0]
    assert outcome.results[2].reused_slots == tombstones
    assert tombstone_count(sharded) == 0
    # Equally full stores take turns, lowest index first.
    outcome = service.insert([{"key": 9, "value": 9, "city": "OSLO"}] * 6)
    assert [r.records_inserted for r in outcome.results] == [2, 2, 1, 1]


def test_sharded_insert_is_atomic_against_bad_records():
    config = config_for("packed")
    service, sharded = sharded_service(small_relation(40), config)
    good = {"key": 1, "value": 2, "city": "LYON"}
    with pytest.raises(ValueError, match="does not fit"):
        service.insert([good, {"key": 1, "value": 1 << 11, "city": "LYON"}])
    # The good record ahead of the bad one must not have reached any shard.
    assert live_count(sharded) == 40
    assert sum(shard.num_records for shard in sharded.shards) == 40


def test_sharded_dml_cycles_describe_the_statement_on_pruned_shards(
    toy_relation_factory,
):
    """A shard whose zone maps prove the statement empty runs no program,
    but its result still reports the compiled statement's cycles — so the
    sharded roll-up, read from shard 0, does not depend on which shards the
    predicate happened to miss."""
    for statement in ("delete", "update"):
        service, sharded = sharded_service(
            toy_relation_factory(4000, 7), DEFAULT_CONFIG
        )
        # ``key`` is 0..N-1 in slot order: only the last shard matches.
        predicate = Comparison("key", ">=", sharded.bounds[3][0] + 5)
        if statement == "delete":
            outcome = service.delete(predicate)
            assert outcome.result.records_deleted == 995
            matches = [r.records_deleted for r in outcome.results]
            cycles = [r.clear_cycles for r in outcome.results]
            rolled_up = outcome.result.clear_cycles
        else:
            outcome = service.update(predicate, {"discount": 9})
            assert outcome.result.records_updated == 995
            matches = [r.records_updated for r in outcome.results]
            cycles = [r.update_cycles for r in outcome.results]
            rolled_up = outcome.result.update_cycles
        assert matches == [0, 0, 0, 995]
        assert rolled_up == cycles[3] > 0
        assert cycles == [rolled_up] * 4


@pytest.mark.parametrize("backend", BACKENDS)
def test_sharded_dml_stays_bit_exact(backend):
    config = config_for(backend)
    relation = small_relation(60)
    service, sharded = sharded_service(relation, config)

    def check():
        live = sharded.live_relation()
        for query in (SCALAR_QUERY, GROUP_QUERY):
            assert service.execute(query).rows == reference_rows(live, query)

    delete = service.delete(Comparison("value", "<", 300))
    assert delete.result.records_deleted == sum(
        r.records_deleted for r in delete.results
    ) > 0
    check()
    service.insert(
        [{"key": i, "value": 100 + i, "city": CITIES[i % 3]} for i in range(15)]
    )
    check()
    service.update(Comparison("city", "==", "LYON"), {"value": 777})
    check()
    compaction = service.compact(force=True)
    assert sum(r.performed for r in compaction.results) > 0
    assert tombstone_count(sharded) == 0
    check()


# ---------------------------------------------------------- service surface
def test_service_dml_entry_points_and_counters():
    config = config_for("packed")
    relation = small_relation(40)
    service = QueryService()
    stored = StoredRelation(relation, PimModule(config), label="t")
    service.register("t", stored, config=config)

    out = service.delete(Comparison("value", "<", 400))
    assert out.result.records_deleted > 0
    assert out.stats.time_by_phase["delete-filter"] > 0
    out = service.insert([{"key": 1, "value": 450, "city": "LYON"}] * 3)
    assert out.result.records_inserted == 3
    assert out.stats.time_by_phase["insert-write"] > 0
    out = service.compact(force=True)
    assert out.result.performed
    assert out.stats.time_by_phase["compact-write"] > 0

    stats = service.dml_stats("t")
    assert stats.inserted == 3
    assert stats.deleted > 0
    assert stats.compactions == 1
    assert stats.live_rows == stored.live_count
    assert stats.tombstones == 0 and stats.fragmentation == 0.0

    # The batch summary carries the lifecycle snapshot once DML happened.
    batch = service.execute_batch([SCALAR_QUERY, GROUP_QUERY])
    assert batch.stats.dml is not None
    assert batch.stats.dml.inserted == 3
    assert "dml_tombstones=" in batch.stats.describe()
    live = stored.live_relation()
    assert batch.executions[0].rows == reference_rows(live, SCALAR_QUERY)
    assert batch.executions[1].rows == reference_rows(live, GROUP_QUERY)


def test_service_delete_compiles_through_program_cache():
    config = config_for("packed")
    service = QueryService()
    service.register_sharded(
        "t", small_relation(40), shards=4, config=config
    )
    predicate = Comparison("value", "<", 100)
    before = service.cache.stats.snapshot()
    service.delete(predicate)
    first = service.cache.stats.snapshot() - before
    # One compilation serves all four shards (layouts are shared) ...
    assert first.misses == 1
    assert first.hits == 0
    service.delete(predicate)
    second = service.cache.stats.snapshot() - before
    # ... and the repeated statement compiles nothing at all.
    assert second.misses == 1
    assert second.hits == 1


@pytest.mark.parametrize("shards", [1, 4])
def test_dml_outcome_has_the_same_shape_at_every_k(shards):
    """One result type per statement: ``results`` holds one per-store result
    in store order, ``result`` is their sum — counts added, the statement's
    cycles kept — and is the one store's own result at K = 1."""
    config = config_for("packed")
    relation = small_relation(40)
    if shards == 1:
        service = QueryService()
        service.register(
            "t", StoredRelation(relation, PimModule(config), label="t"),
            config=config,
        )
    else:
        service, _ = sharded_service(relation, config, shards)
    counts = {       # in the order of ``outcomes``
        DeleteResult: ("records_deleted", "live_records", "tombstones"),
        InsertResult: ("records_inserted", "reused_slots", "appended_slots",
                       "live_records", "tombstones"),
        UpdateResult: ("records_updated",),
        CompactionResult: ("records_moved", "slots_reclaimed", "slots_before",
                           "slots_after"),
    }
    outcomes = [
        service.delete(Comparison("value", "<", 400)),
        service.insert([{"key": 1, "value": 450, "city": "LYON"}] * 5),
        service.update(Comparison("city", "==", "OSLO"), {"value": 3}),
        service.compact(force=True),
    ]
    for outcome, kind in zip(outcomes, counts):
        assert len(outcome.results) == shards == len(outcome.shard_stats)
        assert all(type(result) is kind for result in outcome.results)
        assert type(outcome.result) is kind
        for name in counts[kind]:
            assert getattr(outcome.result, name) == sum(
                getattr(result, name) for result in outcome.results
            ), name
        if shards == 1:
            assert outcome.result is outcome.results[0]
    delete, insert, update, compaction = (o.result for o in outcomes)
    assert delete.records_deleted > 0 and insert.records_inserted == 5
    assert update.records_updated > 0
    assert delete.clear_cycles == outcomes[0].results[0].clear_cycles > 0
    assert update.update_cycles == outcomes[2].results[0].update_cycles > 0
    assert compaction.performed
    assert compaction.performed == any(r.performed for r in outcomes[3].results)
    assert compaction.fragmentation_before == pytest.approx(
        sum(r.fragmentation_before * r.slots_before for r in outcomes[3].results)
        / compaction.slots_before
    )


# ------------------------------------------------- property: interleaved DML
def _operation_strategy():
    record = st.fixed_dictionaries({
        "key": st.integers(0, 255),
        "value": st.integers(0, 1023),
        "city": st.sampled_from(CITIES),
    })
    value_predicate = st.tuples(
        st.sampled_from(["<", ">=", "=="]), st.integers(0, 1023)
    ).map(lambda t: Comparison("value", t[0], t[1]))
    city_predicate = st.sampled_from(CITIES).map(
        lambda c: Comparison("city", "==", c)
    )
    predicate = st.one_of(value_predicate, city_predicate)
    return st.one_of(
        st.tuples(st.just("insert"), st.lists(record, min_size=1, max_size=3)),
        st.tuples(st.just("delete"), predicate),
        st.tuples(st.just("update"), predicate, st.integers(0, 1023)),
        st.tuples(st.just("compact"), st.booleans()),
    )


class _Model:
    """Independent functional model: a plain list of row dicts."""

    def __init__(self, relation: Relation):
        self.schema = relation.schema
        self.rows = [
            {name: int(relation.columns[name][i]) for name in relation.schema.names}
            for i in range(len(relation))
        ]

    def as_relation(self) -> Relation:
        return Relation(self.schema, {
            name: np.array([row[name] for row in self.rows], dtype=np.uint64)
            for name in self.schema.names
        })

    def _matches(self, predicate):
        relation = self.as_relation()
        if not self.rows:
            return []
        return list(evaluate_predicate(predicate, relation))

    def insert(self, records):
        for record in records:
            encoded = dict(record)
            encoded["city"] = CITIES.index(record["city"])
            self.rows.append(encoded)

    def delete(self, predicate):
        mask = self._matches(predicate)
        self.rows = [row for row, hit in zip(self.rows, mask) if not hit]

    def update(self, predicate, value):
        for row, hit in zip(self.rows, self._matches(predicate)):
            if hit:
                row["value"] = value


def _apply_and_check(apply_op, query_rows, live_relation, model, operations):
    for operation in operations:
        kind = operation[0]
        if kind == "insert":
            model.insert(operation[1])
        elif kind == "delete":
            model.delete(operation[1])
        elif kind == "update":
            model.update(operation[1], operation[2])
        apply_op(operation)
        reference = model.as_relation()
        for query in (SCALAR_QUERY, GROUP_QUERY):
            assert query_rows(query) == reference_rows(reference, query)
        assert_live_matches(live_relation(), model.rows)


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=12, deadline=None)
@given(operations=st.lists(_operation_strategy(), min_size=1, max_size=6))
def test_property_interleaved_dml_unsharded(backend, operations):
    config = config_for(backend)
    relation = small_relation(32)
    model = _Model(relation)
    stored = StoredRelation(relation, PimModule(config), label="t")
    engine = PimQueryEngine(stored, config=config)
    executor = PimExecutor(config)

    def apply_op(operation):
        if operation[0] == "insert":
            execute_insert(stored, operation[1], executor)
        elif operation[0] == "delete":
            execute_delete(stored, operation[1], executor)
        elif operation[0] == "update":
            if stored.live_count:
                execute_update(stored, operation[1], {"value": operation[2]}, executor)
        else:
            execute_compaction(stored, executor, force=operation[1])

    _apply_and_check(
        apply_op,
        lambda query: engine.execute(query).rows,
        stored.live_relation,
        model,
        operations,
    )


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=8, deadline=None)
@given(operations=st.lists(_operation_strategy(), min_size=1, max_size=5))
def test_property_interleaved_dml_sharded(backend, operations):
    config = config_for(backend)
    relation = small_relation(32)
    model = _Model(relation)
    service, sharded = sharded_service(relation, config)

    def apply_op(operation):
        if operation[0] == "insert":
            service.insert(operation[1])
        elif operation[0] == "delete":
            service.delete(operation[1])
        elif operation[0] == "update":
            if live_count(sharded):
                service.update(operation[1], {"value": operation[2]})
        else:
            service.compact(force=operation[1])

    _apply_and_check(
        apply_op,
        lambda query: service.execute(query).rows,
        sharded.live_relation,
        model,
        operations,
    )


@pytest.mark.slow
def test_gate_level_interleaving_matches_ground_truth():
    """One fixed interleaving with every NOR primitive actually executed."""
    config = config_for("packed")
    relation = small_relation(24)
    model = _Model(relation)
    stored = StoredRelation(relation, PimModule(config), label="t")
    engine = PimQueryEngine(stored, config=config)
    executor = PimExecutor(config)

    operations = [
        ("delete", Comparison("value", "<", 400)),
        ("insert", [{"key": 3, "value": 500, "city": "LYON"},
                    {"key": 4, "value": 20, "city": "PERTH"}]),
        ("update", Comparison("city", "==", "PERTH"), 999),
        ("compact", True),
        ("insert", [{"key": 5, "value": 640, "city": "OSLO"}]),
        ("delete", Comparison("city", "==", "LYON")),
    ]

    def apply_op(operation):
        if operation[0] == "insert":
            execute_insert(stored, operation[1], executor)
        elif operation[0] == "delete":
            execute_delete(stored, operation[1], executor)
        elif operation[0] == "update":
            execute_update(stored, operation[1], {"value": operation[2]}, executor)
        else:
            execute_compaction(stored, executor, force=operation[1])

    _apply_and_check(
        apply_op,
        lambda query: engine.execute(query).rows,
        stored.live_relation,
        model,
        operations,
    )
