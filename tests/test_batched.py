"""The batched group-by execution strategy: lockstep parity and plumbing.

The batched strategy (``execution="batched"``, the default) evaluates every
PIM-resident subgroup of a GROUP-BY through one multi-output fused kernel
per vertical partition and then *replays* the per-subgroup charging through
the same accounting entry points the reference loop uses.  The contract is
total: identical result rows, bit-identical :class:`PimStats` (full
dataclass equality — float order, power-sample order, request rounding),
and identical wear counters in the stored banks.  A hypothesis property
test drives random data, selectivities, subgroup counts (K=1 and K=4),
pruning, and one- vs two-partition layouts through batched and per-subgroup
dispatch in lock step on both backends; deterministic tests pin the
multi-remote fold path, the nested-safe scatter pool, the structural
whole-plan memo key, and the pre-scatter empty-shard skip.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DEFAULT_CONFIG
from repro.core.executor import PimQueryEngine
from repro.core.latency_model import (
    GroupByCostModel,
    HostGbLatencyModel,
    PimGbLatencyModel,
)
from repro.core.parallel import ScatterPool
from repro.db.query import Aggregate, And, Comparison, Query
from repro.db.relation import Relation
from repro.db.schema import Schema, dict_attribute, int_attribute
from repro.db.storage import StoredRelation
from repro.pim.module import PimModule
from repro.pim.stats import PimStats
from repro.sharding import ShardedQueryEngine, ShardedStoredRelation

CITIES = ["LYON", "OSLO", "PERTH", "QUITO"]
REGIONS = ["NORTH", "SOUTH"]

STRATEGIES = ("batched", "dispatch")
BACKENDS = ("packed", "bool")


def all_pim_cost_model() -> GroupByCostModel:
    """Route every subgroup to PIM so the batched kernels actually run."""
    return GroupByCostModel(
        HostGbLatencyModel({2: 1.0}, {2: 1.0}),      # host absurdly expensive
        PimGbLatencyModel({2: 0.0}, {2: 0.0}),       # PIM free
    )


def _relation(seed: int, num_cities: int, records: int = 384) -> Relation:
    rng = np.random.default_rng(seed)
    schema = Schema("batch", [
        int_attribute("key", 10, source="fact"),
        int_attribute("value", 8, source="fact"),
        dict_attribute("city", CITIES, source="dim"),
        dict_attribute("region", REGIONS, source="dim"),
    ])
    return Relation(schema, {
        "key": np.sort(rng.integers(0, 1 << 10, records).astype(np.uint64)),
        "value": rng.integers(0, 1 << 8, records).astype(np.uint64),
        "city": rng.integers(0, num_cities, records).astype(np.uint64),
        "region": rng.integers(0, len(REGIONS), records).astype(np.uint64),
    })


def _execute(relation, query, backend, strategy, pruning, partitions):
    config = DEFAULT_CONFIG.with_backend(backend).with_execution(strategy)
    stored = StoredRelation(
        relation, PimModule(config), label="batch",
        partitions=partitions, aggregation_width=22,
    )
    engine = PimQueryEngine(
        stored, config=config, cost_model=all_pim_cost_model(),
        vectorized=False, pruning=pruning,
    )
    execution = engine.execute(query)
    return execution, stored.wear_snapshot()


def _assert_lockstep(relation, query, pruning, partitions):
    """batched == dispatch on both backends: rows, full stats, wear."""
    executions = {}
    for backend in BACKENDS:
        for strategy in STRATEGIES:
            executions[backend, strategy] = _execute(
                relation, query, backend, strategy, pruning, partitions
            )
    for backend in BACKENDS:
        batched, batched_wear = executions[backend, "batched"]
        dispatch, dispatch_wear = executions[backend, "dispatch"]
        assert batched.rows == dispatch.rows
        assert batched.pim_subgroups == dispatch.pim_subgroups
        # Every subgroup went through the PIM kernels (the forced plan).
        assert batched.pim_subgroups == batched.total_subgroups
        # Full dataclass equality: per-phase floats, energy components,
        # counters, power-sample order, wear maxima.
        assert batched.stats == dispatch.stats
        for ours, theirs in zip(batched_wear, dispatch_wear):
            assert np.array_equal(ours, theirs)
    assert (
        executions["packed", "batched"][0].rows
        == executions["bool", "batched"][0].rows
    )
    assert (
        executions["packed", "batched"][0].stats
        == executions["bool", "batched"][0].stats
    )


GROUP_QUERY = Query(
    "grouped", None,
    (Aggregate("sum", "value"), Aggregate("count"), Aggregate("min", "value")),
    group_by=("city",),
)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2 ** 31),
    threshold=st.integers(0, 1 << 10),
    num_cities=st.sampled_from([1, 4]),      # K=1 and K=4 subgroups
    pruning=st.booleans(),
    split=st.booleans(),                     # one vs two vertical partitions
)
def test_batched_lockstep_with_dispatch(seed, threshold, num_cities, pruning, split):
    """Random data/selectivity: batched == per-subgroup dispatch, bit for bit."""
    relation = _relation(seed, num_cities)
    query = Query(
        "grouped", Comparison("key", "<", threshold),
        GROUP_QUERY.aggregates, group_by=("city",),
    )
    partitions = [["key", "value"], ["city", "region"]] if split else None
    _assert_lockstep(relation, query, pruning, partitions)


@pytest.mark.parametrize("pruning", [False, True])
def test_batched_lockstep_multi_remote_fold(pruning):
    """Two remote partitions: the batched equality-fold replay is bit-exact."""
    relation = _relation(seed=11, num_cities=4)
    query = Query(
        "folded",
        And((Comparison("key", "<", 700), Comparison("key", ">=", 40))),
        (Aggregate("sum", "value"), Aggregate("max", "value")),
        group_by=("city", "region"),
    )
    partitions = [["key", "value"], ["city"], ["region"]]
    _assert_lockstep(relation, query, pruning, partitions)


def test_batched_is_the_default_and_gated_on_the_circuit():
    """The default config batches; without the aggregation circuit the
    engine falls back to the reference loop — and stays bit-exact."""
    assert DEFAULT_CONFIG.execution == "batched"
    relation = _relation(seed=5, num_cities=4)
    executions = {}
    for strategy in STRATEGIES:
        config = DEFAULT_CONFIG.with_execution(strategy)
        config = config.without_aggregation_circuit()
        stored = StoredRelation(
            relation, PimModule(config), label="nocircuit", aggregation_width=22
        )
        engine = PimQueryEngine(
            stored, config=config, cost_model=all_pim_cost_model(),
            vectorized=False,
        )
        executions[strategy] = engine.execute(GROUP_QUERY)
    assert executions["batched"].rows == executions["dispatch"].rows
    assert executions["batched"].stats == executions["dispatch"].stats


# --------------------------------------------------------------- scatter pool
def test_scatter_pool_nested_map_runs_inline():
    """A map issued from a pool worker runs on that worker's own thread, so
    one pool can serve both the shard scatter and the per-partition kernels
    without deadlocking on its own slots."""
    with ScatterPool(2) as pool:
        def outer(_):
            worker = threading.current_thread().name
            inner = pool.map(
                lambda _: threading.current_thread().name, [0, 1, 2]
            )
            return worker, inner

        for worker, inner in pool.map(outer, [0, 1]):
            assert all(name == worker for name in inner)


def test_scatter_pool_single_worker_runs_inline_and_ordered():
    with ScatterPool(1) as pool:
        assert pool.parallel is False
        assert pool.map(lambda x: x * x, [3, 1, 2]) == [9, 1, 4]
        assert pool._executor is None        # never spun up a thread
    with ScatterPool(3) as pool:
        assert pool.map(lambda x: x * x, list(range(8))) == [
            x * x for x in range(8)
        ]


# ------------------------------------------------------- whole-plan memo key
def test_plan_memo_keys_on_structural_predicate_form():
    """Structurally equal predicates built separately share one memo entry:
    the second request replays the plan without re-walking the zone maps."""
    relation = _relation(seed=9, num_cities=4)
    config = DEFAULT_CONFIG
    stored = StoredRelation(
        relation, PimModule(config), label="memo", aggregation_width=22
    )
    engine = PimQueryEngine(stored, config=config, pruning=True)
    statistics = engine.stored.statistics
    a = Comparison("key", "<", 512)
    b = Comparison("city", "==", "OSLO")
    first = statistics.plan(
        And((a, b)), stored.partition_attributes,
        config.pim.crossbars_per_page,
    )
    assert first.entries_checked > 0
    # Fresh objects, conjuncts reordered: same structural normal form.
    replay = statistics.plan(
        And((Comparison("city", "==", "OSLO"), Comparison("key", "<", 512))),
        stored.partition_attributes, config.pim.crossbars_per_page,
    )
    assert replay.entries_checked == 0
    for ours, theirs in zip(replay.candidates, first.candidates):
        assert np.array_equal(ours, theirs)


def test_plan_peek_defers_billing_to_the_next_request():
    relation = _relation(seed=10, num_cities=4)
    config = DEFAULT_CONFIG
    stored = StoredRelation(
        relation, PimModule(config), label="peek", aggregation_width=22
    )
    engine = PimQueryEngine(stored, config=config, pruning=True)
    statistics = engine.stored.statistics
    predicate = Comparison("key", "<", 256)
    peeked = statistics.plan(
        predicate, stored.partition_attributes,
        config.pim.crossbars_per_page, peek=True,
    )
    assert peeked.entries_checked > 0
    billed = statistics.plan(
        predicate, stored.partition_attributes, config.pim.crossbars_per_page
    )
    # The peek consumed nothing; the engine's own request pays the walk once.
    assert billed.entries_checked == peeked.entries_checked
    replay = statistics.plan(
        predicate, stored.partition_attributes, config.pim.crossbars_per_page
    )
    assert replay.entries_checked == 0


# ------------------------------------------------- pre-scatter empty shards
def test_prescatter_skips_provably_empty_shards():
    """Shards whose zone maps rule the predicate out are flagged before the
    scatter (so they never occupy a pool slot) and the merged execution is
    unchanged: bit-exact rows, zero crossbars scanned on the empty shards."""
    relation = _relation(seed=12, num_cities=4, records=512)
    engines = {}
    for pruning in (False, True):
        sharded = ShardedStoredRelation(
            relation, PimModule(DEFAULT_CONFIG), shards=4,
            label=f"pre{pruning}", aggregation_width=22,
            reserve_bulk_aggregation=False,
        )
        engines[pruning] = ShardedQueryEngine(
            sharded, label=f"pre{pruning}", vectorized=True, pruning=pruning,
        )
    # keys are sorted, so a low-key predicate empties the upper shards.
    query = Query(
        "low", Comparison("key", "<", 40),
        (Aggregate("sum", "value"), Aggregate("count")), group_by=("city",),
    )
    flags = engines[True]._prescatter_empty(query)
    assert flags[0] is False and any(flags[1:])
    assert engines[False]._prescatter_empty(query) == [False] * 4
    pruned = engines[True].execute(query)
    unpruned = engines[False].execute(query)
    assert pruned.rows == unpruned.rows
    assert pruned.shards_skipped == sum(flags)
    for flagged, execution in zip(flags, pruned.shard_executions):
        if flagged:
            assert execution.crossbars_scanned == 0


# ------------------------------------------------------------- stats totals
def test_stats_totals_breakdown_tracks_every_field():
    stats = PimStats()
    stats.add_time("filter", 0.25)
    stats.add_energy("logic", 1.5)
    stats.logic_ops = 7
    stats.add_power_sample("filter", 0.25, 3.0)
    totals = stats.totals()
    assert totals["time:filter"] == 0.25
    assert totals["energy:logic"] == 1.5
    assert totals["logic_ops"] == 7.0
    assert totals["peak_chip_power_w"] == 3.0
    other = stats.copy()
    assert other.totals() == totals
    other.add_time("filter", 1e-9)
    assert other.totals() != totals
