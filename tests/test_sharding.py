"""Sharded scatter-gather execution: golden bit-exactness and merge laws.

The golden test runs *all 13 SSB queries* at K = 1, 2 and 4 shards and
requires the merged results to be identical to the unsharded engine and to
the NumPy reference evaluator.  The property-based tests lock in the merge
algebra: folding per-shard partial aggregates (SUM/COUNT/MIN/MAX, AVG
through its SUM/COUNT decomposition, empty shards included) must equal
aggregating the concatenated records — the invariant behind the PR 1
empty-MIN fix.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from twins import (
    all_pim_cost_model,
    assert_same_execution,
    assert_same_state,
    reference_group_aggregate,
)

from repro.config import DEFAULT_CONFIG
from repro.core.executor import QueryExecution
from repro.db.query import (
    Aggregate,
    And,
    BETWEEN,
    Comparison,
    IN,
    Query,
    evaluate_predicate,
)
from repro.db.relation import Relation
from repro.db.schema import Schema, int_attribute
from repro.db.storage import StoredRelation
from repro.host.aggregator import merge_shard_rows
from repro.pim.module import PimModule
from repro.service import ProgramCache, QueryRequest, QueryService
from repro.sharding import (
    ShardedQueryEngine,
    ShardedStoredRelation,
    shard_bounds,
)
from repro.ssb import ALL_QUERIES, QUERY_ORDER

SHARD_COUNTS = (1, 2, 4)


# ------------------------------------------------------------------ fixtures
@pytest.fixture(scope="module")
def sharded_engines(ssb_prejoined):
    """One scatter-gather engine per shard count, sharing nothing across K."""
    from repro.ssb.prejoined import max_aggregated_width

    width = max_aggregated_width(ssb_prejoined)
    engines = {}
    for shards in SHARD_COUNTS:
        module = PimModule(DEFAULT_CONFIG)
        sharded = ShardedStoredRelation(
            ssb_prejoined, module, shards=shards, label=f"ssb{shards}",
            aggregation_width=width, reserve_bulk_aggregation=False,
        )
        engines[shards] = ShardedQueryEngine(
            sharded, label=f"sharded{shards}", timing_scale=100.0,
            compiler=ProgramCache(256),
        )
    return engines


# ------------------------------------------------------- golden bit-exactness
@pytest.mark.parametrize("query_name", QUERY_ORDER)
def test_all_ssb_queries_bit_exact_at_every_shard_count(
    sharded_engines, ssb_one_xb_engine, ssb_prejoined, query_name
):
    """All 13 SSB queries, K=1/2/4: identical to unsharded and reference."""
    query = ALL_QUERIES[query_name]
    reference = reference_group_aggregate(
        ssb_prejoined, evaluate_predicate(query.predicate, ssb_prejoined),
        query.group_by, query.aggregates,
    )
    unsharded_rows = ssb_one_xb_engine.execute(query).rows
    assert unsharded_rows == reference
    for shards, engine in sharded_engines.items():
        execution = engine.execute(query)
        assert execution.rows == reference, (shards, query_name)
        assert execution.rows == unsharded_rows, (shards, query_name)
        assert execution.time_s > 0 and execution.energy_j > 0
        if shards == 1:             # nothing to gather: the store's execution
            assert type(execution) is QueryExecution
        else:
            assert len(execution.shard_executions) == shards


def test_latency_is_max_over_shards_plus_merge(sharded_engines):
    """The sharded latency model: max over the shards plus the gather term.
    One store has nothing to gather, so no merge is charged."""
    query = ALL_QUERIES["Q1.1"]
    for shards, engine in sharded_engines.items():
        execution = engine.execute(query)
        if shards == 1:
            assert type(execution) is QueryExecution
            assert "shard-merge" not in execution.stats.time_by_phase
            assert "scatter" not in execution.stats.time_by_phase
            continue
        shard_total = sum(execution.shard_times_s)
        expected = max(execution.shard_times_s) + execution.merge_time_s
        assert execution.time_s == pytest.approx(expected, rel=1e-12)
        assert execution.time_s < shard_total
        assert execution.parallel_speedup > 1.0


def test_modelled_latency_scales_with_shards_on_page_aligned_data():
    """More shards, less modelled latency, and no energy or wear created.

    The 13 SSB queries run on 4 full pages (they divide evenly at K = 1, 2
    and 4), modelled at SF 10.  Total latency falls strictly with every
    added shard and K=4 is >= 1.5x faster than unsharded.  Sub-page data
    cannot show this: there every shard occupies a page of its own, so the
    12-crossbar instance of ``sharded_engines`` pays 4x the controller
    energy at K=4.
    """
    from repro.core.executor import PimQueryEngine
    from repro.ssb import build_ssb_prejoined, generate
    from repro.ssb.datagen import LINEORDERS_PER_SF
    from repro.ssb.prejoined import max_aggregated_width

    config = DEFAULT_CONFIG.with_backend("packed")
    records = config.pim.records_per_page * 4
    dataset = generate(scale_factor=records / LINEORDERS_PER_SF, skew=0.5, seed=42)
    relation = build_ssb_prejoined(dataset.database)
    relation = relation.select(np.arange(len(relation)) < records)
    width = max_aggregated_width(relation)
    timing_scale = LINEORDERS_PER_SF * 10.0 / records
    engines = {0: PimQueryEngine(
        StoredRelation(relation, PimModule(config), label="unsharded",
                       aggregation_width=width, reserve_bulk_aggregation=False),
        timing_scale=timing_scale, compiler=ProgramCache(512),
    )}
    for shards in SHARD_COUNTS:
        sharded = ShardedStoredRelation(
            relation, PimModule(config), shards=shards,
            label=f"aligned{shards}", aggregation_width=width,
            reserve_bulk_aggregation=False,
        )
        engines[shards] = ShardedQueryEngine(
            sharded, timing_scale=timing_scale, compiler=ProgramCache(512),
        )
    time_s, energy_j, wear, scalar_dynamic_j = {}, {}, {}, {}
    for shards, engine in engines.items():
        executions = {name: engine.execute(ALL_QUERIES[name]) for name in QUERY_ORDER}
        time_s[shards] = sum(e.time_s for e in executions.values())
        energy_j[shards] = sum(e.energy_j for e in executions.values())
        wear[shards] = max(e.max_writes_per_row for e in executions.values())
        # Without GROUP-BY the planner has no per-shard freedom, so all but
        # the per-page controller energy (shorter issue windows) is conserved.
        scalar_dynamic_j[shards] = sum(
            joules
            for name in ("Q1.1", "Q1.2", "Q1.3")
            for component, joules in executions[name].stats.energy_by_component.items()
            if component != "controller"
        )
    assert time_s[1] > time_s[2] > time_s[4]
    assert time_s[1] == time_s[0]           # one store: nothing to gather
    assert time_s[0] >= 1.5 * time_s[4]
    for shards in SHARD_COUNTS:
        assert energy_j[shards] <= 1.05 * energy_j[0], shards
        assert wear[shards] <= 1.001 * wear[0], shards
        assert scalar_dynamic_j[shards] == pytest.approx(scalar_dynamic_j[0], rel=1e-3)


def test_programs_compile_once_across_shards(ssb_prejoined):
    """Shards share layouts, so the program cache compiles each program once."""
    from repro.ssb.prejoined import max_aggregated_width

    query = ALL_QUERIES["Q1.1"]
    misses = {}
    for shards in (1, 4):
        cache = ProgramCache(256)
        sharded = ShardedStoredRelation(
            ssb_prejoined, PimModule(DEFAULT_CONFIG), shards=shards,
            label=f"compile{shards}",
            aggregation_width=max_aggregated_width(ssb_prejoined),
            reserve_bulk_aggregation=False,
        )
        engine = ShardedQueryEngine(
            sharded, compiler=cache, timing_scale=100.0
        )
        engine.execute(query)
        misses[shards] = cache.stats.misses
        for shard in sharded.shards[1:]:
            assert shard.layouts[0] is sharded.shards[0].layouts[0]
    assert misses[4] == misses[1]  # compile once, execute on every shard
    assert misses[4] > 0


def test_max_workers_changes_neither_results_nor_costs(ssb_prejoined):
    """Shards run as a loop on the calling thread whatever
    ``register_sharded(max_workers=)`` says: same rows and modelled costs,
    and no worker thread is started."""
    from repro.ssb.prejoined import max_aggregated_width

    services = {}
    for workers in (1, 4):
        services[workers] = QueryService(scatter_workers=4)
        services[workers].register_sharded(
            "ssb", ssb_prejoined, shards=4, timing_scale=100.0,
            max_workers=workers,
            aggregation_width=max_aggregated_width(ssb_prejoined),
            reserve_bulk_aggregation=False,
        )
    for name in ("Q1.1", "Q2.1", "Q3.1"):
        query = ALL_QUERIES[name]
        sequential = services[1].execute(query)
        threaded = services[4].execute(query)
        assert threaded.rows == sequential.rows
        assert threaded.stats.totals() == sequential.stats.totals()
    # Only ``max_workers > 1`` hands the engine the service's pool (for the
    # per-partition kernel batches), and one partition never starts it.
    assert services[1].engine().pool is None
    assert services[4].engine().pool is services[4].pool
    assert services[4].pool._executor is None
    for service in services.values():
        service.close()


# ------------------------------------------ the loop and the selective reads
class _ReadLog:
    """Wraps the banks' functional reads and the callers that decode cells.

    ``covered`` holds ``(bank, method, crossbars covered, enclosing caller)``
    for every ``read_field_all`` / ``read_column`` / ``_unpack_columns``,
    ``gathers`` the enclosing caller of every ``read_field_cells``, and
    ``pool_maps`` the item count of every ``ScatterPool.map``.
    """

    CALLERS = ("read_records", "estimate_subgroups", "run_group_by_batched")

    def __init__(self, monkeypatch) -> None:
        from repro.core import batched, executor as core_executor
        from repro.core.parallel import ScatterPool
        from repro.host.readpath import HostReadModel
        from repro.pim.crossbar import CrossbarBank
        from repro.pim.packed import PackedCrossbarBank

        self.covered = []
        self.gathers = []
        self.pool_maps = []
        self._inside = []
        for bank_type in (PackedCrossbarBank, CrossbarBank):
            for method in ("read_field_all", "read_column", "_unpack_columns"):
                if hasattr(bank_type, method):
                    monkeypatch.setattr(
                        bank_type, method,
                        self._covering(method, getattr(bank_type, method)),
                    )
            monkeypatch.setattr(
                bank_type, "read_field_cells",
                self._gathering(bank_type.read_field_cells),
            )
        pool_map = ScatterPool.map

        def counted_map(pool, fn, items):
            items = list(items)
            self.pool_maps.append(len(items))
            return pool_map(pool, fn, items)

        monkeypatch.setattr(ScatterPool, "map", counted_map)
        for owner, name in (
            (HostReadModel, "read_records"),
            (core_executor, "estimate_subgroups"),
            (batched, "run_group_by_batched"),
        ):
            monkeypatch.setattr(owner, name, self._scoped(name, getattr(owner, name)))

    def _caller(self):
        return self._inside[-1] if self._inside else None

    def _scoped(self, name, function):
        def wrapper(*args, **kwargs):
            self._inside.append(name)
            try:
                return function(*args, **kwargs)
            finally:
                self._inside.pop()
        return wrapper

    def _covering(self, method, function):
        def wrapper(bank, *args, **kwargs):
            result = function(bank, *args, **kwargs)
            self.covered.append((bank, method, result.shape[0], self._caller()))
            return result
        return wrapper

    def _gathering(self, function):
        def wrapper(bank, *args, **kwargs):
            self.gathers.append(self._caller())
            return function(bank, *args, **kwargs)
        return wrapper

    def full_decodes(self, start: int = 0) -> dict:
        """``read_field_all`` calls inside each wrapped caller since ``start``."""
        return {
            caller: sum(
                1 for _, method, _, inside in self.covered[start:]
                if method == "read_field_all" and inside == caller
            )
            for caller in self.CALLERS
        }


def test_sharded_flight_is_a_loop_that_reads_only_what_is_read(
    ssb_prejoined, ssb_one_xb_engine, monkeypatch
):
    """``register_sharded(shards=4, max_workers=2)``: no execution reaches the
    pool, no unpack leaves the crossbars in use, the sparse SSB selections
    are gathered cell by cell — and nothing observable moves."""
    from repro.ssb.prejoined import max_aggregated_width

    from repro.pim.packed import GATHER_MAX_SHARE

    log = _ReadLog(monkeypatch)
    queries = [ALL_QUERIES[name] for name in QUERY_ORDER]
    services, batches = {}, {}
    sparse = 0
    for workers in (2, 1):
        service = services[workers] = QueryService(scatter_workers=workers)
        service.register_sharded(
            "ssb", ssb_prejoined, shards=4, max_workers=workers,
            timing_scale=100.0,
            aggregation_width=max_aggregated_width(ssb_prejoined),
            reserve_bulk_aggregation=False,
        )
        batches[workers] = []
        for query in queries:
            start = len(log.covered)
            (execution,) = service.execute_batch([query])
            batches[workers].append(execution)
            # A selection within the gather share on every shard is never
            # decoded as a whole column by the three cell readers.
            if all(shard.selectivity <= GATHER_MAX_SHARE
                   for shard in execution.shard_executions):
                sparse += 1
                assert log.full_decodes(start) == dict.fromkeys(
                    _ReadLog.CALLERS, 0
                ), query.name
    assert sparse >= 2 * 10                          # most of the 13 queries

    assert log.pool_maps == []
    assert services[2].pool.max_workers == 2
    assert services[2].pool._executor is None        # no worker thread started

    engines = [services[workers].engine() for workers in (2, 1)]
    bound = {}
    for engine in engines:
        for shard in engine.sharded.shards:
            for allocation in shard.allocations:
                in_use = -(-shard.num_records // allocation.rows_per_crossbar)
                assert in_use < allocation.crossbars  # the bound is not vacuous
                bound[id(allocation.bank)] = in_use
    assert log.covered
    for bank, method, crossbars, _ in log.covered:
        assert crossbars <= bound[id(bank)], (method, crossbars)
    assert set(_ReadLog.CALLERS) <= set(log.gathers)  # each one did read cells

    for ours, theirs in zip(batches[2], batches[1], strict=True):
        assert_same_execution(ours, theirs)
    assert_same_state(services[2], services[1])
    for query, execution in zip(queries, batches[2]):
        assert execution.rows == ssb_one_xb_engine.execute(query).rows, query.name
    for service in services.values():
        service.close()


def test_sampler_reads_the_filter_bits_of_the_sample_page_only(monkeypatch):
    """On a 3-page relation the sampling pass unpacks one page of filter bits
    and gathers the group ids of the sampled rows that passed."""
    from repro.core.executor import PimQueryEngine

    config = DEFAULT_CONFIG
    per_page = config.pim.records_per_page
    records = 2 * per_page + 100
    rng = np.random.default_rng(21)
    schema = Schema("pages", [int_attribute("key", 18), int_attribute("g", 3)])
    relation = Relation(schema, {
        "key": rng.integers(0, 1 << 18, records).astype(np.uint64),
        "g": rng.integers(0, 5, records).astype(np.uint64),
    })
    stored = StoredRelation(relation, PimModule(config), label="pages")
    assert stored.pages == 3
    engine = PimQueryEngine(stored)
    query = Query(
        "sparse", Comparison("key", "<", 1 << 11),       # ~0.8 % of the rows
        (Aggregate("count"),), group_by=("g",),
    )
    log = _ReadLog(monkeypatch)
    execution = engine.execute(query)
    mask = evaluate_predicate(query.predicate, relation)
    assert execution.rows == reference_group_aggregate(
        relation, mask, query.group_by, query.aggregates
    )
    sampled = [entry for entry in log.covered if entry[3] == "estimate_subgroups"]
    assert [(method, crossbars) for _, method, crossbars, _ in sampled
            if method != "_unpack_columns"] == [
        ("read_column", config.pim.crossbars_per_page)
    ]
    assert log.gathers.count("estimate_subgroups") == len(query.group_by)
    assert execution.plan.estimate.sample_size == per_page
    assert execution.plan.estimate.sample_selected == int(mask[:per_page].sum())


def test_vertical_partitions_reach_the_pool_from_the_main_thread(monkeypatch):
    """Three vertical partitions, ``max_workers=2``: the two remote partitions'
    kernel batches are the one thing mapped over the pool, and the sharded
    result equals the ``max_workers=1`` twin in rows, stats and stored state."""
    rng = np.random.default_rng(17)
    records = 600
    schema = Schema("vp", [
        int_attribute("key", 10, source="fact"),
        int_attribute("value", 8, source="fact"),
        int_attribute("city", 3, source="dim"),
        int_attribute("region", 1, source="dim"),
    ])
    relation = Relation(schema, {
        "key": np.sort(rng.integers(0, 1 << 10, records).astype(np.uint64)),
        "value": rng.integers(0, 1 << 8, records).astype(np.uint64),
        "city": rng.integers(0, 4, records).astype(np.uint64),
        "region": rng.integers(0, 2, records).astype(np.uint64),
    })
    queries = [
        Query("both", Comparison("key", "<", 700),
              (Aggregate("sum", "value"), Aggregate("count")),
              group_by=("city", "region")),
        Query("again", Comparison("key", ">=", 300),
              (Aggregate("max", "value"),), group_by=("region", "city")),
    ]
    log = _ReadLog(monkeypatch)
    services, batches = {}, {}
    for workers in (2, 1):
        service = services[workers] = QueryService(
            scatter_workers=workers, planner=False
        )
        service.register_sharded(
            "vp", relation, shards=2, max_workers=workers, cost_model=all_pim_cost_model(),
            partitions=[["key", "value"], ["city"], ["region"]],
            aggregation_width=22,
        )
        before = len(log.pool_maps)
        batches[workers] = list(service.execute_batch(queries))
        # One map of the two remote partitions per shard and GROUP-BY; with
        # ``max_workers=1`` the engine has no pool and runs them inline.
        expected = [2] * (2 * len(queries)) if workers > 1 else []
        assert log.pool_maps[before:] == expected
    assert services[2].pool._executor is not None    # the kernels did use it
    assert services[1].pool._executor is None
    for ours, theirs in zip(batches[2], batches[1], strict=True):
        assert_same_execution(ours, theirs)
    assert_same_state(services[2], services[1])
    mask = [evaluate_predicate(query.predicate, relation) for query in queries]
    for query, selected, execution in zip(queries, mask, batches[2]):
        assert execution.rows == reference_group_aggregate(
            relation, selected, query.group_by, query.aggregates
        )
    for service in services.values():
        service.close()


# ----------------------------------------------------------- shard geometry
def test_shard_bounds_are_balanced_and_contiguous():
    for records in (1, 7, 100, 4001):
        for shards in (1, 2, 3, 4, 7):
            if shards > records:
                continue
            bounds = shard_bounds(records, shards)
            sizes = [stop - start for start, stop in bounds]
            assert bounds[0][0] == 0 and bounds[-1][1] == records
            assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
            assert max(sizes) - min(sizes) <= 1
            assert min(sizes) >= 1
    with pytest.raises(ValueError, match="non-empty"):
        shard_bounds(3, 4)
    with pytest.raises(ValueError):
        shard_bounds(0, 1)
    with pytest.raises(ValueError):
        shard_bounds(10, 0)


def test_sharded_relation_shards_copy_their_records(toy_relation):
    relation = Relation(
        toy_relation.schema,
        {name: toy_relation.column(name).copy() for name in toy_relation.schema.names},
    )
    sharded = ShardedStoredRelation(
        relation, PimModule(DEFAULT_CONFIG), shards=4, label="views",
        aggregation_width=22, reserve_bulk_aggregation=False,
    )
    assert np.array_equal(sharded.decode_column("price"), relation.column("price"))
    assert sharded.bounds[0][0] == 0 and sharded.bounds[-1][1] == len(relation)
    assert [len(shard.relation) for shard in sharded.shards] == [
        stop - start for start, stop in sharded.bounds
    ]
    # Each shard holds a copy of its records, not a view of the parent's.
    shard0 = sharded.shards[0].relation
    original = int(shard0.column("price")[0])
    relation.column("price")[0] = original + 1
    assert int(shard0.column("price")[0]) == original


def test_total_subgroups_covers_groups_split_across_shards():
    """Shard-disjoint groups: the merged subgroup count ≥ the result rows."""
    schema = Schema("split", [int_attribute("g", 2), int_attribute("v", 8)])
    relation = Relation(schema, {
        "g": np.array([0] * 50 + [1] * 50, dtype=np.uint64),   # one group per shard
        "v": np.arange(100, dtype=np.uint64) % 200,
    })
    sharded = ShardedStoredRelation(
        relation, PimModule(DEFAULT_CONFIG), shards=2, label="split",
    )
    engine = ShardedQueryEngine(sharded)
    execution = engine.execute(
        Query("split", None, (Aggregate("count"),), group_by=("g",))
    )
    assert len(execution.rows) == 2
    assert all(e.total_subgroups == 1 for e in execution.shard_executions)
    assert execution.total_subgroups >= len(execution.rows)


def test_executor_count_must_match_shards(toy_relation, made_executors):
    """Every call makes one fresh executor per shard: a query's shard
    executions and a DML statement's per-store stats never share one."""
    service = QueryService(planner=False)
    service.register_sharded(
        "execs", toy_relation, shards=2,
        aggregation_width=22, reserve_bulk_aggregation=False,
    )
    query = Query("q", None, (Aggregate("count"),))
    first, second = service.execute(query), service.execute(query)
    assert first.scalar("count") == second.scalar("count") == len(toy_relation)
    assert len(made_executors) == 4 == len(set(map(id, made_executors)))
    shard_stats = [e.stats for e in first.shard_executions + second.shard_executions]
    assert all(
        executor.stats is stats for executor, stats in zip(made_executors, shard_stats)
    )
    made_executors.clear()
    first = service.delete(Comparison("key", "<", 10))
    second = service.delete(Comparison("key", "<", 20))
    assert [len(made_executors), first.result.records_deleted,
            second.result.records_deleted] == [4, 10, 10]
    assert len(set(map(id, made_executors))) == 4
    assert first.shard_stats == [made_executors[0].stats, made_executors[1].stats]
    assert second.shard_stats == [made_executors[2].stats, made_executors[3].stats]
    assert all(executor.config is service.engine().config for executor in made_executors)
    service.close()


# ------------------------------------------------------- service integration
def test_service_register_sharded_routes_and_reports(toy_relation):
    service = QueryService()
    plain_store = StoredRelation(
        Relation(
            toy_relation.schema,
            {n: toy_relation.column(n).copy() for n in toy_relation.schema.names},
        ),
        PimModule(DEFAULT_CONFIG), label="plain",
        aggregation_width=22, reserve_bulk_aggregation=False,
    )
    # Serving scale: the cost planner keeps every shard on the PIM path
    # (per-shard host routing on toy-sized shards is covered separately).
    service.register("plain", plain_store, timing_scale=1024.0)
    engine = service.register_sharded(
        "sharded", toy_relation, shards=4, timing_scale=1024.0,
        aggregation_width=22, reserve_bulk_aggregation=False,
    )
    assert service.relations == ["plain", "sharded"]
    assert engine.num_shards == 4

    queries = [
        Query("scalar",
              And((Comparison("region", IN, values=("ASIA", "EUROPE")),
                   Comparison("year", BETWEEN, low=1993, high=1996))),
              (Aggregate("sum", "price"), Aggregate("count"),
               Aggregate("min", "price"))),
        Query("gb", Comparison("discount", ">=", 5),
              (Aggregate("sum", "price"), Aggregate("max", "price")),
              group_by=("city",)),
    ]
    for query in queries:
        plain = service.execute(query, relation="plain")
        sharded = service.execute(query, relation="sharded")
        assert sharded.rows == plain.rows

    result = service.execute_batch(queries, relation="sharded")
    stats = result.stats
    assert stats.sharded is not None
    assert stats.sharded.shards == 4
    assert stats.sharded.executions == len(queries)
    assert 0 < stats.sharded.shard_p50_s <= stats.sharded.shard_p95_s
    assert stats.sharded.parallel_speedup > 1.0
    assert stats.sharded.max_shard_writes_per_row > 0
    assert "sharded_parallel_speedup=" in stats.describe()
    # A batch against the unsharded relation reports no sharded section.
    plain_stats = service.execute_batch(queries, relation="plain").stats
    assert plain_stats.sharded is None
    with pytest.raises(ValueError, match="already registered"):
        service.register_sharded("sharded", toy_relation, shards=2)


def test_one_store_serves_the_same_however_registered(ssb_prejoined):
    """``register(stored)`` and ``register_sharded(shards=1)`` build the same
    engine: with the planner on, all 13 SSB queries return the same rows,
    modelled stats, label and execution type."""
    from repro.ssb.prejoined import max_aggregated_width

    width = max_aggregated_width(ssb_prejoined)
    plain, sharded = QueryService(), QueryService()
    plain.register("ssb", StoredRelation(
        ssb_prejoined, PimModule(DEFAULT_CONFIG), label="ssb",
        aggregation_width=width, reserve_bulk_aggregation=False,
    ), timing_scale=100.0)
    sharded.register_sharded(
        "ssb", ssb_prejoined, shards=1, timing_scale=100.0,
        aggregation_width=width, reserve_bulk_aggregation=False,
    )
    for name in QUERY_ORDER:
        a = plain.execute(ALL_QUERIES[name])
        b = sharded.execute(ALL_QUERIES[name])
        assert type(a) is type(b) is QueryExecution, name
        assert (a.label, a.rows) == (b.label, b.rows), name
        assert a.stats.totals() == b.stats.totals(), name
    for service in (plain, sharded):
        service.close()


def test_per_shard_host_routing_bit_exact_and_counted(toy_relation):
    """Small residual shards stream through the host; rows stay bit-exact."""
    routed = QueryService()
    reference = QueryService(planner=False)
    for service in (routed, reference):
        service.register_sharded(
            "sharded", toy_relation, shards=4,
            aggregation_width=22, reserve_bulk_aggregation=False,
        )
    query = Query(
        "broad", Comparison("discount", ">=", 0),
        (Aggregate("sum", "price"), Aggregate("count")),
    )
    execution = routed.execute(query)
    assert execution.rows == reference.execute(query).rows
    # A near-unselective scan over toy-sized shards routes to the host.
    assert execution.host_routed_shards > 0
    assert any(
        shard.label.endswith("/host-scan")
        for shard in execution.shard_executions
    )
    batch = routed.execute_batch([query])
    assert batch.stats.planner is not None
    assert batch.stats.planner.host_routed >= execution.host_routed_shards


def test_merged_estimated_selectivity_is_live_weighted():
    """The merged estimate averages like the merged actual beside it: by live
    rows, so skewed DML does not make ``describe()`` compare two averages."""
    records = 4000
    schema = Schema("skew", [int_attribute("key", 12), int_attribute("v", 8)])
    relation = Relation(schema, {
        "key": np.arange(records, dtype=np.uint64),
        "v": np.arange(records, dtype=np.uint64) % 251,
    })
    service = QueryService(planner=False)
    service.register_sharded("skew", relation, shards=2)
    query = Query("quartile", Comparison("key", "<", 1000), (Aggregate("count"),))

    balanced = service.execute(query)
    estimates = [e.estimated_selectivity for e in balanced.shard_executions]
    assert estimates[0] > 0.4 and estimates[1] == 0.0
    # Equal live counts: the weighted mean is the plain mean it replaced.
    assert balanced.estimated_selectivity == pytest.approx(
        float(np.mean(estimates)), abs=1e-12
    )

    service.delete(Comparison("key", ">=", 2200))     # 90 % of the upper shard
    shards = service.engine().sharded.shards
    assert [shard.live_count for shard in shards] == [2000, 200]
    skewed = service.execute(query)
    estimates = [e.estimated_selectivity for e in skewed.shard_executions]
    weighted = (estimates[0] * 2000 + estimates[1] * 200) / 2200
    assert skewed.estimated_selectivity == pytest.approx(weighted, rel=1e-12)
    assert skewed.selectivity == pytest.approx(1000 / 2200, rel=1e-12)
    assert skewed.estimated_selectivity == pytest.approx(skewed.selectivity, abs=2e-3)
    assert abs(float(np.mean(estimates)) - skewed.selectivity) > 0.2
    service.close()


# -------------------------------------------------- merge algebra (property)
AGGREGATES = (
    Aggregate("sum", "v"),
    Aggregate("count"),
    Aggregate("min", "v"),
    Aggregate("max", "v"),
)

shards_strategy = st.lists(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=3),      # group key
                  st.integers(min_value=0, max_value=(1 << 20) - 1)),  # value
        min_size=0, max_size=30,                               # empty shards!
    ),
    min_size=1, max_size=5,
)


def _relation_from(records):
    schema = Schema("part", [int_attribute("g", 2), int_attribute("v", 20)])
    groups = np.array([g for g, _ in records], dtype=np.uint64)
    values = np.array([v for _, v in records], dtype=np.uint64)
    return Relation(schema, {"g": groups, "v": values})


@settings(max_examples=60, deadline=None)
@given(shards=shards_strategy, group_by=st.booleans())
def test_merging_shard_partials_equals_concatenated_aggregation(shards, group_by):
    """merge(shard partials) == aggregate(concat(shards)), empty shards too."""
    group_columns = ("g",) if group_by else ()
    per_shard = []
    for records in shards:
        relation = _relation_from(records)
        per_shard.append(reference_group_aggregate(
            relation, np.ones(len(relation), dtype=bool),
            group_columns, AGGREGATES,
        ))
    merged = merge_shard_rows(per_shard, AGGREGATES)

    concatenated = _relation_from([r for shard in shards for r in shard])
    expected = reference_group_aggregate(
        concatenated, np.ones(len(concatenated), dtype=bool),
        group_columns, AGGREGATES,
    )
    assert merged == expected

    # AVG merges through its SUM/COUNT decomposition: the merged partials
    # reproduce the average of the concatenated records exactly.
    for key in expected:
        merged_avg = Fraction(merged[key]["sum_v"], merged[key]["count"])
        values = [v for shard in shards for g, v in shard
                  if not group_by or (g,) == key]
        assert merged_avg == Fraction(sum(values), len(values))


def test_merge_skips_absent_min_partials():
    """A shard-side None (empty min, the PR 1 fix) never poisons the merge."""
    first = {(1,): {"sum_v": 10, "count": 2, "min_v": None, "max_v": 7}}
    second = {(1,): {"sum_v": 5, "count": 1, "min_v": 3, "max_v": 3},
              (2,): {"sum_v": 1, "count": 1, "min_v": 1, "max_v": 1}}
    merged = merge_shard_rows([first, second], AGGREGATES)
    assert merged[(1,)]["min_v"] == 3          # not min(None-placeholder, 3)
    assert merged[(1,)]["sum_v"] == 15 and merged[(1,)]["count"] == 3
    assert merged[(2,)] == second[(2,)]
    assert merge_shard_rows([{}, {}], AGGREGATES) == {}


def test_merge_charges_the_gather_term():
    from repro.pim.stats import PimStats

    stats = PimStats()
    rows = {(0,): {"sum_v": 1, "count": 1, "min_v": 1, "max_v": 1}}
    merge_shard_rows([rows, rows], AGGREGATES,
                     config=DEFAULT_CONFIG.host, stats=stats)
    assert stats.time_by_phase["shard-merge"] > 0


def test_pim_queries_counts_queries_not_shards(toy_relation):
    """A query is a PIM query when any engine serving it ran on PIM;
    ``host_routed`` counts host-scanned *engines* (here: shards)."""
    service = QueryService()
    # Toy-sized shards stream through the host; extrapolated ones stay on PIM.
    for name, scale in (("small", 1.0), ("large", 64.0)):
        service.register_sharded(
            name, toy_relation, shards=4, timing_scale=scale,
            aggregation_width=22, reserve_bulk_aggregation=False,
        )
    query = Query(
        "broad", Comparison("discount", ">=", 0),
        (Aggregate("sum", "price"), Aggregate("count")),
    )
    batch = service.execute_batch([
        QueryRequest(query, "small"), QueryRequest(query, "large"),
        QueryRequest(query, "large"),
    ])
    small, *large = batch.executions
    assert small.host_routed_shards == 4
    assert all(execution.host_routed_shards == 0 for execution in large)
    assert batch.stats.planner.host_routed == 4
    assert batch.stats.planner.pim_queries == 2


def test_sharded_dml_leaves_the_callers_relation_unchanged():
    """Every shard stores a copy of its records: an UPDATE served through
    ``register_sharded`` changes the shards' ground truth, never the
    ``Relation`` the caller registered."""
    rng = np.random.default_rng(5)
    records = 700
    relation = Relation(
        Schema("aliased", [
            int_attribute("key", 10), int_attribute("flag", 2),
            int_attribute("mid", 4),
        ]),
        {
            "key": np.arange(records, dtype=np.uint16),
            "flag": rng.integers(0, 4, records).astype(np.uint8),
            "mid": rng.integers(0, 16, records).astype(np.uint8),
        },
    )
    before = {name: column.copy() for name, column in relation.columns.items()}
    service = QueryService()
    service.register_sharded("aliased", relation, shards=4)
    outcome = service.update(Comparison("flag", "==", 1), {"mid": 5})
    assert outcome.result.records_updated == np.count_nonzero(before["flag"] == 1)
    for name, column in before.items():
        assert np.array_equal(relation.columns[name], column), name
    live = service.engine("aliased").sharded.live_relation()
    selected = before["flag"] == 1
    assert np.array_equal(live.column("mid")[selected], np.full(selected.sum(), 5))
