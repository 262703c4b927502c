"""SSB lockstep of the two execution bundles: ``batched`` == ``dispatch``.

``execution="batched"`` (fused single-program kernels + the batched pim-gb
loop) is the production path and ``execution="dispatch"`` (op-by-op
interpreter + per-subgroup loop) its reference.  All 13 SSB queries run
through one engine per bundle — pruned and broadcast, unsharded and
K=4 — and must agree on result rows, the full :class:`PimStats` (the charge
multiset, power samples, request rounding) and the stored state:
wear counters, every bank column outside the scratch area and every
dirty-crossbar mask.  Each cell's engine pair persists across the 13
queries, so the comparison is cumulative and every query but the first
starts from the columns another candidate set left dirty.

The cells run the engine's default (fitted) cost model; one further
cell forces every subgroup through PIM, so the batched kernels carry
hundreds of subgroups per query instead of a handful.
"""

import numpy as np
import pytest

from repro.config import DEFAULT_CONFIG, EXECUTIONS
from repro.core.executor import PimQueryEngine
from repro.core.latency_model import (
    GroupByCostModel,
    HostGbLatencyModel,
    PimGbLatencyModel,
)
from repro.db.storage import StoredRelation
from repro.pim.module import PimModule
from repro.sharding import ShardedQueryEngine, ShardedStoredRelation
from repro.ssb import ALL_QUERIES, QUERY_ORDER
from repro.ssb.prejoined import max_aggregated_width

#: ``id -> (pruning, shards, all_pim)``.  The keys are opaque test ids: the
#: ``vectorized*`` ones outlived the mode they named and now hold the
#: broadcast cells (renaming ids is the ``test_fused.py`` -> ``test_kernels.py``
#: chore, a PR that does nothing else).
CELLS = {
    "gate-level": (True, 1, False),
    "gate-level-k4": (True, 4, False),
    "vectorized": (False, 1, False),
    "vectorized-k4": (False, 4, False),
    "vectorized-allpim": (True, 1, True),
}


def _all_pim_cost_model() -> GroupByCostModel:
    return GroupByCostModel(
        HostGbLatencyModel({2: 1.0}, {2: 1.0}),      # host absurdly expensive
        PimGbLatencyModel({2: 0.0}, {2: 0.0}),       # PIM free
    )


def _build(prejoined, execution, pruning, shards, all_pim):
    """``(engine, stored)`` for one bundle; every engine owns its banks."""
    config = DEFAULT_CONFIG.with_execution(execution)
    storage = {
        "label": execution,
        "aggregation_width": max_aggregated_width(prejoined),
        "reserve_bulk_aggregation": False,
    }
    options = {
        "config": config,
        "label": execution,
        "timing_scale": 100.0,
        "pruning": pruning,
        "cost_model": _all_pim_cost_model() if all_pim else None,
    }
    if shards == 1:
        stored = StoredRelation(prejoined, PimModule(config), **storage)
        return PimQueryEngine(stored, **options), stored
    stored = ShardedStoredRelation(
        prejoined, PimModule(config), shards=shards, **storage
    )
    return ShardedQueryEngine(stored, **options), stored


@pytest.fixture(scope="module")
def engine_pairs(ssb_prejoined):
    """Lazily built ``cell -> {execution: (engine, stored)}``, module-scoped."""
    pairs = {}

    def get(cell):
        if cell not in pairs:
            pairs[cell] = {
                execution: _build(ssb_prejoined, execution, *CELLS[cell])
                for execution in EXECUTIONS
            }
        return pairs[cell]

    return get


def _stores(stored) -> list[StoredRelation]:
    return stored.shards if isinstance(stored, ShardedStoredRelation) else [stored]


def _assert_same_stored_state(ours: StoredRelation, theirs: StoredRelation) -> None:
    """Wear, every dirty mask and every bank column outside the scratch area
    (gate-level ``dispatch`` runs its programs there, batched never does)."""
    for partition, layout in enumerate(ours.layouts):
        bank, other = (s.allocations[partition].bank for s in (ours, theirs))
        assert np.array_equal(bank.writes_per_row, other.writes_per_row)
        for column in set(range(bank.columns)) - set(layout.scratch_columns):
            assert np.array_equal(
                bank.read_column(column), other.read_column(column)
            ), f"partition {partition}: column {column} differs"
        tracked = set(ours._column_dirty[partition]) | set(
            theirs._column_dirty[partition]
        )
        for column in tracked:
            assert np.array_equal(
                ours.column_dirty_mask(partition, column),
                theirs.column_dirty_mask(partition, column),
            ), f"partition {partition}: dirty mask of column {column} differs"


@pytest.mark.parametrize("cell", CELLS)
@pytest.mark.parametrize("query_name", QUERY_ORDER)
def test_ssb_batched_matches_dispatch(engine_pairs, query_name, cell):
    pair = engine_pairs(cell)
    query = ALL_QUERIES[query_name]
    (batched_engine, batched_stored) = pair["batched"]
    (dispatch_engine, dispatch_stored) = pair["dispatch"]
    batched = batched_engine.execute(query)
    dispatch = dispatch_engine.execute(query)

    assert batched.rows == dispatch.rows
    assert batched.pim_subgroups == dispatch.pim_subgroups
    assert batched.stats == dispatch.stats
    for ours, theirs in zip(
        getattr(batched, "shard_executions", ()),
        getattr(dispatch, "shard_executions", ()),
    ):
        assert ours.stats == theirs.stats
    if CELLS[cell][2] and query.group_by:
        # The forced plan: every subgroup went through the batched kernels.
        assert batched.pim_subgroups == batched.total_subgroups > 0
    for ours, theirs in zip(_stores(batched_stored), _stores(dispatch_stored)):
        _assert_same_stored_state(ours, theirs)


@pytest.mark.parametrize("shards", [1, 4])
def test_ssb_state_digest_and_stats_match_dispatch(ssb_prejoined, shards):
    """The 13 SSB queries through a service per bundle: equal stats query by
    query and equal stored-state digests after each — "no stored bit, dirty
    mark, zone-map entry or wear moved", as one committed assertion."""
    from repro.service import QueryService

    if DEFAULT_CONFIG.backend == "bool":
        # ``dispatch`` on the byte-per-bit bank simulates every filter and
        # subgroup program op by op: every third row (four crossbars, one per
        # shard) keeps the bool CI cell inside its budget with nothing skipped.
        ssb_prejoined = ssb_prejoined.select(np.arange(len(ssb_prejoined)) % 3 == 0)
    services = {}
    for execution in EXECUTIONS:
        config = DEFAULT_CONFIG.with_execution(execution)
        service = QueryService(planner=False)
        options = {
            "config": config, "cost_model": _all_pim_cost_model(),
            "timing_scale": 100.0,
        }
        width = max_aggregated_width(ssb_prejoined)
        if shards == 1:
            stored = StoredRelation(
                ssb_prejoined, PimModule(config), label="ssb",
                aggregation_width=width, reserve_bulk_aggregation=False,
            )
            service.register("ssb", stored, **options)
            assert service.state_digest() == stored.state_digest()
        else:
            service.register_sharded(
                "ssb", ssb_prejoined, shards=shards, aggregation_width=width,
                reserve_bulk_aggregation=False, **options,
            )
        services[execution] = service
    fresh = services["batched"].state_digest("ssb")
    assert fresh == services["dispatch"].state_digest()
    for name in QUERY_ORDER:
        batched = services["batched"].execute(ALL_QUERIES[name])
        dispatch = services["dispatch"].execute(ALL_QUERIES[name])
        assert batched.rows == dispatch.rows, name
        assert batched.stats == dispatch.stats, name
        assert batched.stats.totals() == dispatch.stats.totals(), name
        digest = services["batched"].state_digest()
        assert digest == services["dispatch"].state_digest(), name
    assert digest != fresh       # the queries did leave bits and wear behind
    for service in services.values():
        service.close()
