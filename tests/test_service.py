"""Tests of the batched query service (cache, scheduling, stats)."""

import numpy as np
import pytest

from repro.config import DEFAULT_CONFIG
from repro.core.executor import PimQueryEngine
from repro.db.query import (
    Aggregate,
    And,
    BETWEEN,
    Comparison,
    IN,
    Query,
    evaluate_predicate,
)
from repro.db.storage import StoredRelation
from repro.pim.module import PimModule
from repro.service import ProgramCache, QueryRequest, QueryService

FILTER = And((
    Comparison("region", IN, values=("ASIA", "EUROPE")),
    Comparison("year", BETWEEN, low=1993, high=1996),
))
WORKLOAD = [
    Query("scalar", FILTER, (Aggregate("sum", "price"), Aggregate("count"))),
    Query("gb-city", FILTER,
          (Aggregate("sum", "price"), Aggregate("min", "price")),
          group_by=("city",)),
    Query("gb-year", Comparison("discount", ">=", 5),
          (Aggregate("sum", "price"), Aggregate("count")),
          group_by=("year",)),
    Query("scalar", FILTER, (Aggregate("sum", "price"), Aggregate("count"))),
]


def _store(relation, **kwargs):
    module = PimModule(DEFAULT_CONFIG)
    return StoredRelation(
        relation, module, label=kwargs.pop("label", "svc"),
        aggregation_width=22, reserve_bulk_aggregation=False, **kwargs
    )


@pytest.fixture()
def service(toy_relation):
    # The PIM route: with the router on, the toy relation's queries are all
    # host-scanned, and the program cache would see only pricing lookups.
    service = QueryService(cache_capacity=128, planner=False)
    service.register("toy", _store(toy_relation))
    return service


def test_batch_matches_sequential_execution(toy_relation, service):
    result = service.execute_batch(WORKLOAD)
    sequential = PimQueryEngine(_store(toy_relation))
    for execution, query in zip(result, WORKLOAD):
        assert execution.rows == sequential.execute(query).rows
    assert len(result) == len(WORKLOAD)


@pytest.mark.parametrize("backend", ["packed", "bool"])
@pytest.mark.parametrize("shards", [1, 4])
def test_service_answers_from_the_stored_bits(toy_relation, backend, shards):
    """A WHERE clause is evaluated on the crossbar bits, not on the host copy.

    One stored bit of one live record's ``year`` is flipped behind the ground
    truth's back so that the record leaves the selection (its crossbar stays
    a zone-map candidate: other rows there still match).  The service must
    count what the bank holds.
    """
    # The PIM route: the host-scan route streams the host copy by design.
    service = QueryService(planner=False)
    storage = {"aggregation_width": 22, "reserve_bulk_aggregation": False}
    if shards == 1:
        config = DEFAULT_CONFIG.with_backend(backend)
        stored = StoredRelation(toy_relation, PimModule(config), label="svc", **storage)
        service.register("toy", stored, config=config)
    else:
        engine = service.register_sharded(
            "toy", toy_relation, shards=shards,
            config=DEFAULT_CONFIG.with_backend(backend), **storage
        )
        stored = engine.sharded.shards[1]
    query = Query("in-1995", Comparison("year", "==", 1995), (Aggregate("count"),))
    truth = int(evaluate_predicate(query.predicate, toy_relation).sum())
    assert service.execute(query).scalar() == truth

    slot = int(np.flatnonzero(evaluate_predicate(query.predicate, stored.relation))[0])
    allocation = stored.allocations[stored.partition_of("year")]
    offset, width = stored.layout_of("year").fields["year"]
    xbar, row = allocation.crossbar_of_record(slot), allocation.row_of_record(slot)
    value = allocation.bank.read_field(xbar, row, offset, width)
    allocation.bank.write_field(xbar, row, offset, width, value ^ 1)

    assert service.execute(query).scalar() == truth - 1
    assert int(evaluate_predicate(query.predicate, toy_relation).sum()) == truth
    service.close()


def test_second_replay_hits_the_cache(service):
    first = service.execute_batch(WORKLOAD)
    assert first.stats.cache.misses > 0
    second = service.execute_batch(WORKLOAD)
    assert second.stats.cache.misses == 0
    assert second.stats.cache.hits > 0
    for a, b in zip(first, second):
        assert a.rows == b.rows
        # The replay bills no zone-map walk (the engine's decision memo holds
        # the plan) and every other phase exactly what the cold pass billed.
        assert "zonemap-check" not in b.stats.time_by_phase
        cold = dict(a.stats.time_by_phase)
        cold.pop("zonemap-check", None)
        assert dict(b.stats.time_by_phase) == pytest.approx(cold, rel=1e-12)


def test_service_stats_summarise_the_batch(service):
    result = service.execute_batch(WORKLOAD)
    stats = result.stats
    assert stats.queries == len(WORKLOAD)
    assert stats.wall_time_s > 0 and stats.wall_qps > 0
    latencies = sorted(e.time_s for e in result)
    assert stats.modelled_time_s == pytest.approx(sum(latencies))
    assert latencies[0] <= stats.modelled_p50_s <= stats.modelled_p95_s <= latencies[-1]
    assert "service_wall_qps=" in stats.describe()


def test_multiple_relations_and_request_routing(toy_relation):
    service = QueryService()
    service.register("a", _store(toy_relation, label="a"))
    service.register("b", _store(toy_relation, label="b"))
    assert service.relations == ["a", "b"]
    requests = [
        QueryRequest(WORKLOAD[0], "b"),
        WORKLOAD[1],                      # routed to the default ("a")
        QueryRequest(WORKLOAD[2], "a"),
    ]
    result = service.execute_batch(requests)
    # The cost planner may route individual queries to the host-scan path
    # (label suffix "/host-scan"); the relation routing must hold either way.
    assert [e.label.split("/")[0] for e in result] == ["b", "a", "a"]
    reference = PimQueryEngine(_store(toy_relation))
    for execution, request in zip(result, requests):
        query = request.query if isinstance(request, QueryRequest) else request
        assert execution.rows == reference.execute(query).rows


def test_service_registry_errors(toy_relation, service):
    with pytest.raises(ValueError, match="already registered"):
        service.register("toy", _store(toy_relation))
    with pytest.raises(KeyError, match="unknown relation"):
        service.execute(WORKLOAD[0], relation="nope")
    with pytest.raises(ValueError, match="no relation registered"):
        QueryService().execute(WORKLOAD[0])


def test_program_cache_lru_eviction():
    cache = ProgramCache(capacity=1)
    first = cache._lookup(("filter", "p", 1), lambda: "p1")
    assert first == "p1" and len(cache) == 1
    cache._lookup(("filter", "q", 2), lambda: "p2")  # evicts the first
    assert cache.stats.evictions == 1 and len(cache) == 1
    again = cache._lookup(("filter", "p", 1), lambda: "rebuilt")
    assert again == "rebuilt"
    assert cache.stats.misses == 3 and cache.stats.hits == 0
    with pytest.raises(ValueError):
        ProgramCache(capacity=0)


def test_ssb_replay_through_service(ssb_one_xb_engine):
    """A slice of the SSB workload served in a batch, bit-exact vs execute()."""
    from repro.ssb import ssb_query

    names = ["Q1.1", "Q2.1", "Q1.1"]
    queries = [ssb_query(n) for n in names]
    service = QueryService()
    service.register(
        "ssb", ssb_one_xb_engine.stored,
        timing_scale=ssb_one_xb_engine.timing_scale,
    )
    result = service.execute_batch(queries)
    for execution, query in zip(result, queries):
        assert execution.rows == ssb_one_xb_engine.execute(query).rows
    assert result.stats.cache.hits > 0  # the repeated Q1.1 reuses its program
