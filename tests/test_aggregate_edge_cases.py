"""Aggregate edge cases: empty selections, tiny groups, caching equivalence.

These tests pin the empty-selection semantics the engines must agree on
(no selected record => no result row, mirroring the columnar reference), the
min-merge fix (an absent min must not poison merging with a spurious 0), and
the bit-exactness of the compiled-program cache.
"""

import numpy as np
import pytest
from twins import all_pim_cost_model, reference_group_aggregate

from repro.config import DEFAULT_CONFIG
from repro.core.executor import PimQueryEngine
from repro.db.query import (
    Aggregate,
    And,
    BETWEEN,
    Comparison,
    EQ,
    Query,
    evaluate_predicate,
)
from repro.db.relation import Relation
from repro.db.storage import StoredRelation
from repro.host.aggregator import (
    combine_partials,
    host_group_aggregate,
    merge_group_results,
)
from repro.host.processor import cpu_time
from repro.pim.module import PimModule
from repro.service import ProgramCache

HOST = DEFAULT_CONFIG.host

EMPTY_FILTER = Comparison("year", EQ, 1800)  # matches no toy record
SOME_FILTER = And((
    Comparison("year", BETWEEN, low=1993, high=1996),
    Comparison("discount", ">=", 2),
))
ALL_AGGREGATES = (
    Aggregate("min", "price"),
    Aggregate("max", "price"),
    Aggregate("sum", "price"),
    Aggregate("count"),
)
TWO_XB = [["key", "price", "discount", "quantity"], ["city", "region", "year"]]


def _engine(relation, partitions=None, backend=None, **kwargs):
    config = (
        DEFAULT_CONFIG if backend is None else DEFAULT_CONFIG.with_backend(backend)
    )
    module = PimModule(config)
    stored = StoredRelation(
        relation, module, label="edge-test",
        partitions=partitions, aggregation_width=22,
        reserve_bulk_aggregation=False,
    )
    return PimQueryEngine(stored, **kwargs)


def _reference(relation, query):
    mask = evaluate_predicate(query.predicate, relation)
    return reference_group_aggregate(relation, mask, query.group_by, query.aggregates)


# --------------------------------------------------------------- empty input
def test_empty_selection_scalar_aggregates(toy_relation):
    """min/max/sum/count over zero selected rows produce no result row."""
    query = Query("empty-scalar", EMPTY_FILTER, ALL_AGGREGATES)
    execution = _engine(toy_relation).execute(query)
    assert execution.rows == {}
    assert execution.rows == _reference(toy_relation, query)
    assert execution.selectivity == 0.0


def test_empty_selection_scalar_raises_clear_error(toy_relation):
    query = Query("empty-scalar", EMPTY_FILTER, (Aggregate("min", "price"),))
    execution = _engine(toy_relation).execute(query)
    with pytest.raises(ValueError, match="selected no records"):
        execution.scalar()
    with pytest.raises(ValueError, match="selected no records"):
        execution.scalar("min_price")


def test_scalar_unknown_aggregate_name_raises_value_error(toy_relation):
    query = Query("known", SOME_FILTER, (Aggregate("sum", "price"),))
    execution = _engine(toy_relation).execute(query)
    with pytest.raises(ValueError, match="no aggregate named"):
        execution.scalar("nope")


def test_empty_selection_group_by(toy_relation):
    query = Query("empty-gb", EMPTY_FILTER, ALL_AGGREGATES, group_by=("city",))
    execution = _engine(toy_relation).execute(query)
    assert execution.rows == {}


def test_combine_partials_empty_min_max_is_none():
    assert combine_partials([np.array([], dtype=np.uint64)], "min", HOST) is None
    assert combine_partials([np.array([], dtype=np.uint64)], "max", HOST) is None
    assert combine_partials([np.array([], dtype=np.uint64)], "sum", HOST) == 0


def test_combine_partials_empty_iterable_returns_identity():
    """No partials at all: sum/count are 0, min/max undefined (None)."""
    assert combine_partials([], "sum", HOST) == 0
    assert combine_partials([], "count", HOST) == 0
    assert combine_partials([], "min", HOST) is None
    assert combine_partials([], "max", HOST) is None
    assert combine_partials(iter(()), "sum", HOST) == 0


def test_combine_partials_rejects_unsupported_op():
    with pytest.raises(ValueError, match="unsupported aggregation 'avg'"):
        combine_partials([np.array([1], dtype=np.uint64)], "avg", HOST)


class _RawAggregate:
    """Stand-in with an op the IR would reject at construction time.

    :class:`Aggregate` refuses ``avg`` in ``__post_init__``, but the merge
    functions are also fed aggregate-shaped objects by callers composing
    results by hand — those must fail loudly, not silently merge as ``max``.
    """

    def __init__(self, op, name):
        self.op = op
        self.name = name
        self.attribute = name


def test_merge_group_results_rejects_raw_avg():
    aggregates = (_RawAggregate("avg", "avg_x"),)
    with pytest.raises(ValueError, match="unsupported aggregation 'avg'"):
        merge_group_results(
            {(1,): {"avg_x": 10}}, {(1,): {"avg_x": 20}}, aggregates
        )


def test_merge_group_results_rejects_unknown_op_even_without_overlap():
    """Validation is up-front: corruption must not depend on key overlap."""
    with pytest.raises(ValueError, match="unsupported aggregation"):
        merge_group_results({}, {(1,): {"x": 1}}, (_RawAggregate("median", "x"),))


def test_host_group_aggregate_rejects_raw_avg():
    with pytest.raises(ValueError, match="unsupported aggregation 'avg'"):
        host_group_aggregate(
            {"g": np.array([1], dtype=np.uint64)},
            {"x": np.array([2], dtype=np.uint64)},
            (_RawAggregate("avg", "x"),),
            HOST,
        )


def test_merge_skips_absent_min():
    """An absent/None min on one side must not clamp the other side's min."""
    aggregates = (Aggregate("min", "x"), Aggregate("sum", "x"))
    merged = merge_group_results(
        {(1,): {"sum_x": 10}},                      # min absent (empty on PIM side)
        {(1,): {"min_x": 7, "sum_x": 5}, (2,): {"min_x": None, "sum_x": 3}},
        aggregates,
    )
    assert merged[(1,)] == {"min_x": 7, "sum_x": 15}
    assert merged[(2,)]["sum_x"] == 3
    assert merged[(2,)]["min_x"] is None


# ------------------------------------------------------- host-gb edge cases
def test_host_group_aggregate_missing_value_column():
    with pytest.raises(ValueError, match="needs value column"):
        host_group_aggregate(
            {"g": np.array([1, 2], dtype=np.uint64)},
            {},
            [Aggregate("sum", "x")],
            HOST,
        )


def test_host_group_aggregate_all_rows_filtered_out():
    empty = np.array([], dtype=np.uint64)
    result = host_group_aggregate(
        {"g": empty}, {"x": empty}, [Aggregate("sum", "x"), Aggregate("min", "x")],
        HOST,
    )
    assert result == {}


def test_host_group_aggregate_matches_reference_loop():
    """The reduceat fast path is bit-exact with per-group NumPy reductions."""
    rng = np.random.default_rng(5)
    n = 3000
    groups = {
        "a": rng.integers(0, 7, n).astype(np.uint64),
        "b": rng.integers(0, 5, n).astype(np.uint64),
    }
    values = {"x": rng.integers(0, 1 << 40, n).astype(np.uint64)}
    aggregates = [
        Aggregate("sum", "x"), Aggregate("min", "x"),
        Aggregate("max", "x"), Aggregate("count"),
    ]
    result = host_group_aggregate(groups, values, aggregates, HOST)
    keys = np.stack([groups["a"], groups["b"]], axis=1)
    for key, entry in result.items():
        selector = np.all(keys == np.array(key, dtype=np.uint64), axis=1)
        assert entry["sum_x"] == int(values["x"][selector].sum())
        assert entry["min_x"] == int(values["x"][selector].min())
        assert entry["max_x"] == int(values["x"][selector].max())
        assert entry["count"] == int(selector.sum())
    assert len(result) == len(np.unique(keys, axis=0))


def test_host_group_aggregate_single_record_groups():
    """Each group holding exactly one record: all aggregates equal the value."""
    n = 50
    groups = {"g": np.arange(n, dtype=np.uint64)}
    values = {"x": (np.arange(n, dtype=np.uint64) * 13 + 1)}
    result = host_group_aggregate(
        groups, values,
        [Aggregate("sum", "x"), Aggregate("min", "x"),
         Aggregate("max", "x"), Aggregate("count")],
        HOST,
    )
    assert len(result) == n
    for key, entry in result.items():
        value = int(key[0]) * 13 + 1
        assert entry == {"sum_x": value, "min_x": value, "max_x": value, "count": 1}


# ------------------------------------------------------- engine edge cases
def test_single_record_groups_through_engine(toy_relation):
    """A selection so narrow that groups hold one or very few records."""
    query = Query(
        "narrow",
        And((Comparison("year", EQ, 1995), Comparison("discount", EQ, 10),
             Comparison("quantity", "<", 5))),
        ALL_AGGREGATES,
        group_by=("city",),
    )
    execution = _engine(toy_relation).execute(query)
    reference = _reference(toy_relation, query)
    assert execution.rows == reference
    assert reference  # the query does select a handful of records


def _narrow_engine(relation, execution):
    """The toy relation with a 16-bit accumulator (6 + log2(1024 rows)) for
    its 22-bit ``price``, every subgroup through pim-gb."""
    config = DEFAULT_CONFIG.replace(execution=execution)
    stored = StoredRelation(
        relation, PimModule(config), label="narrow", aggregation_width=6,
        reserve_bulk_aggregation=False,
    )
    assert stored.layouts[0].accumulator_width == 16
    return PimQueryEngine(stored, cost_model=all_pim_cost_model())


@pytest.mark.parametrize("execution", ["batched", "dispatch"])
@pytest.mark.parametrize("group_by", [(), ("region",)])
@pytest.mark.parametrize("op", ["max", "min"])
def test_narrow_min_max_raises_on_every_path(toy_relation, execution, group_by, op):
    """A min / max into an accumulator narrower than its field cannot be
    right: the circuit pass refuses it with and without GROUP-BY, on the
    batched pim-gb as on the per-subgroup oracle (the batched pim-gb once
    returned the truncated value instead)."""
    query = Query("narrow", None, (Aggregate(op, "price"),), group_by=group_by)
    engine = _narrow_engine(toy_relation, execution)
    with pytest.raises(ValueError, match="22-bit field does not fit a 16-bit result"):
        engine.execute(query)


@pytest.mark.parametrize("execution", ["batched", "dispatch"])
@pytest.mark.parametrize("group_by", [(), ("region",)])
def test_narrow_sum_wraps_per_crossbar(toy_relation, execution, group_by):
    """A sum into the same accumulator wraps each crossbar's partial modulo
    ``2**16`` and the host adds the wrapped partials."""
    query = Query("narrow", None, (Aggregate("sum", "price"),), group_by=group_by)
    execution = _narrow_engine(toy_relation, execution).execute(query)
    price = toy_relation.column("price").astype(np.uint64)
    crossbar = np.arange(len(price)) // 1024
    keys = toy_relation.column("region") if group_by else np.zeros(len(price), int)
    expected = {}
    for key in np.unique(keys):
        partials = [
            int(price[(keys == key) & (crossbar == xbar)].sum()) % (1 << 16)
            for xbar in np.unique(crossbar)
        ]
        expected[(int(key),) if group_by else ()] = {"sum_price": sum(partials)}
    assert execution.rows == expected
    assert execution.rows != _reference(toy_relation, query)


#: The evaluation's PIM configurations: the aggregation circuit on one or two
#: partitions, and PIMDB's bulk-bitwise reduction (no circuit).
CONFIGURATIONS = ("one_xb", "two_xb", "pimdb")


def _config_engine(relation, configuration, execution):
    """``relation`` stored as ``configuration`` stores it, every subgroup
    through pim-gb; the accumulator is 22 + 10 bits wide, the 22-bit
    ``price`` field's bulk-bitwise pass 22 bits."""
    config = DEFAULT_CONFIG.replace(execution=execution)
    if configuration == "pimdb":
        config = config.without_aggregation_circuit()
    stored = StoredRelation(
        relation, PimModule(config), label=configuration,
        partitions=TWO_XB if configuration == "two_xb" else None,
        aggregation_width=22, reserve_bulk_aggregation=configuration == "pimdb",
    )
    return PimQueryEngine(stored, cost_model=all_pim_cost_model())


def _all_ones_prices(relation):
    """``relation`` with the first 100 records' ``price`` set to the all-ones
    value of its 22-bit field."""
    columns = {name: relation.column(name).copy() for name in relation.schema.names}
    columns["price"][:100] = (1 << 22) - 1
    return Relation(relation.schema, columns)


@pytest.mark.parametrize("execution", ["batched", "dispatch"])
@pytest.mark.parametrize("group_by", [(), ("region",)])
@pytest.mark.parametrize("configuration", CONFIGURATIONS)
def test_min_over_no_or_all_ones_records(toy_relation, configuration, group_by, execution):
    """What a MIN returns when no record is selected (no row) and when every
    selected value is its field's all-ones value (that value, not the wider
    accumulator's all-ones), on every configuration and path."""
    relation = _all_ones_prices(toy_relation)
    engine = _config_engine(relation, configuration, execution)
    aggregates = (Aggregate("min", "price"), Aggregate("count"))
    empty = Query("min-empty", EMPTY_FILTER, aggregates, group_by=group_by)
    assert engine.execute(empty).rows == {}
    ones = Query("min-ones", Comparison("key", "<", 100), aggregates, group_by=group_by)
    rows = engine.execute(ones).rows
    assert rows == _reference(relation, ones)
    assert {entry["min_price"] for entry in rows.values()} == {(1 << 22) - 1}


@pytest.mark.parametrize("configuration", CONFIGURATIONS)
def test_min_bills_host_combine_for_contributing_partials(toy_relation, configuration):
    """``MIN(price) WHERE key < 100`` selects records of crossbar 0 only: the
    host combines that one partial, on PIMDB's bulk-bitwise pass (which
    covers every crossbar of the page) as on the circuit's."""
    engine = _config_engine(toy_relation, configuration, "batched")
    query = Query("min-few", Comparison("key", "<", 100), (Aggregate("min", "price"),))
    execution = engine.execute(query)
    assert execution.rows == _reference(toy_relation, query)
    assert execution.stats.time_by_phase["host-combine"] == cpu_time(HOST, 1, 4.0)


@pytest.mark.parametrize("ground_truth", [False, True])
def test_two_partition_group_by_edge_cases(
    toy_relation, ground_truth, ground_truth_oracle
):
    """two_xb group-by with min/max and group attrs on the remote partition."""
    query = Query(
        "two-xb-gb", SOME_FILTER, ALL_AGGREGATES, group_by=("city", "year")
    )
    engine = _engine(toy_relation, partitions=TWO_XB)
    execution = engine.execute(query)
    assert execution.rows == _reference(toy_relation, query)
    if ground_truth:
        ground_truth_oracle.query(engine, execution)


@pytest.mark.parametrize(
    "ground_truth,backend",
    [
        # The boolean reference run stays in the slow tier.
        (False, "packed"),
        pytest.param(False, "bool", marks=pytest.mark.slow),
        (True, None),
    ],
)
def test_three_partition_group_by_spanning_two_remotes(
    toy_relation, ground_truth, backend, ground_truth_oracle
):
    """GROUP-BY attributes on two different remote partitions.

    Every remote partition ships a bit-vector into the same landing column,
    so the engine must fold the transfers together instead of keeping only
    the last one.  A degenerate cost model forces every subgroup through
    pim-gb, which is the only path that builds per-subgroup remote masks.
    """
    partitions = [
        ["key", "price"],
        ["city", "region"],
        ["year", "discount", "quantity"],
    ]
    query = Query(
        "three-xb",
        Comparison("quantity", "<", 40),
        (Aggregate("sum", "price"), Aggregate("count")),
        group_by=("region", "year"),
    )
    engine = _engine(
        toy_relation, partitions=partitions,
        backend=backend, cost_model=all_pim_cost_model(),
    )
    execution = engine.execute(query)
    assert execution.pim_subgroups > 0  # the folded remote path actually ran
    assert execution.rows == _reference(toy_relation, query)
    if ground_truth:
        ground_truth_oracle.query(engine, execution)


# ----------------------------------------------------------- program cache
def test_cache_hit_and_miss_executions_are_bit_exact(toy_relation):
    """The same engine answers identically before and after cache warm-up."""
    cache = ProgramCache(capacity=64)
    engine = _engine(toy_relation, compiler=cache)
    query = Query("cached", SOME_FILTER, ALL_AGGREGATES, group_by=("city",))

    cold = engine.execute(query)
    misses_after_cold = cache.stats.misses
    assert misses_after_cold > 0 and cache.stats.hits == 0

    warm = engine.execute(query)
    assert cache.stats.misses == misses_after_cold  # everything reused
    assert cache.stats.hits > 0
    assert warm.rows == cold.rows == _reference(toy_relation, query)
    assert warm.time_s == pytest.approx(cold.time_s, rel=1e-12)

    uncached = _engine(toy_relation).execute(query)
    assert uncached.rows == warm.rows
