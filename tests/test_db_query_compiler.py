"""Tests of the query IR, the reference evaluator and the NOR compiler."""

import operator

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from twins import reference_group_aggregate

from repro.config import DEFAULT_CONFIG
from repro.db.compiler import (
    CompilationError,
    compile_group_mask,
    compile_group_predicate,
    compile_predicate,
    partition_conjuncts,
)
from repro.db.query import (
    Aggregate,
    And,
    BETWEEN,
    Comparison,
    EQ,
    GE,
    GT,
    IN,
    LE,
    LT,
    NE,
    Or,
    Query,
    attributes_referenced,
    conj,
    encode_comparison,
    evaluate_predicate,
)
from repro.db.relation import Relation
from repro.db.schema import Schema, dict_attribute, int_attribute
from repro.db.storage import StoredRelation
from repro.pim.controller import PimExecutor
from repro.pim.module import PimModule
from repro.planner.selectivity import SelectivityModel
from repro.planner.zonemap import PAIR_BUCKETS, PairZoneMap, ZoneMaps


def test_comparison_validation():
    with pytest.raises(ValueError):
        Comparison("a", "~", 1)
    with pytest.raises(ValueError):
        Comparison("a", BETWEEN, low=1)
    with pytest.raises(ValueError):
        Comparison("a", IN)
    with pytest.raises(ValueError):
        Comparison("a", EQ)
    with pytest.raises(ValueError):
        And(())
    with pytest.raises(ValueError):
        Query("q", None, ())
    with pytest.raises(ValueError):
        Aggregate("sum")


def test_repeated_group_by_attribute_is_rejected(toy_stored):
    """``GROUP BY year, year`` used to run with |domain|**2 candidate keys of
    arity 2; it is refused at construction, before anything is planned,
    charged or written — also for a query on its way into a service."""
    from repro.service import QueryService

    aggregates = (Aggregate("count"),)
    with pytest.raises(ValueError, match="GROUP-BY attribute 'year' is repeated"):
        Query("q", None, aggregates, group_by=("year", "year"))
    with pytest.raises(ValueError, match="'city'"):
        Query("q", None, aggregates, group_by=("year", "city", "region", "city"))
    assert Query("q", None, aggregates, group_by=("year", "city")).group_by == (
        "year", "city",
    )

    service = QueryService()
    service.register("toy", toy_stored)
    before = service.state_digest()
    with pytest.raises(ValueError, match="repeated"):
        service.execute(Query("q", None, aggregates, group_by=["year", "year"]))
    assert service.state_digest() == before
    service.close()


def test_query_metadata_helpers():
    query = Query(
        "q",
        And((Comparison("year", EQ, 1993), Comparison("city", IN, values=("X",)))),
        (Aggregate("sum", "price"), Aggregate("count")),
        group_by=("city",),
    )
    assert query.filter_attributes == ["city", "year"]
    assert query.aggregate_attributes == ["price"]
    assert query.referenced_attributes == ["city", "price", "year"]
    assert attributes_referenced(query.predicate) == {"year", "city"}
    assert conj(None, None) is None
    assert conj(Comparison("a", EQ, 1)) == Comparison("a", EQ, 1)


def test_reference_evaluator_semantics(toy_relation):
    predicate = And((
        Comparison("year", BETWEEN, low=1993, high=1995),
        Or((Comparison("city", EQ, "CITY1"), Comparison("city", EQ, "CITY2"))),
        Comparison("discount", GE, 3),
    ))
    mask = evaluate_predicate(predicate, toy_relation)
    year = toy_relation.column("year")
    city = toy_relation.column("city")
    discount = toy_relation.column("discount")
    expected = ((year >= 1993) & (year <= 1995)
                & ((city == 1) | (city == 2)) & (discount >= 3))
    assert np.array_equal(mask, expected)
    # Unknown dictionary constants select nothing (or everything for !=).
    assert not evaluate_predicate(Comparison("city", EQ, "NOWHERE"), toy_relation).any()
    assert evaluate_predicate(Comparison("city", "!=", "NOWHERE"), toy_relation).all()
    assert evaluate_predicate(None, toy_relation).all()


def test_reference_group_aggregate(toy_relation):
    mask = evaluate_predicate(Comparison("discount", LT, 5), toy_relation)
    result = reference_group_aggregate(
        toy_relation, mask, ("city",),
        (Aggregate("sum", "price"), Aggregate("count"), Aggregate("min", "price")),
    )
    city = toy_relation.column("city")
    price = toy_relation.column("price")
    for code in np.unique(city[mask]):
        rows = mask & (city == code)
        entry = result[(int(code),)]
        assert entry["sum_price"] == int(price[rows].sum())
        assert entry["count"] == int(rows.sum())
        assert entry["min_price"] == int(price[rows].min())


def test_compiled_filter_matches_reference(toy_stored, toy_relation):
    predicate = And((
        Comparison("region", IN, values=("ASIA", "EUROPE")),
        Comparison("price", "<", 500_000),
        Comparison("quantity", BETWEEN, low=10, high=40),
    ))
    layout = toy_stored.layouts[0]
    program = compile_predicate(predicate, toy_relation.schema, layout)
    executor = PimExecutor(DEFAULT_CONFIG)
    executor.run_program(toy_stored.allocations[0].bank, program, pages=1)
    assert np.array_equal(
        toy_stored.filter_mask(), evaluate_predicate(predicate, toy_relation)
    )


def test_compiled_group_predicate(toy_stored, toy_relation):
    layout = toy_stored.layouts[0]
    executor = PimExecutor(DEFAULT_CONFIG)
    base = compile_predicate(
        Comparison("year", EQ, 1995), toy_relation.schema, layout
    )
    executor.run_program(toy_stored.allocations[0].bank, base, pages=1)
    group = compile_group_mask({"city": 4}, layout, layout.filter_column, False)
    executor.run_program(toy_stored.allocations[0].bank, group, pages=1)
    expected = (toy_relation.column("year") == 1995) & (toy_relation.column("city") == 4)
    assert np.array_equal(
        toy_stored.column_bit(0, layout.group_column), expected
    )


def test_compiler_errors(toy_stored, toy_relation):
    layout = toy_stored.layouts[0]
    with pytest.raises(CompilationError):
        compile_predicate(Comparison("missing", EQ, 1), toy_relation.schema, layout)
    with pytest.raises(CompilationError):
        compile_group_predicate({"missing": 1}, layout)


def test_partition_conjuncts_split():
    predicate = And((
        Comparison("price", LT, 10),
        Comparison("city", EQ, "CITY1"),
        Comparison("year", EQ, 1993),
    ))
    parts = partition_conjuncts(
        predicate, [["price", "quantity"], ["city", "year"]]
    )
    assert attributes_referenced(parts[0]) == {"price"}
    assert attributes_referenced(parts[1]) == {"city", "year"}
    assert partition_conjuncts(None, [["a"], ["b"]]) == [None, None]
    with pytest.raises(CompilationError, match="'unknown'.*not stored in any partition"):
        partition_conjuncts(Comparison("unknown", EQ, 1), [["a"], ["b"]])
    spanning = Or((Comparison("a", EQ, 1), Comparison("b", EQ, 1)))
    with pytest.raises(CompilationError, match="spans multiple"):
        partition_conjuncts(spanning, [["a"], ["b"]])


def test_compiler_unknown_attribute_everywhere(toy_stored, toy_relation):
    """Unknown attributes raise CompilationError from every compile surface."""
    layout = toy_stored.layouts[0]
    nested = And((Comparison("price", LT, 10), Comparison("ghost", EQ, 1)))
    with pytest.raises(CompilationError, match="ghost"):
        compile_predicate(nested, toy_relation.schema, layout)
    disjunct = Or((Comparison("ghost", EQ, 1), Comparison("price", LT, 10)))
    with pytest.raises(CompilationError, match="ghost"):
        compile_predicate(disjunct, toy_relation.schema, layout)


#: Raw values of the property's dictionary attribute, inserted in sorted
#: order so that comparing raw values in Python compares their codes.
_DICT_VALUES = tuple(f"v{i:02d}" for i in range(8))
#: Never in the dictionary: sorting before, between and after its values.
_MISSING = ("a", "v03x", "w")
_PYTHON_OPS = {
    EQ: operator.eq, NE: operator.ne, LT: operator.lt,
    LE: operator.le, GT: operator.gt, GE: operator.ge,
}


def _matches(comparison: Comparison, raw, known) -> bool:
    """Plain-Python truth of ``comparison`` on a record holding ``raw``.

    ``known(value)`` says whether a constant is in the attribute's value
    space; an unknown constant matches nothing (everything for ``!=``).
    """
    op = comparison.op
    if op == IN:
        return any(known(value) and raw == value for value in comparison.values)
    if op == BETWEEN:
        low, high = comparison.low, comparison.high
        return known(low) and known(high) and low <= raw <= high
    if not known(comparison.value):
        return op == NE
    return _PYTHON_OPS[op](raw, comparison.value)


@st.composite
def _constant_cases(draw):
    """A small int and dict attribute pair plus one comparison on either,
    with negative and over-width integers, values missing from the
    dictionary, IN lists with duplicates and inverted BETWEEN bounds."""
    int_width = draw(st.integers(1, 4))
    dict_size = draw(st.integers(1, len(_DICT_VALUES)))
    attribute = draw(st.sampled_from(("n", "d")))
    constants = (
        st.one_of(st.integers(-40, 40), st.integers(-(1 << 70), 1 << 70))
        if attribute == "n" else st.sampled_from(_DICT_VALUES + _MISSING)
    )
    op = draw(st.sampled_from((EQ, NE, LT, LE, GT, GE, BETWEEN, IN)))
    if op == IN:
        values = tuple(draw(st.lists(constants, min_size=1, max_size=5)))
        comparison = Comparison(attribute, IN, values=values)
    elif op == BETWEEN:
        comparison = Comparison(attribute, BETWEEN, low=draw(constants), high=draw(constants))
    else:
        comparison = Comparison(attribute, op, draw(constants))
    return int_width, dict_size, comparison


@given(case=_constant_cases())
@example(case=(4, 5, Comparison("d", EQ, "w")))
@example(case=(4, 5, Comparison("d", NE, "v03x")))
@example(case=(4, 5, Comparison("d", IN, values=("a", "v01", "v01", "v07"))))
@example(case=(4, 5, Comparison("n", EQ, 1 << 10)))
@example(case=(4, 5, Comparison("n", LT, 1 << 10)))
@example(case=(4, 5, Comparison("n", BETWEEN, low=0, high=1 << 10)))
@example(case=(4, 5, Comparison("n", BETWEEN, low=9, high=3)))
@example(case=(4, 5, Comparison("n", GT, -3)))
@settings(max_examples=150, deadline=None)
def test_compiler_out_of_domain_constant_folds_like_the_reference(case):
    """Every interpreter of a comparison reads its constants the same way.

    The oracle compares raw values in plain Python for every code of the
    attribute's domain.  The compiled program's bits, the reference
    evaluator and the zone maps of single-value crossbars must equal it; the
    pair sketch's bucket mask must cover the bucket of every matching code;
    a comparison folded to a constant estimates exactly 0.0 or 1.0.
    """
    int_width, dict_size, comparison = case
    present = _DICT_VALUES[:dict_size]
    schema = Schema("p", [int_attribute("n", int_width), dict_attribute("d", present)])
    size = max(1 << int_width, dict_size)
    codes = {
        "n": np.arange(size, dtype=np.uint64) % np.uint64(1 << int_width),
        "d": np.arange(size, dtype=np.uint64) % np.uint64(dict_size),
    }
    relation = Relation(schema, codes)
    column = codes[comparison.attribute]
    if comparison.attribute == "n":
        expected = np.array([_matches(comparison, int(c), lambda _: True) for c in column])
    else:
        expected = np.array([
            _matches(comparison, present[int(c)], present.__contains__) for c in column
        ])

    assert np.array_equal(evaluate_predicate(comparison, relation), expected)

    stored = StoredRelation(relation, PimModule(DEFAULT_CONFIG), label="p")
    program = compile_predicate(comparison, schema, stored.layouts[0])
    PimExecutor(DEFAULT_CONFIG).run_program(stored.allocations[0].bank, program, pages=1)
    assert np.array_equal(stored.filter_mask(), expected)

    zonemaps = ZoneMaps(size, 1, schema)
    zonemaps.rebuild(relation.columns)
    assert np.array_equal(zonemaps.possible(comparison), expected)

    pair = PairZoneMap(("n", "d"), schema, size, 1)
    bucket_mask = pair.bucket_mask(comparison)
    shift = pair.shifts[comparison.attribute]
    for code in column[expected].tolist():
        assert bucket_mask >> min(code >> shift, PAIR_BUCKETS - 1) & 1, code

    folded = encode_comparison(comparison, schema).folded
    if folded is not None:
        assert (expected == folded).all()
        estimate = SelectivityModel.from_relation(relation).estimate(comparison)
        assert estimate == (1.0 if folded else 0.0)


def test_compiler_unsupported_operator_raises(toy_stored, toy_relation):
    """An operator the NOR compiler does not know raises CompilationError."""
    rogue = Comparison("price", LT, 10)
    object.__setattr__(rogue, "op", "like")  # bypass the IR validation
    with pytest.raises(CompilationError, match="unknown operator"):
        compile_predicate(rogue, toy_relation.schema, toy_stored.layouts[0])
    with pytest.raises(CompilationError, match="unknown predicate node"):
        compile_predicate(object(), toy_relation.schema, toy_stored.layouts[0])


def test_partition_conjuncts_atomic_and_spanning_predicates():
    partitions = [["price", "quantity"], ["city", "year"]]
    # A bare comparison is a one-conjunct conjunction.
    parts = partition_conjuncts(Comparison("year", EQ, 1993), partitions)
    assert parts[0] is None and attributes_referenced(parts[1]) == {"year"}
    # A disjunction is atomic: it lands in the partition covering all of it.
    local_or = Or((Comparison("city", EQ, "CITY1"), Comparison("year", EQ, 1993)))
    parts = partition_conjuncts(local_or, partitions)
    assert parts[0] is None and parts[1] is local_or
    # ... and raises when no single partition covers it.
    spanning = Or((Comparison("price", LT, 10), Comparison("year", EQ, 1993)))
    with pytest.raises(CompilationError, match="spans multiple"):
        partition_conjuncts(spanning, partitions)
    # Multiple conjuncts per partition recombine into one conjunction each.
    predicate = And((
        Comparison("price", LT, 10),
        Comparison("quantity", LT, 20),
        Comparison("city", EQ, "CITY1"),
    ))
    parts = partition_conjuncts(predicate, partitions)
    assert isinstance(parts[0], And)
    assert attributes_referenced(parts[0]) == {"price", "quantity"}
    assert attributes_referenced(parts[1]) == {"city"}
