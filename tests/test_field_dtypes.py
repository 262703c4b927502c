"""The ground truth holds every column in its field's own dtype.

``Relation`` stores attribute ``a`` as ``field_dtype(a.width)`` from the
moment it is built until it is dropped, and every writer (INSERT into reused
and appended slots, UPDATE, DELETE, compaction, horizontal sharding and
``live_relation()``) keeps that dtype.  Arithmetic that can overflow a narrow
dtype widens explicitly: the overflow tests below put values near their
dtype's maximum through every aggregation path and the derived attributes.
"""

import numpy as np
import pytest
from twins import all_pim_cost_model, reference_group_aggregate

from repro.columnar.cost import ColumnarCost
from repro.columnar.operators import group_aggregate
from repro.config import DEFAULT_CONFIG
from repro.core.executor import PimQueryEngine
from repro.core.prejoin import DerivedAttribute
from repro.db.dml import execute_compaction, execute_delete, execute_insert
from repro.db.query import Aggregate, Comparison, Query
from repro.db.relation import Relation, field_values
from repro.db.schema import Schema, int_attribute
from repro.db.storage import StoredRelation
from repro.db.update import execute_update
from repro.host.aggregator import host_group_aggregate
from repro.pim.controller import PimExecutor
from repro.pim.module import PimModule
from repro.pim.packed import field_dtype
from repro.service import QueryService

CONFIG = DEFAULT_CONFIG.with_backend("packed")
#: One attribute on each side of every dtype boundary.
WIDTHS = {"flag": 3, "byte": 8, "short": 9, "word": 16, "mid": 17,
          "int": 32, "wide": 33, "full": 64}


def _relation(records: int = 700, seed: int = 5) -> Relation:
    rng = np.random.default_rng(seed)
    schema = Schema("dtypes", [int_attribute(n, w) for n, w in WIDTHS.items()])
    return Relation(schema, {
        a.name: rng.integers(0, a.max_value, records, dtype=np.uint64, endpoint=True)
        for a in schema
    })


def assert_field_dtypes(relation: Relation) -> None:
    """Every column is ``field_dtype(width)`` and ``nbytes`` counts just that."""
    for attribute in relation.schema:
        column = relation.columns[attribute.name]
        assert column.dtype == field_dtype(attribute.width), attribute.name
        assert len(column) == len(relation), attribute.name
    assert relation.nbytes == sum(
        len(relation) * field_dtype(a.width).itemsize for a in relation.schema
    )


def test_every_writer_keeps_the_field_dtype():
    relation = _relation()
    assert_field_dtypes(relation)
    stored = StoredRelation(relation, PimModule(CONFIG), label="dtypes",
                            reserve_bulk_aggregation=False)
    executor = PimExecutor(CONFIG)
    assert_field_dtypes(stored.relation)                          # load

    deleted = execute_delete(stored, Comparison("word", "<", 1 << 14), executor)
    assert deleted.records_deleted > 20
    assert_field_dtypes(stored.relation)                          # DELETE

    records = _relation(deleted.records_deleted + 40, seed=6).records()
    reused = execute_insert(stored, records[:20], executor)
    assert (reused.reused_slots, reused.appended_slots) == (20, 0)
    assert_field_dtypes(stored.relation)                          # reused slots
    appended = execute_insert(stored, records[20:], executor)
    assert appended.appended_slots == 40
    assert_field_dtypes(stored.relation)                          # appended slots

    updated = execute_update(
        stored, Comparison("flag", "==", 7), {"byte": 255, "full": (1 << 64) - 1},
        executor,
    )
    assert updated.records_updated > 0
    assert_field_dtypes(stored.relation)                          # UPDATE

    execute_delete(stored, Comparison("short", ">", 400), executor)
    compaction = execute_compaction(stored, executor, force=True)
    assert compaction.performed
    assert_field_dtypes(stored.relation)                          # compaction
    assert_field_dtypes(stored.live_relation())
    for name in WIDTHS:
        assert np.array_equal(stored.decode_column(name), stored.relation.column(name))


def test_sharded_registration_and_its_dml_keep_the_field_dtype():
    relation = _relation()
    service = QueryService(tracing=False)
    engine = service.register_sharded(
        "t", relation, shards=4, config=CONFIG, reserve_bulk_aggregation=False,
    )
    sharded = engine.sharded
    assert len(sharded.shards) == 4

    def check() -> None:
        for shard in sharded.shards:
            assert_field_dtypes(shard.relation)
        assert_field_dtypes(sharded.live_relation())

    check()                                                       # registration
    service.delete(Comparison("word", "<", 1 << 14))
    check()
    service.insert(_relation(30, seed=8).records())
    check()
    service.update(Comparison("flag", "==", 1), {"mid": (1 << 17) - 1})
    check()
    service.compact(force=True)
    check()
    service.close()


def test_an_over_width_value_is_refused_before_it_is_narrowed():
    attribute = int_attribute("flag", 3)
    with pytest.raises(ValueError, match="'flag'.* 3 bits"):
        field_values(attribute, np.array([1, 256], dtype=np.uint64))  # 256 wraps to 0 in uint8
    with pytest.raises(ValueError, match="'flag'.* 3 bits"):
        field_values(attribute, np.array([1, 8], dtype=np.uint8))
    with pytest.raises(ValueError, match="'flag'.* 3 bits"):
        field_values(attribute, np.array([1, -1], dtype=np.int64))
    column = np.array([1, 7], dtype=np.uint8)
    assert field_values(attribute, column) is column              # no copy


# ------------------------------------------------------------------ overflow
def _near_max_relation(records: int = 600) -> Relation:
    """Values within a few units of each dtype's maximum, two groups."""
    schema = Schema("near", [
        int_attribute("g", 1),
        int_attribute("b", 8),
        int_attribute("s", 16),
        int_attribute("w", 32),
    ])
    rng = np.random.default_rng(3)
    return Relation(schema, {
        "g": np.arange(records) % 2,
        "b": 255 - rng.integers(0, 3, records),
        "s": 65535 - rng.integers(0, 3, records),
        "w": (1 << 32) - 1 - rng.integers(0, 3, records),
    })


def _exact_sums(relation: Relation, group: bool) -> dict:
    keys = relation.column("g").tolist() if group else [None] * len(relation)
    sums: dict = {}
    for index, key in enumerate(keys):
        entry = sums.setdefault(() if key is None else (key,), {})
        for name in ("b", "s", "w"):
            entry[f"sum_{name}"] = entry.get(f"sum_{name}", 0) + int(
                relation.column(name)[index]
            )
    return sums


SUMS = tuple(Aggregate("sum", name) for name in ("b", "s", "w"))


@pytest.mark.parametrize("group", [False, True])
def test_sums_over_a_narrow_dtype_are_exact_on_every_path(group):
    relation = _near_max_relation()
    assert relation.column("b").dtype == np.uint8
    expected = _exact_sums(relation, group)
    assert expected[next(iter(expected))]["sum_b"] > 255
    group_by = ("g",) if group else ()
    selected = np.ones(len(relation), dtype=bool)

    assert reference_group_aggregate(relation, selected, group_by, SUMS) == expected

    group_columns = {name: relation.column(name) for name in group_by}
    values = {name: relation.column(name) for name in ("b", "s", "w")}
    assert host_group_aggregate(
        group_columns, values, SUMS, CONFIG.host
    ) == expected
    # repro.columnar aggregates through its own hash aggregation.
    assert group_aggregate(group_columns, values, SUMS, ColumnarCost()) == expected

    # The PIM aggregation circuit (scalar) and pim-gb (all-PIM GROUP-BY).
    stored = StoredRelation(relation, PimModule(CONFIG), label="near",
                            reserve_bulk_aggregation=False)
    engine = PimQueryEngine(stored, cost_model=all_pim_cost_model())
    execution = engine.execute(Query("near-sum", None, SUMS, group_by=group_by))
    assert execution.rows == expected


def test_a_derived_product_over_narrow_inputs_is_exact():
    left = np.array([255, 200, 1], dtype=np.uint8)
    right = np.array([255, 3, 0], dtype=np.uint8)
    product = DerivedAttribute("p", "mul", "l", "r", width=16).compute(
        {"l": left, "r": right}
    )
    assert product.dtype == np.uint16
    assert product.tolist() == [65025, 600, 0]
    total = DerivedAttribute("t", "add", "l", "r", width=9).compute(
        {"l": left, "r": right}
    )
    assert total.dtype == np.uint16 and total.tolist() == [510, 203, 1]
    with pytest.raises(ValueError, match="overflows 8 bits"):
        DerivedAttribute("p", "mul", "l", "r", width=8).compute({"l": left, "r": right})
