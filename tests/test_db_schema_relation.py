"""Tests of schemas, dictionaries and in-memory relations."""

import numpy as np
import pytest

from repro.db.relation import Relation, concatenate
from repro.db.schema import (
    Attribute,
    Dictionary,
    Schema,
    dict_attribute,
    int_attribute,
    width_for_count,
)


def test_dictionary_roundtrip_and_width():
    dictionary = Dictionary(["b", "a", "c"])
    assert dictionary.encode("a") == 1
    assert dictionary.decode(2) == "c"
    assert dictionary.encode("new") == 3
    assert "new" in dictionary
    with pytest.raises(KeyError):
        dictionary.encode_existing("missing")


def test_attribute_validation_and_value_translation():
    with pytest.raises(ValueError):
        Attribute("too_wide", 65)
    with pytest.raises(ValueError):
        Attribute("bad_kind", 8, kind="float")
    city = dict_attribute("city", ["X", "Y"])
    assert city.encode_value("Y") == 1
    assert city.decode_value(0) == "X"
    plain = int_attribute("k", 4)
    assert plain.max_value == 15
    assert plain.encode_value(7) == 7


def test_width_for_count():
    assert width_for_count(1) == 1
    assert width_for_count(2) == 1
    assert width_for_count(3) == 2
    assert width_for_count(1000) == 10


def test_schema_lookup_subset_and_duplicates():
    schema = Schema("s", [int_attribute("a", 4), int_attribute("b", 8)])
    assert schema.record_width == 12
    assert schema.names == ["a", "b"]
    assert "a" in schema and "c" not in schema
    with pytest.raises(KeyError):
        schema.attribute("c")
    subset = schema.subset(["b"])
    assert subset.names == ["b"]
    with pytest.raises(ValueError):
        Schema("dup", [int_attribute("a", 4), int_attribute("a", 4)])


def test_relation_validation_and_operations():
    schema = Schema("r", [int_attribute("a", 4), int_attribute("b", 8)])
    with pytest.raises(ValueError):
        Relation(schema, {"a": np.array([1], dtype=np.uint64)})
    with pytest.raises(ValueError):
        Relation(schema, {"a": np.array([99], dtype=np.uint64),
                          "b": np.array([1], dtype=np.uint64)})
    relation = Relation(schema, {
        "a": np.array([1, 2, 3], dtype=np.uint64),
        "b": np.array([10, 20, 30], dtype=np.uint64),
    })
    assert len(relation) == 3
    selected = relation.select(np.array([True, False, True]))
    assert list(selected.column("b")) == [10, 30]
    assert relation.records([0]) == [{"a": 1, "b": 10}]
    both = concatenate([relation, relation])
    assert len(both) == 6
    assert relation.nbytes > 0

