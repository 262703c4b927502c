"""Tests of the SSB schemas, data generator and query definitions."""

import datetime

import numpy as np
import pytest

from repro.db.query import evaluate_predicate
from repro.ssb import ALL_QUERIES, QUERY_ORDER, generate, ssb_query
from repro.ssb import schema as ssb_schema
from repro.ssb.datagen import (
    MAX_LINES_PER_ORDER,
    MIN_CUSTOMERS,
    MIN_PARTS,
    MIN_SUPPLIERS,
)
from repro.ssb.prejoined import DERIVED_ATTRIBUTES, max_aggregated_width, two_xb_partitions
from repro.ssb.queries import SSB_QUERIES, queries_in_group


def test_value_domains():
    assert len(ssb_schema.REGIONS) == 5
    assert len(ssb_schema.NATIONS) == 25
    assert len(ssb_schema.CITIES) == 250
    assert len(ssb_schema.CATEGORIES) == 25
    assert len(ssb_schema.BRANDS) == 1000
    assert "UNITED STATES" in ssb_schema.NATIONS
    assert ssb_schema.NATION_REGION["JAPAN"] == "ASIA"
    assert ssb_schema.city_name("UNITED KINGDOM", 1) == "UNITED KI1"
    assert "UNITED KI1" in ssb_schema.CITIES
    assert "MFGR#2239" in ssb_schema.BRANDS


def test_brand_dictionary_preserves_order():
    """Range predicates on brands rely on order-preserving dictionary codes."""
    schema = ssb_schema.part_schema(1000)
    brand = schema.attribute("p_brand1")
    low = brand.encode_value("MFGR#2221")
    high = brand.encode_value("MFGR#2228")
    other = brand.encode_value("MFGR#2230")
    assert low < high < other


def test_generator_sizes_and_keys(ssb_dataset):
    assert len(ssb_dataset.customer) >= MIN_CUSTOMERS
    assert len(ssb_dataset.supplier) >= MIN_SUPPLIERS
    assert len(ssb_dataset.part) >= MIN_PARTS
    assert len(ssb_dataset.date) == 2557 or len(ssb_dataset.date) == 2556
    # Foreign keys always reference existing dimension records.
    for fk in ssb_dataset.database.foreign_keys:
        fact_keys = ssb_dataset.lineorder.column(fk.fact_attribute)
        dim_keys = ssb_dataset.database.relation(fk.dimension).column(fk.dimension_key)
        assert np.isin(fact_keys, dim_keys).all()
    # Value ranges of the measure attributes.
    lineorder = ssb_dataset.lineorder
    assert lineorder.column("lo_discount").max() <= 10
    assert 1 <= lineorder.column("lo_quantity").min()
    assert lineorder.column("lo_quantity").max() <= 50
    assert (lineorder.column("lo_revenue") >= lineorder.column("lo_supplycost")).all()


def test_generator_is_deterministic_and_skewed():
    a = generate(scale_factor=0.002, skew=0.8, seed=5)
    b = generate(scale_factor=0.002, skew=0.8, seed=5)
    assert np.array_equal(a.lineorder.column("lo_custkey"), b.lineorder.column("lo_custkey"))
    # Skewed generation concentrates lineorders on few customers compared to
    # the uniform population.
    uniform = generate(scale_factor=0.002, skew=0.0, seed=5)
    def top_share(dataset):
        _, counts = np.unique(dataset.lineorder.column("lo_custkey"), return_counts=True)
        counts.sort()
        return counts[-10:].sum() / counts.sum()
    assert top_share(a) > top_share(uniform)
    with pytest.raises(ValueError):
        generate(scale_factor=0.0)


def test_generated_date_and_linenumber_columns_match_the_per_row_loops(ssb_dataset):
    """The column-wise DATE dimension and ``lo_linenumber`` equal the
    day-by-day and line-by-line loops they replaced (``datetime`` arithmetic
    and a running count per order)."""
    date = ssb_dataset.date
    schema = date.schema
    seasons = {12: "Christmas", 1: "Winter", 2: "Winter", 3: "Spring", 4: "Spring",
               5: "Spring", 6: "Summer", 7: "Summer", 8: "Summer", 9: "Fall",
               10: "Fall", 11: "Fall"}
    weekdays = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday",
                "Saturday", "Sunday")

    def code(name, raw):
        return schema.attribute(name).dictionary.encode_existing(raw)

    first = datetime.date(ssb_schema.FIRST_YEAR, 1, 1)
    for index, record in enumerate(date.records()):
        day = first + datetime.timedelta(days=index)
        month_name = ssb_schema.MONTH_NAMES[day.month - 1]
        assert schema.attribute("d_datekey").dictionary.decode(record["d_datekey"]) == (
            day.year * 10000 + day.month * 100 + day.day
        )
        assert {name: record[name] for name in schema.names
                if name not in ("d_datekey", "d_holidayfl")} == {
            "d_dayofweek": code("d_dayofweek", weekdays[day.weekday()]),
            "d_month": code("d_month", month_name),
            "d_year": day.year,
            "d_yearmonthnum": code("d_yearmonthnum", day.year * 100 + day.month),
            "d_yearmonth": code("d_yearmonth", f"{month_name}{day.year}"),
            "d_daynuminweek": day.isoweekday(),
            "d_daynuminmonth": day.day,
            "d_daynuminyear": day.timetuple().tm_yday,
            "d_monthnuminyear": day.month,
            "d_weeknuminyear": min(53, day.isocalendar()[1]),
            "d_sellingseason": code("d_sellingseason", seasons[day.month]),
            "d_lastdayinweekfl": int(day.weekday() == 6),
            "d_lastdayinmonthfl": int((day + datetime.timedelta(days=1)).month != day.month),
            "d_weekdayfl": int(day.weekday() < 5),
        }, day
    assert int(date.column("d_holidayfl").sum()) == max(7, len(date) // 70)

    orders = ssb_dataset.lineorder.column("lo_orderkey").tolist()
    running, expected = 0, []
    for index, order in enumerate(orders):
        running = running + 1 if index and order == orders[index - 1] else 1
        expected.append(min(running, MAX_LINES_PER_ORDER))
    assert ssb_dataset.lineorder.column("lo_linenumber").tolist() == expected
    assert max(expected) == MAX_LINES_PER_ORDER


def test_covering_assignment_guarantees_query_constants(ssb_dataset):
    def decoded(relation, name):
        return set(map(relation.schema.attribute(name).decode_value, relation.column(name)))

    customer_cities = decoded(ssb_dataset.customer, "c_city")
    supplier_cities = decoded(ssb_dataset.supplier, "s_city")
    assert {"UNITED KI1", "UNITED KI5"} <= customer_cities
    assert {"UNITED KI1", "UNITED KI5"} <= supplier_cities
    brands = decoded(ssb_dataset.part, "p_brand1")
    assert "MFGR#2239" in brands


def test_query_catalogue_structure():
    assert len(QUERY_ORDER) == 13
    assert set(ALL_QUERIES) == set(QUERY_ORDER)
    assert queries_in_group(1) == ["Q1.1", "Q1.2", "Q1.3"]
    assert len(queries_in_group(3)) == 4
    with pytest.raises(KeyError):
        ssb_query("Q9.9")
    for entry in SSB_QUERIES.values():
        assert entry.sql.startswith("select")
        if entry.group == 1:
            assert entry.query.group_by == ()
            assert entry.query.aggregates[0].attribute == "lo_revenue_discounted"
        else:
            assert entry.query.group_by
        if entry.group == 4:
            assert entry.query.aggregates[0].attribute == "lo_profit"


def test_query_selectivities_are_ordered_like_the_paper(ssb_prejoined):
    """Within each flight, selectivity drops from the .1 to the .3/.4 query."""
    def selectivity(name):
        query = ALL_QUERIES[name]
        return evaluate_predicate(query.predicate, ssb_prejoined).mean()

    assert selectivity("Q1.1") > selectivity("Q1.2") > selectivity("Q1.3")
    assert selectivity("Q2.1") > selectivity("Q2.3")
    assert selectivity("Q3.1") > selectivity("Q3.2") > selectivity("Q3.3")
    assert selectivity("Q4.1") > selectivity("Q4.3")


def test_prejoined_record_fits_single_crossbar_row(ssb_prejoined):
    assert ssb_prejoined.schema.record_width + 4 <= 512
    assert max_aggregated_width(ssb_prejoined) == 28
    fact_part, dim_part = two_xb_partitions(ssb_prejoined)
    assert "lo_revenue" in fact_part and "lo_profit" in fact_part
    assert "c_city" in dim_part and "d_year" in dim_part
    assert set(fact_part) | set(dim_part) == set(ssb_prejoined.schema.names)
    assert not (set(fact_part) & set(dim_part))
    assert {d.name for d in DERIVED_ATTRIBUTES} <= set(fact_part)
