"""Batched query serving: the QueryService API.

This example stores a sales relation in the simulated PIM module, registers
it with a :class:`~repro.service.service.QueryService`, and serves a mixed
batch of analytical queries twice, every query on the PIM engine (the cost
router is off: on this small relation it would host-scan every query, and
the program cache would then see only the router's pricing lookups of the
cold pass).  The service shares one compiled-program cache across the batch
(the second replay compiles nothing: every lookup hits) and evaluates every
filter on the stored bits through the same kernels as a plain sequential
engine — the example verifies its rows against one.

Run with::

    python examples/service_batch.py
"""

import numpy as np

from repro.config import DEFAULT_CONFIG
from repro.core.executor import PimQueryEngine
from repro.db.query import Aggregate, And, BETWEEN, Comparison, EQ, IN, Query
from repro.db.relation import Relation
from repro.db.schema import Schema, dict_attribute, int_attribute
from repro.db.storage import StoredRelation
from repro.pim.module import PimModule
from repro.service import QueryService


def build_sales_relation(records: int = 50_000, seed: int = 7) -> Relation:
    """A toy sales table: price, discount, quantity, region, year."""
    rng = np.random.default_rng(seed)
    regions = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
    schema = Schema("sales", [
        int_attribute("price", 24),
        int_attribute("discount", 4),
        int_attribute("quantity", 6),
        dict_attribute("region", regions),
        int_attribute("year", 11),
    ])
    return Relation(schema, {
        "price": rng.integers(1_000, 5_000_000, records).astype(np.uint64),
        "discount": rng.integers(0, 11, records).astype(np.uint64),
        "quantity": rng.integers(1, 51, records).astype(np.uint64),
        "region": rng.integers(0, len(regions), records).astype(np.uint64),
        "year": rng.integers(1992, 1999, records).astype(np.uint64),
    })


def build_workload() -> list:
    """A mixed batch: scalar aggregates and GROUP-BYs, with repeats."""
    summer = Query(
        "revenue_1995",
        And((Comparison("year", EQ, 1995),
             Comparison("discount", BETWEEN, low=1, high=3))),
        (Aggregate("sum", "price", alias="revenue"), Aggregate("count")),
    )
    by_region = Query(
        "revenue_by_region",
        And((Comparison("year", BETWEEN, low=1994, high=1996),
             Comparison("quantity", "<", 25))),
        (Aggregate("sum", "price", alias="revenue"),
         Aggregate("min", "price"), Aggregate("max", "price")),
        group_by=("region",),
    )
    asia_by_year = Query(
        "asia_by_year",
        Comparison("region", IN, values=("ASIA", "EUROPE")),
        (Aggregate("sum", "price", alias="revenue"), Aggregate("count")),
        group_by=("year",),
    )
    # Repeats within the batch are what a serving workload looks like —
    # and what the program cache exploits.
    return [summer, by_region, asia_by_year, summer, by_region]


def main() -> None:
    relation = build_sales_relation()
    module = PimModule(DEFAULT_CONFIG)
    stored = StoredRelation(relation, module, label="sales",
                            aggregation_width=24, reserve_bulk_aggregation=False)

    # --- the service API ---------------------------------------------------
    # One service, any number of registered relations; engines share the
    # service's program cache.  planner=False keeps every query on PIM.
    service = QueryService(cache_capacity=256, planner=False)
    service.register("sales", stored)

    workload = build_workload()
    first = service.execute_batch(workload)           # cold cache
    second = service.execute_batch(workload)          # warm cache

    print(f"batch of {len(workload)} queries against "
          f"{stored.num_records} stored records")
    # describe() prints the same registry metrics() exports, one line per
    # section (service, program_cache, planner, ...).
    print("\nfirst replay (cold cache):")
    print(first.stats.describe())
    print("\nsecond replay (warm cache):")
    print(second.stats.describe())
    warm = second.stats.metrics()
    assert warm.value("program_cache_misses") == 0
    assert warm.value("program_cache_hits") == len(workload)   # one filter each
    assert warm.value("planner_pim_queries") == len(workload)

    print("\nper-query modelled latency (warm replay):")
    for execution in second:
        print(f"  {execution.query.name:<20} {execution.time_s * 1e3:8.3f} ms  "
              f"{len(execution.rows)} row(s)")

    # --- verification ------------------------------------------------------
    # The service must be bit-exact with sequential gate-level execution.
    sequential = PimQueryEngine(stored, label="sequential")
    for execution, query in zip(second, workload):
        assert execution.rows == sequential.execute(query).rows
    print("\nbatch results verified against the sequential gate-level engine")


if __name__ == "__main__":
    main()
