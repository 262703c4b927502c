"""Sharded serving: scatter-gather across PIM modules.

This example splits a sales relation into K=4 horizontal shards, registers
it with a :class:`~repro.service.service.QueryService` via
``register_sharded``, and serves the same workload against the sharded and
an unsharded registration.  It demonstrates the three sharding guarantees:

* **bit-exact** — scatter-gather results equal the unsharded engine's;
* **compile once** — shards share row layouts, so the service's program
  cache compiles each predicate once and replays it on every shard;
* **max-over-shards latency** — the modelled latency of a sharded query is
  the slowest shard plus a small merge term, never the sum of the shards.

Run with::

    python examples/sharded_service.py
"""

import numpy as np

from repro.db.query import Aggregate, And, BETWEEN, Comparison, EQ, IN, Query
from repro.db.relation import Relation
from repro.db.schema import Schema, dict_attribute, int_attribute
from repro.service import QueryService

SHARDS = 4


def build_sales_relation(records: int = 60_000, seed: int = 11) -> Relation:
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
    """Scalar aggregates and GROUP-BYs, with the repeats of a serving loop."""
    summer = Query(
        "revenue_1995",
        And((Comparison("year", EQ, 1995),
             Comparison("discount", BETWEEN, low=1, high=3))),
        (Aggregate("sum", "price", alias="revenue"), Aggregate("count")),
    )
    by_region = Query(
        "revenue_by_region",
        Comparison("quantity", "<", 25),
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
    return [summer, by_region, asia_by_year, summer, by_region]


def main() -> None:
    relation = build_sales_relation()
    # Two independent copies of the data: one served unsharded, one sharded.
    unsharded_copy = Relation(
        relation.schema,
        {name: relation.column(name).copy() for name in relation.schema.names},
    )

    service = QueryService(cache_capacity=256)
    # The shards are modelled as concurrent hardware (max-over-shards) and
    # simulated one after the other on this thread.
    service.register_sharded(
        "sales", relation, shards=SHARDS,
        aggregation_width=24, reserve_bulk_aggregation=False,
    )
    from repro.config import DEFAULT_CONFIG
    from repro.db.storage import StoredRelation
    from repro.pim.module import PimModule

    service.register(
        "sales_unsharded",
        StoredRelation(unsharded_copy, PimModule(DEFAULT_CONFIG),
                       label="sales_unsharded", aggregation_width=24,
                       reserve_bulk_aggregation=False),
    )

    workload = build_workload()
    sharded = service.execute_batch(workload, relation="sales")
    unsharded = service.execute_batch(workload, relation="sales_unsharded")

    print(f"batch of {len(workload)} queries against {len(relation)} records "
          f"in {SHARDS} shards")
    print("\nsharded batch:")
    print(sharded.stats.describe())
    speedup = sharded.stats.metrics().value("sharded_parallel_speedup")
    print(f"modelled parallel speedup over {SHARDS} shards: {speedup:.2f}x")

    print("\nper-query modelled latency, sharded vs unsharded:")
    for s, u in zip(sharded, unsharded):
        slowest = max(s.shard_times_s)
        print(f"  {s.query.name:<20} K={s.shards}: {s.time_s * 1e3:8.3f} ms "
              f"(slowest shard {slowest * 1e3:8.3f} ms, merge "
              f"{s.merge_time_s * 1e9:6.1f} ns) vs unsharded "
              f"{u.time_s * 1e3:8.3f} ms")

    # --- verification ------------------------------------------------------
    # 1. Scatter-gather results are bit-exact with the unsharded engine.
    for s, u in zip(sharded, unsharded):
        assert s.rows == u.rows
    # 2. The sharded latency model is max-over-shards + merge, not the sum.
    for s in sharded:
        assert abs(s.time_s - (max(s.shard_times_s) + s.merge_time_s)) < 1e-15
        assert s.time_s < sum(s.shard_times_s)
    # 3. An UPDATE run on every shard stays consistent everywhere.
    engine = service.engine("sales")
    outcome = service.update(
        Comparison("region", EQ, "EUROPE"), {"region": "ASIA"}, relation="sales"
    )
    update = outcome.result
    touched = sum(1 for result in outcome.results if result.records_updated)
    euro = relation.schema.attribute("region").encode_value("EUROPE")
    # The shards updated their own copies of the records, not ``relation``.
    live = engine.sharded.live_relation()
    assert update.records_updated > 0
    assert int((live.column("region") == euro).sum()) == 0
    assert np.array_equal(engine.sharded.decode_column("region"), live.column("region"))
    print(f"\nupdate touched {touched}/{SHARDS} shards "
          f"({update.records_updated} records)")
    print("sharded results verified against the unsharded engine")


if __name__ == "__main__":
    main()
