"""UPDATE a pre-joined relation in memory with Algorithm 1.

Pre-joined relations duplicate dimension data: when a customer moves to a new
city, every one of their lineorders carries the stale value.  Section III of
the paper argues this maintenance cost is small in bulk-bitwise PIM because
the update runs entirely inside the memory: a PIM filter selects the affected
records, and the in-memory multiplexer of Algorithm 1 overwrites the
attribute — the host never reads a single record.

Run with::

    python examples/update_in_place.py
"""

from repro.config import DEFAULT_CONFIG
from repro.db.query import And, Comparison, EQ
from repro.db.storage import StoredRelation
from repro.pim.module import PimModule
from repro.service import QueryService
from repro.ssb import build_ssb_prejoined, generate
from repro.ssb.prejoined import max_aggregated_width


def main() -> None:
    dataset = generate(scale_factor=0.005, skew=0.5)
    prejoined = build_ssb_prejoined(dataset.database)
    module = PimModule(DEFAULT_CONFIG)
    stored = StoredRelation(prejoined, module, label="ssb",
                            aggregation_width=max_aggregated_width(prejoined),
                            reserve_bulk_aggregation=False)
    service = QueryService()
    service.register("ssb", stored, config=DEFAULT_CONFIG)

    customer_key = int(prejoined.column("lo_custkey")[0])
    old_city = prejoined.schema.attribute("c_city").decode_value(
        int(prejoined.column("c_city")[0])
    )
    print(f"customer {customer_key} currently listed in city {old_city!r}")
    print("moving the customer to 'UNITED KI1' with an in-memory UPDATE ...")

    outcome = service.update(
        And((Comparison("lo_custkey", EQ, customer_key),)),
        {"c_city": "UNITED KI1"},
    )
    result, stats = outcome.result, outcome.stats

    print(f"records rewritten in place : {result.records_updated}")
    print(f"filter program cycles      : {result.filter_cycles}")
    print(f"Algorithm-1 update cycles  : {result.update_cycles}")
    print(f"host cache lines read      : {stats.host_lines_read} "
          f"(the update moves no records to the host)")
    print(f"simulated latency          : {stats.total_time_s * 1e6:.1f} us")

    # Every duplicated copy of the customer's city now holds the new value.
    mask = stored.relation.column("lo_custkey") == customer_key
    decoded = stored.decode_column("c_city")[mask]
    new_code = prejoined.schema.attribute("c_city").encode_value("UNITED KI1")
    assert (decoded == new_code).all()
    print("verified: every duplicated dimension value was rewritten")


if __name__ == "__main__":
    main()
