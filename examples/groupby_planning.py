"""Inspect the hybrid GROUP-BY planner's decision for an SSB query.

The paper's GROUP-BY technique (Section IV) samples one 2 MB page, estimates
the size of every candidate subgroup, and then chooses how many subgroups
``k`` to aggregate with PIM by minimising the Eq. (3) cost model.  This
example exposes that decision: it prints the sampled subgroup sizes, the
fitted latency-model tables, the predicted cost of the all-host / all-PIM /
chosen plans, and finally runs the query to show the measured outcome,
checking its rows against the columnar engine.

Run with::

    python examples/groupby_planning.py [query] [scale_factor]
"""

import sys

from repro.columnar import ColumnarEngine
from repro.config import DEFAULT_CONFIG
from repro.core.executor import PimQueryEngine
from repro.db.storage import StoredRelation
from repro.pim.module import PimModule
from repro.ssb import ALL_QUERIES, DERIVED_ATTRIBUTES, build_ssb_prejoined, generate
from repro.ssb.datagen import LINEORDERS_PER_SF
from repro.ssb.prejoined import max_aggregated_width


def main(query_name: str = "Q3.2", scale_factor: float = 0.01) -> None:
    dataset = generate(scale_factor=scale_factor, skew=0.5)
    prejoined = build_ssb_prejoined(dataset.database)
    timing_scale = LINEORDERS_PER_SF * 10.0 / len(prejoined)
    module = PimModule(DEFAULT_CONFIG)
    stored = StoredRelation(prejoined, module, label="ssb",
                            aggregation_width=max_aggregated_width(prejoined),
                            reserve_bulk_aggregation=False)
    engine = PimQueryEngine(stored, label="one_xb", timing_scale=timing_scale)

    query = ALL_QUERIES[query_name]
    print(f"query {query_name}: group by {query.group_by}, "
          f"aggregating {query.aggregate_attributes}")

    print("\npim-gb latency model (Eq. 2 lookup tables):")
    for n, slope in sorted(engine.cost_model.pim.slope_table.items()):
        intercept = engine.cost_model.pim.intercept_table[n]
        print(f"  n={n}: slope={slope * 1e6:.3f} us/page, T0={intercept * 1e6:.1f} us")
    print("host-gb latency model (Eq. 1 lookup tables):")
    for s in sorted(engine.cost_model.host.a):
        print(f"  s={s}: a={engine.cost_model.host.a[s] * 1e6:.3f} us/page, "
              f"b={engine.cost_model.host.b[s] * 1e6:.3f} us/page")

    execution = engine.execute(query)
    plan = execution.plan
    estimate = plan.estimate
    print(f"\nsampled one 2MB page: {estimate.sample_selected} of "
          f"{estimate.sample_size} records passed the filter "
          f"(estimated selectivity {estimate.selectivity:.2e})")
    print(f"candidate subgroups: {plan.total_subgroups} "
          f"({estimate.observed_subgroups} observed in the sample)")
    largest = estimate.ordered_groups[:5]
    print("largest estimated subgroups (fraction of selected records):")
    for key in largest:
        print(f"  {key}: {estimate.group_fractions.get(key, 0.0):.3f}")

    print(f"\npredicted all-host latency : {plan.predicted_host_only_s * 1e3:.2f} ms")
    print(f"predicted all-PIM latency  : {plan.predicted_pim_only_s * 1e3:.2f} ms")
    print(f"chosen k = {plan.k} -> predicted {plan.predicted_time_s * 1e3:.2f} ms")
    print(f"measured latency           : {execution.time_s * 1e3:.2f} ms "
          f"({len(execution.rows)} result groups)")

    columnar = ColumnarEngine(DEFAULT_CONFIG, derived=DERIVED_ATTRIBUTES)
    assert execution.rows == columnar.execute_prejoined(query, prejoined).rows
    print("result rows verified against the columnar engine")


if __name__ == "__main__":
    query = sys.argv[1] if len(sys.argv) > 1 else "Q3.2"
    sf = float(sys.argv[2]) if len(sys.argv) > 2 else 0.01
    main(query, sf)
