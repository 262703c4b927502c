"""Tests of the pre-join builder, latency models, sampling and planner."""

import numpy as np
import pytest

from repro.config import DEFAULT_CONFIG
from repro.core.groupby import GroupByPlanner
from repro.core.latency_model import (
    GroupByCostModel,
    HostGbLatencyModel,
    HostGbMeasurement,
    PimGbLatencyModel,
    PimGbMeasurement,
    build_analytic_cost_model,
    predict_host_gb,
    predict_pim_gb,
)
from repro.core.prejoin import DerivedAttribute, build_prejoined_relation, storage_overhead
from repro.core.sampling import SubgroupEstimate, estimate_subgroups
from repro.db.compiler import compile_predicate
from repro.db.query import Comparison, EQ
from repro.db.storage import StoredRelation
from repro.pim.controller import PimExecutor
from repro.pim.module import PimModule


# ----------------------------------------------------------------- pre-join
def test_prejoin_joins_every_dimension(ssb_dataset, ssb_prejoined):
    fact = ssb_dataset.lineorder
    assert len(ssb_prejoined) == len(fact)
    # Spot-check the join against a manual lookup.
    index = 17
    custkey = int(fact.column("lo_custkey")[index])
    customer = ssb_dataset.customer
    position = int(np.nonzero(customer.column("c_custkey") == custkey)[0][0])
    assert int(ssb_prejoined.column("c_city")[index]) == int(
        customer.column("c_city")[position]
    )
    # Derived attributes are materialised correctly.
    expected = (fact.column("lo_extendedprice").astype(np.int64)
                * fact.column("lo_discount").astype(np.int64))
    assert np.array_equal(
        ssb_prejoined.column("lo_revenue_discounted").astype(np.int64), expected
    )
    profit = (fact.column("lo_revenue").astype(np.int64)
              - fact.column("lo_supplycost").astype(np.int64))
    assert np.array_equal(ssb_prejoined.column("lo_profit").astype(np.int64), profit)


def test_prejoin_rejects_dangling_foreign_key(ssb_dataset):
    from repro.db.catalog import Database, ForeignKey

    broken = Database(
        relations=dict(ssb_dataset.database.relations),
        fact="lineorder",
        # Extended prices are far larger than any customer key, so this
        # foreign key dangles for (at least) some fact records.
        foreign_keys=[ForeignKey("lo_extendedprice", "customer", "c_custkey")],
    )
    with pytest.raises(ValueError):
        build_prejoined_relation(broken)


def test_derived_attribute_validation(ssb_dataset):
    with pytest.raises(ValueError):
        DerivedAttribute("bad", "mod", "lo_revenue", "lo_supplycost", 24).compute(
            {"lo_revenue": np.array([1]), "lo_supplycost": np.array([1])}
        )
    with pytest.raises(ValueError):
        DerivedAttribute("neg", "sub", "a", "b", 24).compute(
            {"a": np.array([1]), "b": np.array([2])}
        )
    with pytest.raises(ValueError):
        DerivedAttribute("overflow", "mul", "a", "b", 4).compute(
            {"a": np.array([100]), "b": np.array([100])}
        )


def test_storage_overhead_report(ssb_dataset, ssb_prejoined):
    report = storage_overhead(ssb_dataset.database, ssb_prejoined)
    assert report.fact_records == len(ssb_dataset.lineorder)
    assert report.prejoined_record_bits > report.fact_record_bits
    assert report.fits_in_single_row
    assert report.extra_pages_one_xb == 0
    assert report.prejoined_pages_two_xb == 2 * report.fact_pages
    assert 0 < report.row_utilisation <= 1.0


# ------------------------------------------------------------ latency models
def test_host_gb_model_fit_and_predict():
    truth_a, truth_b = {2: 3e-5, 4: 6e-5}, {2: 1e-5, 4: 2e-5}
    points = [
        HostGbMeasurement(pages, s, r, pages * (truth_a[s] * np.sqrt(r) + truth_b[s]))
        for pages in (50, 100, 400)
        for s in (2, 4)
        for r in (0.01, 0.1, 0.5, 0.9)
    ]
    model = HostGbLatencyModel.fit(points)
    for s in (2, 4):
        assert model.a[s] == pytest.approx(truth_a[s], rel=1e-6)
        assert model.b[s] == pytest.approx(truth_b[s], rel=1e-6)
    # Nearest-key lookup for unseen s.
    assert model.predict(100, 3, 0.25) > 0
    assert model.slope(4, 0.81) > model.slope(4, 0.01)
    with pytest.raises(ValueError):
        HostGbLatencyModel.fit([])


def test_pim_gb_model_fit_and_predict():
    points = [
        PimGbMeasurement(pages, n, pages * n * 1e-7 + 3e-5)
        for pages in (64, 256, 512)
        for n in (1, 2, 4)
    ]
    model = PimGbLatencyModel.fit(points)
    assert model.predict(256, 2) == pytest.approx(256 * 2e-7 + 3e-5, rel=1e-6)
    assert model.predict(256, 3) > 0  # nearest key
    single = PimGbLatencyModel.fit([PimGbMeasurement(100, 1, 1e-3)])
    assert single.predict(100, 1) == pytest.approx(1e-3)


def test_analytic_predictors_shape():
    cfg = DEFAULT_CONFIG
    # host-gb grows with M, r and s.
    assert predict_host_gb(cfg, 400, 4, 0.4) > predict_host_gb(cfg, 100, 4, 0.4)
    assert predict_host_gb(cfg, 400, 4, 0.4) > predict_host_gb(cfg, 400, 4, 0.01)
    assert predict_host_gb(cfg, 400, 8, 0.4) > predict_host_gb(cfg, 400, 2, 0.4)
    # pim-gb grows with M and n, and the bulk-bitwise variant is slower.
    assert predict_pim_gb(cfg, 400, 2) > predict_pim_gb(cfg, 100, 2)
    assert predict_pim_gb(cfg, 400, 2, use_aggregation_circuit=False) > predict_pim_gb(
        cfg, 400, 2, use_aggregation_circuit=True
    )
    assert predict_pim_gb(cfg, 400, 2, transfer_per_subgroup=True) > predict_pim_gb(
        cfg, 400, 2, transfer_per_subgroup=False
    )


def test_cost_model_choose_k():
    host = HostGbLatencyModel({4: 1e-4}, {4: 1e-5})
    pim = PimGbLatencyModel({2: 1e-7}, {2: 3e-5})
    model = GroupByCostModel(host, pim)

    def remaining(k):
        # Two dominant subgroups, then a long uniform tail.
        fractions = [0.4, 0.3] + [0.3 / 20] * 20
        return 0.05 * (1.0 - sum(fractions[:k]))

    k, predicted = model.choose_k(
        pages=500, aggregation_reads=2, reads_per_record=4,
        total_subgroups=22, remaining_ratio=remaining,
    )
    assert 0 <= k <= 22
    assert predicted <= model.total_latency(500, 2, 4, 0, 22, remaining)
    assert predicted <= model.total_latency(500, 2, 4, 22, 22, remaining)
    # With free PIM aggregation, taking every subgroup wins.
    free_pim = GroupByCostModel(host, PimGbLatencyModel({2: 0.0}, {2: 0.0}))
    k_all, _ = free_pim.choose_k(500, 2, 4, 22, remaining)
    assert k_all == 22


# ----------------------------------------------------------------- sampling
def _filtered_stored(relation, predicate):
    module = PimModule(DEFAULT_CONFIG)
    stored = StoredRelation(relation, module, label="sampling", aggregation_width=22)
    executor = PimExecutor(DEFAULT_CONFIG)
    program = compile_predicate(predicate, relation.schema, stored.layouts[0])
    executor.run_program(stored.allocations[0].bank, program, pages=stored.pages)
    return stored


def test_estimate_subgroups_orders_by_size(toy_relation):
    stored = _filtered_stored(toy_relation, Comparison("year", ">=", 1992))
    candidates = [(int(c),) for c in np.unique(toy_relation.column("city"))]
    estimate = estimate_subgroups(stored, ["city"], candidates)
    assert estimate.sample_size == min(len(toy_relation), 32 * 1024)
    assert estimate.observed_subgroups == len(candidates)
    fractions = [estimate.group_fractions[key] for key in estimate.ordered_groups]
    assert fractions == sorted(fractions, reverse=True)
    assert estimate.remaining_ratio(0) == pytest.approx(estimate.selectivity)
    assert estimate.remaining_ratio(len(candidates)) == pytest.approx(0.0, abs=1e-9)
    assert estimate.remaining_ratio(3) <= estimate.remaining_ratio(1)
    with pytest.raises(ValueError):
        estimate_subgroups(stored, ["city"], [])


def test_remaining_ratio_is_a_left_to_right_prefix_built_once():
    """``r(k)`` equals the explicit left-to-right sum for every ``k`` — not
    ``sum()``, which is compensated from Python 3.12 on — and a whole
    ``choose_k`` looks each fraction up once, not once per larger ``k``."""

    class CountingDict(dict):
        gets = 0

        def get(self, key, default=None):
            self.gets += 1
            return super().get(key, default)

    # Two dominant subgroups and a random tail, largest first; the sum passes
    # 1.0 near the end (the clamp) and three candidates were never sampled
    # (the 0.0 default).
    tail = np.sort(np.random.default_rng(5).random(38))[::-1]
    fractions = [0.45, 0.3] + (tail / tail.sum() * 0.3).tolist()
    groups = [(i,) for i in range(len(fractions) + 3)]
    counted = CountingDict({(i,): f for i, f in enumerate(fractions)})
    estimate = SubgroupEstimate(
        ordered_groups=groups, group_fractions=counted, selectivity=0.37,
        sample_size=1000, sample_selected=370, observed_subgroups=len(fractions),
    )

    def reference(k):
        covered = 0
        for key in groups[:max(0, k)]:
            covered = covered + dict.get(counted, key, 0.0)
        return 0.37 * (1.0 - min(covered, 1.0))

    for k in range(-1, len(groups) + 2):
        assert estimate.remaining_ratio(k) == reference(k)      # bit for bit
    assert estimate.remaining_ratio(len(groups)) == 0.0         # clamped

    model = GroupByCostModel(
        HostGbLatencyModel({4: 1e-4}, {4: 1e-5}),
        PimGbLatencyModel({2: 1e-7}, {2: 3e-4}),
    )
    chosen = model.choose_k(500, 2, 4, len(groups), estimate.remaining_ratio)
    assert chosen == model.choose_k(500, 2, 4, len(groups), reference)
    assert 0 < chosen[0] < len(groups)
    assert counted.gets <= len(groups)


def test_planner_uses_estimate_and_respects_total(toy_relation):
    stored = _filtered_stored(toy_relation, Comparison("year", EQ, 1995))
    candidates = [(int(c),) for c in np.unique(toy_relation.column("city"))]
    estimate = estimate_subgroups(stored, ["city"], candidates)
    planner = GroupByPlanner(build_analytic_cost_model(DEFAULT_CONFIG))
    plan = planner.plan(estimate, pages=2000, aggregation_reads=2, reads_per_record=3)
    assert plan.total_subgroups == len(candidates)
    assert plan.k == len(plan.pim_groups) <= plan.total_subgroups
    assert plan.host_pass_needed == (plan.k < plan.total_subgroups)
    assert plan.predicted_time_s <= plan.predicted_host_only_s + 1e-12
    assert plan.predicted_time_s <= plan.predicted_pim_only_s + 1e-12
