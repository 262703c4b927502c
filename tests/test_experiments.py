"""Tests of the experiment harness (small-scale, subset of configurations)."""

import numpy as np
import pytest

from repro.experiments import build_setup, run_all_queries
from repro.experiments import (
    ablation,
    fig5_area,
    fig6_latency,
    fig7_energy,
    fig8_power,
    fig9_endurance,
    headline,
    table1_config,
    table2_summary,
)
from repro.experiments.common import format_table, geomean, pimdb_ratio, records_by


@pytest.fixture(scope="module")
def small_setup():
    """A reduced set-up: tiny scale factor, subset of queries/configs."""
    return build_setup(
        scale_factor=0.002, configs=("one_xb", "two_xb", "pimdb", "mnt_join")
    )


@pytest.fixture(scope="module")
def small_records(small_setup):
    return run_all_queries(small_setup, queries=("Q1.1", "Q2.3", "Q3.1", "Q4.1"))


def test_setup_builds_requested_configs(small_setup):
    assert set(small_setup.pim_engines) == {"one_xb", "two_xb", "pimdb"}
    assert small_setup.configs == ("one_xb", "two_xb", "pimdb", "mnt_join")
    assert small_setup.timing_scale > 1


def test_run_all_queries_is_cached_and_verified(small_setup, small_records):
    assert run_all_queries(small_setup) is small_records
    assert len(small_records) == 4 * 4
    by = records_by(small_records)
    assert by[("one_xb", "Q1.1")].time_s > 0


def test_run_all_queries_names_the_configuration_that_disagrees(monkeypatch):
    """The cross-configuration check always runs: one configuration's
    perturbed rows raise, naming that configuration and the query."""
    from types import SimpleNamespace

    setup = build_setup(scale_factor=0.002, configs=("one_xb", "mnt_join"))
    execute = setup.execute

    def perturbed(config, query):
        execution = execute(config, query)
        if config == "mnt_join" and query.name == "Q2.1":
            return SimpleNamespace(rows={**execution.rows, (-1,): {"revenue": 1}})
        return execution

    monkeypatch.setattr(setup, "execute", perturbed)
    with pytest.raises(AssertionError, match="configuration mnt_join disagrees on Q2.1"):
        run_all_queries(setup, queries=("Q1.1", "Q2.1"))
    assert setup._records is None


def test_helpers():
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)
    assert geomean([]) == 0.0
    text = format_table(["a", "b"], [[1, 2.5], ["x", 0.0001]])
    assert "a" in text and "x" in text


def test_table1_and_fig5_render():
    assert "Crossbar rows" in table1_config.render()
    assert "Aggregation circuits" in fig5_area.render()
    rows = fig5_area.fig5_rows()
    assert abs(sum(share for _, _, share, _ in rows) - 1.0) < 1e-9


def test_figure_modules_render_from_records(small_records):
    configs = ("one_xb", "two_xb", "pimdb", "mnt_join")
    assert "Query" in fig6_latency.render(small_records, configs=configs)
    assert "geo-mean" in fig7_energy.render(small_records, configs=("one_xb", "pimdb"))
    assert "peak power" in fig8_power.render(small_records, configs=("one_xb", "pimdb"))
    assert "lifetime" in fig9_endurance.render(small_records, configs=("one_xb", "pimdb"))
    assert "Measured" in headline.render(small_records)
    assert "paper total" in table2_summary.render(small_records)


def test_speedup_and_ratio_helpers(small_records):
    ratios = fig6_latency.speedups(small_records, "mnt_join")
    assert "geomean" in ratios and ratios["geomean"] > 0
    assert pimdb_ratio(small_records, "energy_j") > 0
    assert pimdb_ratio(small_records, "peak_power_w") > 0
    metrics = headline.headline_metrics(small_records)
    names = {m.name for m in metrics}
    assert any("pimdb" in name for name in names)


def test_ablation_helpers(small_setup, monkeypatch):
    rows = ablation.aggregation_circuit_ablation(small_setup, queries=("Q1.1",))
    variants = {row.variant for row in rows}
    assert variants == {"with circuit", "bulk-bitwise only"}
    report = ablation.prejoin_storage_report(small_setup)
    assert report.fits_in_single_row
    _assert_sampling_rows_match_fresh_engines(small_setup, (1, 2), monkeypatch)
    assert "Pre-join storage accounting" in ablation.render(small_setup)


def test_sampling_ablation_rows_follow_the_budget_on_a_multi_page_store(
    small_setup, monkeypatch,
):
    """Three copies of the instance span two pages, so a 2-page sample reads
    more than a 1-page one: a plan reused across budgets would show."""
    from dataclasses import replace

    from repro.core.executor import PimQueryEngine
    from repro.db.relation import Relation
    from repro.db.storage import StoredRelation
    from repro.pim.module import PimModule
    from repro.ssb.prejoined import max_aggregated_width

    prejoined = small_setup.prejoined
    tiled = Relation(prejoined.schema, {
        name: np.tile(column, 3) for name, column in prejoined.columns.items()
    })
    base = small_setup.pim_engines["one_xb"]
    stored = StoredRelation(
        tiled, PimModule(base.config), label="one_xb",
        aggregation_width=max_aggregated_width(tiled),
        reserve_bulk_aggregation=False,
    )
    assert stored.pages == 2
    engine = PimQueryEngine(
        stored, config=base.config, label="one_xb",
        timing_scale=base.timing_scale,
    )
    setup = replace(small_setup, pim_engines={"one_xb": engine}, _records=None)
    rows = _assert_sampling_rows_match_fresh_engines(setup, (1, 2), monkeypatch)
    assert rows[0].time_s != rows[1].time_s


def _assert_sampling_rows_match_fresh_engines(setup, pages, monkeypatch):
    """Each ``sampling_ablation`` row equals a new engine's execution at that
    sampling budget over the same store."""
    from repro.core.executor import PimQueryEngine
    from repro.ssb import ALL_QUERIES

    monkeypatch.setattr(ablation, "SAMPLE_PAGES", pages)
    rows = ablation.sampling_ablation(setup)
    assert len(rows) == len(pages)
    base = setup.pim_engines["one_xb"]
    for row, budget in zip(rows, pages):
        fresh = PimQueryEngine(
            base.stored, config=base.config, label=base.label,
            cost_model=base.cost_model, timing_scale=base.timing_scale,
        )
        fresh.sample_pages = budget
        fresh = fresh.execute(ALL_QUERIES[row.name])
        assert (row.time_s, row.energy_j, row.pim_subgroups) == (
            fresh.time_s, fresh.energy_j, fresh.pim_subgroups
        )
    return rows


# Pinned at the parent of the exact-accounting change (commit ba1ee33), so the
# diff of that change shows the reproduction did not move: per (config, query)
# Fig. 6 time_s, Fig. 7 energy_j, Fig. 8 peak chip power, Fig. 9
# max_writes_per_row, Table II total / sampled / PIM-aggregated subgroups.
# The ``two_xb`` rows were pinned later, at the last commit that still ran an
# unpruned query through its own broadcast path, so the two-partition filter
# combine is pinned across the change that made it a candidate run.
GOLDEN_RECORDS = {
    ("one_xb", "Q1.1"): (0.0004157880555555556, 0.007900425095999999, 6.500303099999998, 177, 1, 0, 1),
    ("two_xb", "Q1.1"): (0.0023959087698412697, 0.009469619519039999, 6.500303099999998, 132, 1, 0, 1),
    ("pimdb", "Q1.1"): (0.0006450855555555554, 0.10714286256, 44.79899603960397, 8207, 1, 0, 1),
    ("mnt_join", "Q1.1"): (0.02185892857142857, 0.0, 0.0, 0, 0, 0, 0),
    ("one_xb", "Q2.3"): (0.0006601404761904762, 0.00136563285504, 1.6327008000000003, 60, 7, 0, 0),
    ("two_xb", "Q2.3"): (0.0025903211904761904, 0.00295971796608, 1.6327008000000003, 60, 7, 0, 0),
    ("pimdb", "Q2.3"): (0.0006601404761904762, 0.00136563285504, 1.6327008000000003, 60, 7, 0, 0),
    ("mnt_join", "Q2.3"): (0.014285714285714285, 0.0, 0.0, 0, 0, 0, 0),
    ("one_xb", "Q3.1"): (0.07735289309523811, 1.1872103887200003, 6.500303099999998, 21080, 150, 136, 150),
    ("two_xb", "Q3.1"): (0.08310325341269842, 0.00817805284608, 4.055894400000001, 205, 150, 136, 0),
    ("pimdb", "Q3.1"): (0.10805751809523789, 14.402535323519924, 43.708119513294285, 1095980, 150, 136, 150),
    ("mnt_join", "Q3.1"): (0.02264285714285714, 0.0, 0.0, 0, 0, 0, 0),
    ("one_xb", "Q4.1"): (0.018115266706349213, 0.26710400968800013, 6.500303099999998, 4157, 35, 35, 35),
    ("two_xb", "Q4.1"): (0.04477798341269841, 0.00453746721408, 1.4990073599999998, 52, 35, 35, 0),
    ("pimdb", "Q4.1"): (0.025279679206349215, 3.3506798278079963, 43.708119513294285, 254967, 35, 35, 35),
    ("mnt_join", "Q4.1"): (0.02206547619047619, 0.0, 0.0, 0, 0, 0, 0),
}

# Every headline metric the four-configuration fixture can compute.
GOLDEN_HEADLINE = {
    "speedup of one_xb over mnt_join (geo-mean)": 4.487830276613651,
    "speedup of one_xb over pimdb (geo-mean)": 1.3187505091791725,
    "energy: pimdb / one_xb on PIM-aggregation queries": 5.541003650965931,
    "lifetime: one_xb / pimdb on low-aggregation queries": 29.88586694958412,
    "slowdown of two_xb vs one_xb (geo-mean)": 2.7836792808870934,
    "speedup of two_xb over mnt_join (geo-mean)": 1.6121937277140221,
}


def test_figure_and_table_goldens(small_records):
    by = records_by(small_records)
    assert set(by) == set(GOLDEN_RECORDS)
    for key, (time_s, energy_j, peak_w, writes, total, sampled, k) in GOLDEN_RECORDS.items():
        record = by[key]
        assert record.time_s == pytest.approx(time_s, rel=1e-9), key
        assert record.energy_j == pytest.approx(energy_j, rel=1e-9), key
        assert record.peak_power_w == pytest.approx(peak_w, rel=1e-9), key
        assert (
            record.max_writes_per_row, record.total_subgroups,
            record.subgroups_in_sample, record.pim_subgroups,
        ) == (writes, total, sampled, k), key


def test_headline_goldens(small_records):
    measured = {m.name: m.measured for m in headline.headline_metrics(small_records)}
    assert set(measured) == set(GOLDEN_HEADLINE)
    for name, value in GOLDEN_HEADLINE.items():
        assert measured[name] == pytest.approx(value, rel=1e-9), name
