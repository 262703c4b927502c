"""Fig. 8 — peak power of a single PIM chip per SSB query."""

from repro.experiments import fig8_power
from repro.experiments.common import PIM_CONFIGS, metric_rows, pimdb_ratio


def test_fig8_peak_chip_power(benchmark, query_records, publish):
    rows = benchmark.pedantic(
        lambda: metric_rows(query_records, PIM_CONFIGS, "peak_power_w"),
        rounds=1, iterations=1,
    )
    publish("fig8_peak_chip_power", fig8_power.render(query_records))
    assert len(rows) == 13
    # Paper: peak power stays below 44 W per chip for every query.
    assert all(
        record.peak_power_w <= fig8_power.PAPER_PEAK_LIMIT_W
        for record in query_records
        if record.config in ("one_xb", "two_xb", "pimdb")
    )
    # Paper: PIMDB draws more peak power where both PIM-aggregate.
    assert pimdb_ratio(query_records, "peak_power_w") > 1.0
