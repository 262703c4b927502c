"""Fig. 6 — SSB execution latency for the five configurations."""

from repro.experiments import fig6_latency
from repro.experiments.common import metric_rows
from repro.ssb import ALL_QUERIES


def test_fig6_execution_latency(benchmark, ssb_setup, query_records, publish):
    # Benchmark the simulation throughput of one representative query on the
    # paper's configuration; the figure itself comes from the cached records.
    engine = ssb_setup.pim_engines["one_xb"]
    benchmark.pedantic(
        lambda: engine.execute(ALL_QUERIES["Q1.1"]), rounds=1, iterations=1
    )
    publish("fig6_execution_latency", fig6_latency.render(query_records))

    rows = metric_rows(query_records, ssb_setup.configs, "time_s")
    assert len(rows) == 13
    speedup_reg = fig6_latency.speedups(query_records, "mnt_reg")["geomean"]
    speedup_join = fig6_latency.speedups(query_records, "mnt_join")["geomean"]
    speedup_pimdb = fig6_latency.speedups(query_records, "pimdb")["geomean"]
    # Shape checks against the paper: one_xb wins on geo-mean against every
    # baseline, and by more against mnt_reg than against mnt_join.
    assert speedup_reg > 1.0
    assert speedup_join > 1.0
    assert speedup_pimdb > 1.0
    assert speedup_reg > speedup_join
