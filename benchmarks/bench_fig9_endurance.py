"""Fig. 9 — required cell endurance over ten years of back-to-back execution."""

from repro.experiments import fig9_endurance
from repro.memory.endurance import RRAM_ENDURANCE_WRITES


def test_fig9_required_endurance(benchmark, query_records, publish):
    rows = benchmark.pedantic(
        lambda: fig9_endurance.fig9_rows(query_records, configs=("one_xb", "two_xb")),
        rounds=1, iterations=1,
    )
    publish("fig9_required_endurance", fig9_endurance.render(query_records))
    assert len(rows) == 13
    # Paper: reported RRAM endurance (1e12 writes) suffices for ten years.
    # Asserted for the paper's proposed configurations (the PIMDB baseline's
    # plan differs from the paper's on some queries: its re-fitted GROUP-BY
    # cost model, see the repro.baselines.pimdb docstring).
    for row in rows:
        for value in row[1:]:
            if value == value:  # skip NaN
                assert value <= RRAM_ENDURANCE_WRITES
    # Paper: the aggregation circuit improves lifetime on the low-aggregation
    # queries (3.21x in the paper).
    assert fig9_endurance.lifetime_improvement(query_records) > 1.0
