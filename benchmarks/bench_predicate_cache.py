"""Semantic candidate-set cache — SSB replay under churn vs the cold walk.

As a pytest benchmark this replays the 13 SSB query templates for several
rounds with INSERT/DELETE/UPDATE churn between rounds, through one engine
per simulation backend, gating bit-exact rows across the backends, cached
decisions identical to a cold zone-map walk every round, and a >= 5x
reduction of the zone-map entries billed on the cached replay rounds
against what that cold walk consults.  It writes the ``BENCH_pcache.json``
trajectory artifact at the repository root and is also runnable as a plain
script for CI::

    PYTHONPATH=src python benchmarks/bench_predicate_cache.py
"""

import pathlib
import sys

from repro.experiments import predicate_cache

ARTIFACT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_pcache.json"

MIN_ENTRY_REDUCTION = predicate_cache.MIN_ENTRY_REDUCTION


def test_predicate_cache(benchmark, publish):
    results = benchmark.pedantic(
        lambda: predicate_cache.run_predicate_cache(), rounds=1, iterations=1
    )
    publish("predicate_cache", predicate_cache.render(results))
    predicate_cache.write_artifact(results, ARTIFACT_PATH)
    assert results.bit_exact
    assert results.masks_identical
    # Acceptance gate: the cached replay consults >= 5x fewer zone-map
    # entries than the uncached cold walk for the same rounds.  The measured margin is well above the gate — investigate a
    # regression, don't lower it.
    assert results.min_entry_reduction() >= MIN_ENTRY_REDUCTION


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--rounds", type=int, default=predicate_cache.DEFAULT_ROUNDS,
        help="replay rounds after the cold round (DML precedes each)",
    )
    parser.add_argument(
        "--inserts-per-round", type=int,
        default=predicate_cache.DEFAULT_INSERTS_PER_ROUND,
        help="records inserted per churn round",
    )
    parser.add_argument(
        "--min-reduction", type=float, default=MIN_ENTRY_REDUCTION,
        help="fail unless the cached replay cuts the zone-map entries "
             "consulted by this factor on every backend (0 disables)",
    )
    parser.add_argument(
        "--artifact", default=str(ARTIFACT_PATH),
        help="path of the BENCH_pcache.json trajectory artifact",
    )
    args = parser.parse_args(argv)

    results = predicate_cache.run_predicate_cache(
        rounds=args.rounds,
        inserts_per_round=args.inserts_per_round,
    )
    print(predicate_cache.render(results))
    predicate_cache.write_artifact(results, args.artifact)
    print(f"wrote {args.artifact}")
    if not results.bit_exact:
        print("FAIL: cached execution diverged (backends disagree)")
        return 1
    if not results.masks_identical:
        print("FAIL: a cached decision differed from the cold zone-map walk")
        return 1
    if args.min_reduction and results.min_entry_reduction() < args.min_reduction:
        print(
            f"FAIL: replay entry reduction "
            f"{results.min_entry_reduction():.2f}x below {args.min_reduction}x"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
