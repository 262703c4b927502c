"""Backend speed — the 13 SSB queries on the packed vs boolean backends.

As a pytest benchmark this executes every SSB query gate level (each NOR
primitive applied to the stored bits) on both simulation backends, gates
bit-exactness of the result rows, bit-identical :class:`PimStats`, and a
>=5x wall-clock speedup for the packed backend, and writes the
``BENCH_backend.json`` trajectory artifact at the repository root.  Two
further gates cover the fused kernel pipeline: the warm replay of the 13
compiled filter programs must run >=5x faster fused than dispatched, and
the thread-pooled 4-shard scatter must beat the sequential scatter (>1x).
The field-codec gate holds the packed bank's bulk field decode
(``read_field_all``) and encode (``write_field_column``), summed over every
layout field, to be no slower than the boolean reference's; the same section
records (ungated) the per-cell gather ``read_field_cells`` against full
decode + index at 0.5 %, 3 % and 20 % of the cells.
It is also runnable as a plain script for CI smoke tests::

    PYTHONPATH=src python benchmarks/bench_backend_speed.py
"""

import pathlib
import sys

from repro.experiments import backend_speed

ARTIFACT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_backend.json"

MIN_SPEEDUP = 5.0
MIN_FUSED_SPEEDUP = 5.0
MIN_SCATTER_SPEEDUP = 1.0
MIN_CODEC_SPEEDUP = 1.0


def test_backend_speed(benchmark, publish):
    results = benchmark.pedantic(
        lambda: backend_speed.run_backend_speed(), rounds=1, iterations=1
    )
    publish("backend_speed", backend_speed.render(results))
    backend_speed.write_artifact(results, ARTIFACT_PATH)
    assert results.bit_exact
    assert results.stats_identical
    # Acceptance gate on the gate-level (simulation-bound) query path.  The
    # measured total speedup is ~8-9x at both the default and the CI scale
    # factor (individual host-gb-dominated queries dip to ~3.5x), so the
    # headroom over the 5x gate is real but not unlimited — investigate any
    # regression rather than bumping the gate down.
    assert results.speedup >= MIN_SPEEDUP
    # Fused-execution gates: the warm program replay must beat per-operation
    # dispatch by >=5x (measured ~12x), and the thread-pooled kernel scatter
    # must beat the sequential scatter outright (fused kernels release the
    # GIL inside NumPy).  The scatter gate only applies on hosts with a core
    # per pool worker — fewer cores time-slice the pool by construction.
    assert results.fused is not None
    assert results.fused.speedup >= MIN_FUSED_SPEEDUP
    assert results.scatter is not None
    assert results.scatter.bits_match
    if results.scatter.gateable:
        assert results.scatter.speedup > MIN_SCATTER_SPEEDUP
    # Field-codec gate in absolute terms: a "fast path" that decodes or
    # encodes fields slower than the byte-per-bit reference is a regression
    # (measured 3-10x faster at the benchmark geometry).
    assert results.codec is not None
    assert results.codec.speedup("decode") >= MIN_CODEC_SPEEDUP
    assert results.codec.speedup("encode") >= MIN_CODEC_SPEEDUP


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale-factor", type=float, default=None,
        help="generated SSB scale factor (default: REPRO_SSB_SF or 0.01)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=MIN_SPEEDUP,
        help="fail unless the packed backend beats the boolean backend on "
             "the gate-level path by this factor (0 disables the check)",
    )
    parser.add_argument(
        "--min-fused-speedup", type=float, default=MIN_FUSED_SPEEDUP,
        help="fail unless the fused program replay beats per-operation "
             "dispatch by this factor (0 disables the check)",
    )
    parser.add_argument(
        "--min-scatter-speedup", type=float, default=MIN_SCATTER_SPEEDUP,
        help="fail unless the 4-worker scatter beats the sequential scatter "
             "by strictly more than this factor (0 disables the check)",
    )
    parser.add_argument(
        "--min-codec-speedup", type=float, default=MIN_CODEC_SPEEDUP,
        help="fail unless the packed bank's summed field decode time and "
             "summed field encode time are each at least this factor faster "
             "than the boolean reference's (0 disables the check)",
    )
    parser.add_argument(
        "--no-service", action="store_true",
        help="skip the service-batch comparison",
    )
    parser.add_argument(
        "--no-fused", action="store_true",
        help="skip the fused program-replay microbenchmark",
    )
    parser.add_argument(
        "--no-scatter", action="store_true",
        help="skip the thread-pooled scatter comparison",
    )
    parser.add_argument(
        "--artifact", default=str(ARTIFACT_PATH),
        help="path of the BENCH_backend.json trajectory artifact",
    )
    args = parser.parse_args(argv)

    results = backend_speed.run_backend_speed(
        scale_factor=args.scale_factor,
        with_service=not args.no_service,
        with_fused=not args.no_fused,
        with_scatter=not args.no_scatter,
    )
    print(backend_speed.render(results))
    backend_speed.write_artifact(results, args.artifact)
    print(f"wrote {args.artifact}")
    if not results.bit_exact:
        print("FAIL: backends returned different result rows")
        return 1
    if not results.stats_identical:
        print("FAIL: backends charged different modelled statistics")
        return 1
    if args.min_speedup and results.speedup < args.min_speedup:
        print(
            f"FAIL: packed speedup {results.speedup:.2f}x "
            f"below {args.min_speedup}x"
        )
        return 1
    if args.min_fused_speedup and results.fused is not None:
        if results.fused.speedup < args.min_fused_speedup:
            print(
                f"FAIL: fused replay speedup {results.fused.speedup:.2f}x "
                f"below {args.min_fused_speedup}x"
            )
            return 1
    if args.min_scatter_speedup and results.scatter is not None:
        if not results.scatter.bits_match:
            print("FAIL: pooled scatter left different bits in the banks")
            return 1
        if (
            results.scatter.gateable
            and results.scatter.speedup <= args.min_scatter_speedup
        ):
            print(
                f"FAIL: scatter speedup {results.scatter.speedup:.2f}x "
                f"not above {args.min_scatter_speedup}x"
            )
            return 1
    if args.min_codec_speedup:
        for operation in ("decode", "encode"):
            speedup = results.codec.speedup(operation)
            if speedup < args.min_codec_speedup:
                print(
                    f"FAIL: packed field {operation} is {speedup:.2f}x the "
                    f"boolean reference's speed, below "
                    f"{args.min_codec_speedup}x"
                )
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
