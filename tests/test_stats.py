"""Order-freedom of :class:`~repro.pim.stats.PimStats` as a property.

The accumulator is an exact multiset of ``(bucket, unit, count)`` charges:
any permutation of the same charges, any split of a multiplicity into parts
and any partition into sub-stats merged back in any order must give *equal*
objects with *bit-identical* read-outs — which is what lets the batched
GROUP-BY charge ``count`` subgroups at once, the shard gather merge in any
order and a trace fold back without a sequence number.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.trace import SpanTracer, fold_trace_charges
from repro.pim.stats import EVENT_COUNTS, PimStats

KEYS = ("filter", "pim-agg", "host-read")
# Units a float fold is sensitive to: wide range of magnitudes, no exact sums.
UNITS = st.floats(min_value=0.0, max_value=1e3, allow_nan=False).map(
    lambda x: x * 1.0000001e-7
)

charges = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(("time", "energy")), st.sampled_from(KEYS),
                  UNITS, st.integers(0, 40)),
        st.tuples(st.just("events"), st.sampled_from(EVENT_COUNTS),
                  UNITS, st.integers(0, 40)),
        st.tuples(st.just("power"), st.sampled_from(KEYS),
                  UNITS, st.integers(0, 40)),
        st.tuples(st.just("int"), st.sampled_from(
            ("pim_requests", "host_lines_read", "host_lines_written", "wear")),
            st.integers(0, 1000), st.integers(1, 1)),
    ),
    max_size=30,
)


def apply(stats: PimStats, charge) -> None:
    kind, key, unit, count = charge
    if kind == "time":
        stats.add_time(key, unit, count)
    elif kind == "energy":
        stats.add_energy(key, unit, count)
    elif kind == "events":
        stats.add_events(key, unit, count)
    elif kind == "power":
        stats.add_power_sample(key, unit + 1e-9, unit * 3.0, count)
    elif key == "wear":
        stats.observe_writes_per_row(unit)
    else:
        setattr(stats, key, getattr(stats, key) + unit)


def build(sequence) -> PimStats:
    stats = PimStats()
    for charge in sequence:
        apply(stats, charge)
    return stats


def readouts(stats: PimStats):
    return (
        stats.time_by_phase, stats.energy_by_component, stats.total_time_s,
        stats.total_energy_j, stats.peak_chip_power_w, stats.totals(),
        stats.summary(), stats.power_samples, repr(stats),
    )


def assert_identical(a: PimStats, b: PimStats) -> None:
    assert a == b and not a != b
    assert readouts(a) == readouts(b)          # floats compared exactly


@given(sequence=charges, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_any_permutation_split_or_partition_is_equal(sequence, seed):
    rng = random.Random(seed)
    reference = build(sequence)

    shuffled = list(sequence)
    rng.shuffle(shuffled)
    assert_identical(build(shuffled), reference)

    # Split every multiplicity into parts, interleaved at random.
    parts = []
    for kind, key, unit, count in sequence:
        if kind == "int":
            parts.append((kind, key, unit, count))
            continue
        while count:
            part = rng.randint(1, count)
            parts.append((kind, key, unit, part))
            count -= part
    rng.shuffle(parts)
    assert_identical(build(parts), reference)

    # Partition into sub-stats, fold them back with merge in any order —
    # also through an intermediate, and through a copy.
    bins = [[] for _ in range(rng.randint(1, 4))]
    for charge in parts:
        rng.choice(bins).append(charge)
    subs = [build(b) for b in bins]
    rng.shuffle(subs)
    merged = PimStats()
    for sub in subs[:1]:
        merged.merge(sub)
    rest = PimStats()
    for sub in subs[1:]:
        rest.merge(sub.copy())
    merged.merge(rest)
    assert_identical(merged, reference)


@given(sequence=charges, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_merge_parallel_adds_the_max_as_one_term(sequence, seed):
    rng = random.Random(seed)
    bins = [[] for _ in range(3)]
    for charge in sequence:
        rng.choice(bins).append(charge)
    workers = [build(b) for b in bins]
    combined = PimStats().merge_parallel(workers, "threads")
    again = PimStats().merge_parallel(workers[::-1], "threads")
    assert_identical(combined, again)
    slowest = max(worker.total_time_s for worker in workers)
    assert combined.time_by_phase == {"threads": slowest}
    assert combined.energy_by_component == build(sequence).energy_by_component
    assert combined.peak_chip_power_w == build(sequence).peak_chip_power_w
    assert PimStats().merge_parallel([], "threads") == PimStats()


@given(sequence=charges)
@settings(max_examples=60, deadline=None)
def test_trace_fold_equals_the_readouts(sequence):
    """Spans hold the charges in whatever tree they were issued under; the
    fold walks them span by span, not in issue order."""
    tracer = SpanTracer(enabled=True)
    stats = PimStats()
    tracer.bind(stats)
    with tracer.span("root"):
        for index, charge in enumerate(sequence):
            if index % 3 == 0:
                apply(stats, charge)
            else:
                with tracer.span("child"), tracer.span("leaf"):
                    apply(stats, charge)
    root = tracer.pop_trace()
    folded = fold_trace_charges(root)
    assert folded == {
        "time": stats.time_by_phase, "energy": stats.energy_by_component,
    }
    assert sum(
        event.count for span in root.iter_spans() for event in span.charges
    ) == sum(count for kind, _, _, count in sequence if kind in ("time", "energy"))
    assert root.subtree_time_s() == pytest.approx(stats.total_time_s, rel=1e-12)
    # An untraced twin is equal: the hook is not part of the identity.
    assert build(sequence) == stats


def test_bad_charges_raise_and_leave_no_trace():
    stats = PimStats()
    for bad in (
        lambda: stats.add_time("p", -1e-9),
        lambda: stats.add_energy("c", -1.0),
        lambda: stats.add_events("bits_read", -1),
        lambda: stats.add_time("p", 1.0, -1),
        lambda: stats.add_time("p", 1.0, 1.5),
        lambda: stats.add_energy("c", 1.0, "2"),
        lambda: stats.add_power_sample("p", 1.0, 1.0, -2),
        lambda: stats.add_events("cycles", 1),
    ):
        with pytest.raises(ValueError):
            bad()
    assert stats == PimStats() and stats.totals() == PimStats().totals()
    assert stats != object()
    with pytest.raises(TypeError):
        hash(stats)


def test_copy_is_independent_of_its_source():
    source = build([("time", "filter", 1e-7, 3), ("power", "filter", 1e-7, 2),
                    ("events", "logic_ops", 2.5, 4), ("int", "pim_requests", 5, 1)])
    clone = source.copy()
    assert_identical(clone, source)
    before = readouts(source)
    clone.add_time("filter", 1e-7)
    clone.add_power_sample("other", 1.0, 9.0)
    clone.add_events("logic_ops", 2.5)
    clone.pim_requests += 1
    assert readouts(source) == before
    assert clone != source
    source.add_time("filter", 2e-7)
    assert clone.time_by_phase["filter"] == pytest.approx(4e-7)
