"""The self-tuning storage loop: feedback, re-clustering, pruned DML."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from twins import assert_same_state, pair_sketch, reference_group_aggregate

from repro.config import DEFAULT_CONFIG
from repro.core.executor import PimQueryEngine
from repro.db import dml
from repro.db.query import (
    Aggregate,
    And,
    Comparison,
    Query,
    evaluate_predicate,
)
from repro.db.relation import Relation
from repro.db.schema import Schema, int_attribute
from repro.db.storage import StoredRelation
from repro.db.update import execute_update
from repro.pim.controller import PimExecutor
from repro.pim.module import PimModule
from repro.planner.adaptive import AdaptiveController
from repro.planner.planner import cold_walk
from repro.planner.selectivity import ColumnHistogram, SelectivityModel
from repro.planner.zonemap import ZoneMaps


# ------------------------------------------------------ equi-depth histograms
def _skewed_values(count=4000, seed=7):
    rng = np.random.default_rng(seed)
    # 90% of the mass in [0, 100), a thin tail across the full 16-bit domain.
    dense = rng.integers(0, 100, int(count * 0.9))
    tail = rng.integers(0, 1 << 16, count - len(dense))
    return np.concatenate([dense, tail]).astype(np.uint64)


def test_equi_depth_beats_equi_width_on_skew():
    """Why the one histogram kind is equi-depth: on a skewed column its point
    estimates beat those of 16 uniform buckets (computed here) by over 2x."""
    values = _skewed_values()
    depth = ColumnHistogram.from_values(values, width=16)
    span = (1 << 16) // 16
    uniform_counts = np.bincount((values // span).astype(np.intp), minlength=16)

    def reference_eq(v):
        return float((values == v).sum()) / len(values)

    probes = [0, 5, 50, 99]
    depth_error = sum(
        abs(depth.fraction_eq(v) - reference_eq(v)) for v in probes
    )
    width_error = sum(
        abs(uniform_counts[v // span] / len(values) / span - reference_eq(v))
        for v in probes
    )
    # The dense region spans a sliver of one uniform bucket, so its point
    # estimates are diluted by the bucket span; equi-depth edges follow the
    # mass (only the bucket straddling the tail stays diluted).
    assert depth_error < width_error / 2


def test_equi_depth_range_fractions_are_consistent():
    values = _skewed_values(seed=11)
    histogram = ColumnHistogram.from_values(values, width=16)
    # Below the domain maximum (inclusive) is everything.
    assert histogram.fraction_below(histogram.max_value, inclusive=True) == (
        pytest.approx(1.0)
    )
    assert histogram.fraction_below(0, inclusive=False) == pytest.approx(0.0)
    # fraction_below is monotone in the limit.
    previous = 0.0
    for limit in range(0, 1 << 16, 4096):
        current = histogram.fraction_below(limit, inclusive=True)
        assert current >= previous - 1e-12
        previous = current
    # A bucket-aligned prefix is exact: every edge cuts at counted mass.
    for bucket in range(histogram.buckets):
        edge = int(histogram.edges[bucket])
        expected = float((values <= edge).sum()) / len(values)
        assert histogram.fraction_below(edge, inclusive=True) == (
            pytest.approx(expected, abs=1e-9)
        )


def test_equi_depth_add_remove_roundtrip():
    values = _skewed_values(seed=3)
    histogram = ColumnHistogram.from_values(values, width=16)
    before = histogram.counts.copy()
    extra = np.array([1, 2, 70000 % (1 << 16), 9], dtype=np.uint64)
    histogram.add(extra)
    histogram.remove(extra)
    assert np.array_equal(histogram.counts, before)
    assert histogram.total == len(values)


# The count updates hold whatever the edges: 16 uniform edges set through the
# constructor, and the quantile edges ``from_values`` picks at load.
EDGES = pytest.mark.parametrize(
    "edges", ["uniform", "quantile"], ids=["ColumnHistogram", "EquiDepthHistogram"]
)


def _histogram(edges, values, width=16):
    if edges == "quantile":
        return ColumnHistogram.from_values(values, width=width)
    uniform = (np.arange(1, 17, dtype=np.uint64) << np.uint64(width)) // np.uint64(16)
    histogram = ColumnHistogram(
        width, uniform - np.uint64(1), np.zeros(16, dtype=np.int64)
    )
    histogram.add(values)
    return histogram


@EDGES
def test_histogram_over_removal_raises_and_changes_nothing(edges):
    """Removing a value the histogram never counted fails loudly.

    A replayed DELETE must not be clamped away: compaction keeps the
    maintained counts, so a silent clamp would persist.
    """
    values = _skewed_values(seed=4)
    histogram = _histogram(edges, values)
    before = histogram.counts.copy()
    with pytest.raises(AssertionError, match="driven negative"):
        histogram.remove(np.concatenate([values, values[:1]]))
    assert np.array_equal(histogram.counts, before)
    assert histogram.total == len(values)
    histogram.remove(values)
    assert histogram.total == 0 and not histogram.counts.any()
    with pytest.raises(AssertionError, match="driven negative"):
        histogram.remove(values[:1])
    assert histogram.total == 0 and not histogram.counts.any()


@EDGES
def test_note_insert_batch_matches_single_record_batches(edges):
    """A columnar ``note_insert`` counts like the same records one at a time."""
    values = _skewed_values(seed=9)
    schema = Schema("t", [int_attribute("v", 16)])

    def model():
        histogram = _histogram(edges, values)
        return SelectivityModel(schema, {"v": histogram})

    batched, single = model(), model()
    # Powers of two, the domain limits, a value past 2**width - 1 (and so
    # past the last edge), every edge and its neighbours.
    inserts = [0, 1, 1023, 1024, 4095, 4096, (1 << 16) - 1, 1 << 16, 77, 77]
    for edge in batched.histograms["v"].edges:
        inserts += [max(int(edge) - 1, 0), int(edge), int(edge) + 1]
    column = np.array(inserts, dtype=np.uint64)
    batched.note_insert({"v": column})
    for value in column:
        single.note_insert({"v": np.array([value], dtype=np.uint64)})
    got, expected = batched.histograms["v"], single.histograms["v"]
    assert np.array_equal(got.counts, expected.counts)
    assert got.total == expected.total == len(values) + len(inserts)
    # The out-of-domain value lands in the last bucket.
    before = _histogram(edges, values).counts
    assert got.counts[-1] - before[-1] >= 1
    assert (got.counts - before).sum() == len(inserts)


def test_rebuild_preserves_histogram_variant(ground_truth_oracle):
    """The load builds every histogram equi-depth over the loaded values, and
    compaction keeps it: the same edges, with the counts the DML hooks kept
    exact (the oracle bins the live values on those edges)."""
    stored, system = _small_stored(records=600, seed=5)
    histograms = stored.statistics.selectivity.histograms
    for attribute in stored.relation.schema:
        fresh = ColumnHistogram.from_values(
            stored.relation.column(attribute.name), attribute.width
        )
        assert np.array_equal(histograms[attribute.name].edges, fresh.edges)
        assert np.array_equal(histograms[attribute.name].counts, fresh.counts)
    edges = {name: histogram.edges.copy() for name, histogram in histograms.items()}
    executor = PimExecutor(system)
    dml.execute_delete(stored, Comparison("value", "<", 2000), executor)
    assert dml.execute_compaction(stored, executor, force=True).performed
    for name, histogram in stored.statistics.selectivity.histograms.items():
        assert np.array_equal(histogram.edges, edges[name]), name
    ground_truth_oracle.state(stored)


# --------------------------------------------------------- adaptive controller
def test_hot_column_and_pair_tracking():
    controller = AdaptiveController()
    controller.pair_threshold = 100.0
    controller.observe(Comparison("a", "==", 1), 30)
    controller.observe(Comparison("b", "==", 1), 200)
    assert controller.hottest_column() == "b"
    assert controller.hot_pair() is None
    both = And((Comparison("a", "==", 1), Comparison("c", "==", 2)))
    controller.observe(both, 150)  # 75 per pair, below threshold
    assert controller.hot_pair() is None
    controller.observe(both, 150)
    assert controller.hot_pair() == ("a", "c")
    snapshot = controller.snapshot()
    assert snapshot.observations == 4
    assert snapshot.hot_pair == ("a", "c")


# ----------------------------------------------------------- pair zone sketch
def test_pair_sketch_is_conservative_and_narrows():
    rng = np.random.default_rng(17)
    crossbars, rows = 8, 64
    schema = Schema("t", [int_attribute("a", 8), int_attribute("b", 8)])
    # Correlated pair: b tracks a's bucket, so most (a, b) combinations
    # never co-occur even though each column alone spans its full domain.
    a = rng.integers(0, 256, crossbars * rows).astype(np.uint64)
    b = ((a // 32) * 32 + rng.integers(0, 32, crossbars * rows)).astype(
        np.uint64
    )
    relation = Relation(schema, {"a": a, "b": b})
    sketch = pair_sketch(
        ("a", "b"), schema, crossbars, rows, relation
    )
    grid_a = a.reshape(crossbars, rows)
    grid_b = b.reshape(crossbars, rows)
    for low in (0, 64, 160, 224):
        frag_a = Comparison("a", "between", low=low, high=low + 31)
        for blow in (0, 96, 224):
            frag_b = Comparison("b", "between", low=blow, high=blow + 31)
            mask_a = sketch.bucket_mask(frag_a)
            mask_b = sketch.bucket_mask(frag_b)
            possible = sketch.possible(mask_a, mask_b)
            truth = (
                (grid_a >= low) & (grid_a <= low + 31)
                & (grid_b >= blow) & (grid_b <= blow + 31)
            ).any(axis=1)
            # Conservative: never prunes a crossbar holding a matching row.
            assert not np.any(truth & ~possible)
    # And it actually narrows: an anti-correlated combination is pruned
    # everywhere even though each single-column zone map would pass it.
    mask_a = sketch.bucket_mask(Comparison("a", "between", low=0, high=31))
    mask_b = sketch.bucket_mask(Comparison("b", "between", low=224, high=255))
    assert not sketch.possible(mask_a, mask_b).any()


def test_pair_sketch_update_saturates():
    schema = Schema("t", [int_attribute("a", 8), int_attribute("b", 8)])
    values = np.zeros(16, dtype=np.uint64)
    relation = Relation(schema, {"a": values, "b": values})
    sketch = pair_sketch(("a", "b"), schema, 2, 8, relation)
    mask_a = sketch.bucket_mask(Comparison("a", "==", 255))
    mask_b = sketch.bucket_mask(Comparison("b", "==", 255))
    assert not sketch.possible(mask_a, mask_b).any()
    # An UPDATE touching crossbar 1 saturates its sketch word: any
    # combination is possible there until the next exact rebuild.
    sketch.note_update("a", np.array([1]))
    assert not sketch.possible(mask_a, mask_b)[0]
    assert sketch.possible(mask_a, mask_b)[1]


def test_pair_verdict_is_memoised_in_the_candidate_cache():
    """Planning a predicate twice at one version bills the pair sketch once:
    the verdict is cached under the epochs like a fragment (98, 0, 0 entries
    on a 32-crossbar store), and an INSERT's epoch bump re-reads it."""
    stored, system = _small_stored()
    statistics = stored.statistics
    zonemaps = statistics.zonemaps
    assert zonemaps.crossbars == 32
    statistics.pair_map = pair_sketch(
        ("key", "value"), zonemaps.schema, zonemaps.crossbars, zonemaps.rows,
        stored.relation,
    )
    predicate = And((Comparison("key", "<", 2000), Comparison("value", "<", 100)))

    def billed() -> int:
        return statistics.plan(
            predicate, stored.partition_attributes, system.pim.crossbars_per_page
        ).entries_checked

    first = billed()
    assert [first, billed(), billed()] == [98, 0, 0]
    dml.execute_insert(stored, stored.relation.records([0]), PimExecutor(system))
    # One fragment re-validates its stale crossbar; the sketch is read whole.
    assert billed() == 1 + 1 + zonemaps.crossbars
    assert billed() == 0


# ------------------------------------------- tightness after an exact rebuild
def _small_stored(backend="packed", records=600, seed=29, sorted_keys=False):
    """A random `drift` relation; ``sorted_keys`` clusters `key` by crossbar."""
    rng = np.random.default_rng(seed)
    schema = Schema("drift", [
        int_attribute("key", 16),
        int_attribute("value", 12),
        int_attribute("flag", 2),
    ])
    keys = rng.integers(0, 1 << 16, records).astype(np.uint64)
    relation = Relation(schema, {
        "key": np.sort(keys) if sorted_keys else keys,
        "value": rng.integers(0, 1 << 12, records).astype(np.uint64),
        "flag": rng.integers(0, 4, records).astype(np.uint64),
    })
    system = DEFAULT_CONFIG.with_backend(backend)
    stored = StoredRelation(relation, PimModule(system), label="drift")
    return stored, system


def _narrow_stored(backend="packed", records=600, seed=29):
    """All `value`s in a narrow mid-range band, so UPDATEs can drift bounds."""
    rng = np.random.default_rng(seed)
    schema = Schema("drift", [
        int_attribute("key", 16),
        int_attribute("value", 12),
        int_attribute("flag", 2),
    ])
    relation = Relation(schema, {
        "key": rng.integers(0, 1 << 16, records).astype(np.uint64),
        "value": rng.integers(1000, 1100, records).astype(np.uint64),
        "flag": rng.integers(0, 4, records).astype(np.uint64),
    })
    system = DEFAULT_CONFIG.with_backend(backend)
    stored = StoredRelation(relation, PimModule(system), label="drift")
    return stored, system


def test_update_churn_drifts_then_rebuild_is_tight():
    """Widen-only drift under UPDATE churn, gone after compaction."""
    stored, system = _narrow_stored()
    executor = PimExecutor(system)
    # Shuttle the flag==1 rows to a high extreme and back down: the first
    # UPDATE widens the max bound to 4000 (tight — the rows are there); the
    # second moves those same rows to 5, but the maintenance hook only ever
    # widens, so the max bound keeps claiming 4000 while no live row holds it.
    for new_value in (4000, 5):
        execute_update(
            stored, Comparison("flag", "==", 1), {"value": new_value},
            executor,
        )
    zonemaps = stored.statistics.zonemaps
    with pytest.raises(AssertionError, match="not tight"):
        zonemaps.assert_tight(stored.relation, stored.valid_mask(0))
    # A DELETE (so compaction has tombstones to chase) then a forced
    # compaction rebuilds exactly — rebuild() itself asserts tightness; the
    # explicit re-check documents the contract.
    dml.execute_delete(
        stored, Comparison("value", "between", low=0, high=5), executor
    )
    result = dml.execute_compaction(stored, executor, force=True)
    assert result.performed
    stored.statistics.zonemaps.assert_tight(
        stored.relation, stored.valid_mask(0)
    )


def _masked_reduction(relation, crossbars: int, rows: int):
    """Reference ``(live, mins, maxs)``: a padded grid masked by liveness."""
    records, capacity = len(relation), crossbars * rows
    live = np.zeros(capacity, dtype=bool)
    live[:records] = True
    live = live.reshape(crossbars, rows)
    mins, maxs = {}, {}
    for name in relation.schema.names:
        padded = np.zeros(capacity, dtype=np.uint64)
        padded[:records] = relation.column(name)
        grid = padded.reshape(crossbars, rows)
        mins[name] = np.where(live, grid, np.uint64(2**64 - 1)).min(axis=1)
        maxs[name] = np.where(live, grid, np.uint64(0)).max(axis=1)
    return live.sum(axis=1), mins, maxs


@pytest.mark.parametrize("fill", ["empty", "rows-1", "rows", "2rows+1", "full"])
def test_dense_zone_map_rebuild_matches_the_masked_reduction(fill):
    crossbars, rows = 5, 8
    records = {
        "empty": 0, "rows-1": rows - 1, "rows": rows,
        "2rows+1": 2 * rows + 1, "full": crossbars * rows,
    }[fill]
    rng = np.random.default_rng(13)
    schema = Schema("dense", [int_attribute("key", 16), int_attribute("flag", 2)])
    relation = Relation(schema, {
        "key": rng.integers(0, 1 << 16, records).astype(np.uint64),
        "flag": rng.integers(0, 4, records).astype(np.uint64),
    })
    zonemaps = ZoneMaps(crossbars, rows, relation.schema)
    # Stale entries from an earlier life must not survive the rebuild.
    zonemaps.live[:] = 3
    for name in relation.schema.names:
        zonemaps.mins[name][:] = 1
        zonemaps.maxs[name][:] = 2
    zonemaps.rebuild(relation.columns)
    zonemaps.assert_tight(relation, None)
    live, mins, maxs = _masked_reduction(relation, crossbars, rows)
    assert np.array_equal(zonemaps.live, live)
    for name in relation.schema.names:
        assert np.array_equal(zonemaps.mins[name], mins[name]), name
        assert np.array_equal(zonemaps.maxs[name], maxs[name]), name


def test_compacting_a_fully_deleted_relation_empties_the_statistics(
    ground_truth_oracle,
):
    stored, system = _small_stored(records=600, seed=17)
    executor = PimExecutor(system)
    dml.execute_delete(stored, Comparison("key", ">=", 0), executor)
    assert stored.live_count == 0
    assert dml.execute_compaction(stored, executor, force=True).performed
    statistics = stored.statistics
    zonemaps = statistics.zonemaps
    zonemaps.assert_tight(stored.relation, None)
    live, mins, maxs = _masked_reduction(
        stored.relation, zonemaps.crossbars, zonemaps.rows
    )
    assert not zonemaps.live.any() and np.array_equal(zonemaps.live, live)
    for name in stored.relation.schema.names:
        assert np.array_equal(zonemaps.mins[name], mins[name]), name
        assert np.array_equal(zonemaps.maxs[name], maxs[name]), name
    assert all(h.total == 0 for h in statistics.selectivity.histograms.values())
    ground_truth_oracle.state(stored)


def test_assert_tight_catches_a_stale_bound():
    stored, _ = _small_stored(records=200, seed=31)
    zonemaps = stored.statistics.zonemaps
    zonemaps.assert_tight(stored.relation, stored.valid_mask(0))
    zonemaps.maxs["value"][0] += np.uint64(1)
    with pytest.raises(AssertionError, match="not tight"):
        zonemaps.assert_tight(stored.relation, stored.valid_mask(0))


@pytest.mark.parametrize("path", ["dense", "valid"])
@pytest.mark.parametrize("entry", ["min", "max", "live"])
@pytest.mark.parametrize("crossbar", [0, 2, 4], ids=["full", "partial", "empty"])
def test_assert_tight_catches_one_corrupted_entry(path, entry, crossbar):
    """One wrong min, max or live count fails the check on both reductions:
    the dense prefix (``valid=None``) and the masked one (``valid`` given)."""
    crossbars, rows, records = 5, 8, 2 * 8 + 3      # crossbar 2 partial, 3-4 empty
    rng = np.random.default_rng(41)
    schema = Schema("dense", [int_attribute("key", 16), int_attribute("flag", 2)])
    relation = Relation(schema, {
        "key": rng.integers(1, 1 << 16, records).astype(np.uint64),
        "flag": rng.integers(1, 4, records).astype(np.uint64),
    })
    zonemaps = ZoneMaps(crossbars, rows, relation.schema)
    zonemaps.rebuild(relation.columns)
    valid = None if path == "dense" else np.ones(records, dtype=bool)
    zonemaps.assert_tight(relation, valid)
    # Outwards by one, so an empty crossbar's identity value moves too.
    if entry == "live":
        zonemaps.live[crossbar] += 1
    elif entry == "min":
        zonemaps.mins["key"][crossbar] -= np.uint64(1)
    else:
        zonemaps.maxs["key"][crossbar] += np.uint64(1)
    message = "live counts disagree" if entry == "live" else "not tight"
    with pytest.raises(AssertionError, match=message):
        zonemaps.assert_tight(relation, valid)


@pytest.mark.parametrize("backend", ["packed", "bool"])
@pytest.mark.parametrize("records", [600, 2500], ids=["empty-decision", "candidates"])
@pytest.mark.parametrize("statement", ["delete", "update"])
def test_pruned_dml_refuses_a_row_the_zone_maps_excluded(backend, records, statement):
    """A too-narrow bound fails loudly before any program runs: nothing stored,
    no wear, no statistic and no ground-truth value moves (``state_digest``).
    One crossbar of rows leaves no candidate at all, three leave the others."""
    stored, system = _small_stored(backend, records=records)
    zonemaps = stored.statistics.zonemaps
    in_use = -(-records // stored.rows_per_crossbar)
    crossbar = int(np.argmin(zonemaps.maxs["value"][:in_use]))
    bound = int(zonemaps.maxs["value"][crossbar])
    zonemaps.maxs["value"][crossbar] -= np.uint64(1)    # excludes the row holding it
    predicate = Comparison("value", ">=", bound)
    before = stored.state_digest()
    with pytest.raises(RuntimeError, match="conservative-maintenance invariant"):
        if statement == "delete":
            dml.execute_delete(stored, predicate, PimExecutor(system))
        else:
            execute_update(stored, predicate, {"flag": 1}, PimExecutor(system))
    assert stored.state_digest() == before
    assert stored.live_count == records and stored.tombstone_count == 0


# ------------------------------------------------- pruned DML == ground truth
def _broadcast_twin(backend, predicate):
    """A `_small_stored` twin whose zone maps admit every live crossbar.

    Its `key` bounds are widened to the whole domain (still conservative),
    so the one DML path runs the filter and clears on every live crossbar —
    the broadcast a pruned statement must agree with.
    """
    stored, system = _small_stored(backend, records=4000, sorted_keys=True)
    zonemaps = stored.statistics.zonemaps
    live = np.flatnonzero(zonemaps.live > 0)
    zonemaps.note_update("key", 0, live)
    zonemaps.note_update("key", (1 << 16) - 1, live)
    decision = cold_walk(
        stored.statistics, predicate, stored.partition_attributes,
        system.pim.crossbars_per_page,
    )
    assert np.array_equal(decision.candidates[0], zonemaps.live > 0)
    return stored, system


@pytest.mark.parametrize("backend", ["packed", "bool"])
@pytest.mark.parametrize("ground_truth", [False, True])
def test_pruned_delete_matches_broadcast(backend, ground_truth, ground_truth_oracle):
    """A pruned DELETE tombstones exactly what the same DELETE run on every
    live crossbar does; with ``ground_truth``, both also leave exactly the
    filter, valid and field bits NumPy on the ground truth predicts.  The
    keys are sorted, so the selection spans two crossbars and the pruned
    run skips the other live ones."""
    predicate = Comparison("key", "between", low=20000, high=40000)
    pruned_stored, system = _small_stored(backend, records=4000, sorted_keys=True)
    broadcast_stored, _ = _broadcast_twin(backend, predicate)
    pruned_decision = cold_walk(
        pruned_stored.statistics, predicate, pruned_stored.partition_attributes,
        system.pim.crossbars_per_page,
    )
    assert pruned_decision.candidates[0].sum() < (
        pruned_stored.statistics.zonemaps.live > 0
    ).sum()  # the pruned run really skips crossbars
    _, valid_before = ground_truth_oracle.snapshot(pruned_stored)
    a = dml.execute_delete(pruned_stored, predicate, PimExecutor(system))
    b = dml.execute_delete(broadcast_stored, predicate, PimExecutor(system))
    assert a.records_deleted == b.records_deleted > 0
    if ground_truth:
        for stored in (pruned_stored, broadcast_stored):
            ground_truth_oracle.delete(stored, predicate, valid_before)
            ground_truth_oracle.state(stored)
    assert np.array_equal(
        pruned_stored.valid_mask(0), broadcast_stored.valid_mask(0)
    )
    for name in pruned_stored.relation.schema.names:
        assert np.array_equal(
            pruned_stored.decode_column(name),
            broadcast_stored.decode_column(name),
        )


@pytest.mark.parametrize("backend", ["packed", "bool"])
def test_pruned_update_matches_ground_truth(backend, ground_truth_oracle):
    stored, system = _small_stored(backend)
    predicate = Comparison("key", "between", low=1000, high=9000)
    assignments = {"value": 77}
    before, valid_before = ground_truth_oracle.snapshot(stored)
    result = execute_update(stored, predicate, assignments, PimExecutor(system))
    assert result.records_updated > 0
    ground_truth_oracle.update(stored, predicate, assignments, before, valid_before)
    ground_truth_oracle.state(stored)


def test_pruned_dml_empty_decision_skips_the_broadcast():
    stored, system = _small_stored()
    executor = PimExecutor(system)
    logic_before = executor.stats.logic_ops
    # `key` is 16 bits wide: nothing can exceed the domain maximum, and the
    # planner folds the comparison to false before touching any crossbar.
    result = dml.execute_delete(
        stored, Comparison("key", ">", (1 << 16) - 1), executor,
    )
    assert result.records_deleted == 0
    assert executor.stats.logic_ops == logic_before  # no program ran
    assert stored.tombstone_count == 0


# ------------------------------------------------ engine feedback integration
def test_engine_feedback_rebuilds_and_recluster_loop():
    """The closed loop end to end on a small relation (packed backend)."""
    stored, system = _small_stored(records=3000, seed=41)
    engine = PimQueryEngine(
        stored, config=system, label="loop", pruning=True,
    )
    executor = PimExecutor(system)
    probe = Query(
        "probe",
        Comparison("key", "between", low=0, high=20000),
        (Aggregate("sum", "value"), Aggregate("count")),
    )
    engine.execute(probe)
    # Tombstone the probed range, then replay: the bucket straddling the
    # range's end keeps live mass, so every replay estimates >0 and scans
    # crossbars while selecting nothing, crediting `key` with the volume.
    dml.execute_delete(
        stored, Comparison("key", "between", low=0, high=20000), executor
    )
    assert stored.statistics.estimate(probe.predicate) > 0.0
    for _ in range(6):
        engine.execute(probe)
    snapshot = stored.statistics.adaptive_snapshot()
    assert snapshot.hot_column == "key"
    # Compaction re-clusters by the hottest column and rebuilds tight.
    result = dml.execute_compaction(stored, executor, force=True)
    assert result.performed
    assert result.clustered_by == "key"
    keys = stored.relation.column("key")
    assert np.all(keys[:-1] <= keys[1:])  # densely sorted by the hot column
    stored.statistics.zonemaps.assert_tight(
        stored.relation, stored.valid_mask(0)
    )


def test_recluster_cuts_cold_walk_entries_and_scans_8x():
    """The loop's payoff on 12 shuffled pages of the pre-joined SSB relation.

    Shuffled, every crossbar spans nearly the whole ``lo_orderkey`` domain,
    so the zone maps prune nothing.  After a 35 % range DELETE, replays of
    deleted keys (feedback) and the threshold compaction that re-clusters
    by the hottest column, the same 12 point probes check >= 8x fewer
    zone-map entries in a cold walk and scan >= 8x fewer crossbars.
    """
    from repro.ssb import build_ssb_prejoined, generate
    from repro.ssb.prejoined import max_aggregated_width

    system = DEFAULT_CONFIG.with_backend("packed")
    prejoined = build_ssb_prejoined(generate(scale_factor=0.01, skew=0.5, seed=42).database)
    target = 12 * system.pim.records_per_page
    reps = -(-target // len(prejoined))
    order = np.random.default_rng(11).permutation(target)
    relation = Relation(prejoined.schema, {
        name: np.tile(column, reps)[:target][order]
        for name, column in prejoined.columns.items()
    })
    stored = StoredRelation(
        relation, PimModule(system), label="tiled",
        aggregation_width=max_aggregated_width(relation),
        reserve_bulk_aggregation=False,
    )
    engine = PimQueryEngine(stored, pruning=True)

    def point(key):
        return Query(f"probe-{key}", Comparison("lo_orderkey", "==", int(key)),
                     (Aggregate("sum", "lo_revenue", "revenue"),))

    def spread(keys, count):
        return [point(k) for k in keys[np.linspace(0, len(keys) - 1, count).astype(int)]]

    def probe_all():
        entries = sum(
            cold_walk(stored.statistics, probe.predicate, stored.partition_attributes,
                      system.pim.crossbars_per_page).entries_checked
            for probe in probes
        )
        return entries, sum(engine.execute(probe).crossbars_scanned for probe in probes)

    keys = relation.column("lo_orderkey")
    delete_below = int(int(keys.max()) * 0.35)
    probes = spread(np.unique(keys[keys > delete_below]), 12)
    entries_before, scanned_before = probe_all()
    executor = PimExecutor(system)
    dml.execute_delete(
        stored, Comparison("lo_orderkey", "between", low=1, high=delete_below), executor
    )
    for query in spread(np.unique(keys[keys <= delete_below]), 8):
        engine.execute(query)
    snapshot = stored.statistics.adaptive_snapshot()
    assert snapshot.hot_column == "lo_orderkey"
    compaction = dml.execute_compaction(stored, executor)
    assert compaction.performed and compaction.clustered_by == "lo_orderkey"
    entries_after, scanned_after = probe_all()
    assert entries_before >= 8 * entries_after
    assert scanned_before >= 8 * scanned_after


def test_host_scan_records_estimate_and_feeds_back():
    """Host-routed executions carry the estimate and feed the accumulator."""
    from repro.planner.planner import CostPlanner

    stored, system = _small_stored(records=800, seed=43)
    engine = PimQueryEngine(
        stored, config=system, label="host", pruning=True,
        router=CostPlanner(),
    )
    query = Query(
        "host-probe",
        Comparison("value", "<", 100),
        (Aggregate("sum", "value"), Aggregate("count")),
    )
    observations_before = stored.statistics.adaptive_snapshot().observations
    execution = engine.execute(query)
    assert execution.label == "host/host-scan"
    assert execution.estimated_selectivity is not None
    snapshot = stored.statistics.adaptive_snapshot()
    assert snapshot.observations == observations_before + 1


# ------------------------------- property: the whole loop under random churn
CHURN_RECORDS = 900

CHURN_PROBES = (
    Query(
        "scalar",
        Comparison("value", "<", 2000),
        (Aggregate("sum", "value"), Aggregate("count")),
    ),
    Query(
        "by-flag",
        Comparison("value", "between", low=500, high=3500),
        (Aggregate("sum", "value"), Aggregate("min", "value"),
         Aggregate("count")),
        group_by=("flag",),
    ),
)

#: The two-column predicate the churn's feedback op credits.
FEEDBACK_PREDICATE = And((Comparison("flag", "==", 1), Comparison("value", "<", 2000)))

churn_op_strategy = st.one_of(
    st.tuples(st.just("insert"), st.integers(min_value=1, max_value=4),
              st.integers(min_value=0, max_value=2 ** 16)),
    st.tuples(st.just("delete"), st.integers(min_value=0, max_value=3800),
              st.integers(min_value=50, max_value=600)),
    st.tuples(st.just("update"), st.integers(min_value=0, max_value=3),
              st.integers(min_value=0, max_value=4095)),
    st.tuples(st.just("feedback")),
    st.tuples(st.just("compact")),
)


def _churn_relation(seed: int) -> Relation:
    rng = np.random.default_rng(seed)
    schema = Schema("churn", [
        int_attribute("key", 16),
        int_attribute("value", 12),
        int_attribute("flag", 2),
    ])
    return Relation(schema, {
        "key": rng.integers(0, 1 << 16, CHURN_RECORDS).astype(np.uint64),
        "value": rng.integers(0, 1 << 12, CHURN_RECORDS).astype(np.uint64),
        "flag": rng.integers(0, 4, CHURN_RECORDS).astype(np.uint64),
    })


def _build_service(backend: str, shards: int, seed: int):
    from repro.service import QueryService

    service = QueryService()
    relation = _churn_relation(seed)
    if shards == 1:
        system = DEFAULT_CONFIG.with_backend(backend)
        stored = StoredRelation(relation, PimModule(system), label="churn")
        service.register("churn", stored, config=system)
    else:
        service.register_sharded(
            "churn", relation, shards=shards,
            config=DEFAULT_CONFIG.with_backend(backend),
        )
    return service


def _service_storeds(service, shards):
    return list(service.engine().sharded.shards)


@pytest.mark.parametrize("part", ["histograms", "pair-sketch", "adaptive"])
def test_state_digest_covers_every_statistic_a_later_statement_reads(part):
    """Two services with identical bits whose statistics differ in one way —
    a histogram over other values, a pair sketch, one feedback accumulator —
    have different ``state_digest()`` values, and the twin oracle names
    that part and no other."""
    services = [_build_service("packed", 1, seed=3) for _ in range(2)]
    (stored,) = _service_storeds(services[1], 1)
    statistics = stored.statistics
    if part == "histograms":
        statistics.selectivity.histograms["key"] = ColumnHistogram.from_values(
            stored.relation.column("key")[::2], 16
        )
    elif part == "pair-sketch":
        zonemaps = statistics.zonemaps
        statistics.pair_map = pair_sketch(
            ("key", "value"), zonemaps.schema, zonemaps.crossbars, zonemaps.rows,
            stored.relation,
        )
    else:
        statistics.adaptive.observe(Comparison("key", "<", 100), 1)
    assert services[0].state_digest() != services[1].state_digest()
    with pytest.raises(AssertionError, match=f"store 0: {part} differ$"):
        assert_same_state(*services)
    for service in services:
        service.close()


def _churn_statement(op) -> tuple:
    """``(predicate, assignments)`` of a delete / update churn op."""
    if op[0] == "delete":
        _, low, span = op
        return Comparison("value", "between", low=low, high=low + span), None
    _, flag, new_value = op
    return Comparison("flag", "==", flag), {"value": new_value}


def _apply_churn_op(service, shards, op) -> list:
    """Apply one churn op; return the modelled stats it charged."""
    kind = op[0]
    if kind == "insert":
        _, count, value_seed = op
        storeds = _service_storeds(service, shards)
        free = sum(s.free_slots for s in storeds)
        record_rng = np.random.default_rng(value_seed)
        records = [
            {
                "key": int(record_rng.integers(0, 1 << 16)),
                "value": int(record_rng.integers(0, 1 << 12)),
                "flag": int(record_rng.integers(0, 4)),
            }
            for _ in range(min(count, free))
        ]
        return [service.insert(records).stats] if records else []
    if kind == "delete":
        predicate, _ = _churn_statement(op)
        return service.delete(predicate).shard_stats
    if kind == "update":
        predicate, assignments = _churn_statement(op)
        return service.update(predicate, assignments).shard_stats
    if kind == "feedback":
        # Drive the pair tracker through its public API past its threshold
        # on every shard: the (flag, value) pair gets hot, and the next
        # compaction builds its sketch.
        for stored in _service_storeds(service, shards):
            statistics = stored.statistics
            statistics.observe_execution(
                FEEDBACK_PREDICATE, 2 * statistics.adaptive.pair_threshold
            )
        return []
    return [service.compact(force=True).stats]


def _pair_sketches_exact(storeds) -> None:
    """Every built pair sketch equals a fresh one over the live rows."""
    for stored in storeds:
        pair = stored.statistics.pair_map
        if pair is None:
            continue
        zonemaps = stored.statistics.zonemaps
        fresh = pair_sketch(
            pair.attributes, zonemaps.schema, zonemaps.crossbars, zonemaps.rows,
            stored.relation, stored.valid_mask(0),
        )
        assert np.array_equal(pair.sketch, fresh.sketch)


@settings(max_examples=4, deadline=None)
@given(ops=st.lists(churn_op_strategy, min_size=3, max_size=6),
       seed=st.integers(min_value=0, max_value=2 ** 16))
# Every DML hook, a hot pair and the compaction that builds its sketch,
# whatever the generated examples draw.
@example(
    ops=[("delete", 300, 500), ("update", 2, 4000), ("feedback",),
         ("insert", 4, 9), ("compact",), ("delete", 1500, 600)],
    seed=5,
)
def test_adaptive_loop_bit_exact_under_churn(ops, seed, ground_truth_oracle):
    """Pruned churn at K=1 and K=4, both backends, against the ground truth.

    After every op, on every backend and shard count: every shard's valid
    bits and decoded columns match the ground truth and its slot
    bookkeeping; a DELETE / UPDATE left exactly the filter, valid and
    assigned bits NumPy on the pre-statement ground truth predicts; probe
    rows are bit-exact with the reference aggregation over the live ground
    truth; every histogram keeps the edges of the load and counts exactly
    the live rows; a feedback op only observes (no shard gains a sketch);
    after a compaction every compacted shard holds a sketch exactly when
    its feedback names a hot pair, every built sketch is exact and the zone
    maps are tight.  Both
    backends return the same rows and charge the same modelled stats
    for every DML op and probe.
    """
    trace_by_backend = {}
    for backend in ("packed", "bool"):
        trace = []
        for shards in (1, 4):
            service = _build_service(backend, shards, seed)
            load_edges = [
                {name: h.edges.copy() for name, h in s.statistics.selectivity.histograms.items()}
                for s in _service_storeds(service, shards)
            ]
            for op in ops:
                storeds = _service_storeds(service, shards)
                # A forced compaction is still a no-op on a shard without
                # tombstones, so only shards with pending tombstones get
                # the exact rebuild the post-compact assertions rely on.
                compacted = [
                    stored for stored in storeds if stored.tombstone_count > 0
                ] if op[0] == "compact" else []
                unsketched = [s for s in storeds if s.statistics.pair_map is None]
                snapshots = [ground_truth_oracle.snapshot(s) for s in storeds]
                trace.append(_apply_churn_op(service, shards, op))
                if op[0] in ("delete", "update"):
                    predicate, assignments = _churn_statement(op)
                    for stored, (before, valid_before) in zip(storeds, snapshots):
                        if assignments is None:
                            ground_truth_oracle.delete(stored, predicate, valid_before)
                        else:
                            ground_truth_oracle.update(
                                stored, predicate, assignments, before, valid_before
                            )
                for stored, edges in zip(_service_storeds(service, shards), load_edges):
                    ground_truth_oracle.state(stored)
                    for name, histogram in stored.statistics.selectivity.histograms.items():
                        assert np.array_equal(histogram.edges, edges[name]), name
                live = service.engine().sharded.live_relation()
                for query in CHURN_PROBES:
                    execution = service.execute(query)
                    expected = reference_group_aggregate(
                        live, evaluate_predicate(query.predicate, live),
                        query.group_by, query.aggregates,
                    )
                    assert execution.rows == expected
                    trace.append((sorted(execution.rows.items()), execution.stats))
                if op[0] == "compact":
                    for stored in compacted:
                        statistics = stored.statistics
                        hot_pair = statistics.adaptive.hot_pair()
                        assert (statistics.pair_map is None) == (hot_pair is None)
                        statistics.zonemaps.assert_tight(
                            stored.relation, stored.valid_mask(0)
                        )
                    _pair_sketches_exact(compacted)
                elif op[0] == "feedback":
                    assert all(s.statistics.pair_map is None for s in unsketched)
        trace_by_backend[backend] = trace
    assert trace_by_backend["packed"] == trace_by_backend["bool"]


@pytest.mark.parametrize("shards", [1, 4])
def test_static_data_settles(ssb_prejoined, shards):
    """Twelve passes of the 13 SSB queries (pruning and the planner on) over
    unchanged data: no store's statistics version moves, no pair sketch is
    built and no ``stats-rebuild`` time is charged.  Each version bump
    retires every memoised plan and estimate of its store, so a query that
    changed its statistics would keep the planner from settling."""
    from repro.service import QueryService
    from repro.ssb import ALL_QUERIES, QUERY_ORDER
    from repro.ssb.prejoined import max_aggregated_width

    relation = Relation(
        ssb_prejoined.schema,
        {name: column.copy() for name, column in ssb_prejoined.columns.items()},
    )
    options = {
        "aggregation_width": max_aggregated_width(relation),
        "reserve_bulk_aggregation": False,
    }
    service = QueryService(tracing=False)
    if shards == 1:
        service.register(
            "ssb", StoredRelation(relation, PimModule(DEFAULT_CONFIG), **options),
            timing_scale=100.0,
        )
    else:
        service.register_sharded(
            "ssb", relation, shards=shards, timing_scale=100.0, **options
        )
    stores = list(service.engine("ssb").sharded.shards)
    queries = [ALL_QUERIES[name] for name in QUERY_ORDER]

    def counters():
        return [(s.statistics._version, s.statistics.adaptive.rebuilds) for s in stores]

    loaded = counters()
    charged = 0
    for _ in range(12):
        charged += sum(
            "stats-rebuild" in execution.stats.time_by_phase
            for execution in service.execute_batch(queries)
        )
    assert counters() == loaded
    assert all(s.statistics.pair_map is None for s in stores)
    assert charged == 0
    service.close()


#: The two-column probe whose pair the feedback loop gets hot.
PAIR_PROBE = Query(
    "pair-probe", FEEDBACK_PREDICATE, (Aggregate("sum", "value"), Aggregate("count")),
)


def _execution_stats(execution):
    """The stats of an execution and of every shard execution under it."""
    yield execution.stats
    for shard in getattr(execution, "shard_executions", []):
        yield from _execution_stats(shard)


@pytest.mark.parametrize("shards", [1, 4])
def test_a_query_never_changes_its_statistics(shards):
    """A two-column probe replayed through ``QueryService`` (pruning and the
    planner on) until the feedback names its pair hot: after every
    execution each store's ``state_parts()`` is unchanged except for the
    feedback accumulator, its statistics version has not moved and no
    ``stats-rebuild`` time is charged.  The compaction after a DELETE then
    builds the hot pair's sketch, exactly, on every store, once."""
    service = _build_service("packed", shards, seed=3)
    stores = _service_storeds(service, shards)
    for stored in stores:
        # One probe scans a crossbar or two: let a few probes make a pair hot.
        stored.statistics.adaptive.pair_threshold = 2.0

    def parts():
        return [
            {name: value for name, value in s.state_parts().items() if name != "adaptive"}
            for s in stores
        ]

    before = parts()
    versions = [s.statistics._version for s in stores]
    pair = ("flag", "value")
    for _ in range(16):
        execution = service.execute(PAIR_PROBE)
        for stats in _execution_stats(execution):
            assert "stats-rebuild" not in stats.time_by_phase
        assert parts() == before
        assert [s.statistics._version for s in stores] == versions
        if all(s.statistics.adaptive.hot_pair() == pair for s in stores):
            break
    assert all(s.statistics.adaptive.hot_pair() == pair for s in stores)
    assert all(s.statistics.pair_map is None for s in stores)

    service.delete(Comparison("value", "between", low=0, high=400))
    assert all(s.tombstone_count > 0 for s in stores)
    service.compact(force=True)
    for stored in stores:
        statistics = stored.statistics
        assert statistics.pair_map is not None
        assert statistics.pair_map.attributes == pair
        assert statistics.adaptive.rebuilds == 1
    _pair_sketches_exact(stores)
    service.close()
