"""Tests of the host-side models: DRAM timing, read path, aggregation, CPU."""

import math

import numpy as np
import pytest

from repro.config import DEFAULT_CONFIG
from repro.db.query import Aggregate
from repro.host import dram
from repro.host.aggregator import combine_partials, host_group_aggregate, merge_group_results
from repro.host.processor import cpu_time, split_evenly
from repro.host.readpath import HostReadModel
from repro.db.storage import StoredRelation
from repro.pim.controller import PimExecutor
from repro.pim.module import PimModule
from repro.pim.stats import PimStats
from repro.db.compiler import compile_predicate
from repro.db.query import Comparison, LT


HOST = DEFAULT_CONFIG.host


def test_stream_and_scattered_read_times():
    assert dram.stream_read_time(HOST, 0) == 0.0
    assert dram.stream_read_time(HOST, 64) == pytest.approx(HOST.dram_access_latency_s)
    big = dram.stream_read_time(HOST, 1 << 30)
    assert big == pytest.approx((1 << 30) / HOST.dram_bw_bytes_per_s)
    # Scattered reads are latency-bound and benefit from threads, but never
    # beat the bandwidth bound.
    one_thread = dram.scattered_read_time(HOST, 10_000, threads=1)
    four_threads = dram.scattered_read_time(HOST, 10_000, threads=4)
    assert four_threads < one_thread
    assert dram.scattered_read_time(HOST, 10_000_000, threads=64) >= (
        10_000_000 * 64 / HOST.dram_bw_bytes_per_s
    )
    assert dram.write_time(HOST, 0) == 0.0


def test_cpu_time_and_split():
    assert split_evenly(10, 4) == [3, 3, 2, 2]
    assert split_evenly(2, 4) == [1, 1, 0, 0]
    assert cpu_time(HOST, 0, 10) == 0.0
    assert cpu_time(HOST, 1000, 10, threads=2) == pytest.approx(
        1000 * 10 / 2 / HOST.frequency_hz
    )
    # Threads are capped at the core count.
    assert cpu_time(HOST, 1000, 10, threads=100) == pytest.approx(
        1000 * 10 / HOST.cores / HOST.frequency_hz
    )


def _filtered_toy(toy_stored, toy_relation, threshold=200_000):
    executor = PimExecutor(DEFAULT_CONFIG)
    program = compile_predicate(
        Comparison("price", LT, threshold), toy_relation.schema, toy_stored.layouts[0]
    )
    executor.run_program(toy_stored.allocations[0].bank, program, pages=1)
    return toy_stored


def test_read_filter_bitvector_and_records(toy_stored, toy_relation):
    stored = _filtered_toy(toy_stored, toy_relation)
    stats = PimStats()
    reader = HostReadModel(DEFAULT_CONFIG, stats)
    mask = reader.read_filter_bitvector(stored, 0)
    assert np.array_equal(mask, toy_relation.column("price") < 200_000)
    assert stats.host_lines_read >= math.ceil(stored.num_records / 8 / 64)

    indices = np.nonzero(mask)[0]
    values = reader.read_records(stored, 0, indices, ["price", "city"])
    assert np.array_equal(values["price"], toy_relation.column("price")[indices])
    assert stats.total_time_s > 0
    assert stats.energy_by_component["read"] > 0

    # Read amplification: the distinct-line count is far below one line per
    # value read once many records share a (page, row) line.
    lines = reader.count_record_lines(stored, 0, np.arange(stored.num_records), ["price"])
    words = len(stored.layouts[0].word_indexes("price"))
    assert lines <= stored.rows_per_crossbar * stored.pages * words


def test_count_record_lines_equals_the_unique_pair_count(toy_relation_factory):
    """Distinct ``(page, row)`` pairs times the words read, as ``np.unique``
    counts them: empty input, duplicates, and indices over several pages."""
    stored = StoredRelation(toy_relation_factory(70_000, 3), PimModule(DEFAULT_CONFIG))
    rows, per_page = stored.rows_per_crossbar, stored.records_per_page
    assert stored.pages == 3
    reader = HostReadModel(DEFAULT_CONFIG, PimStats())
    attributes = ["price", "city"]
    words = len(stored.layouts[0].words_for_fields(attributes))
    rng = np.random.default_rng(23)
    cases = [
        np.array([], dtype=np.int64),
        np.array([5, 5, 5 + rows, 5]),                   # one line, repeated
        np.array([per_page - 1, per_page, 2 * per_page + rows - 1, per_page]),
        rng.integers(0, stored.num_records, 3_000),
        np.arange(stored.num_records),
    ]
    for indices in cases:
        pairs = np.unique(indices // per_page * rows + indices % rows)
        assert reader.count_record_lines(stored, 0, indices, attributes) == (
            len(pairs) * words
        )


def test_reads_per_record_matches_layout(toy_stored):
    stats = PimStats()
    reader = HostReadModel(DEFAULT_CONFIG, stats)
    s = reader.reads_per_record(toy_stored, 0, ["price", "city", "year"])
    assert s == len(toy_stored.layouts[0].words_for_fields(["price", "city", "year"]))


def test_traffic_scale_multiplies_cost_not_values(toy_stored, toy_relation):
    stored = _filtered_toy(toy_stored, toy_relation)
    base_stats, scaled_stats = PimStats(), PimStats()
    base = HostReadModel(DEFAULT_CONFIG, base_stats)
    scaled = HostReadModel(DEFAULT_CONFIG, scaled_stats, traffic_scale=100.0)
    mask_a = base.read_filter_bitvector(stored, 0)
    mask_b = scaled.read_filter_bitvector(stored, 0)
    assert np.array_equal(mask_a, mask_b)
    assert scaled_stats.total_time_s > base_stats.total_time_s
    assert scaled_stats.host_lines_read > base_stats.host_lines_read


def test_transfer_bit_column_between_partitions(toy_relation):
    module = PimModule(DEFAULT_CONFIG)
    stored = StoredRelation(
        toy_relation, module, label="two",
        partitions=[["key", "price", "discount", "quantity"],
                    ["city", "region", "year"]],
        aggregation_width=22,
    )
    stats = PimStats()
    reader = HostReadModel(DEFAULT_CONFIG, stats)
    source_layout = stored.layouts[1]
    pattern = np.zeros(stored.num_records, dtype=bool)
    pattern[::7] = True
    stored.write_bit_column(1, source_layout.filter_column, pattern)
    bits = reader.transfer_bit_column(
        stored, 1, source_layout.filter_column, 0, stored.layouts[0].remote_column
    )
    assert np.array_equal(bits, pattern)
    assert np.array_equal(stored.column_bit(0, stored.layouts[0].remote_column), pattern)
    assert stats.host_lines_written > 0
    assert stats.bits_written > 0


def test_host_group_aggregate_and_merge():
    groups = {"g": np.array([0, 0, 1, 2, 1], dtype=np.uint64)}
    values = {"v": np.array([5, 7, 1, 9, 3], dtype=np.uint64)}
    aggregates = [Aggregate("sum", "v"), Aggregate("count"), Aggregate("max", "v")]
    stats = PimStats()
    result = host_group_aggregate(groups, values, aggregates, HOST, stats=stats, threads=4)
    assert result[(0,)]["sum_v"] == 12
    assert result[(1,)]["count"] == 2
    assert result[(2,)]["max_v"] == 9
    assert stats.total_time_s > 0
    with pytest.raises(ValueError):
        host_group_aggregate({"g": np.array([1])}, {"v": np.array([1, 2])}, aggregates, HOST)

    merged = merge_group_results(
        {(0,): {"sum_v": 12, "count": 2, "max_v": 7}},
        {(0,): {"sum_v": 3, "count": 1, "max_v": 9}, (5,): {"sum_v": 1, "count": 1, "max_v": 1}},
        aggregates,
    )
    assert merged[(0,)] == {"sum_v": 15, "count": 3, "max_v": 9}
    assert merged[(5,)]["sum_v"] == 1

    assert combine_partials([np.array([1, 2]), np.array([3])], "sum", HOST) == 6
    assert combine_partials([np.array([4, 2])], "min", HOST) == 2
    assert combine_partials([np.array([4, 2])], "max", HOST) == 4
    with pytest.raises(ValueError):
        combine_partials([np.array([1])], "avg", HOST)
