"""Columnar INSERT in lockstep with the per-record loop it replaced.

``execute_insert`` writes a batch column-wise: one scatter per attribute,
one counted charge per distinct store width, one statistics update.  What it
*models* is still one host store per attribute and bookkeeping bit of every
record.  :func:`oracle_insert` below is that loop, kept verbatim from
the code the columnar path replaced (``acquire_slot``, :func:`_set_row`, scalar
zone-map / histogram / sketch widening, one charged host store per field);
every observable piece of state must come out identical — the floats too
(one ``state_digest()``, :func:`twins.assert_same_state`).
"""

import math
from collections import Counter

import numpy as np
import pytest
from twins import assert_same_state, pair_sketch

from repro.config import DEFAULT_CONFIG
from repro.core.executor import PimQueryEngine
from repro.db import dml
from repro.db.dml import InsertResult, execute_delete, execute_insert
from repro.db.query import Aggregate, Comparison, Query
from repro.db.relation import Relation
from repro.db.schema import Schema, dict_attribute, int_attribute
from repro.db.storage import StoredRelation
from repro.host import dram
from repro.host.dram import CACHE_LINE_BYTES
from repro.host.readpath import HostReadModel
from repro.obs.trace import SpanTracer, fold_trace_charges
from repro.pim.controller import PimExecutor
from repro.pim.module import PimModule
from repro.pim.stats import PimStats
from repro.service import QueryService

BACKENDS = ("packed", "bool")
CITIES = ["LYON", "OSLO", "PERTH", "QUITO"]
ROWS = DEFAULT_CONFIG.pim.crossbar.rows
QUERY = Query(
    "grouped", Comparison("value", ">=", 100),
    (Aggregate("sum", "value"), Aggregate("count"), Aggregate("max", "value")),
    group_by=("city",),
)


# ------------------------------------------------------------------ the oracle
def _oracle_note_insert(statistics, slot: int, record) -> None:
    """One record's statistics maintenance, one scalar at a time."""
    zonemaps = statistics.zonemaps
    crossbar = slot // zonemaps.rows
    fresh = zonemaps.live[crossbar] == 0
    for name in zonemaps.schema.names:
        value = np.uint64(record[name])
        if fresh:
            zonemaps.mins[name][crossbar] = value
            zonemaps.maxs[name][crossbar] = value
        else:
            zonemaps.mins[name][crossbar] = min(zonemaps.mins[name][crossbar], value)
            zonemaps.maxs[name][crossbar] = max(zonemaps.maxs[name][crossbar], value)
    zonemaps.live[crossbar] += 1
    for name, histogram in statistics.selectivity.histograms.items():
        bucket = int(np.searchsorted(histogram.edges, np.uint64(record[name]), side="left"))
        histogram.counts[min(bucket, histogram.buckets - 1)] += 1
        histogram.total += 1
    pair = statistics.pair_map
    if pair is not None:
        first, second = pair.attributes
        bit = (
            (int(record[first]) >> pair.shifts[first]) * 8
            + (int(record[second]) >> pair.shifts[second])
        )
        pair.sketch[crossbar] |= np.uint64(1) << np.uint64(bit)
    statistics.candidates.epochs[crossbar] += 1
    statistics._version += 1


def _set_row(relation, index: int, record) -> None:
    """Overwrite one slot of the ground truth with an encoded record."""
    for name in relation.schema.names:
        relation.columns[name][index] = record[name]


def _append_rows(relation, records) -> None:
    """Append encoded records, growing every column once."""
    if not records:
        return
    for name in relation.schema.names:
        tail = np.array([r[name] for r in records], dtype=np.uint64)
        relation.columns[name] = np.concatenate([relation.columns[name], tail])
    relation.num_records += len(records)


def _host_store(executor, bank, xbar, row, offset, width, value, phase) -> None:
    """One host store and its own charges, as the per-record loop made them."""
    bank.write_field(xbar, row, offset, width, value)
    xcfg = executor.config.pim.crossbar
    executor.stats.add_time(phase, xcfg.write_latency_s)
    executor.stats.add_energy("write", width * xcfg.write_energy_per_bit_j)
    executor.stats.add_events("bits_written", width)


def oracle_insert(stored, records, executor, phase="insert-write", encoded=False):
    """The per-record INSERT loop (same signature as ``execute_insert``)."""
    relation = stored.relation
    encoded_records = (
        [dict(zip(records, values)) for values in zip(*records.values())]
        if encoded
        else [
            {name: column[0] for name, column in relation.encode_records([values]).items()}
            for values in records
        ]
    )
    result = InsertResult()
    tail_records = []
    for record in encoded_records:
        slot, reused = stored.acquire_slot()
        if reused:
            _set_row(relation, slot, record)
            result.reused_slots += 1
        else:
            tail_records.append(record)
            stored.num_records += 1
            result.appended_slots += 1
        stored.live_count += 1
        _oracle_note_insert(stored.statistics, slot, record)
        result.slots.append(slot)
        for layout, allocation, attrs in zip(
            stored.layouts, stored.allocations, stored.partition_attributes
        ):
            bank = allocation.bank
            xbar = allocation.crossbar_of_record(slot)
            row = allocation.row_of_record(slot)
            for name in attrs:
                offset, width = layout.fields[name]
                _host_store(
                    executor, bank, xbar, row, offset, width, int(record[name]), phase
                )
            for column, bit in (
                (layout.filter_column, 0),
                (layout.group_column, 0),
                (layout.remote_column, 0),
                (layout.valid_column, 1),
            ):
                _host_store(executor, bank, xbar, row, column, 1, bit, phase)
            # The valid bit just raised makes the column dirty there.
            stored.column_dirty_mask(
                stored.layouts.index(layout), layout.valid_column
            )[xbar] = True
    _append_rows(relation, tail_records)
    stored.statistics.charge_maintenance(
        executor.stats, executor.config.host,
        len(encoded_records) * (len(relation.schema.names) + 1),
    )
    result.live_records = stored.live_count
    result.tombstones = stored.tombstone_count
    return result


# -------------------------------------------------------------------- fixtures
def _relation(records: int, seed: int = 5) -> Relation:
    rng = np.random.default_rng(seed)
    schema = Schema("lock", [
        int_attribute("key", 12, source="fact"),
        int_attribute("value", 10, source="fact"),
        int_attribute("wide", 33, source="fact"),
        dict_attribute("city", CITIES, source="dim"),
    ])
    return Relation(schema, {
        "key": np.arange(records, dtype=np.uint64),
        "value": rng.integers(200, 800, records).astype(np.uint64),
        "wide": rng.integers(0, 1 << 33, records).astype(np.uint64),
        "city": rng.integers(0, len(CITIES), records).astype(np.uint64),
    })


def _records(count: int, seed: int) -> list[dict]:
    """Raw records: small keys, values on and beyond the loaded range's edges."""
    rng = np.random.default_rng(seed)
    return [
        {
            "key": int(rng.integers(0, 1000)),
            "value": int(rng.choice([0, 199, 200, 511, 512, 800, 1023])),
            "wide": int(rng.integers(0, 1 << 33)),
            "city": CITIES[int(rng.integers(len(CITIES)))],
        }
        for _ in range(count)
    ]


def _store(backend: str, records: int, partitions=None):
    config = DEFAULT_CONFIG.with_backend(backend)
    stored = StoredRelation(
        _relation(records), PimModule(config), label="lock", partitions=partitions,
    )
    return stored, config


def _build_pair_sketch(stored) -> None:
    """A built (key, value) pair sketch."""
    zonemaps = stored.statistics.zonemaps
    stored.statistics.pair_map = pair_sketch(
        ("key", "value"), zonemaps.schema, zonemaps.crossbars, zonemaps.rows,
        stored.relation, stored.valid_mask(0),
    )


def _lockstep(ours, theirs, config, batches) -> None:
    """Apply every batch to both stores and compare after each (traced)."""
    tracer = SpanTracer(enabled=True)
    executor, oracle_executor = PimExecutor(config), PimExecutor(config)
    tracer.bind(executor.stats)
    engine = PimQueryEngine(ours, config=config)
    twin_engine = PimQueryEngine(theirs, config=config)
    with tracer.span("lockstep"):
        for batch in batches:
            with tracer.span("insert"):
                result = execute_insert(ours, batch, executor)
            expected = oracle_insert(theirs, batch, oracle_executor)
            assert result == expected
            assert executor.stats == oracle_executor.stats
            assert_same_state(ours, theirs)
            assert engine.execute(QUERY).rows == twin_engine.execute(QUERY).rows
            assert_same_state(ours, theirs)
    # Every counted charge reached the tracer with its multiplicity: the
    # spans' charges re-accumulate to the stats bit for bit.
    folded = fold_trace_charges(tracer.pop_trace())
    assert folded["time"] == dict(executor.stats.time_by_phase)
    assert folded["energy"] == dict(executor.stats.energy_by_component)
    assert executor.stats.time_by_phase["insert-write"] > 0


# ----------------------------------------------------------------------- tests
@pytest.mark.parametrize("backend", BACKENDS)
def test_mixed_batches_match_the_per_record_loop(backend):
    """Reused + tail slots, a revived crossbar, a pair sketch, no records."""
    stores = []
    for _ in range(2):
        stored, config = _store(backend, ROWS + 60)
        executor = PimExecutor(config)
        # Crossbar 1 loses every live row (its bounds go stale-wide, its live
        # count drops to zero); crossbar 0 gets three low tombstones.
        execute_delete(stored, Comparison("key", ">=", ROWS), executor)
        execute_delete(stored, Comparison("key", "in", values=(3, 11, 20)), executor)
        assert stored.statistics.zonemaps.live[1] == 0
        _build_pair_sketch(stored)
        stores.append(stored)
    ours, theirs = stores
    assert int(ours.statistics.zonemaps.maxs["key"][1]) == ROWS + 59   # stale
    batches = [
        _records(8, seed=1),     # 3 low tombstones, then 5 revive crossbar 1
        [],                      # nothing at all
        _records(70, seed=2),    # the other 55 tombstones, then 15 tail slots
        _records(1, seed=3),     # pure tail
    ]
    _lockstep(ours, theirs, config, batches)
    # The revived crossbar's bounds were *reset*, not widened from the stale
    # ones: no inserted key comes near the ROWS + 59 that used to live there.
    assert int(ours.statistics.zonemaps.maxs["key"][1]) < 1000
    assert ours.num_records == ROWS + 60 + 16
    assert ours.tombstone_count == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_two_xb_relation_matches_the_per_record_loop(backend):
    stores = []
    for _ in range(2):
        stored, config = _store(
            backend, 90, partitions=[["key", "value"], ["wide", "city"]]
        )
        execute_delete(stored, Comparison("value", "<", 350), PimExecutor(config))
        stores.append(stored)
    ours, theirs = stores
    assert ours.partitions == 2 and ours.tombstone_count > 0
    batches = [_records(ours.tombstone_count + 4, seed=7), _records(3, seed=8)]
    _lockstep(ours, theirs, config, batches)


@pytest.mark.parametrize("backend", BACKENDS)
def test_sharded_insert_matches_the_per_record_loop(backend, monkeypatch):
    """K = 4 through ``QueryService.insert``; the twin routes into the oracle."""
    config = DEFAULT_CONFIG.with_backend(backend)
    relations = [_relation(80), _relation(80)]
    services = [QueryService(planner=False) for _ in relations]
    ours, theirs = (
        service.register_sharded("lock", relation, shards=4, config=config).sharded
        for service, relation in zip(services, relations)
    )
    for sharded in (ours, theirs):
        victim = sharded.shards[2]
        execute_delete(victim, Comparison("value", "<", 500), PimExecutor(config))
    for seed, count in ((11, 6), (12, 25), (13, 0)):
        batch = _records(count, seed=seed)
        outcome = services[0].insert(batch)
        with monkeypatch.context() as patch:
            patch.setattr(dml, "execute_insert", oracle_insert)
            expected = services[1].insert(batch)
        assert outcome.results == expected.results
        assert len(outcome.results) == 4
        for shard, twin, stats, twin_stats in zip(
            ours.shards, theirs.shards, outcome.shard_stats, expected.shard_stats
        ):
            assert_same_state(shard, twin)
            assert stats == twin_stats
    # Reused slots were written in place: untouched shards still alias the
    # parent relation's columns on both sides.
    for sharded, relation in zip((ours, theirs), relations):
        for shard in sharded.shards:
            aliased = np.shares_memory(
                shard.relation.columns["key"], relation.columns["key"]
            )
            assert aliased == (len(shard.relation) == 20)


def test_charge_series_is_the_scalar_fold():
    """A counted charge equals ``count`` scalar charges, in any interleaving."""
    values = [1e-7, 3.3e-9, 1e-7, 7.7e-12] * 500
    counted, scalar = PimStats(), PimStats()
    seen = []
    counted.trace_hook = lambda *event: seen.append(event)
    for stats in (counted, scalar):
        stats.add_time("p", 0.1)
        stats.add_energy("write", 0.3)
    seen.clear()
    for value, count in Counter(values).items():
        counted.add_time("p", value, count)
        counted.add_energy("write", np.float64(value), np.int64(count))
    counted.add_time("untouched", 1.0, 0)
    for value in reversed(values):
        scalar.add_energy("write", value)
        scalar.add_time("p", value)
    assert counted == scalar and repr(counted) == repr(scalar)
    assert counted.totals() == scalar.totals()
    assert "untouched" not in counted.time_by_phase
    assert sorted(seen) == sorted(
        (kind, key, value, count)
        for value, count in Counter(values).items()
        for kind, key in (("time", "p"), ("energy", "write"))
    )
    assert all(type(v) is float and type(n) is int for _, _, v, n in seen)
    # The exactly rounded sum of the products, whatever order they came in.
    assert scalar.time_by_phase["p"] == math.fsum(
        [0.1] + [value * count for value, count in Counter(values).items()]
    )
    for bad in (lambda: counted.add_time("p", -1.0), lambda: counted.add_time("p", 1.0, -1),
                lambda: counted.add_energy("write", 1.0, 1.5)):
        with pytest.raises(ValueError):
            bad()
    assert counted == scalar


# ------------------------------------------------------ call-count regression
def test_insert_and_compaction_calls_do_not_scale_with_the_batch(monkeypatch):
    """An INSERT's bank and charge calls depend on the schema, not on the
    batch; compaction decodes nothing it is about to overwrite."""
    config = DEFAULT_CONFIG.with_backend("packed")
    stored, _ = _store("packed", 300, partitions=[["key", "value"], ["wide", "city"]])
    service = QueryService(planner=False)
    service.register("lock", stored, config=config)
    bank_type = type(stored.allocations[0].bank)
    inside = []          # the wrapped DML function currently on the stack

    def scoped(name, function):
        def wrapper(*args, **kwargs):
            inside.append(name)
            try:
                return function(*args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    calls: dict[tuple[str, str], int] = {}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            if inside:
                calls[inside[-1], name] = calls.get((inside[-1], name), 0) + 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dml, "execute_insert", scoped("insert", dml.execute_insert))
    monkeypatch.setattr(
        dml, "execute_compaction", scoped("compact", dml.execute_compaction)
    )
    for method in ("write_field", "write_field_cells", "write_field_column",
                   "write_bool_column", "read_field_all"):
        monkeypatch.setattr(
            bank_type, method, counting(method, getattr(bank_type, method))
        )
    for owner, method in (
        (PimStats, "add_time"), (PimStats, "add_energy"),
        (PimExecutor, "host_write_field"),
    ):
        monkeypatch.setattr(owner, method, counting(method, getattr(owner, method)))

    per_batch = {}
    for count in (10, 80):
        calls.clear()
        outcome = service.insert(_records(count, seed=count))
        assert outcome.result.records_inserted == count
        per_batch[count] = dict(calls)
    widths = {
        width for layout in stored.layouts for _, width in layout.fields.values()
    } | {1}                                 # the bookkeeping bits
    assert per_batch[10] == per_batch[80] == {
        # One scatter per partition: its attributes and bookkeeping bits.
        ("insert", "write_field_cells"): stored.partitions,
        ("insert", "add_time"): 2,          # the stores, zonemap-maintain
        ("insert", "add_energy"): len(widths),    # one per distinct store width
    }

    # Compaction: charged like the parent's read-everything/write-everything
    # pass, without decoding a single stored field.
    service.delete(Comparison("value", "<", 450))
    slots_before, live = stored.num_records, stored.live_count
    live_indices = np.flatnonzero(stored.valid_mask(0))
    expected = PimStats()
    reader = HostReadModel(config, expected)
    for partition, attrs in enumerate(stored.partition_attributes):
        reader.charge_record_reads(stored, partition, live_indices, attrs, "compact-read")
    bits = sum(
        slots_before * (
            sum(layout.fields[name][1] for name in attrs)
            + layout.bookkeeping_columns
        )
        for layout, attrs in zip(stored.layouts, stored.partition_attributes)
    )
    host = config.host
    expected.add_time(
        "compact-write", dram.write_time(host, bits / 8, host.query_threads)
    )
    expected.add_energy("write", bits * config.pim.crossbar.write_energy_per_bit_j)

    calls.clear()
    outcome = service.compact(force=True)
    assert outcome.result == dml.CompactionResult(
        performed=True,
        fragmentation_before=(slots_before - live) / slots_before,
        records_moved=live,
        slots_reclaimed=slots_before - live,
        slots_before=slots_before,
        slots_after=live,
        clustered_by=None,
    )
    assert ("compact", "read_field_all") not in calls
    assert ("compact", "host_write_field") not in calls
    assert calls["compact", "write_field_column"] == len(stored.relation.schema.names)
    stats = outcome.stats
    for phase in ("compact-read", "compact-write"):
        assert stats.time_by_phase[phase] == expected.time_by_phase[phase] > 0
    for component in ("read", "write"):
        assert (
            stats.energy_by_component[component]
            == expected.energy_by_component[component]
        )
    assert stats.bits_read == expected.bits_read
    assert stats.host_lines_read == expected.host_lines_read
    assert stats.bits_written == bits
    assert stats.host_lines_written == int(np.ceil(bits / 8 / CACHE_LINE_BYTES))
    service.close()
