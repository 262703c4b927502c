"""The batched group-by execution strategy: lockstep parity and plumbing.

The batched strategy (``execution="batched"``, the default) runs one
template kernel per vertical partition for the last key, takes every
PIM-resident subgroup's rows from a key lookup, and charges the subgroups
by multiplicity through
the same accounting entry points the reference loop uses, storing bits and
wear once per GROUP-BY.  The contract is total: identical result rows,
equal :class:`PimStats` (the same multiset of charges and power samples, the
same request counts), and identical stored state — one ``state_digest()``
(:mod:`twins`).  A hypothesis property test drives random data, selectivities,
subgroup counts (K in 1, 2, 4, 20), pruning, and one- vs two-partition
layouts through batched and per-subgroup dispatch in lock step on both
backends, with the aggregation circuit and with the PIMDB bulk-bitwise
reduction, two queries with different candidate crossbars back to back on
each store; deterministic tests pin the stale-crossbar clear of a second
query, the multi-remote fold path, the key lookup and segmented reduction
against ``aggregate_reference``, the K-independence of the stores and of
the charge calls, the one-key kernel runs, the nested-safe scatter pool,
the structural whole-plan memo key, and the pre-scatter empty-shard skip.
"""

import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from twins import all_pim_cost_model, assert_same_execution, assert_same_state

from repro.config import DEFAULT_CONFIG
from repro.core import batched
from repro.core.executor import PimQueryEngine
from repro.core.parallel import ScatterPool
from repro.db.query import Aggregate, And, Comparison, Query, evaluate_predicate
from repro.db.relation import Relation
from repro.db.schema import Schema, dict_attribute, int_attribute
from repro.db.storage import StoredRelation
from repro.pim import arithmetic
from repro.pim.arithmetic import aggregate_reference, segmented_partials
from repro.pim.controller import PimExecutor
from repro.pim.crossbar import CrossbarBank
from repro.pim.fused import BatchKernel
from repro.pim.module import PimModule
from repro.pim.packed import PackedCrossbarBank
from repro.pim.stats import PimStats
from repro.planner.planner import CostPlanner, cold_walk
from repro.service import QueryService
from repro.sharding import ShardedQueryEngine, ShardedStoredRelation

CITIES = ["LYON", "OSLO", "PERTH", "QUITO"] + [f"CITY{i:02d}" for i in range(4, 20)]
REGIONS = ["NORTH", "SOUTH"]

STRATEGIES = ("batched", "dispatch")
BACKENDS = ("packed", "bool")


def _relation(seed: int, num_cities: int, records: int = 384) -> Relation:
    rng = np.random.default_rng(seed)
    schema = Schema("batch", [
        int_attribute("key", 10, source="fact"),
        int_attribute("value", 8, source="fact"),
        dict_attribute("city", CITIES, source="dim"),
        dict_attribute("region", REGIONS, source="dim"),
    ])
    return Relation(schema, {
        "key": np.sort(rng.integers(0, 1 << 10, records).astype(np.uint64)),
        "value": rng.integers(0, 1 << 8, records).astype(np.uint64),
        "city": rng.integers(0, num_cities, records).astype(np.uint64),
        "region": rng.integers(0, len(REGIONS), records).astype(np.uint64),
    })


def _execute(relation, queries, backend, strategy, pruning, partitions, circuit=True):
    """Run ``queries`` back to back on one fresh store; without the circuit,
    the PIMDB baseline's bulk-bitwise reduction aggregates."""
    config = DEFAULT_CONFIG.with_backend(backend).replace(execution=strategy)
    if not circuit:
        config = config.without_aggregation_circuit()
    stored = StoredRelation(
        relation, PimModule(config), label="batch",
        partitions=partitions, aggregation_width=22,
    )
    engine = PimQueryEngine(
        stored, config=config, cost_model=all_pim_cost_model(), pruning=pruning,
    )
    return [engine.execute(query) for query in queries], stored


def _assert_lockstep(relation, queries, pruning, partitions, circuit=True):
    """batched == dispatch on both backends, query after query on one store:
    every execution, then the stored state; the two backends' batched runs
    agree on every execution."""
    runs = {
        (backend, strategy): _execute(
            relation, queries, backend, strategy, pruning, partitions, circuit
        )
        for backend in BACKENDS
        for strategy in STRATEGIES
    }
    for backend in BACKENDS:
        batched_runs, batched_stored = runs[backend, "batched"]
        dispatch_runs, dispatch_stored = runs[backend, "dispatch"]
        for ours, theirs in zip(batched_runs, dispatch_runs, strict=True):
            assert_same_execution(ours, theirs)
            # Every subgroup went through the PIM kernels (the forced plan).
            assert ours.pim_subgroups == ours.total_subgroups
        assert_same_state(batched_stored, dispatch_stored)
    for ours, theirs in zip(
        runs["packed", "batched"][0], runs["bool", "batched"][0], strict=True
    ):
        assert_same_execution(ours, theirs)
    return runs["packed", "batched"][0]


#: Subgroup counts of the lockstep tests: one key (first == last), two (no
#: key in between), and enough that most keys take the charge-only path.
SUBGROUP_COUNTS = [1, 2, 4, 20]
#: Three crossbars' worth of records, so zone maps can tell selections apart.
RECORDS = 2500

GROUP_QUERY = Query(
    "grouped", None,
    (Aggregate("sum", "value"), Aggregate("count"), Aggregate("min", "value")),
    group_by=("city",),
)


def _two_queries(first_below, second_from, aggregates=GROUP_QUERY.aggregates,
                 group_by=("city",)):
    """Two selections over the sorted ``key``: their zone-map candidate
    crossbars differ, so the second query's first subgroup finds the columns
    the first query left dirty on crossbars it now skips."""
    return [
        Query("low", Comparison("key", "<", first_below), aggregates,
              group_by=group_by),
        Query("high", Comparison("key", ">=", second_from), aggregates,
              group_by=group_by),
    ]


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2 ** 31),
    threshold=st.integers(0, 1 << 10),
    second=st.integers(0, 1 << 10),
    num_cities=st.sampled_from(SUBGROUP_COUNTS),
    pruning=st.booleans(),
    split=st.booleans(),                     # one vs two vertical partitions
    circuit=st.booleans(),                   # aggregation circuit vs PIMDB
)
def test_batched_lockstep_with_dispatch(
    seed, threshold, second, num_cities, pruning, split, circuit
):
    """Random data/selectivity: batched == per-subgroup dispatch, bit for bit,
    with the aggregation circuit and with the bulk-bitwise reduction."""
    relation = _relation(seed, num_cities, records=RECORDS)
    partitions = [["key", "value"], ["city", "region"]] if split else None
    queries = _two_queries(
        threshold, second, GROUP_QUERY.aggregates + (Aggregate("max", "value"),)
    )
    _assert_lockstep(relation, queries, pruning, partitions, circuit)


@pytest.mark.parametrize("num_cities", SUBGROUP_COUNTS)
def test_batched_lockstep_second_query_meets_stale_crossbars(num_cities):
    """K in {1, 2, 4, 20}, pruned, two partitions: the first query selects
    rows of the first crossbar only, the second none of it."""
    relation = _relation(seed=21, num_cities=num_cities, records=RECORDS)
    _, second = _assert_lockstep(
        relation, _two_queries(150, 700), True,
        [["key", "value"], ["city", "region"]],
    )
    # One stale clear in the filter stage, one under the first subgroup's mask.
    clears = [s for s in second.stats.power_samples if s.phase == "prune-clear"]
    assert len(clears) == 2


@pytest.mark.parametrize("pruning", [False, True])
def test_batched_lockstep_multi_remote_fold(pruning):
    """Two remote partitions: the batched equality-fold replay is bit-exact."""
    relation = _relation(seed=11, num_cities=4, records=RECORDS)
    queries = _two_queries(
        300, 640, (Aggregate("sum", "value"), Aggregate("max", "value")),
        group_by=("city", "region"),
    )
    partitions = [["key", "value"], ["city"], ["region"]]
    _assert_lockstep(relation, queries, pruning, partitions)


@pytest.mark.parametrize("split", [False, True])
def test_batched_rows_only_for_keys_with_a_selected_row(split):
    """Keys the forced all-PIM plan aggregates without a selected row yield
    no result row: a city no selected record holds, and cities that live
    only on crossbars the zone maps pruned out (both selections sit on the
    first crossbar, which holds cities 0-9 only)."""
    relation = _relation(seed=3, num_cities=20, records=RECORDS)
    relation.columns["city"][:1024] %= 10
    queries = [
        Query(f"below{bound}", Comparison("key", "<", bound),
              GROUP_QUERY.aggregates, group_by=("city",))
        for bound in (3, 150)
    ]
    partitions = [["key", "value"], ["city", "region"]] if split else None
    executions = _assert_lockstep(relation, queries, True, partitions)
    for query, execution in zip(queries, executions):
        assert execution.pim_subgroups == 20
        assert execution.crossbars_scanned < execution.crossbars_total
        selected = evaluate_predicate(query.predicate, relation)
        present = {(int(city),) for city in relation.columns["city"][selected]}
        assert set(execution.rows) == present
        assert 0 < len(present) <= 10
    assert len(set(executions[0].rows)) < 10


def test_batched_is_the_default_and_runs_without_the_circuit(monkeypatch):
    """The default config batches, and so does the circuit-less PIMDB
    configuration: its pim-gb goes through ``run_group_by_batched`` and
    matches the per-subgroup ``dispatch`` loop in rows, stats and state."""
    assert DEFAULT_CONFIG.execution == "batched"
    calls = []
    run = batched.run_group_by_batched

    def spy(engine, query, *args):
        calls.append(query.name)
        return run(engine, query, *args)

    monkeypatch.setattr(batched, "run_group_by_batched", spy)
    relation = _relation(seed=5, num_cities=4)
    runs = {
        strategy: _execute(
            relation, [GROUP_QUERY], "packed", strategy, True, None, circuit=False
        )
        for strategy in STRATEGIES
    }
    assert calls == [GROUP_QUERY.name]
    (ours,), ours_stored = runs["batched"]
    (theirs,), theirs_stored = runs["dispatch"]
    assert ours.pim_subgroups == ours.total_subgroups == 4
    assert ours.rows == theirs.rows
    assert ours.stats == theirs.stats
    assert_same_state(ours_stored, theirs_stored)


# ------------------------------------------------------ segmented reduction
#: Encoded GROUP-BY values of the lookup cases: few, so that tuples repeat,
#: and one past 32 bits.
LOOKUP_VALUES = [0, 1, 2, 5, (1 << 40) + 1]


@st.composite
def _segment_cases(draw):
    count, rows = draw(st.integers(1, 4)), draw(st.sampled_from([1, 8, 16]))
    records = draw(st.integers(1, count * rows))   # last crossbar partly used
    attributes = draw(st.integers(1, 3))
    group_value = st.sampled_from(LOOKUP_VALUES)
    tuples = draw(st.lists(
        st.tuples(*[group_value] * attributes), min_size=records, max_size=records,
    ))
    # Distinct keys, some of them held by no record; a selected record whose
    # tuple is no key belongs to a subgroup left to the host.
    keys = draw(st.lists(
        st.tuples(*[group_value] * attributes), min_size=1, max_size=6, unique=True,
    ))
    selected = draw(st.lists(st.booleans(), min_size=records, max_size=records))
    # The layouts never make the accumulator narrower than the field; a field
    # as wide as the accumulator is what makes sums wrap.
    width = draw(st.sampled_from([8, 22, 64]))
    field_width = draw(st.one_of(st.just(width), st.integers(1, width)))
    top = (1 << field_width) - 1
    values = draw(st.lists(
        st.one_of(st.just(top), st.just(0), st.integers(0, top)),
        min_size=count * rows, max_size=count * rows,
    ))
    operation = draw(st.sampled_from(["sum", "count", "min", "max"]))
    return count, rows, tuples, keys, selected, width, values, operation


@settings(max_examples=150, deadline=None)
@given(case=_segment_cases(), limit=st.sampled_from([1, 6, batched.CODE_LIMIT]))
# Record 0's prefix (0, 0) is no key's, though each value is some key's.
@example(case=(1, 8, [(0, 0, 0), (0, 1, 0), (1, 0, 5)], [(0, 1, 0), (1, 0, 5)],
               [True] * 3, 8, list(range(8)), "sum"), limit=1)
def test_segmented_partials_equal_aggregate_reference(case, limit):
    """The key lookup of the batched pim-gb places every selected record
    whose GROUP-BY tuple is a key in that key's subgroup, and no other
    record, sorted by ``(key, record)`` — on 1-3 attributes, with selected
    records whose tuple is no key, and with the prefix codes re-ranked
    before every attribute or some (a lowered ``CODE_LIMIT``) — and all
    K x crossbar partials from one ``reduceat`` over its runs equal the
    per-key ``aggregate_reference``: sums wrap at the accumulator width (and
    at 2**64), untouched crossbars hold the identity, empty subgroups too."""
    count, rows, tuples, keys, selected, width, values, operation = case
    values = np.array(values, dtype=np.uint64).reshape(count, rows)
    table = np.array(tuples, dtype=np.uint64)
    key_table = np.array(keys, dtype=np.int64)
    selected = np.flatnonzero(selected)
    # Per record: the key owning it, -1 when it is unselected or no key.
    owner = np.array([
        keys.index(held) if index in selected and held in keys else -1
        for index, held in enumerate(tuples)
    ])
    mask_bits = owner[None, :] == np.arange(len(keys))[:, None]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batched, "CODE_LIMIT", limit)
        records, starts, cells = batched._key_runs(
            list(table[selected].T), key_table, selected, rows, count
        )
    # Sorted by (key, record), exactly like a scan of the per-key masks.
    assert np.array_equal(records, np.nonzero(mask_bits)[1])
    gathered = values.reshape(-1)[records]
    if operation == "count":
        gathered = np.ones(len(records), dtype=np.uint64)
    partials = segmented_partials(
        gathered, starts, cells, (len(keys), count),
        "sum" if operation == "count" else operation, width,
    )
    assert partials.dtype == np.uint64 and partials.shape == (len(keys), count)
    for key in range(len(keys)):
        mask = np.zeros(count * rows, dtype=bool)
        mask[: len(owner)] = mask_bits[key]
        expected = aggregate_reference(
            values, mask.reshape(count, rows), operation, width
        )
        assert np.array_equal(partials[key], expected)


# --------------------------------------------- stores do not scale with K
def _keyed_service(execution: str, distinct_keys: int):
    """All-PIM service over ``2 * distinct_keys`` subgroups, two partitions
    (so every subgroup also pays a remote program and a bit-column transfer)."""
    rng = np.random.default_rng(17)
    schema = Schema("k", [
        int_attribute("key", 6), int_attribute("bucket", 1),
        int_attribute("value", 8),
    ])
    relation = Relation(schema, {
        "key": rng.integers(0, distinct_keys, 3000).astype(np.uint64),
        "bucket": rng.integers(0, 2, 3000).astype(np.uint64),
        "value": rng.integers(0, 256, 3000).astype(np.uint64),
    })
    config = DEFAULT_CONFIG.replace(execution=execution)
    stored = StoredRelation(
        relation, PimModule(config), label="k", aggregation_width=20,
        partitions=[["value"], ["key", "bucket"]],
    )
    # planner=False: always the PIM engine, never the host-scan route.
    service = QueryService(planner=False)
    service.register(
        "k", stored, config=config, cost_model=all_pim_cost_model(),
        timing_scale=100.0,       # enough modelled pages for whole requests
    )
    return service, stored


def test_group_by_stores_do_not_scale_with_subgroups(monkeypatch):
    """A K-subgroup pim-gb writes its bookkeeping columns for the last key
    only, stores one result row and never aggregates per key —
    the same call counts at K=20 and K=80 — while rows, ``PimStats`` and wear
    stay those of the per-subgroup ``dispatch`` twin."""
    query = Query(
        "keyed", Comparison("value", "<", 200),
        (Aggregate("sum", "value"), Aggregate("count"), Aggregate("min", "value")),
        group_by=("key", "bucket"),
    )
    inside = []          # non-empty while run_group_by_batched is on the stack

    def scoped(function):
        def wrapper(*args, **kwargs):
            inside.append(True)
            try:
                return function(*args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    def counting(calls, name, function):
        def wrapper(*args, **kwargs):
            calls[name] += bool(inside)
            return function(*args, **kwargs)
        return wrapper

    counts = {}
    for distinct_keys in (10, 40):
        service, stored = _keyed_service("batched", distinct_keys)
        reference, _ = _keyed_service("dispatch", distinct_keys)
        bank_type = type(stored.allocations[0].bank)
        calls = {"write_bit_column": 0, "write_field_row": 0, "aggregate_reference": 0}
        with monkeypatch.context() as patch:
            patch.setattr(
                batched, "run_group_by_batched",
                scoped(batched.run_group_by_batched),
            )
            patch.setattr(StoredRelation, "write_bit_column", counting(
                calls, "write_bit_column", StoredRelation.write_bit_column))
            patch.setattr(bank_type, "write_field_row", counting(
                calls, "write_field_row", bank_type.write_field_row))
            patch.setattr(arithmetic, "aggregate_reference", counting(
                calls, "aggregate_reference", arithmetic.aggregate_reference))
            execution = service.execute(query)
        assert execution.pim_subgroups == execution.total_subgroups
        assert execution.pim_subgroups == 2 * distinct_keys
        counts[distinct_keys] = calls

        twin = reference.execute(query)
        assert len(twin.rows) == 2 * distinct_keys
        assert_same_execution(execution, twin)
        assert execution.stats.pim_requests > 0
        assert_same_state(service, reference)
        service.close()
        reference.close()

    # The last key only: remote mask, transfer, combine mask and clear.
    assert counts[10] == counts[40] == {
        "write_bit_column": 4, "write_field_row": 1, "aggregate_reference": 0,
    }


def _charge_service(execution, subgroups, pruning, partitions, backend="packed"):
    rng = np.random.default_rng(23)
    schema = Schema("c", [
        int_attribute("key", 6), int_attribute("bucket", 1),
        int_attribute("value", 8),
    ])
    relation = Relation(schema, {
        "key": rng.integers(0, subgroups // 2, 3000).astype(np.uint64),
        "bucket": rng.integers(0, 2, 3000).astype(np.uint64),
        "value": np.sort(rng.integers(0, 256, 3000).astype(np.uint64)),
    })
    config = DEFAULT_CONFIG.replace(execution=execution).with_backend(backend)
    stored = StoredRelation(
        relation, PimModule(config), label="c", aggregation_width=20,
        partitions=partitions,
    )
    service = QueryService(planner=False, pruning=pruning)
    service.register(
        "c", stored, config=config, cost_model=all_pim_cost_model(),
        timing_scale=100.0,
    )
    return service, stored


@pytest.mark.parametrize("partitions", [None, [["value"], ["key"], ["bucket"]]])
@pytest.mark.parametrize("pruning", [False, True])
def test_group_by_charge_calls_do_not_scale_with_subgroups(
    monkeypatch, pruning, partitions
):
    """8 or 64 subgroups: the pim-gb path issues the same number of stats
    calls, up to one counted program charge per distinct cycle count among
    the keys before the last — while rows, ``PimStats``,
    stored bits, dirty marks and wear stay the ``dispatch`` oracle's."""
    query = Query(
        "charged", Comparison("value", "<", 120),
        (Aggregate("sum", "value"), Aggregate("count"), Aggregate("max", "value")),
        group_by=("key", "bucket"),
    )
    # One specialised mask program per partition holding GROUP-BY attributes.
    slots = [(0, 1)] if partitions is None else [(0,), (1,)]
    inside = []          # the keys, while run_group_by_batched is on the stack

    def scoped(function):
        def wrapper(engine, query, primary, mask, keys, *args, **kwargs):
            inside.append(keys)
            try:
                return function(engine, query, primary, mask, keys, *args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    def counting(calls, name, function):
        def wrapper(*args, **kwargs):
            calls[name] += bool(inside)
            if inside:
                calls["keys"] = inside[-1]
            return function(*args, **kwargs)
        return wrapper

    wrapped = (
        (PimStats, "add_time"), (PimStats, "add_energy"),
        (PimStats, "add_power_sample"), (PimExecutor, "_record_phase"),
    )
    fixed = {}
    for subgroups in (8, 64):
        service, stored = _charge_service("batched", subgroups, pruning, partitions)
        reference, _ = _charge_service("dispatch", subgroups, pruning, partitions)
        calls = dict.fromkeys((name for _, name in wrapped), 0)
        with monkeypatch.context() as patch:
            patch.setattr(
                batched, "run_group_by_batched",
                scoped(batched.run_group_by_batched),
            )
            for owner, name in wrapped:
                patch.setattr(owner, name, counting(calls, name, getattr(owner, name)))
            execution = service.execute(query)
        assert execution.pim_subgroups == execution.total_subgroups == subgroups

        twin = reference.execute(query)
        assert len(twin.rows) == subgroups
        assert_same_execution(execution, twin)
        assert_same_state(service, reference)

        earlier = calls.pop("keys")[:-1]
        distinct = sum(
            len({sum(key[a].bit_count() for a in slot) for key in earlier})
            for slot in slots
        )
        # A program charge is one _record_phase: one time, two energy
        # charges (logic + controller) and one power sample.
        weights = {
            "_record_phase": 1, "add_time": 1, "add_energy": 2, "add_power_sample": 1,
        }
        fixed[subgroups] = {
            name: count - weights[name] * distinct for name, count in calls.items()
        }
        if subgroups == 64:     # fewer than one program charge per subgroup
            assert calls["_record_phase"] < subgroups
        service.close()
        reference.close()
    assert fixed[8] == fixed[64]


@pytest.mark.parametrize("partitions", [None, [["value"], ["key"], ["bucket"]]])
@pytest.mark.parametrize("pruning", [False, True])
def test_group_by_mask_decodes_do_not_scale_with_subgroups(
    monkeypatch, pruning, partitions
):
    """8 or 64 subgroups: one mask is decoded per partition, the last key's
    — never a ``(K, crossbars, rows)`` array — while rows, ``PimStats``,
    stored bits, dirty marks and wear stay the oracle's."""
    query = Query(
        "decoded", Comparison("value", "<", 120),
        (Aggregate("sum", "value"), Aggregate("count"), Aggregate("max", "value")),
        group_by=("key", "bucket"),
    )
    remote_partitions = 0 if partitions is None else 2
    for backend in BACKENDS:
        decoded = {}
        for subgroups in (8, 64):
            service, stored = _charge_service(
                "batched", subgroups, pruning, partitions, backend
            )
            reference, _ = _charge_service(
                "dispatch", subgroups, pruning, partitions, backend
            )
            bank = stored.allocations[0].bank
            sizes = []
            with monkeypatch.context() as patch:
                for bank_type in (CrossbarBank, PackedCrossbarBank):
                    def counting(self, value, inner=bank_type.kernel_to_bool):
                        bits = inner(self, value)
                        sizes.append(bits.size)
                        return bits
                    patch.setattr(bank_type, "kernel_to_bool", counting)
                execution = service.execute(query)
            assert execution.pim_subgroups == execution.total_subgroups == subgroups
            decoded[subgroups] = sizes
            assert 0 < sum(sizes) <= (1 + remote_partitions) * bank.count * bank.rows

            twin = reference.execute(query)
            assert len(twin.rows) == subgroups
            assert_same_execution(execution, twin)
            assert_same_state(service, reference)
            service.close()
            reference.close()
        assert decoded[8] == decoded[64]


@pytest.mark.parametrize("partitions", [None, [["value"], ["key"], ["bucket"]]])
def test_group_by_kernels_bind_the_last_key_only(monkeypatch, partitions):
    """K = 20 on one and on three vertical partitions: each partition's
    template kernel runs once, on values of one key — every bound mismatch
    and remote value has a leading axis of 1 — and each selected row's
    subgroup comes from its key, not from a K-mask value."""
    service, stored = _charge_service("batched", 20, True, partitions)
    reference, _ = _charge_service("dispatch", 20, True, partitions)
    query = Query(
        "last", Comparison("value", "<", 120), (Aggregate("sum", "value"),),
        group_by=("key", "bucket"),
    )
    leading = []
    run = BatchKernel.run

    def spy(self, bank, xbars=None, bound=None):
        leading.append(sorted({len(value) for value in (bound or {}).values()}))
        return run(self, bank, xbars, bound)

    with monkeypatch.context() as patch:
        patch.setattr(BatchKernel, "run", spy)
        execution = service.execute(query)
    assert execution.pim_subgroups == execution.total_subgroups == 20
    assert leading == [[1]] * len(stored.layouts)
    assert_same_execution(execution, reference.execute(query))
    assert_same_state(service, reference)
    service.close()
    reference.close()


# --------------------------------------------------------------- scatter pool
def test_scatter_pool_nested_map_runs_inline():
    """A map issued from a pool worker runs on that worker's own thread, so
    one pool can serve both the shard scatter and the per-partition kernels
    without deadlocking on its own slots."""
    with ScatterPool(2) as pool:
        def outer(_):
            worker = threading.current_thread().name
            inner = pool.map(
                lambda _: threading.current_thread().name, [0, 1, 2]
            )
            return worker, inner

        for worker, inner in pool.map(outer, [0, 1]):
            assert all(name == worker for name in inner)


def test_scatter_pool_single_worker_runs_inline_and_ordered():
    with ScatterPool(1) as pool:
        assert pool.parallel is False
        assert pool.map(lambda x: x * x, [3, 1, 2]) == [9, 1, 4]
        assert pool._executor is None        # never spun up a thread
    with ScatterPool(3) as pool:
        assert pool.map(lambda x: x * x, list(range(8))) == [
            x * x for x in range(8)
        ]


def test_worker_counts_below_one_are_rejected_not_clamped():
    """``register_sharded`` raises what ``ScatterPool`` and
    ``QueryService(scatter_workers=)`` raise, before it allocates a shard;
    nothing is registered."""
    relation = _relation(seed=13, num_cities=4)
    message = "max_workers must be at least 1"
    for workers in (0, -3):
        with pytest.raises(ValueError, match=message):
            ScatterPool(workers)
        with pytest.raises(ValueError, match=message):
            QueryService(scatter_workers=workers)
        with QueryService(scatter_workers=1) as service:
            module = PimModule(DEFAULT_CONFIG)
            with pytest.raises(ValueError, match=message):
                service.register_sharded(
                    "r", relation, shards=2, module=module, max_workers=workers,
                    aggregation_width=22,
                )
            assert service.relations == []
            assert module.allocations == []


@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
def test_rejected_scatter_pool_is_collected_quietly():
    """``__init__`` assigns ``_executor`` before it validates, so the
    finalizer of a rejected pool has nothing to trip over (pytest turns an
    exception ignored in ``__del__`` into the warning made an error here)."""
    import gc

    with pytest.raises(ValueError):
        ScatterPool(0)
    gc.collect()


# ------------------------------------------------ structural fragment keys
def test_plan_memo_keys_on_structural_predicate_form():
    """Structurally equal predicates built separately share the candidate
    cache's fragment entries: the second plan, conjuncts reordered in fresh
    objects, finds every fragment cached and re-walks no zone map."""
    relation = _relation(seed=9, num_cities=4)
    config = DEFAULT_CONFIG
    stored = StoredRelation(
        relation, PimModule(config), label="memo", aggregation_width=22
    )
    engine = PimQueryEngine(stored, config=config, pruning=True)
    statistics = engine.stored.statistics
    a = Comparison("key", "<", 512)
    b = Comparison("city", "==", "OSLO")
    first = statistics.plan(
        And((a, b)), stored.partition_attributes,
        config.pim.crossbars_per_page,
    )
    assert first.entries_checked > 0
    # Fresh objects, conjuncts reordered: same structural normal form.
    replay = statistics.plan(
        And((Comparison("city", "==", "OSLO"), Comparison("key", "<", 512))),
        stored.partition_attributes, config.pim.crossbars_per_page,
    )
    assert replay.entries_checked == 0
    for ours, theirs in zip(replay.candidates, first.candidates):
        assert np.array_equal(ours, theirs)


def _billed_check_s(execution) -> float:
    """The execution's modelled ``zonemap-check`` time (0 when not billed)."""
    return execution.stats.time_by_phase.get("zonemap-check", 0.0)


def _check_s(statistics, entries: int) -> float:
    """What billing ``entries`` zone-map entries charges."""
    stats = PimStats()
    statistics.charge_check(stats, DEFAULT_CONFIG.host, entries)
    return stats.time_by_phase["zonemap-check"]


def test_cold_pim_execution_bills_the_cold_walk_and_a_replay_nothing():
    relation = _relation(seed=10, num_cities=4)
    stored = StoredRelation(
        relation, PimModule(DEFAULT_CONFIG), label="bill", aggregation_width=22
    )
    engine = PimQueryEngine(stored, config=DEFAULT_CONFIG, pruning=True)
    query = Query(
        "bill", Comparison("key", "<", 256),
        (Aggregate("sum", "value"), Aggregate("count")), group_by=("city",),
    )
    walk = cold_walk(
        stored.statistics, query.predicate, stored.partition_attributes,
        DEFAULT_CONFIG.pim.crossbars_per_page,
    )
    assert walk.entries_checked > 0
    cold = engine.execute(query)
    assert _billed_check_s(cold) == _check_s(stored.statistics, walk.entries_checked)
    replay = engine.execute(query)
    assert replay.rows == cold.rows
    assert _billed_check_s(replay) == 0.0


def test_host_route_bills_no_walk_and_leaves_none_for_the_pim_route():
    """A host scan reads no zone map, so it bills none — not in its stats
    and not in its trace; the plan it made left its fragments in the
    candidate cache, so another engine's PIM execution of the same predicate
    at the same statistics version plans through that cache and bills
    nothing either."""
    from repro.obs.trace import SpanTracer, fold_trace_charges

    relation = _relation(seed=10, num_cities=4)
    stored = StoredRelation(
        relation, PimModule(DEFAULT_CONFIG), label="bill", aggregation_width=22
    )
    routed = PimQueryEngine(
        stored, config=DEFAULT_CONFIG, pruning=True, router=CostPlanner(),
        tracer=SpanTracer(enabled=True),
    )
    pim = PimQueryEngine(stored, config=DEFAULT_CONFIG, pruning=True)
    broad = Query(
        "broad", Comparison("value", ">=", 0),
        (Aggregate("sum", "value"), Aggregate("count")),
    )
    version = stored.statistics._version
    host = routed.execute(broad)
    assert host.label.endswith("/host-scan")
    assert _billed_check_s(host) == 0.0
    traced = fold_trace_charges(routed.tracer.pop_trace())
    assert traced["time"] == dict(host.stats.time_by_phase)
    assert stored.statistics._version == version     # no feedback rebuild
    later = pim.execute(broad)
    assert later.rows == host.rows
    assert _billed_check_s(later) == 0.0


# ------------------------------------------------- pre-scatter empty shards
def test_prescatter_skips_provably_empty_shards():
    """Shards whose zone maps rule the predicate out are flagged by the
    cold-walk helper and the merged execution is unchanged: bit-exact rows,
    zero crossbars scanned on the empty shards."""
    relation = _relation(seed=12, num_cities=4, records=512)
    engines = {}
    for pruning in (False, True):
        sharded = ShardedStoredRelation(
            relation, PimModule(DEFAULT_CONFIG), shards=4,
            label=f"pre{pruning}", aggregation_width=22,
            reserve_bulk_aggregation=False,
        )
        engines[pruning] = ShardedQueryEngine(
            sharded, label=f"pre{pruning}", pruning=pruning,
        )
    # keys are sorted, so a low-key predicate empties the upper shards.
    query = Query(
        "low", Comparison("key", "<", 40),
        (Aggregate("sum", "value"), Aggregate("count")), group_by=("city",),
    )
    flags = engines[True]._prescatter_empty(query)
    assert flags[0] is False and any(flags[1:])
    assert engines[False]._prescatter_empty(query) == [False] * 4
    pruned = engines[True].execute(query)
    unpruned = engines[False].execute(query)
    assert pruned.rows == unpruned.rows
    assert pruned.shards_skipped == sum(flags)
    for flagged, execution in zip(flags, pruned.shard_executions):
        if flagged:
            assert execution.crossbars_scanned == 0


def test_prescatter_leaves_the_execution_stats_alone():
    """The cold-walk helper touches no memo and bills nothing: an execution
    after it charges exactly what one without it does, shard by shard."""
    relation = _relation(seed=12, num_cities=4, records=512)
    query = Query(
        "low", Comparison("key", "<", 40),
        (Aggregate("sum", "value"), Aggregate("count")), group_by=("city",),
    )
    executions = []
    for inspect in (False, True):
        sharded = ShardedStoredRelation(
            relation, PimModule(DEFAULT_CONFIG), shards=4, label="pre",
            aggregation_width=22, reserve_bulk_aggregation=False,
        )
        engine = ShardedQueryEngine(sharded, label="pre", pruning=True)
        if inspect:
            assert any(engine._prescatter_empty(query))
        executions.append(engine.execute(query))
    plain, inspected = executions
    assert any(_billed_check_s(e) > 0 for e in plain.shard_executions)
    assert inspected.rows == plain.rows
    assert inspected.stats == plain.stats
    for ours, theirs in zip(inspected.shard_executions, plain.shard_executions):
        assert ours.stats == theirs.stats


# ------------------------------------------------------------- stats totals
def test_stats_totals_breakdown_tracks_every_field():
    stats = PimStats()
    stats.add_time("filter", 0.25)
    stats.add_energy("logic", 1.5)
    stats.add_events("logic_ops", 3.5, count=2)
    stats.add_events("bits_read", 16)
    stats.add_events("bits_written", 0.5)
    stats.add_power_sample("filter", 0.25, 3.0)
    totals = stats.totals()
    assert totals["time:filter"] == 0.25
    assert totals["energy:logic"] == 1.5
    assert totals["logic_ops"] == stats.logic_ops == 7.0
    assert totals["bits_read"] == stats.summary()["bits_read"] == 16.0
    assert totals["bits_written"] == stats.bits_written == 0.5
    assert totals["peak_chip_power_w"] == 3.0
    with pytest.raises(ValueError, match="unknown event count"):
        stats.add_events("logic_opps", 1)
    with pytest.raises(AttributeError):
        stats.logic_ops = 7          # a read-out, not a field
    other = stats.copy()
    assert other.totals() == totals
    other.add_time("filter", 1e-9)
    assert other.totals() != totals
