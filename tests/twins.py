"""The one twin oracle of the lockstep tests.

A twin test runs the same statements on two engines that must not differ —
``execution="batched"`` against its ``dispatch`` reference, a columnar
statement against its per-record loop, two scatter widths — and compares:

* every execution with :func:`assert_same_execution` (rows, the plan
  figures, the full :class:`~repro.pim.stats.PimStats` and its totals, shard
  by shard);
* the stores with :func:`assert_same_state`: one
  :meth:`~repro.db.storage.StoredRelation.state_digest` per relation, and on
  a mismatch the named parts (``bank``, ``wear``, ``histograms``, ...) that
  differ.

The digest hashes cells as stored, so twins on *different* bank backends
compare banks with :func:`assert_banks_equal` instead.

:func:`reference_group_aggregate` is the plain-NumPy GROUP-BY every engine's
rows are checked against, :func:`pair_sketch` the correlated-pair sketch
every compaction-built one is checked against, and :func:`aggregation_pass`
runs the engine's aggregation pass that the gate-level bulk-bitwise
reduction is checked against.
"""

import copy
import dataclasses
from collections.abc import Sequence
from types import SimpleNamespace

import numpy as np

from repro.core.latency_model import (
    GroupByCostModel,
    HostGbLatencyModel,
    PimGbLatencyModel,
)
from repro.config import DEFAULT_CONFIG
from repro.core.executor import PimQueryEngine
from repro.db.query import EQ, Aggregate, Comparison, Query
from repro.db.relation import Relation
from repro.db.schema import Schema, int_attribute
from repro.db.storage import StoredRelation
from repro.pim.module import PimModule
from repro.planner.zonemap import PairZoneMap
from repro.service import QueryService

#: Execution fields a twin must reproduce besides ``rows`` and ``stats``.
_EXECUTION_FIELDS = (
    "selectivity", "total_subgroups", "pim_subgroups", "max_writes_per_row",
    "crossbars_total", "crossbars_scanned", "estimated_selectivity", "route",
)


def all_pim_cost_model() -> GroupByCostModel:
    """Route every subgroup through pim-gb: host absurdly expensive, PIM free."""
    return GroupByCostModel(
        HostGbLatencyModel({2: 1.0}, {2: 1.0}),
        PimGbLatencyModel({2: 0.0}, {2: 0.0}),
    )


def aggregation_pass(values, mask, operation, width, backend, circuit=False):
    """One production aggregation pass, and the gate-level bulk reduction.

    ``values`` and ``mask`` are ``(crossbars, rows)``: a ``width``-bit field
    and the records to aggregate, stored one crossbar per page of ``rows``-row
    crossbars.  A filter-only query (``operation`` of the field, or a
    ``count``, over ``mask``) runs through the engine of the PIMDB
    configuration — or, with ``circuit``, of the aggregation circuit's.
    Returns ``execution``, ``bank`` and ``layout`` and, for the PIMDB
    configuration, the bulk-bitwise ``plan`` the stage billed, its
    accumulator field of row 0 as the pass left it (``row0``), and
    :meth:`~repro.pim.arithmetic.BulkAggregationPlan.run_gate_level` run on
    a copy of the bank (``gate``, and the copy's row 0 ``gate_row0``).
    """
    values = np.asarray(values, dtype=np.uint64)
    rows = values.shape[1]
    crossbar = dataclasses.replace(DEFAULT_CONFIG.pim.crossbar, rows=rows)
    pim = dataclasses.replace(
        DEFAULT_CONFIG.pim, crossbar=crossbar, huge_page_bytes=crossbar.bits // 8
    )
    config = DEFAULT_CONFIG.replace(pim=pim).with_backend(backend)
    if not circuit:
        config = config.without_aggregation_circuit()
    relation = Relation(
        Schema("bulk", [int_attribute("v", width), int_attribute("m", 1)]),
        {"v": values.reshape(-1),
         "m": np.asarray(mask, dtype=np.uint64).reshape(-1)},
    )
    stored = StoredRelation(
        relation, PimModule(config), reserve_bulk_aggregation=not circuit
    )
    engine = PimQueryEngine(stored)
    aggregate = Aggregate(operation, None if operation == "count" else "v")
    execution = engine.execute(
        Query("bulk", Comparison("m", EQ, 1), (aggregate,))
    )
    bank, layout = stored.allocations[0].bank, stored.layouts[0]
    result = SimpleNamespace(execution=execution, bank=bank, layout=layout)
    if not circuit:
        plan = engine.aggregation_stage._pass(aggregate, 0, layout.filter_column)[2]
        acc = (plan.acc_offset, plan.acc_width)
        twin = copy.deepcopy(bank)
        result.plan = plan
        result.row0 = bank.read_field_all(*acc)[:, 0]
        result.gate = plan.run_gate_level(twin)
        result.gate_row0 = twin.read_field_all(*acc)[:, 0]
    return result


def reference_group_aggregate(
    relation: Relation,
    mask: np.ndarray,
    group_by: Sequence[str],
    aggregates: Sequence[Aggregate],
) -> dict[tuple[int, ...], dict[str, int]]:
    """Reference GROUP-BY aggregation used to validate every engine.

    Returns ``{group_key_codes: {aggregate_name: value}}``.  With an empty
    ``group_by`` the single key is the empty tuple.
    """
    mask = np.asarray(mask, dtype=bool)
    selected_indices = np.nonzero(mask)[0]
    results: dict[tuple[int, ...], dict[str, int]] = {}
    if len(group_by) == 0:
        keys = np.zeros((len(selected_indices), 0), dtype=np.uint64)
    else:
        keys = np.stack(
            [relation.column(name)[selected_indices] for name in group_by], axis=1
        )
    if len(selected_indices) == 0:
        return results
    unique_keys, inverse = np.unique(keys, axis=0, return_inverse=True)
    for key_index, key in enumerate(unique_keys):
        group_rows = selected_indices[inverse == key_index]
        entry: dict[str, int] = {}
        for aggregate in aggregates:
            if aggregate.op == "count":
                entry[aggregate.name] = int(len(group_rows))
                continue
            values = relation.column(aggregate.attribute)[group_rows]
            if aggregate.op == "sum":
                # Widened: the column's own dtype may not hold the total.
                entry[aggregate.name] = int(values.sum(dtype=np.uint64))
            elif aggregate.op == "min":
                entry[aggregate.name] = int(values.min())
            else:
                entry[aggregate.name] = int(values.max())
        results[tuple(int(v) for v in key)] = entry
    return results


def pair_sketch(
    attributes, schema, crossbars: int, rows: int, relation: Relation,
    valid: np.ndarray | None = None,
) -> PairZoneMap:
    """A pair sketch over the slot-aligned ground truth, record by record.

    ``valid`` (one bool per slot in use) leaves tombstoned slots out; without
    it every slot is live.  Built through ``note_insert``, not through the
    compaction's ``rebuild``, so it is an independent reference.
    """
    pair = PairZoneMap(attributes, schema, crossbars, rows)
    slots = np.arange(len(relation)) if valid is None else np.flatnonzero(valid)
    pair.note_insert(
        slots, {name: relation.column(name)[slots] for name in pair.attributes}
    )
    return pair


def assert_same_execution(ours, theirs) -> None:
    """Equal rows, plan figures and modelled statistics, per shard too."""
    name = ours.query.name
    assert ours.rows == theirs.rows, name
    for field in _EXECUTION_FIELDS:
        assert getattr(ours, field) == getattr(theirs, field), (name, field)
    # Granular first for a readable failure; the dataclass equality then
    # covers every field (charge multiset, power samples, request counts).
    assert dict(ours.stats.time_by_phase) == dict(theirs.stats.time_by_phase), name
    assert dict(ours.stats.energy_by_component) == dict(
        theirs.stats.energy_by_component
    ), name
    assert ours.stats == theirs.stats, name
    assert ours.stats.totals() == theirs.stats.totals(), name
    shards = [getattr(e, "shard_executions", []) for e in (ours, theirs)]
    assert len(shards[0]) == len(shards[1]), name
    for mine, other in zip(*shards):
        assert_same_execution(mine, other)


def _relation_store(twin):
    """The store of a service's default relation, or ``twin`` itself."""
    return twin.engine().sharded if isinstance(twin, QueryService) else twin


def assert_same_state(ours, theirs) -> None:
    """Equal :meth:`state_digest`; a mismatch names the store and the parts.

    ``ours`` and ``theirs`` are services (their default relation), sharded
    relations or stores.
    """
    ours, theirs = _relation_store(ours), _relation_store(theirs)
    if ours.state_digest() == theirs.state_digest():
        return
    assert len(ours.shards) == len(theirs.shards), "different store counts"
    for index, (mine, other) in enumerate(zip(ours.shards, theirs.shards)):
        a, b = mine.state_parts(), other.state_parts()
        differing = [name for name in a if a[name] != b[name]]
        assert not differing, f"store {index}: {', '.join(differing)} differ"


def assert_banks_equal(a, b) -> None:
    """Both banks hold the same cells and both wear counters, across backends."""
    assert (a.count, a.rows, a.columns) == (b.count, b.rows, b.columns)
    for column in range(a.columns):
        assert np.array_equal(a.read_column(column), b.read_column(column)), (
            f"column {column} differs"
        )
    assert np.array_equal(a.xbar_wear, b.xbar_wear)
    assert np.array_equal(a.row_wear, b.row_wear)
