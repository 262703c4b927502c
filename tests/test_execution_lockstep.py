"""SSB lockstep of the two execution bundles: ``batched`` == ``dispatch``.

``execution="batched"`` (fused single-program kernels + the batched pim-gb
loop) is the production path and ``execution="dispatch"`` (op-by-op
interpreter + per-subgroup loop) its reference.  Each cell registers the
SSB relation with one :class:`QueryService` per bundle — pruned and
broadcast, unsharded and K=4 — and runs the SSB queries through both.  After
every query the twins must agree on the execution (result rows, the full
:class:`PimStats`: the charge multiset, power samples, request rounding; per
shard too) and on the stored state: one ``state_digest()`` over the bank
cells outside the scratch area, wear, dirty-crossbar masks, zone maps,
histograms, the feedback accumulators and the ground truth
(:mod:`twins`).  Each cell's service pair persists across its queries, so
the comparison is cumulative and every query but the first starts from the
columns another candidate set left dirty.

The first four cells run the engine's default (fitted) cost model; two
further cells force every subgroup through PIM, so the batched kernels
carry hundreds of subgroups per query instead of a handful.  The two
``pimdb`` cells do the same on the PIMDB baseline's circuit-less
configuration (bulk-bitwise reduction, operand area reserved), pruned and
not: its batched pim-gb charges the reductions by multiplicity where
``dispatch`` runs one per subgroup and aggregate.
"""

import numpy as np
import pytest
from twins import all_pim_cost_model, assert_same_execution, assert_same_state

from repro.config import DEFAULT_CONFIG, EXECUTIONS
from repro.db.storage import StoredRelation
from repro.pim.module import PimModule
from repro.service import QueryService
from repro.ssb import ALL_QUERIES, QUERY_ORDER
from repro.ssb.prejoined import max_aggregated_width

#: ``id -> (pruning, shards, all_pim, circuit)``.  The keys are opaque test
#: ids: the ``vectorized*`` ones outlived the mode they named and now hold the
#: broadcast cells (renaming ids is the ``test_fused.py`` -> ``test_kernels.py``
#: chore, a PR that does nothing else).
CELLS = {
    "gate-level": (True, 1, False, True),
    "gate-level-k4": (True, 4, False, True),
    "vectorized": (False, 1, False, True),
    "vectorized-k4": (False, 4, False, True),
    "vectorized-allpim": (True, 1, True, True),
    "allpim-k4": (True, 4, True, True),
    "pimdb": (True, 1, True, False),
    "pimdb-unpruned": (False, 1, True, False),
}

#: The queries a cell leaves out.  All-PIM at K=4 runs the 11 queries of
#: the ``ssb_allpim`` benchmark: ``dispatch`` replays Q3.2's and Q4.3's
#: 600-760 subgroups one program at a time on every shard, and the K=1
#: all-PIM cell already carries them.  The pimdb cells leave out Q2.1 (280
#: subgroups), Q3.1 (150), Q3.2 (600) and Q4.3 (800), the unpruned one also
#: Q2.2 (56) and Q4.2 (100): ``dispatch`` runs one bulk-bitwise reduction
#: per subgroup on every crossbar, and on the bool bank those queries took
#: 3-64 s each, so each pimdb cell stays within 10 s there.  The hypothesis
#: lockstep of ``test_batched.py`` covers the circuit-less batched pim-gb
#: with sum, min, max and count aggregates.
LEFT_OUT = {
    "allpim-k4": ("Q3.2", "Q4.3"),
    "pimdb": ("Q2.1", "Q3.1", "Q3.2", "Q4.3"),
    "pimdb-unpruned": ("Q2.1", "Q2.2", "Q3.1", "Q3.2", "Q4.2", "Q4.3"),
}
CELL_QUERIES = {
    cell: [q for q in QUERY_ORDER if q not in LEFT_OUT.get(cell, ())]
    for cell in CELLS
}


def _service(prejoined, execution, pruning, shards, all_pim, circuit) -> QueryService:
    """One bundle's service over its own banks, the relation registered as "ssb"."""
    config = DEFAULT_CONFIG.replace(execution=execution)
    if not circuit:
        config = config.without_aggregation_circuit()
    service = QueryService(pruning=pruning, planner=False)
    options = {
        "config": config,
        "timing_scale": 100.0,
        "cost_model": all_pim_cost_model() if all_pim else None,
    }
    storage = {
        "aggregation_width": max_aggregated_width(prejoined),
        "reserve_bulk_aggregation": not circuit,
    }
    if shards == 1:
        stored = StoredRelation(prejoined, PimModule(config), label="ssb", **storage)
        service.register("ssb", stored, **options)
        assert service.state_digest("ssb") == stored.state_digest()
    else:
        service.register_sharded("ssb", prejoined, shards=shards, **storage, **options)
    return service


@pytest.fixture(scope="module")
def plain_rows(ssb_one_xb_engine):
    """``query name -> rows`` of the plain one-store engine, computed once."""
    rows = {}

    def get(name):
        if name not in rows:
            rows[name] = ssb_one_xb_engine.execute(ALL_QUERIES[name]).rows
        return rows[name]

    return get


@pytest.fixture(scope="module")
def service_pairs(ssb_prejoined):
    """Lazily built ``cell -> ({execution: service}, fresh parts, full)``;
    ``full`` says the cell stores the whole SSB instance."""
    pairs = {}

    def get(cell):
        if cell not in pairs:
            prejoined = ssb_prejoined
            full = not (CELLS[cell][1:3] == (4, True) and DEFAULT_CONFIG.backend == "bool")
            if not full:
                # ``dispatch`` on the byte-per-bit bank simulates every filter
                # and subgroup program op by op: every third row (four
                # crossbars, one per shard) keeps the bool CI cell inside its
                # budget with nothing skipped.
                prejoined = prejoined.select(np.arange(len(prejoined)) % 3 == 0)
            services = {
                execution: _service(prejoined, execution, *CELLS[cell])
                for execution in EXECUTIONS
            }
            assert_same_state(services["batched"], services["dispatch"])
            fresh = [s.state_parts() for s in services["batched"].engine().sharded.shards]
            pairs[cell] = services, fresh, full
        return pairs[cell]

    yield get
    for services, *_ in pairs.values():
        for service in services.values():
            service.close()


@pytest.mark.parametrize(
    "query_name, cell",
    [
        pytest.param(query, cell, id=f"{query}-{cell}")
        for query in QUERY_ORDER
        for cell in CELLS
        if query in CELL_QUERIES[cell]
    ],
)
def test_ssb_batched_matches_dispatch(service_pairs, plain_rows, query_name, cell):
    services, fresh, full = service_pairs(cell)
    query = ALL_QUERIES[query_name]
    batched = services["batched"].execute(query)
    dispatch = services["dispatch"].execute(query)

    assert_same_execution(batched, dispatch)
    if full:
        # Every cell answers what the plain one-store engine answers.
        assert batched.rows == plain_rows(query_name)
    if CELLS[cell][2] and query.group_by:
        # The forced plan: every subgroup went through the batched kernels.
        assert batched.pim_subgroups == batched.total_subgroups > 0
    assert_same_state(services["batched"], services["dispatch"])
    if query_name == CELL_QUERIES[cell][-1]:
        # The queries did leave wear behind, on every store.
        for before, stored in zip(fresh, services["batched"].engine().sharded.shards):
            assert stored.state_parts()["wear"] != before["wear"]
