"""The value-free pim-gb group-mask template against its specialised twins.

``execution="batched"`` never compiles a per-subgroup program: it asks for
one :class:`~repro.db.compiler.GroupMaskTemplate` per partition, evaluates
each GROUP-BY attribute's mismatch once per distinct key value
(:func:`~repro.pim.fused.field_mismatches`, ``eq_const``'s literals selected
along a constant axis), conjoins them per key in one kernel run and charges
each subgroup from a closed form.  The property test pins both halves
against the constant-specialised compilers the ``dispatch`` reference still
uses — the closed-form cost equals the compiled program's op count, and the
template's mask bits equal op-by-op execution of the specialised program,
on both backends, broadcast and on a crossbar subset; explicit cases pin the
mismatch stage's edges and its refusal of a key its field cannot hold.  The
service-level test pins the point of it all: a warm GROUP-BY replay
compiles and lowers nothing and runs one kernel per partition, whatever the
subgroup count and however small the program cache.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DEFAULT_CONFIG
from repro.core import batched, program_cache
from repro.core.batched import _run_partition_batch
from repro.core.latency_model import (
    GroupByCostModel,
    HostGbLatencyModel,
    PimGbLatencyModel,
)
from repro.db.compiler import (
    GroupMaskTemplate,
    compile_group_combine,
    compile_group_mask,
)
from repro.db.query import Aggregate, Query
from repro.db.relation import Relation
from repro.db.schema import Schema, int_attribute
from repro.db.storage import StoredRelation
from repro.pim.fused import BatchKernel, field_mismatches
from repro.pim.logic import ProgramBuilder, ProgramCost
from repro.pim.module import PimModule
from repro.service import QueryService
from repro.service.cache import ProgramCache
from repro.ssb.schema import date_schema

RECORDS = 2500  # three crossbars in use, the last one partly filled
NAMES = ("a", "b", "c")
# The widest field an SSB query groups by: d_year's 11 bits (p_brand1: 10).
WIDEST = date_schema().attribute("d_year").width


@st.composite
def template_cases(draw):
    widths = draw(st.lists(st.integers(1, 12), min_size=3, max_size=3))
    grouped = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=3))
    keys = draw(st.lists(
        st.tuples(*(
            st.integers(0, (1 << widths[NAMES.index(name)]) - 1)
            for name in sorted(grouped)
        )),
        min_size=1, max_size=5,
    ))
    return widths, sorted(grouped), keys, draw(st.integers(0, 2**32 - 1))


@given(
    case=template_cases(),
    include_remote=st.booleans(),
    subset=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_template_equals_specialised_programs(case, include_remote, subset):
    widths, grouped, keys, seed = case
    rng = np.random.default_rng(seed)
    schema = Schema(
        "t", [int_attribute(name, width) for name, width in zip(NAMES, widths)]
    )
    columns = {
        name: rng.integers(0, 1 << width, RECORDS).astype(np.uint64)
        for name, width in zip(NAMES, widths)
    }
    # Make sure some rows carry each key, so the masks are not all-zero.
    for index, key in enumerate(keys):
        for name, value in zip(grouped, key):
            columns[name][index::17] = value
    relation = Relation(schema, columns)
    filter_bits = rng.random(RECORDS) < 0.7
    remote_bits = rng.random((len(keys), RECORDS)) < 0.6
    values = np.array(keys, dtype=np.int64).reshape(len(keys), len(grouped))

    for backend in ("packed", "bool"):
        stored = StoredRelation(
            relation, PimModule(DEFAULT_CONFIG.with_backend(backend)), label="t"
        )
        layout = stored.layouts[0]
        bank = stored.allocations[0].bank
        stored.write_bit_column(0, layout.filter_column, filter_bits, count_wear=False)
        remote_rows = np.zeros((len(keys), bank.count * bank.rows), dtype=bool)
        remote_rows[:, :RECORDS] = remote_bits
        remote_rows = remote_rows.reshape(len(keys), bank.count, bank.rows)
        candidates, xbars = np.ones(bank.count, dtype=bool), None
        if subset:
            candidates = np.zeros(bank.count, dtype=bool)
            candidates[[0, 2]] = True
            xbars = np.flatnonzero(candidates)

        for filter_column, remote in (
            (layout.valid_column, False),
            (layout.filter_column, include_remote),
        ):
            template = GroupMaskTemplate(grouped, layout, filter_column, remote)
            bound = None
            if remote:
                bound = bank.kernel_from_bool(
                    remote_rows if xbars is None else remote_rows[:, xbars]
                )
            value, covered = _run_partition_batch(
                stored, 0, template, values, bound, candidates
            )
            assert np.array_equal(covered, np.flatnonzero(candidates))
            # A template without attributes or remote input passes the filter
            # column through unstacked; production never builds one.
            masks = np.broadcast_to(
                bank.kernel_to_bool(value),
                (len(keys), bank.count if xbars is None else len(xbars), bank.rows),
            )
            cycles = template.cycles(values)

            for index, key in enumerate(keys):
                group_values = dict(zip(grouped, key))
                program = compile_group_mask(group_values, layout, filter_column, remote)
                # What the batched path charges for this key's program.
                cost = ProgramCost(int(cycles[index]), template.result_column)
                assert cost == (program.cycles, program.result_column)
                assert cost.writes_per_row == program.writes_per_row

                scratch = copy.deepcopy(bank)
                if remote:
                    scratch.write_bool_column(layout.remote_column, remote_rows[index])
                program.execute(scratch, xbars)
                expected = scratch.read_column(layout.group_column)
                if xbars is not None:
                    expected = expected[xbars]
                assert np.array_equal(masks[index], expected)


def _one_field_store(width: int, backend: str) -> StoredRelation:
    """One ``width``-bit attribute ``a`` on three crossbars, 0 and 2^W - 1
    among its random values."""
    rng = np.random.default_rng(width)
    column = rng.integers(0, 1 << width, RECORDS).astype(np.uint64)
    column[::5] = 0
    column[1::5] = (1 << width) - 1
    relation = Relation(Schema("t", [int_attribute("a", width)]), {"a": column})
    return StoredRelation(
        relation, PimModule(DEFAULT_CONFIG.with_backend(backend)), label="t"
    )


def _prune(bank, xbars):
    """A candidate mask keeping ``xbars`` (``None``: every crossbar) and the
    bank's ``xbars`` argument for it (``None``: the whole-bank call)."""
    if xbars is None:
        return np.ones(bank.count, dtype=bool), None
    candidates = np.zeros(bank.count, dtype=bool)
    candidates[list(xbars)] = True
    return candidates, np.flatnonzero(candidates)


@pytest.mark.parametrize("backend", ("packed", "bool"))
@pytest.mark.parametrize("xbars", (None, (0, 2), ()), ids=("all", "subset", "none"))
@pytest.mark.parametrize("width, values", (
    (1, (0, 1)),
    (1, (1,)),
    (WIDEST, (0,)),
    (WIDEST, ((1 << WIDEST) - 1, 0, 1992, (1 << WIDEST) - 1, 1992, 0, 7)),
), ids=("w1", "w1-one-value", "widest-one-value", "widest-duplicates"))
def test_equality_stage_edge_cases(backend, xbars, width, values):
    """The mismatch stage against ``eq_const`` and the whole mask against
    ``compile_group_mask``, both executed op by op: W = 1 and the widest
    SSB GROUP-BY field, one distinct value, duplicate keys, the constants 0 and 2^W - 1, broadcast, a non-contiguous
    crossbar subset and an empty one."""
    stored = _one_field_store(width, backend)
    layout = stored.layouts[0]
    bank = stored.allocations[0].bank
    field = layout.field_columns("a")
    candidates, index = _prune(bank, xbars)
    shape = (len(values), bank.count if index is None else index.size, bank.rows)

    mismatches = bank.kernel_to_bool(field_mismatches(bank, field, values, index))
    template = GroupMaskTemplate(["a"], layout, layout.valid_column)
    value, covered = _run_partition_batch(
        stored, 0, template, np.array(values).reshape(-1, 1), None, candidates
    )
    masks = bank.kernel_to_bool(value)
    assert mismatches.shape == masks.shape == shape
    assert np.array_equal(covered, np.flatnonzero(candidates))

    for key, constant in enumerate(values):
        builder = ProgramBuilder(layout.scratch_columns)
        builder.store(builder.eq_const(field, constant), layout.group_column)
        equality = builder.build(result_column=layout.group_column)
        mask = compile_group_mask({"a": constant}, layout, layout.valid_column, False)
        for program, expected in ((equality, ~mismatches[key]), (mask, masks[key])):
            scratch = copy.deepcopy(bank)
            program.execute(scratch, index)
            bits = scratch.read_column(layout.group_column)
            if index is not None:
                bits = bits[index]
            assert np.array_equal(expected, bits)


@pytest.mark.parametrize("backend", ("packed", "bool"))
@pytest.mark.parametrize("xbars", (None, (1,), ()), ids=("all", "subset", "none"))
@pytest.mark.parametrize("bad", (-1, 32, 32 + 3))
def test_equality_stage_rejects_a_key_its_field_cannot_hold(backend, xbars, bad):
    """A direct caller used to get the low W bits of such a value — key
    ``32 + 3`` selected key 3's rows, ``-1`` key 31's; only
    ``GroupMaskTemplate.cycles`` guarded the production path."""
    stored = _one_field_store(5, backend)
    layout = stored.layouts[0]
    bank = stored.allocations[0].bank
    candidates, index = _prune(bank, xbars)
    template = GroupMaskTemplate(["a"], layout, layout.valid_column)
    with pytest.raises(ValueError, match="does not fit"):
        _run_partition_batch(
            stored, 0, template, np.array([[3], [bad]]), None, candidates
        )
    with pytest.raises(ValueError, match="does not fit"):
        field_mismatches(bank, layout.field_columns("a"), [bad], index)


def test_eq_const_cycles_is_the_builder_count():
    for width in (1, 2, 7, 12):
        for value in {0, 1, (1 << width) - 1, (1 << width) // 3}:
            builder = ProgramBuilder(range(100, 112))
            builder.eq_const(list(range(width)), value)
            assert builder.cycles == ProgramBuilder.eq_const_cycles(width, value)
    with pytest.raises(ValueError, match="does not fit"):
        ProgramBuilder.eq_const_cycles(3, 8)


@given(
    widths=st.lists(st.integers(1, 12), min_size=3, max_size=3),
    grouped=st.lists(st.sampled_from(NAMES), unique=True, max_size=3),
    include_remote=st.booleans(),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_template_cycle_array_is_the_per_key_cost(widths, grouped, include_remote, data):
    """``cycles(table)[k]`` is the op count of key ``k``'s specialised
    program — width-limit values included, a template with no attribute (a
    partition holding none of the GROUP-BY columns: a zero-width key table)
    too — and a value that does not fit its field raises, in any row."""
    schema = Schema(
        "t", [int_attribute(name, width) for name, width in zip(NAMES, widths)]
    )
    relation = Relation(schema, {name: np.zeros(4, dtype=np.uint64) for name in NAMES})
    layout = StoredRelation(relation, PimModule(DEFAULT_CONFIG), label="t").layouts[0]
    template = GroupMaskTemplate(grouped, layout, layout.filter_column, include_remote)
    limits = [(1 << widths[NAMES.index(name)]) - 1 for name in template.attributes]
    keys = data.draw(st.lists(
        st.tuples(*(
            st.one_of(st.integers(0, limit), st.sampled_from([0, limit]))
            for limit in limits
        )),
        min_size=1, max_size=12,
    ))
    table = np.array(keys, dtype=np.int64).reshape(len(keys), len(limits))
    cycles = template.cycles(table)
    assert cycles.shape == (len(keys),)
    assert cycles.tolist() == [
        compile_group_combine(
            dict(zip(template.attributes, key)), layout, include_remote
        ).cycles
        for key in keys
    ]
    for column, limit in enumerate(limits):
        for bad in (limit + 1, -1):
            wide = table.copy()
            wide[-1, column] = bad
            with pytest.raises(ValueError, match="does not fit"):
                template.cycles(wide)
            with pytest.raises(ValueError, match="does not fit"):
                template.cycles(wide[-1:])


def _grouped_service(execution: str, capacity: int):
    rng = np.random.default_rng(5)
    schema = Schema("g", [
        int_attribute("key", 6), int_attribute("bucket", 3),
        int_attribute("value", 8),
    ])
    relation = Relation(schema, {
        "key": rng.integers(0, 40, 3000).astype(np.uint64),
        "bucket": rng.integers(0, 2, 3000).astype(np.uint64),
        "value": rng.integers(0, 256, 3000).astype(np.uint64),
    })
    config = DEFAULT_CONFIG.replace(execution=execution)
    stored = StoredRelation(
        relation, PimModule(config), label="g", aggregation_width=20
    )
    # planner=False: always the PIM engine, never the host-scan route.
    service = QueryService(cache_capacity=capacity, planner=False)
    service.register(
        "g", stored, config=config,
        cost_model=GroupByCostModel(
            HostGbLatencyModel({2: 1.0}, {2: 1.0}),   # host absurdly expensive
            PimGbLatencyModel({2: 0.0}, {2: 0.0}),    # PIM free
        ),
    )
    return service, stored


def test_warm_group_by_replay_compiles_and_lowers_nothing(monkeypatch):
    query = Query(
        "grouped", None, (Aggregate("sum", "value"), Aggregate("count")),
        group_by=("key", "bucket"),
    )
    service, stored = _grouped_service("batched", capacity=8)
    reference, reference_stored = _grouped_service("dispatch", capacity=512)
    cache = service.cache
    assert isinstance(cache, ProgramCache) and cache.capacity == 8
    # One partition holds every GROUP-BY column: one template, one kernel.
    assert len(stored.layouts) == 1

    lowered = []
    lower = batched.lower_program

    def lowering(program, *args, **kwargs):
        lowered.append(program)
        return lower(program, *args, **kwargs)

    monkeypatch.setattr(batched, "lower_program", lowering)
    cold = service.execute(query)
    monkeypatch.undo()
    assert cold.pim_subgroups >= 50
    assert cold.pim_subgroups == cold.total_subgroups
    # The cold template build lowers one program: the conjunction.
    (template,) = (
        entry for entry in cache._entries.values()
        if isinstance(entry, GroupMaskTemplate)
    )
    assert lowered == [template.program]

    calls = {"combine": 0, "predicate": 0, "lower": 0, "run": 0}

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        program_cache, "compile_group_combine",
        counting("combine", program_cache.compile_group_combine),
    )
    monkeypatch.setattr(
        program_cache, "compile_group_predicate",
        counting("predicate", program_cache.compile_group_predicate),
    )
    monkeypatch.setattr(
        batched, "lower_program", counting("lower", batched.lower_program)
    )
    monkeypatch.setattr(BatchKernel, "run", counting("run", BatchKernel.run))
    before = cache.snapshot()
    warm = service.execute(query)
    after = cache.snapshot()
    monkeypatch.undo()

    assert calls == {"combine": 0, "predicate": 0, "lower": 0, "run": 1}
    assert after.evictions == before.evictions
    assert after.misses == before.misses
    assert len(cache) <= 8

    reference.execute(query)
    twin = reference.execute(query)
    assert warm.rows == twin.rows
    assert warm.stats == twin.stats
    for ours, theirs in zip(stored.allocations, reference_stored.allocations):
        assert np.array_equal(ours.bank.writes_per_row, theirs.bank.writes_per_row)
    service.close()
    reference.close()
