"""The fused kernel pipeline: NOR-DAG lowering and fused-vs-dispatch parity.

Three layers are locked in here:

* **IR** (:mod:`repro.pim.ir`): lowering a compiled program into the
  optimized NOR DAG applies CSE, constant folding and double-negation
  elimination — the tests pin hand-computed gate counts and critical-path
  depths, and an independent reimplementation recomputes every depth.
* **Kernel** (:mod:`repro.pim.fused`): a hypothesis property test drives
  random programs through dispatch and fused execution on both backends in
  lock step — bit-identical cells and wear, broadcast and masked — and
  pins the functional run: it returns what the in-place run writes and
  writes nothing.
* **Execution**: engines configured ``execution="batched"`` (single
  programs run as fused kernels) and ``execution="dispatch"`` must produce
  identical rows and bit-identical
  :class:`~repro.pim.stats.PimStats` across backends, pruning, and both
  aggregation paths (circuit and bulk-bitwise).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from twins import assert_banks_equal, assert_same_execution

from repro.config import DEFAULT_CONFIG
from repro.core.executor import PimQueryEngine
from repro.db.query import Aggregate, And, Comparison, Query
from repro.db.relation import Relation
from repro.db.schema import Schema, dict_attribute, int_attribute
from repro.db.storage import StoredRelation
from repro.pim.arithmetic import build_ripple_add
from repro.pim.controller import PimExecutor
from repro.pim.fused import compile_batch
from repro.pim.ir import CONST, INPUT
from repro.pim.logic import InitOp, NorOp, Program, ProgramBuilder
from repro.pim.module import PimModule
from repro.pim.packed import make_bank
from repro.pim.stats import PimStats
from repro.service.cache import ProgramCache

ROWS = 70          # crosses the 64-row packed word boundary
COLUMNS = 32
COUNT = 3
SCRATCH = range(16, 32)

CITIES = ["LYON", "OSLO", "PERTH", "QUITO"]


# ------------------------------------------------------------ IR lowering
def _recomputed_depth(dag) -> int:
    """Independent reimplementation of the depth rule (pyCircuit's cells)."""
    depths = []
    for kind, payload in zip(dag.kinds, dag.payloads):
        if kind == INPUT:
            depths.append(0)
        elif kind == CONST:
            depths.append(1)
        else:
            depths.append(1 + max(depths[i] for i in payload))
    return max((depths[node] for _, node in dag.outputs), default=0)


def test_cse_shares_duplicate_subcircuits():
    """Computing the same XNOR twice costs cycles but lowers to one circuit."""
    builder = ProgramBuilder(SCRATCH)
    x1 = builder.xnor(0, 1)
    x2 = builder.xnor(0, 1)
    y = builder.and_(x1, x2)
    builder.store(y, 8)
    duplicated = builder.build(result_column=8)

    single = ProgramBuilder(SCRATCH)
    builder_x = single.xnor(0, 1)
    single.store(builder_x, 8)
    reference = single.build(result_column=8)

    assert duplicated.cycles > reference.cycles
    dag = duplicated.ir()
    # AND of a value with itself collapses; the store's double-NOT collapses;
    # what remains is exactly one XNOR: 4 live gates, critical path 3.
    assert dag.nor_count == reference.ir().nor_count == 4
    assert dag.depth == reference.ir().depth == 3
    # Modelled costs still come from the un-optimized programs.
    assert dag.cycles == duplicated.cycles


def test_double_negation_chain_collapses():
    program = Program(
        [NorOp(5, (0,)), NorOp(6, (5,)), NorOp(7, (6,))], output_columns=[7]
    )
    dag = program.ir()
    # NOT NOT NOT x == NOT x: one gate, depth 1, CSE-shared with column 5.
    assert dag.nor_count == 1
    assert dag.depth == 1
    assert dag.input_columns == (0,)


def test_constant_folding():
    forced_low = Program(
        [InitOp(3, True), NorOp(4, (3, 0))], output_columns=[4]
    )
    dag = forced_low.ir()
    assert dag.nor_count == 0          # a true operand forces the output low
    assert dag.kinds == (CONST,)
    assert dag.payloads == (False,)

    identity = Program(
        [InitOp(3, False), NorOp(4, (3, 0))], output_columns=[4]
    )
    dag = identity.ir()
    assert dag.nor_count == 1          # false operands vanish: NOR(x) remains
    assert dag.depth == 1


def test_depth_matches_hand_computed_gates():
    """Critical-path depth of every builder gate, computed by hand."""
    cases = [
        ("not", lambda b: b.not_(0), 1, 1),
        ("or", lambda b: b.or_(0, 1), 2, 2),
        ("and", lambda b: b.and_(0, 1), 2, 3),
        ("and_not", lambda b: b.and_not(0, 1), 2, 2),
        ("xnor", lambda b: b.xnor(0, 1), 3, 4),
        ("xor", lambda b: b.xor(0, 1), 4, 5),
        # copy is NOT(NOT(x)): double-negation eliminates the whole circuit.
        ("copy", lambda b: b.copy(0), 0, 0),
    ]
    for name, gate, depth, nor_count in cases:
        builder = ProgramBuilder(SCRATCH)
        result = gate(builder)
        builder.store(result, 8)
        program = builder.build(result_column=8)
        dag = program.ir()
        assert dag.depth == depth, name
        assert dag.nor_count == nor_count, name
        assert _recomputed_depth(dag) == dag.depth, name


def test_adder_depth_below_cycles_and_consistent():
    """The ripple adder's critical path sits far below its op count."""
    builder = ProgramBuilder(SCRATCH)
    build_ripple_add(builder, [0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11])
    program = builder.build()
    dag = program.ir()
    assert {column for column, _ in dag.outputs} == {8, 9, 10, 11}
    assert 0 < dag.depth < program.cycles
    assert _recomputed_depth(dag) == dag.depth == program.depth


def test_ir_and_kernel_are_memoized():
    builder = ProgramBuilder(SCRATCH)
    builder.store(builder.xor(0, 1), 8)
    program = builder.build(result_column=8)
    assert program.ir() is program.ir()
    assert program.fused_kernel() is program.fused_kernel()


# ------------------------------------------------- fused-vs-dispatch lockstep
def _ops_strategy():
    column = st.integers(0, COLUMNS - 1)
    nor = st.tuples(
        st.just("nor"), column,
        st.lists(column, min_size=1, max_size=3).map(tuple),
    )
    init = st.tuples(st.just("init"), column, st.booleans())
    return st.lists(st.one_of(nor, init), min_size=1, max_size=24)


def _build_program(raw_ops) -> Program:
    ops = [
        NorOp(dest, payload) if kind == "nor" else InitOp(dest, payload)
        for kind, dest, payload in raw_ops
    ]
    return Program(ops)


def _seeded_banks(seed):
    """Four identically seeded banks: (backend, strategy) -> bank."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, (COUNT, ROWS, COLUMNS)).astype(bool)
    banks = {}
    for backend in ("bool", "packed"):
        for strategy in ("dispatch", "fused"):
            bank = make_bank(backend, COUNT, ROWS, COLUMNS)
            for column in range(COLUMNS):
                bank.write_bool_column(column, bits[:, :, column])
            banks[backend, strategy] = bank
    return banks


@settings(max_examples=60, deadline=None)
@given(raw_ops=_ops_strategy(), seed=st.integers(0, 2 ** 31),
       xbars=st.lists(st.integers(0, COUNT - 1), unique=True, max_size=COUNT))
def test_fused_execution_bit_exact_with_dispatch(raw_ops, seed, xbars):
    """Random programs: fused == dispatch cells and wear, broadcast + masked;
    a functional run returns what the in-place run writes and writes
    nothing."""
    program = _build_program(raw_ops)
    # Broadcast to every crossbar.
    banks = _seeded_banks(seed)
    for backend in ("bool", "packed"):
        program.execute(banks[backend, "dispatch"])
        program.run_fused(banks[backend, "fused"])
        assert_banks_equal(banks[backend, "dispatch"], banks[backend, "fused"])
    assert_banks_equal(banks["bool", "fused"], banks["packed", "fused"])
    # Masked execution at an arbitrary crossbar subset (the pruned path).
    banks = _seeded_banks(seed)
    idx = np.array(sorted(xbars), dtype=np.intp)
    for backend in ("bool", "packed"):
        program.execute(banks[backend, "dispatch"], idx)
        program.run_fused(banks[backend, "fused"], idx)
        assert_banks_equal(banks[backend, "dispatch"], banks[backend, "fused"])
    assert_banks_equal(banks["bool", "fused"], banks["packed", "fused"])
    # A functional run, broadcast + masked.
    kernel = compile_batch(program.ir())
    for index in (None, idx):
        banks = _seeded_banks(seed)
        for backend in ("bool", "packed"):
            bank, written = banks[backend, "fused"], banks[backend, "dispatch"]
            outputs = kernel.run(bank, index)
            program.run_fused(written, index)
            assert [column for column, _ in outputs] == [
                column for column, _ in program.ir().outputs
            ]
            for column, value in outputs:
                expected = written.read_column(column)
                if index is not None:
                    expected = expected[index]
                decoded = bank.kernel_to_bool(value)
                assert np.array_equal(np.broadcast_to(decoded, expected.shape), expected)
            assert_banks_equal(bank, _seeded_banks(seed)[backend, "fused"])


def test_column_past_the_row_raises():
    """A kernel reads every input from the bank, which refuses a column
    past the physical row."""
    program = Program([NorOp(8, (0, COLUMNS))], output_columns=[8])
    for backend in ("bool", "packed"):
        bank = _seeded_banks(3)[backend, "fused"]
        with pytest.raises(ValueError, match="out of range"):
            program.run_fused(bank)


def test_builder_programs_only_write_outputs_identically():
    """A builder program leaves identical bits in its output columns and
    identical wear; scratch columns are not part of the contract, so the
    comparison goes through the declared outputs."""
    builder = ProgramBuilder(SCRATCH)
    predicate = builder.and_(builder.xor(0, 1), builder.or_(2, 3))
    builder.store(predicate, 8)
    program = builder.build(result_column=8)
    banks = _seeded_banks(17)
    for backend in ("bool", "packed"):
        program.execute(banks[backend, "dispatch"])
        program.run_fused(banks[backend, "fused"])
        for column in program.output_columns:
            assert np.array_equal(
                banks[backend, "dispatch"].read_column(column),
                banks[backend, "fused"].read_column(column),
            )
        assert np.array_equal(
            banks[backend, "dispatch"].writes_per_row,
            banks[backend, "fused"].writes_per_row,
        )


def test_executor_charges_identical_stats_for_both_strategies():
    """run_program / run_program_pruned: PimStats bit-identical either way."""
    builder = ProgramBuilder(SCRATCH)
    builder.store(builder.and_(builder.xor(0, 1), 2), 8)
    program = builder.build(result_column=8)
    candidates = np.array([True, False, True])
    for backend in ("bool", "packed"):
        stats = {}
        for strategy, kernel in (("dispatch", "dispatch"), ("batched", "fused")):
            config = DEFAULT_CONFIG.with_backend(backend).replace(execution=strategy)
            executor = PimExecutor(config, PimStats())
            bank = _seeded_banks(23)[backend, kernel]
            executor.run_program(bank, program, pages=4.0, phase="filter")
            executor.run_program_pruned(
                bank, program, candidates, pages=4.0, phase="filter",
                clear_crossbars=~candidates,
            )
            stats[strategy] = executor.stats
        assert stats["dispatch"] == stats["batched"]


# ----------------------------------------------------- engine-level parity
def _mini_relation(records: int = 640, seed: int = 7) -> Relation:
    rng = np.random.default_rng(seed)
    schema = Schema("mini", [
        int_attribute("key", 10, source="fact"),
        int_attribute("value", 8, source="fact"),
        dict_attribute("city", CITIES, source="dim"),
    ])
    return Relation(schema, {
        "key": np.sort(rng.integers(0, 1 << 10, records).astype(np.uint64)),
        "value": rng.integers(0, 1 << 8, records).astype(np.uint64),
        "city": rng.integers(0, len(CITIES), records).astype(np.uint64),
    })


MINI_QUERIES = (
    Query(
        "scalar",
        And((Comparison("key", "between", low=64, high=320),
             Comparison("city", "==", "OSLO"))),
        (Aggregate("sum", "value"), Aggregate("count"),
         Aggregate("min", "value")),
    ),
    Query(
        "grouped", Comparison("key", "<", 512),
        (Aggregate("sum", "value"), Aggregate("max", "value")),
        group_by=("city",),
    ),
)


@pytest.mark.parametrize("backend", ["packed", "bool"])
@pytest.mark.parametrize("pruning", [False, True])
@pytest.mark.parametrize("circuit", [True, False])
def test_engine_fused_matches_dispatch(backend, pruning, circuit):
    """Gate-level engines: identical rows and stats for the two strategies,
    with and without pruning, on both aggregation paths."""
    executions = {}
    for strategy in ("batched", "dispatch"):
        config = DEFAULT_CONFIG.with_backend(backend).replace(execution=strategy)
        if not circuit:
            config = config.without_aggregation_circuit()
        stored = StoredRelation(
            _mini_relation(), PimModule(config), label="mini"
        )
        engine = PimQueryEngine(
            stored, config=config, pruning=pruning
        )
        executions[strategy] = [engine.execute(q) for q in MINI_QUERIES]
    for fused, dispatch in zip(
        executions["batched"], executions["dispatch"], strict=True
    ):
        assert_same_execution(fused, dispatch)


def test_program_cache_reuses_fused_kernels():
    """Cache hits carry the compiled kernel along with the program."""
    cache = ProgramCache(capacity=32)
    config = DEFAULT_CONFIG.replace(execution="batched")
    stored = StoredRelation(_mini_relation(), PimModule(config), label="mini")
    engine = PimQueryEngine(
        stored, config=config, compiler=cache
    )
    assert cache.fused_kernels() == 0
    engine.execute(MINI_QUERIES[0])
    kernels_after_first = cache.fused_kernels()
    assert kernels_after_first > 0
    hits_before = cache.snapshot().hits
    engine.execute(MINI_QUERIES[0])
    assert cache.snapshot().hits > hits_before
    assert cache.fused_kernels() == kernels_after_first
    # A GROUP-BY caches a template beside its filter program; the template
    # carries no kernel.
    engine.execute(MINI_QUERIES[1])
    assert cache.fused_kernels() == kernels_after_first + 1
