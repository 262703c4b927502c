"""The layer -> callable table and the metric catalogue, in one place.

A *layer* is a package of ``src/repro``.  ``SPAN_METRICS`` maps each
host-time per-layer metric to the callables whose **self** time it sums
(``"module:qualname"``); the harness wraps them from outside at run time
(:mod:`spans`).  A target that no longer resolves — a later PR renamed or
deleted it — is skipped, listed under ``trace.unresolved_targets`` and its
metric reads 0 with ``"unresolved": true`` in the record, so a refactor does
not have to edit the benchmark to keep it running.

``PER_LAYER`` and ``END_TO_END`` are the catalogue ``BENCHMARK.json`` is
checked against (``test_perf.py``); each per-layer entry also says which
end-to-end metric it should move and on which workload.
"""

from __future__ import annotations

from typing import NamedTuple

from spans import Target

_SERVICE = "repro.service.service:QueryService."
_CACHE = "repro.service.cache:ProgramCache."
_STATS = "repro.planner.planner:RelationStatistics."
_ENGINE = "repro.core.executor:PimQueryEngine."
_STAGES = "repro.core.stages:"
_EXECUTOR = "repro.pim.controller:PimExecutor."
_READ = "repro.host.readpath:HostReadModel."
_SHARDED = "repro.sharding.executor:ShardedQueryEngine."
_STORED = "repro.db.storage:StoredRelation."
_BANKS = ("repro.pim.packed:PackedCrossbarBank.", "repro.pim.crossbar:CrossbarBank.")

#: The scatter call other threads' spans are parented to.
POOL_MAP = "repro.core.parallel:ScatterPool.map"
SHARD_EXECUTE = _SHARDED + "execute"
SHARD_RUN = _SHARDED + "_execute_shard"


def _bank(*methods: str) -> tuple[str, ...]:
    return tuple(prefix + method for prefix in _BANKS for method in methods)


#: metric -> targets whose self time it sums.
SPAN_METRICS: dict[str, tuple[str, ...]] = {
    "service.self_s": (
        _SERVICE + "execute_batch", _SERVICE + "execute",
        _SERVICE + "_execute_routed", _SERVICE + "insert", _SERVICE + "delete",
        _SERVICE + "compact", _SERVICE + "candidate_cache_stats",
        _SERVICE + "adaptive_stats",
        "repro.service.stats:ServiceStats.from_executions",
        _CACHE + "filter_program", _CACHE + "group_program",
        _CACHE + "combine_program",
    ),
    "planner.route_s": (
        "repro.planner.planner:CostPlanner.route", _STATS + "plan",
        _STATS + "estimate", _STATS + "charge_check",
    ),
    "planner.host_scan_s": ("repro.planner.planner:execute_host_scan",),
    "planner.maintenance_s": (
        _STATS + "note_insert", _STATS + "note_delete", _STATS + "note_update",
        _STATS + "rebuild", _STATS + "observe_execution",
    ),
    "core.execute_self_s": (
        _ENGINE + "execute", _ENGINE + "_execute_group_by",
        _ENGINE + "_host_group_by", _ENGINE + "_candidate_groups",
    ),
    "core.stages_s": (
        _STAGES + "FilterStage.run", _STAGES + "GroupMaskStage.prepare",
        _STAGES + "GroupMaskStage.clear", _STAGES + "AggregationStage.aggregate",
        _STAGES + "AggregationStage.aggregate_all", _STAGES + "apply_program",
        _STAGES + "apply_program_pruned", _STAGES + "apply_program_at",
    ),
    "core.sampling_s": ("repro.core.sampling:estimate_subgroups",),
    "core.batched_self_s": (
        "repro.core.batched:run_group_by_batched",
        "repro.core.batched:_run_partition_batch",
    ),
    "core.pool_wait_s": (POOL_MAP,),
    "db.compile_s": (
        "repro.db.compiler:compile_predicate",
        "repro.db.compiler:compile_group_predicate",
        "repro.db.compiler:compile_group_combine",
        "repro.db.dml:compile_delete",
    ),
    "db.decode_s": (
        _STORED + "decode_column", _STORED + "column_bit",
        _STORED + "write_bit_column", _STORED + "live_relation",
    ),
    "db.dml.insert_s": ("repro.db.dml:execute_insert",),
    "db.dml.delete_s": ("repro.db.dml:execute_delete",),
    "db.dml.compact_s": ("repro.db.dml:execute_compaction",),
    "pim.lower_s": (
        "repro.pim.ir:lower_program", "repro.pim.ir:lower_program_batch",
    ),
    "pim.kernel_compile_s": (
        "repro.pim.fused:compile_dag", "repro.pim.fused:compile_batch",
    ),
    "pim.kernel_run_s": (
        "repro.pim.fused:FusedKernel.run", "repro.pim.fused:BatchKernel.run",
    ),
    "pim.bank_read_s": _bank(
        "read_field_all", "read_field", "read_column", "kernel_read",
        "kernel_to_bool",
    ),
    "pim.bank_write_s": _bank(
        "write_field", "write_field_row", "write_field_rows",
        "write_field_column", "write_bool_column", "kernel_write",
        "kernel_from_bool",
    ),
    "pim.charge_s": (
        _EXECUTOR + "charge_program_cost", _EXECUTOR + "charge_pruned_program_cost",
        _EXECUTOR + "charge_program_cost_at", _EXECUTOR + "charge_aggregation_circuit",
        _EXECUTOR + "charge_pim_reads", _EXECUTOR + "run_program",
        _EXECUTOR + "run_program_pruned", _EXECUTOR + "run_program_at",
        _EXECUTOR + "host_write_field",
    ),
    "pim.aggregate_s": (
        _EXECUTOR + "aggregate_with_circuit",
        "repro.pim.arithmetic:aggregate_reference",
    ),
    "host.readpath_s": (
        _READ + "read_filter_bitvector", _READ + "read_records",
        _READ + "read_aggregation_results", _READ + "transfer_bit_column",
        _READ + "charge_stream_lines",
    ),
    "host.aggregate_s": (
        "repro.host.aggregator:host_group_aggregate",
        "repro.host.aggregator:combine_partials",
        "repro.host.aggregator:merge_group_results",
    ),
    "sharding.execute_self_s": (
        SHARD_EXECUTE, SHARD_RUN, _SHARDED + "_gather",
        _SHARDED + "_prescatter_empty",
    ),
    "sharding.merge_s": ("repro.host.aggregator:merge_shard_rows",),
}

#: count metric -> the span metric whose calls it counts.
CALL_METRICS = {
    "db.compile_calls": "db.compile_s",
    "pim.kernel_runs": "pim.kernel_run_s",
    "pim.charge_calls": "pim.charge_s",
}

#: count metric -> (span metric, what is read off each return value).
MEASURED_METRICS = {
    "pim.lower_nodes": ("pim.lower_s", lambda dag: dag.num_nodes),
}


def targets() -> list[Target]:
    """Every callable to wrap, with its measure hook and scatter flag."""
    measures = {
        path: measure
        for metric, measure in MEASURED_METRICS.values()
        for path in SPAN_METRICS[metric]
    }
    return [
        Target(path, measure=measures.get(path), scatters=path == POOL_MAP)
        for paths in SPAN_METRICS.values()
        for path in paths
    ]


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: ``host`` (simulator wall time) or ``modelled`` (simulated hardware).
    base: str
    #: Share of the parent's median by which the metric may get worse.
    bound: float


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: ``host``, ``modelled`` or ``count`` (repeats exactly for a seed).
    base: str
    #: The end-to-end metric it should move, and on which workload.
    moves: str


END_TO_END = [
    EndToEnd("pass_wall_s", "s", "lower", "host", 0.25),
    EndToEnd("op_wall_p90_s", "s", "lower", "host", 0.25),
    EndToEnd("setup_s", "s", "lower", "host", 0.25),
    EndToEnd("peak_rss_mb", "MiB", "lower", "host", 0.10),
    EndToEnd("modelled_time_s", "s", "lower", "modelled", 0.03),
    EndToEnd("modelled_energy_j", "J", "lower", "modelled", 0.03),
    # One seed in ten flips dml_churn's worst row from 1 232 to 1 055 writes.
    EndToEnd("max_writes_per_row", "writes", "lower", "modelled", 0.20),
]

_H, _C, _M = "host", "count", "modelled"
PER_LAYER = [
    PerLayer("service.self_s", "s", "lower", _H, "pass_wall_s, all workloads (small)"),
    PerLayer("service.program_cache.hit_rate", "ratio", "higher", _C,
           "pass_wall_s on ssb_allpim (~0.01 at HEAD); ~1.0 and no effect on ssb_default"),
    PerLayer("service.program_cache.misses", "count", "lower", _C,
           "pass_wall_s on ssb_allpim; 0 on warm ssb_default"),
    PerLayer("service.program_cache.evictions", "count", "lower", _C,
           "pass_wall_s on ssb_allpim"),
    PerLayer("service.host_routed", "count", "lower", _C,
           "modelled_time_s on ssb_default (adaptive loop flips Q3.1 to host-scan)"),
    PerLayer("service.cold_pass_s", "s", "lower", _H, "setup_s, all workloads"),
    PerLayer("planner.route_s", "s", "lower", _H, "pass_wall_s on ssb_default, ssb_sharded"),
    PerLayer("planner.host_scan_s", "s", "lower", _H, "pass_wall_s on ssb_default, ssb_sharded"),
    PerLayer("planner.maintenance_s", "s", "lower", _H, "pass_wall_s on dml_churn"),
    PerLayer("planner.candidate_cache.hit_rate", "ratio", "higher", _C,
           "pass_wall_s on dml_churn"),
    PerLayer("planner.crossbars_scanned_frac", "ratio", "lower", _C,
           "modelled_time_s on ssb_default, dml_churn"),
    PerLayer("planner.stats_rebuilds", "count", "lower", _C, "pass_wall_s on dml_churn"),
    PerLayer("core.execute_self_s", "s", "lower", _H, "pass_wall_s, all workloads"),
    PerLayer("core.stages_s", "s", "lower", _H, "pass_wall_s on both SSB workloads"),
    PerLayer("core.sampling_s", "s", "lower", _H, "pass_wall_s on ssb_default"),
    PerLayer("core.batched_self_s", "s", "lower", _H, "pass_wall_s on ssb_allpim"),
    PerLayer("core.pim_subgroups", "count", "lower", _C,
           "pass_wall_s, modelled_time_s on both SSB workloads"),
    PerLayer("core.host_subgroups", "count", "lower", _C, "modelled_time_s on ssb_default"),
    PerLayer("core.pool_wait_s", "s", "lower", _H, "pass_wall_s on ssb_sharded only"),
    PerLayer("db.compile_s", "s", "lower", _H,
           "pass_wall_s on ssb_allpim; ~0 on warm ssb_default"),
    PerLayer("db.compile_calls", "count", "lower", _C, "pass_wall_s on ssb_allpim"),
    PerLayer("db.decode_s", "s", "lower", _H, "pass_wall_s on ssb_default"),
    PerLayer("db.dml.insert_s", "s", "lower", _H, "pass_wall_s, op_wall_p90_s on dml_churn only"),
    PerLayer("db.dml.delete_s", "s", "lower", _H, "pass_wall_s on dml_churn only"),
    PerLayer("db.dml.compact_s", "s", "lower", _H, "op_wall_p90_s on dml_churn only"),
    PerLayer("db.dml.rows_inserted", "count", "higher", _C, "none (work done)"),
    PerLayer("db.dml.rows_deleted", "count", "higher", _C, "none (work done)"),
    PerLayer("db.dml.slots_reclaimed", "count", "higher", _C, "none (work done)"),
    PerLayer("db.load_s", "s", "lower", _H, "setup_s, all workloads"),
    PerLayer("pim.lower_s", "s", "lower", _H, "pass_wall_s on ssb_allpim"),
    PerLayer("pim.lower_nodes", "count", "lower", _C, "pass_wall_s on ssb_allpim"),
    PerLayer("pim.kernel_compile_s", "s", "lower", _H, "pass_wall_s on ssb_allpim"),
    PerLayer("pim.kernel_run_s", "s", "lower", _H, "pass_wall_s on both SSB workloads"),
    PerLayer("pim.kernel_runs", "count", "lower", _C, "pass_wall_s on both SSB workloads"),
    PerLayer("pim.bank_read_s", "s", "lower", _H,
           "pass_wall_s on ssb_default (largest share); little on ssb_allpim"),
    PerLayer("pim.bank_write_s", "s", "lower", _H, "pass_wall_s on dml_churn"),
    PerLayer("pim.charge_s", "s", "lower", _H,
           "pass_wall_s on both SSB workloads, every modelled metric unchanged"),
    PerLayer("pim.charge_calls", "count", "lower", _C, "pass_wall_s on both SSB workloads"),
    PerLayer("pim.aggregate_s", "s", "lower", _H, "pass_wall_s on ssb_default"),
    PerLayer("pim.modelled.filter_s", "s", "lower", _M, "modelled_time_s, all workloads"),
    PerLayer("pim.modelled.pim_gb_s", "s", "lower", _M, "modelled_time_s on ssb_allpim"),
    PerLayer("pim.modelled.host_s", "s", "lower", _M, "modelled_time_s on ssb_default"),
    PerLayer("pim.modelled.dml_s", "s", "lower", _M, "modelled_time_s on dml_churn"),
    PerLayer("host.readpath_s", "s", "lower", _H, "pass_wall_s on ssb_default"),
    PerLayer("host.aggregate_s", "s", "lower", _H,
           "pass_wall_s on ssb_default (host-gb subgroups); ~0 on ssb_allpim"),
    PerLayer("sharding.execute_self_s", "s", "lower", _H, "pass_wall_s on ssb_sharded only"),
    PerLayer("sharding.merge_s", "s", "lower", _H, "pass_wall_s on ssb_sharded only"),
    PerLayer("sharding.shards_skipped", "count", "higher", _C,
           "pass_wall_s, modelled_time_s on ssb_sharded only"),
    PerLayer("sharding.shard_wall_skew", "ratio", "lower", _H,
           "pass_wall_s, op_wall_p90_s on ssb_sharded (slowest shard sets the time)"),
    PerLayer("ssb.generate_s", "s", "lower", _H, "setup_s"),
    PerLayer("ssb.prejoin_s", "s", "lower", _H, "setup_s"),
    PerLayer("trace.overhead_frac", "ratio", "lower", _H, "none (qualifies the others)"),
    PerLayer("trace.coverage_frac", "ratio", "higher", _H, "none (qualifies the others)"),
    PerLayer("trace.unresolved_targets", "count", "lower", _C, "none (qualifies the others)"),
    PerLayer("host.noise_frac", "ratio", "lower", _H, "none (qualifies the others)"),
    PerLayer("host.calibration_s", "s", "lower", _H, "none (qualifies the others)"),
    PerLayer("host.pass_wall_raw_s", "s", "lower", _H, "none (uncalibrated pass_wall_s)"),
    PerLayer("host.gc_s", "s", "lower", _H,
           "none (the full collection before each pass, outside pass_wall_s); "
           "garbage made on ssb_allpim shows here"),
]

#: ``PimStats.time_by_phase`` key prefixes of the four modelled buckets, tried
#: in this order; a phase matching none of them counts as filter work.
MODELLED_PHASES = {
    "pim.modelled.pim_gb_s": ("pim-gb", "pim-agg"),
    "pim.modelled.dml_s": ("insert", "delete", "compact", "update", "zonemap-maintain"),
    "pim.modelled.host_s": ("host", "zonemap", "stats", "sampl", "shard-merge"),
    "pim.modelled.filter_s": (),
}


def modelled_bucket(phase: str) -> str:
    """The ``pim.modelled.*`` metric a ``time_by_phase`` key is summed into."""
    for metric, prefixes in MODELLED_PHASES.items():
        if phase.startswith(prefixes):
            return metric
    return "pim.modelled.filter_s"
