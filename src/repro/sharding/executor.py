"""Scatter-gather query execution across a relation's K >= 1 stores.

:class:`ShardedQueryEngine` serves every registered relation.  It runs one
query against every store in the relation's ``shards`` (scatter): the K
shards of a :class:`~repro.sharding.storage.ShardedStoredRelation`, or a
:class:`~repro.db.storage.StoredRelation`, which is its own single store.
It then folds the per-shard partial results into the global answer through
the existing partial-aggregate merge machinery (gather).  At K = 1 there is
nothing to gather, and the one store's execution is returned unchanged.
The sharded engine only scatters and gathers: each shard's
:class:`~repro.core.executor.PimQueryEngine` estimates, plans and routes its
own execution (PIM or host scan) once, with the router this engine forwards,
and every execution makes its own :class:`~repro.pim.controller.PimExecutor`.

Programs are compiled once — the shards share layout objects, so the shard
engines' shared :class:`~repro.core.program_cache.ProgramCache` (the
service's, or one of this engine's own) compiles each predicate a single
time and replays it on every shard.

Latency model
-------------

The shards execute in parallel on independent page ranges, so the modelled
end-to-end latency of a sharded execution is

    T = max_k(T_shard_k) + T_merge

— the *maximum* over the shards plus the host-side gather term, not the sum.
Energy, wear and traffic are physical totals and are summed (wear is a
per-row maximum and therefore a max).  This is exactly the semantics of
:meth:`repro.pim.stats.PimStats.merge_parallel`; the gather term is charged
by :func:`repro.host.aggregator.merge_shard_rows`.

Modelled versus simulated
-------------------------

What is *modelled* is the hardware: every shard executes concurrently, hence
``max`` + merge above.  How it is *simulated* is a plain, shard-ordered loop
on the calling thread.  A shard execution is under one third kernel +
decode; planning, sampling and charging hold the GIL, so worker threads
serialise on it and every NumPy call has to win it back: two threads
measured *slower* than the loop (``ssb_sharded`` warm pass 0.346 s vs
0.236 s on the 2-core reference host).  Real parallelism
is the deferred multi-process scatter; the engine's optional ``ScatterPool``
serves the per-partition kernel batches of :mod:`repro.core.batched` only.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

from repro.config import SystemConfig
from repro.core.executor import PimQueryEngine, QueryExecution
from repro.core.latency_model import GroupByCostModel
from repro.core.parallel import ScatterPool
from repro.core.program_cache import ProgramCache
from repro.db.compiler import CompilationError
from repro.db.query import Query
from repro.host.aggregator import merge_shard_rows
from repro.obs.trace import tracer_from_config
from repro.pim.stats import PimStats
from repro.planner.planner import CostPlanner, cold_walk


@dataclass
class ShardedQueryExecution(QueryExecution):
    """A merged scatter-gather execution plus its per-shard components.

    The inherited fields describe the *merged* execution: ``rows`` is the
    bit-exact global result, ``stats`` carries the max-over-shards scatter
    time plus the gather term, energy/wear totals, and ``time_s`` /
    ``energy_j`` therefore follow the sharded latency model.  ``plan`` is
    ``None`` — each shard plans its own GROUP-BY split; the per-shard plans
    live on :attr:`shard_executions`.
    """

    #: The individual per-shard executions, in shard order.
    shard_executions: list[QueryExecution] = field(default_factory=list)
    #: Modelled host time of the gather (partial-result merge) phase.
    merge_time_s: float = 0.0
    #: Serial sum of the shard latencies over the parallel (max) latency.
    parallel_speedup: float = 1.0

    @property
    def shards(self) -> int:
        return len(self.shard_executions)

    @property
    def shards_skipped(self) -> int:
        """Shards whose zone maps ruled the whole predicate out."""
        return sum(
            1
            for execution in self.shard_executions
            if execution.crossbars_total and execution.crossbars_scanned == 0
        )

    @property
    def host_routed_shards(self) -> int:
        """Shards the cost planner served through the host-scan path."""
        return sum(
            1
            for execution in self.shard_executions
            if execution.route == "host"
        )

    @property
    def shard_times_s(self) -> list[float]:
        """Modelled latency of every shard (the scatter critical path)."""
        return [execution.time_s for execution in self.shard_executions]

    @property
    def shard_writes_per_row(self) -> list[int]:
        """Worst per-row write count of every shard."""
        return [execution.max_writes_per_row for execution in self.shard_executions]


class ShardedQueryEngine:
    """Executes queries on a PIM-resident relation of K >= 1 stores."""

    def __init__(
        self,
        sharded,
        config: SystemConfig | None = None,
        label: str = "sharded",
        cost_model: GroupByCostModel | None = None,
        sample_pages: int = 1,
        timing_scale: float = 1.0,
        compiler: ProgramCache | None = None,
        pruning: bool = False,
        planner: CostPlanner | None = None,
        pool: ScatterPool | None = None,
        tracer=None,
    ) -> None:
        """Create a scatter-gather engine over a relation's stores.

        Args:
            sharded: Any store with ``.shards`` and ``.module``: a
                :class:`~repro.sharding.storage.ShardedStoredRelation`, or a
                :class:`~repro.db.storage.StoredRelation` (one store).
            config: System configuration; defaults to the module's.
            label: Name used in reports; at K > 1 shard engines append
                ``/s{k}``, at K = 1 the one store engine keeps ``label``.
            cost_model / sample_pages / timing_scale: Forwarded
                to every shard's :class:`PimQueryEngine`.  ``timing_scale``
                extrapolates each shard — the sharded relation it models is
                ``timing_scale`` times the stored one, shard by shard.
            compiler: Program cache shared by every shard engine (a new
                one if omitted); with the relation's layouts shared across
                shards, one compilation serves all of them.
            pruning: Forwarded to every shard engine — each shard consults
                its own zone maps, and a shard whose maps rule the whole
                predicate out is skipped entirely (no filter broadcast, no
                aggregation; only the zone-map check is charged).
            planner: Cost-based router forwarded to every shard engine as
                its ``router``: a shard whose estimated host-scan time beats
                its estimated PIM time is served through
                :func:`~repro.planner.planner.execute_host_scan` instead
                (bit-exact rows, host-path cost model).  ``None`` always
                executes on PIM.
            pool: A shared :class:`~repro.core.parallel.ScatterPool` handed
                to every shard engine for its per-partition kernel batches
                (the service passes its own).  ``None`` runs them inline.
            tracer: A shared :class:`~repro.obs.trace.SpanTracer`; the
                scatter opens one child span per shard and the gather
                charges the merge span.  Defaults to the tracer implied by
                ``config.tracing``.
        """
        self.sharded = sharded
        self.config = (
            config if config is not None else sharded.module.system_config
        )
        self.label = label
        self.compiler = compiler if compiler is not None else ProgramCache()
        self.pruning = bool(pruning)
        self.pool = pool
        self.tracer = tracer if tracer is not None else tracer_from_config(self.config)
        self.shard_engines: list[PimQueryEngine] = [
            PimQueryEngine(
                stored,
                config=self.config,
                label=label if len(sharded.shards) == 1 else f"{label}/s{index}",
                cost_model=cost_model,
                sample_pages=sample_pages,
                timing_scale=timing_scale,
                compiler=self.compiler,
                pruning=self.pruning,
                router=planner,
                scatter_pool=self.pool,
                tracer=self.tracer,
            )
            for index, stored in enumerate(sharded.shards)
        ]

    @property
    def num_shards(self) -> int:
        return len(self.shard_engines)

    # ------------------------------------------------------------------ main
    def execute(self, query: Query) -> QueryExecution:
        """Scatter ``query`` over the shards and gather the merged result.

        The shards run one after the other, in shard order (see the module
        docstring).  At K = 1 the one store's execution is the result; above,
        a :class:`ShardedQueryExecution`.
        """
        with self.tracer.span(
            "execute", label=self.label, shards=self.num_shards
        ) as span:
            with self.tracer.span("scatter"):
                shard_executions = [
                    self._execute_shard(query, index, engine)
                    for index, engine in enumerate(self.shard_engines)
                ]
            if len(shard_executions) == 1:
                return shard_executions[0]
            merged = self._gather(query, shard_executions)
            if self.tracer.enabled:
                span.set(
                    shards_skipped=merged.shards_skipped,
                    host_routed_shards=merged.host_routed_shards,
                    parallel_speedup=merged.parallel_speedup,
                )
            return merged

    def _prescatter_empty(self, query: Query) -> list[bool]:
        """Cross-shard candidate mask: which shards are provably empty.

        Reads a :func:`~repro.planner.planner.cold_walk` of every shard's
        zone maps, which touches neither the plan memo nor any billing, so
        the shard's own execution is unchanged.  The cold walk ignores the
        pair sketch, so its flags are a subset of the plan's.  An inspection
        helper: a provably empty shard returns from its own plan.
        """
        flags = [False] * self.num_shards
        if not self.pruning:
            return flags
        for index, engine in enumerate(self.shard_engines):
            # The shard engine will raise the real error; don't mask it.
            with contextlib.suppress(CompilationError):
                flags[index] = cold_walk(
                    engine.stored.statistics,
                    query.predicate,
                    engine.stored.partition_attributes,
                    self.config.pim.crossbars_per_page,
                ).empty
        return flags

    def _execute_shard(
        self, query: Query, index: int, engine: PimQueryEngine
    ) -> QueryExecution:
        """Run one shard of the scatter; its engine decides the route."""
        with self.tracer.span("shard", shard=index):
            return engine.execute(query)

    # ---------------------------------------------------------------- gather
    def _gather(
        self, query: Query, shard_executions: list[QueryExecution]
    ) -> ShardedQueryExecution:
        """Merge per-shard executions: results, latency model and metadata."""
        stats = PimStats()
        with self.tracer.span("merge", shards=len(shard_executions)) as span:
            # The merged stats re-state the shards' charges under the sharded
            # latency model (max-over-shards + gather), so the merge span is
            # the only place they are recorded — the per-shard spans already
            # carry each shard's own charges.
            self.tracer.bind(stats)
            stats.merge_parallel(
                [execution.stats for execution in shard_executions],
                phase="scatter",
            )
            scatter_time = stats.total_time_s
            rows = merge_shard_rows(
                [execution.rows for execution in shard_executions],
                query.aggregates,
                config=self.config.host,
                stats=stats,
            )
            merge_time = stats.total_time_s - scatter_time
            if self.tracer.enabled:
                span.set(scatter_max_s=scatter_time, merge_s=merge_time)
        serial_time = sum(e.stats.total_time_s for e in shard_executions)
        # Per-shard selectivities, actual and estimated, are live-row fractions,
        # so both global figures weight them by live rows (tombstones select
        # nothing); the estimate averages over the shards that carry one.
        live_counts = [engine.stored.live_count for engine in self.shard_engines]
        live_total = sum(live_counts)
        weighted_selectivity = sum(
            e.selectivity * live for e, live in zip(shard_executions, live_counts)
        )
        estimates = [
            (e.estimated_selectivity, live)
            for e, live in zip(shard_executions, live_counts)
            if e.estimated_selectivity is not None
        ]
        estimated_selectivity = None
        if estimates:    # 0 / 1 when no shard carrying an estimate has a live row
            estimated_selectivity = sum(
                estimate * live for estimate, live in estimates
            ) / max(sum(live for _, live in estimates), 1)
        return ShardedQueryExecution(
            query=query,
            label=self.label,
            rows=rows,
            stats=stats,
            selectivity=weighted_selectivity / live_total if live_total else 0.0,
            # Plans are per shard, so cost-like metadata reports the
            # critical-path (maximum) figures.  total_subgroups is a data
            # property: each shard only enumerates candidates among its own
            # records, so the per-shard maximum can undercount the global
            # figure — the merged result rows are a guaranteed lower bound.
            total_subgroups=max(
                max(e.total_subgroups for e in shard_executions),
                len(rows) if query.group_by else 1,
            ),
            subgroups_in_sample=max(e.subgroups_in_sample for e in shard_executions),
            pim_subgroups=max(e.pim_subgroups for e in shard_executions),
            max_writes_per_row=stats.max_writes_per_row,
            plan=None,
            crossbars_total=sum(e.crossbars_total for e in shard_executions),
            crossbars_scanned=sum(e.crossbars_scanned for e in shard_executions),
            estimated_selectivity=estimated_selectivity,
            shard_executions=shard_executions,
            merge_time_s=merge_time,
            parallel_speedup=(
                serial_time / scatter_time if scatter_time > 0 else 1.0
            ),
        )
