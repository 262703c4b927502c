"""A batched query service over PIM-resident relations.

:class:`QueryService` is the serving layer the ROADMAP's production
north-star asks for: it accepts *batches* of queries against one or more
registered :class:`~repro.db.storage.StoredRelation`\\ s, schedules them
through a shared per-relation :class:`~repro.pim.controller.PimExecutor`, and
returns the individual :class:`~repro.core.executor.QueryExecution` results
together with aggregate :class:`~repro.service.stats.ServiceStats`.

Per-query work is amortised across the batch (and across batches) by a
shared :class:`~repro.service.cache.ProgramCache` — repeated WHERE clauses
and pim-gb subgroup filters skip ``compile_predicate`` entirely — and by
zone-map pruning.  Every WHERE clause, DELETE filter and subgroup mask is
evaluated on the bits stored in the crossbars, through the same kernels as a
bare :class:`~repro.core.executor.PimQueryEngine`.

Relations that outgrow a single allocation register through
:meth:`QueryService.register_sharded`: the relation is split into K
horizontal shards served by a
:class:`~repro.sharding.executor.ShardedQueryEngine` — scatter-gather
execution whose modelled latency is max-over-shards plus a merge term, and
whose programs compile once through the same shared cache (the shards share
layout objects).

Results are bit-exact with sequential
:meth:`~repro.core.executor.PimQueryEngine.execute` calls;
``perf/`` measures the wall-clock of service passes and
``tests/test_sharding.py`` gates the sharded modelled-latency scaling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping, Sequence

from repro.config import (
    SystemConfig,
    default_trace_sink,
    default_tracing,
    validate_backend,
)
from repro.core.executor import PimQueryEngine, QueryExecution
from repro.core.latency_model import GroupByCostModel
from repro.core.parallel import ScatterPool
from repro.db import dml
from repro.db.query import Predicate, Query
from repro.db.relation import Relation
from repro.db.storage import StoredRelation
from repro.obs.explain import ExplainResult
from repro.obs.trace import SpanTracer
from repro.obs.wear import WearReport
from repro.pim.controller import PimExecutor
from repro.pim.module import PimModule
from repro.pim.stats import PimStats
from repro.planner.adaptive import AdaptiveSnapshot
from repro.planner.candidates import CandidateCacheStats
from repro.planner.planner import CostPlanner, execute_host_scan
from repro.service.cache import CacheStats, ProgramCache
from repro.service.stats import DmlStats, ServiceStats
from repro.sharding import dml as sharded_dml
from repro.sharding.executor import ShardedQueryEngine
from repro.sharding.storage import ShardedStoredRelation

#: A registered engine: plain single-allocation or sharded scatter-gather.
ServiceEngine = PimQueryEngine | ShardedQueryEngine

#: The executor state a registered engine needs: one executor for a plain
#: engine, one per shard for a sharded engine.
ServiceExecutors = PimExecutor | list[PimExecutor]


@dataclass(frozen=True)
class QueryRequest:
    """One query of a batch, optionally pinned to a registered relation."""

    query: Query
    relation: str | None = None


@dataclass
class DmlOutcome:
    """One DML call served by the service: the outcome plus modelled stats.

    ``stats`` merges the per-shard executors of a sharded relation —
    broadcast deletes and compactions combine as parallel phases
    (max-over-shards), routed inserts as serial work.  ``shard_stats`` keeps
    the unmerged per-shard breakdown (one entry for an unsharded relation),
    which is where the per-phase detail lives.
    """

    result: object
    stats: PimStats
    shard_stats: list[PimStats] = field(default_factory=list)


@dataclass
class BatchResult:
    """Executions (in request order) and aggregate stats of one batch."""

    executions: list[QueryExecution]
    stats: ServiceStats

    def __iter__(self):
        return iter(self.executions)

    def __len__(self) -> int:
        return len(self.executions)


class QueryService:
    """Serves query batches against registered PIM-resident relations."""

    def __init__(
        self,
        cache_capacity: int = 512,
        cache: ProgramCache | None = None,
        pruning: bool = True,
        planner: bool = True,
        scatter_workers: int | None = None,
        tracing: bool | None = None,
        trace_sink: str | None = None,
    ) -> None:
        """Create an empty service.

        Args:
            cache_capacity: Capacity of the shared compiled-program cache.
            cache: Share an existing :class:`ProgramCache` between services.
            pruning: Run the registered engines with zone-map crossbar
                skipping (bit-exact; see :mod:`repro.planner`).
            planner: Route each query cost-based between the PIM engine and
                the host-scan path instead of always executing on PIM.
                Results are identical either way; only the modelled (and
                wall-clock) cost differs.
            scatter_workers: Width of the service-owned
                :class:`~repro.core.parallel.ScatterPool` every registered
                engine shares — the per-partition group-by kernel batches of
                a vertically partitioned relation reuse its warm worker
                threads (shard executions never run on it, see
                :mod:`repro.sharding.executor`).  Defaults to one worker per
                core; ``1`` keeps all execution on the calling thread.
            tracing: Record a hierarchical span trace for every served
                query, DML call and compaction (see :mod:`repro.obs.trace`).
                ``None`` follows the ``REPRO_TRACE`` environment variable;
                the disabled path costs one branch per span site.
                :meth:`explain` force-enables the tracer for its single
                execution regardless of this setting.
            trace_sink: JSONL path completed root spans are appended to;
                defaults to the path named by ``REPRO_TRACE`` (if any).
        """
        self.cache = cache if cache is not None else ProgramCache(cache_capacity)
        self.pruning = bool(pruning)
        self.planner_enabled = bool(planner)
        self.pool = ScatterPool(scatter_workers)
        self.tracer = SpanTracer(
            enabled=default_tracing() if tracing is None else bool(tracing),
            sink=trace_sink if trace_sink is not None else default_trace_sink(),
        )
        self._planner = CostPlanner()
        self._engines: dict[str, ServiceEngine] = {}
        self._executors: dict[str, ServiceExecutors] = {}
        self._dml_counters: dict[str, dict[str, int]] = {}
        self._default: str | None = None
        self._host_routed_total = 0

    # -------------------------------------------------------------- registry
    def register(
        self,
        name: str,
        stored: StoredRelation,
        config: SystemConfig | None = None,
        label: str | None = None,
        cost_model: GroupByCostModel | None = None,
        sample_pages: int = 1,
        timing_scale: float = 1.0,
        default: bool = False,
    ) -> PimQueryEngine:
        """Register a stored relation and build its engine.

        The engine shares the service's program cache.  The first registered
        relation becomes the default target for requests that do not name one.
        """
        self._check_name_free(name)
        engine = PimQueryEngine(
            stored,
            config=config,
            label=label if label is not None else name,
            cost_model=cost_model,
            sample_pages=sample_pages,
            timing_scale=timing_scale,
            compiler=self.cache,
            pruning=self.pruning,
            scatter_pool=self.pool,
            tracer=self.tracer,
        )
        self._engines[name] = engine
        self._executors[name] = PimExecutor(engine.config, tracer=self.tracer)
        self._dml_counters[name] = self._fresh_counters()
        if default or self._default is None:
            self._default = name
        return engine

    def register_sharded(
        self,
        name: str,
        relation: Relation,
        shards: int = 2,
        module: PimModule | None = None,
        config: SystemConfig | None = None,
        label: str | None = None,
        cost_model: GroupByCostModel | None = None,
        sample_pages: int = 1,
        timing_scale: float = 1.0,
        max_workers: int = 1,
        partitions: Sequence[Sequence[str]] | None = None,
        aggregation_width: int | None = None,
        reserve_bulk_aggregation: bool = True,
        default: bool = False,
        backend: str | None = None,
    ) -> ShardedQueryEngine:
        """Shard ``relation`` horizontally and register the scatter-gather engine.

        The relation is split into ``shards`` contiguous horizontal shards,
        each stored in its own crossbar allocation of ``module`` (a fresh
        :class:`PimModule` is created when omitted).  Queries routed to
        ``name`` scatter over the shards and gather through the
        partial-aggregate merge; their results are bit-exact with an
        unsharded engine while the modelled latency follows max-over-shards
        plus the merge term.  The shards are *simulated* one after the other:
        ``max_workers`` (at least 1) changes neither results nor costs,
        above 1 it lets per-partition kernel batches use the service's pool.
        Programs compile once: the shards share layouts, so the service's
        program cache hits across shards (and across queries, as usual).

        ``backend`` overrides the functional simulation backend
        (``"packed"`` or ``"bool"``, see :mod:`repro.pim.packed`) of the
        shard allocations; by default the configuration's backend is used.
        It only applies when the service creates the module itself.
        """
        self._check_name_free(name)
        if backend is not None:
            validate_backend(backend)
            if module is not None:
                raise ValueError(
                    "backend= only applies when the service allocates the "
                    "module; pass a module built with the desired backend "
                    "configuration instead"
                )
            base = config if config is not None else SystemConfig()
            config = base.with_backend(backend)
        if module is None:
            module = PimModule(config)
        sharded = ShardedStoredRelation(
            relation,
            module,
            shards=shards,
            label=label if label is not None else name,
            partitions=partitions,
            aggregation_width=aggregation_width,
            reserve_bulk_aggregation=reserve_bulk_aggregation,
        )
        engine = ShardedQueryEngine(
            sharded,
            config=config,
            label=label if label is not None else name,
            cost_model=cost_model,
            sample_pages=sample_pages,
            timing_scale=timing_scale,
            compiler=self.cache,
            pruning=self.pruning,
            max_workers=max_workers,
            planner=self._planner if self.planner_enabled else None,
            pool=self.pool if max_workers > 1 else None,
            tracer=self.tracer,
        )
        self._engines[name] = engine
        self._executors[name] = engine.make_executors()
        self._dml_counters[name] = self._fresh_counters()
        if default or self._default is None:
            self._default = name
        return engine

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release the shared scatter pool's worker threads (idempotent)."""
        self.pool.close()

    def __enter__(self) -> QueryService:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def _fresh_counters() -> dict[str, int]:
        return {"inserted": 0, "deleted": 0, "compactions": 0, "slots_reclaimed": 0}

    def _check_name_free(self, name: str) -> None:
        if name in self._engines:
            raise ValueError(f"relation {name!r} is already registered")

    @property
    def relations(self) -> list[str]:
        """Names of the registered relations."""
        return list(self._engines)

    def engine(self, name: str | None = None) -> ServiceEngine:
        """The engine serving ``name`` (or the default relation)."""
        return self._engines[self._resolve(name)]

    def _resolve(self, name: str | None) -> str:
        if name is None:
            if self._default is None:
                raise ValueError("no relation registered with this service")
            return self._default
        if name not in self._engines:
            raise KeyError(
                f"unknown relation {name!r}; registered: {self.relations}"
            )
        return name

    # ------------------------------------------------------------- execution
    def execute(self, query: Query, relation: str | None = None) -> QueryExecution:
        """Execute a single query through the service's shared machinery.

        With the planner enabled the query is routed cost-based: a
        high-selectivity query over a small relation streams through the
        host-scan path, everything else executes on the (pruned) PIM engine.
        Results are bit-exact either way.
        """
        name = self._resolve(relation)
        execution, _ = self._execute_routed(name, query)
        return execution

    def explain(self, query: Query, relation: str | None = None) -> ExplainResult:
        """EXPLAIN ANALYZE: execute ``query`` once and capture its span tree.

        The execution is real — it runs on the cost-chosen route, warms the
        caches and feeds the adaptive loop exactly like :meth:`execute` —
        with the service's tracer force-enabled around it.  The returned
        :class:`~repro.obs.explain.ExplainResult` carries the execution (and
        its bit-exact rows) plus the trace; ``result.render()`` shows only
        modelled quantities, so the text is identical across simulation
        backends.
        """
        name = self._resolve(relation)
        was_enabled = self.tracer.enabled
        self.tracer.enabled = True
        try:
            execution, _ = self._execute_routed(name, query)
            trace = self.tracer.pop_trace()
        finally:
            self.tracer.enabled = was_enabled
        return ExplainResult(relation=name, execution=execution, trace=trace)

    def wear_report(self, relation: str | None = None) -> WearReport:
        """Point-in-time wear observatory of one registered relation.

        Snapshots every crossbar bank's cumulative per-row write counters —
        the distribution behind the Fig. 9 endurance scalar — as a
        :class:`~repro.obs.wear.WearReport` (distributions, hottest
        crossbars, ASCII heatmap, endurance/lifetime figures).
        """
        name = self._resolve(relation)
        engine = self._engines[name]
        if isinstance(engine, ShardedQueryEngine):
            return WearReport.from_sharded(engine.sharded, label=name)
        return WearReport.from_stored(engine.stored, label=name)

    def _execute_routed(self, name: str, query: Query):
        """Execute one query on its cost-chosen route.

        Returns ``(execution, host_routed)`` where ``host_routed`` counts the
        engines served through the host-scan path — 0 or 1 for a plain
        engine, up to the shard count for a sharded one (each shard routes
        independently through the engine's planner).
        """
        engine = self._engines[name]
        with self.tracer.span("query", relation=name) as span:
            if self.tracer.enabled:
                cache_before = self.cache.snapshot()
            if self.planner_enabled and isinstance(engine, PimQueryEngine):
                decision = self._planner.route(query, engine)
                if decision.target == "host":
                    self._host_routed_total += 1
                    execution = execute_host_scan(engine, query, decision)
                    if self.tracer.enabled:
                        self._annotate_query_span(span, execution, cache_before, "host")
                    return execution, 1
            execution = engine.execute(query, executor=self._executors[name])
            host_routed = getattr(execution, "host_routed_shards", 0)
            self._host_routed_total += host_routed
            if self.tracer.enabled:
                self._annotate_query_span(span, execution, cache_before, "pim")
            return execution, host_routed

    def _annotate_query_span(self, span, execution, cache_before, routed):
        """Decision attributes of one served query's root span."""
        cache_delta = self.cache.snapshot() - cache_before
        span.set(
            routed=routed,
            label=execution.label,
            cache_hits=cache_delta.hits,
            cache_misses=cache_delta.misses,
            crossbars_total=execution.crossbars_total,
            crossbars_scanned=execution.crossbars_scanned,
            result_rows=len(execution.rows),
        )

    def execute_batch(
        self,
        queries: Iterable[Query | QueryRequest],
        relation: str | None = None,
    ) -> BatchResult:
        """Execute a batch and return per-query results plus service stats.

        Requests are scheduled grouped by target relation (back-to-back
        execution against one relation keeps its programs and columns hot)
        while the returned executions keep the submission order.
        """
        requests: list[QueryRequest] = [
            q if isinstance(q, QueryRequest) else QueryRequest(q, relation)
            for q in queries
        ]
        targets = [self._resolve(r.relation or relation) for r in requests]
        schedule = sorted(range(len(requests)), key=lambda i: (targets[i], i))

        cache_before = self.cache.snapshot()
        candidates_before = self.candidate_cache_stats()
        pending: list[QueryExecution | None] = [None] * len(requests)
        host_routed = 0
        start = time.perf_counter()
        for index in schedule:
            execution, routed_to_host = self._execute_routed(
                targets[index], requests[index].query
            )
            pending[index] = execution
            host_routed += routed_to_host
        wall = time.perf_counter() - start
        # The schedule is a permutation of the request indices, so after the
        # loop every slot holds an execution; narrow the Optional away.
        executions: list[QueryExecution] = []
        for index, execution in enumerate(pending):
            if execution is None:
                raise AssertionError(f"request {index} was never scheduled")
            executions.append(execution)
        stats = ServiceStats.from_executions(
            executions, wall,
            cache=self.cache.snapshot() - cache_before,
            dml=self._dml_snapshot(),
            host_routed=host_routed,
            candidates=self.candidate_cache_stats() - candidates_before,
            adaptive=self.adaptive_stats(),
        )
        return BatchResult(executions=executions, stats=stats)

    def cache_stats(self) -> CacheStats:
        """Point-in-time snapshot of the shared program cache's counters."""
        return self.cache.snapshot()

    def candidate_cache_stats(self) -> CandidateCacheStats:
        """Summed candidate-set cache counters of every registered relation.

        A sharded relation contributes one cache per shard (the shards share
        the normalized fragment keys but cache their own masks).
        """
        total = CandidateCacheStats()
        for engine in self._engines.values():
            if isinstance(engine, ShardedQueryEngine):
                stats_owners = [shard.statistics for shard in engine.sharded.shards]
            else:
                stats_owners = [engine.stored.statistics]
            for statistics in stats_owners:
                total = total + statistics.candidate_stats()
        return total

    def adaptive_stats(self) -> AdaptiveSnapshot:
        """Summed feedback-loop snapshots of every registered relation.

        Point-in-time, like :meth:`dml_stats` — the loop's counters only
        grow, so a caller that wants a per-batch delta can difference the
        ``observations``/``rebuilds`` counts itself.
        """
        total = AdaptiveSnapshot()
        for engine in self._engines.values():
            if isinstance(engine, ShardedQueryEngine):
                stats_owners = [s.statistics for s in engine.sharded.shards]
            else:
                stats_owners = [engine.stored.statistics]
            for statistics in stats_owners:
                total = total + statistics.adaptive_snapshot()
        return total

    def state_digest(self, relation: str | None = None) -> str:
        """:meth:`StoredRelation.state_digest` of a registered relation's store
        (over the shards of a sharded one): equal digests mean no later
        statement can tell two services' relations apart."""
        engine = self.engine(relation)
        if isinstance(engine, ShardedQueryEngine):
            return engine.sharded.state_digest()
        return engine.stored.state_digest()

    # ------------------------------------------------------------------- DML
    def insert(
        self,
        records: Sequence[Mapping[str, object]],
        relation: str | None = None,
    ) -> DmlOutcome:
        """Insert records into a registered relation (slot reuse, then tail).

        A sharded relation routes each record to its currently least-full
        shard.  Raises :class:`~repro.db.storage.RelationFullError` when the
        batch does not fit.
        """
        name = self._resolve(relation)
        engine = self._engines[name]
        with self.tracer.span(
            "dml-insert", relation=name, records=len(records)
        ) as span:
            executors = self._bind_dml_stats(name)
            if isinstance(engine, ShardedQueryEngine):
                result = sharded_dml.execute_sharded_insert(
                    engine.sharded, records, executors=executors
                )
            else:
                result = dml.execute_insert(engine.stored, records, executors[0])
            self._dml_counters[name]["inserted"] += result.records_inserted
            if self.tracer.enabled:
                span.set(inserted=result.records_inserted)
            return DmlOutcome(
                result,
                self._merge_dml_stats(executors, parallel=False),
                [executor.stats.copy() for executor in executors],
            )

    def delete(
        self, predicate: Predicate, relation: str | None = None
    ) -> DmlOutcome:
        """Tombstone the records selected by ``predicate`` — in memory.

        The filter program compiles through the service's program cache (a
        repeated DELETE, or a DELETE matching a cached WHERE clause, skips
        compilation); a sharded relation broadcasts the once-compiled
        programs to every shard.
        """
        name = self._resolve(relation)
        engine = self._engines[name]
        with self.tracer.span("dml-delete", relation=name) as span:
            executors = self._bind_dml_stats(name)
            if isinstance(engine, ShardedQueryEngine):
                result = sharded_dml.execute_sharded_delete(
                    engine.sharded, predicate,
                    executors=executors, compiler=self.cache,
                )
            else:
                compiled = dml.compile_delete(
                    engine.stored, predicate, compiler=self.cache
                )
                result = dml.execute_delete(
                    engine.stored, predicate, executors[0], compiled=compiled
                )
            self._dml_counters[name]["deleted"] += result.records_deleted
            if self.tracer.enabled:
                span.set(deleted=result.records_deleted)
            return DmlOutcome(
                result,
                self._merge_dml_stats(executors, parallel=True),
                [executor.stats.copy() for executor in executors],
            )

    def compact(
        self,
        relation: str | None = None,
        threshold: float = dml.DEFAULT_COMPACTION_THRESHOLD,
        force: bool = False,
        cluster_by: str | None = None,
    ) -> DmlOutcome:
        """Compact a relation's tombstones away when fragmentation warrants it.

        The rewrite re-clusters the surviving rows by ``cluster_by``
        (default: the relation's hottest predicate column, per its adaptive
        feedback loop); a ``cluster_by`` the relation does not have raises
        :class:`ValueError` with nothing charged.
        """
        name = self._resolve(relation)
        engine = self._engines[name]
        with self.tracer.span("compact", relation=name) as span:
            executors = self._bind_dml_stats(name)
            if isinstance(engine, ShardedQueryEngine):
                result = sharded_dml.execute_sharded_compaction(
                    engine.sharded, executors=executors,
                    threshold=threshold, force=force, cluster_by=cluster_by,
                )
                performed = result.shards_compacted
                reclaimed = result.slots_reclaimed
            else:
                result = dml.execute_compaction(
                    engine.stored, executors[0], threshold=threshold,
                    force=force, cluster_by=cluster_by,
                )
                performed = int(result.performed)
                reclaimed = result.slots_reclaimed
            self._dml_counters[name]["compactions"] += performed
            self._dml_counters[name]["slots_reclaimed"] += reclaimed
            if self.tracer.enabled:
                span.set(compactions=performed, slots_reclaimed=reclaimed)
            return DmlOutcome(
                result,
                self._merge_dml_stats(executors, parallel=True),
                [executor.stats.copy() for executor in executors],
            )

    def dml_stats(self, relation: str | None = None) -> DmlStats:
        """Live-row / tombstone / lifecycle counters of one relation."""
        name = self._resolve(relation)
        return self._relation_dml_stats(name)

    def _relation_dml_stats(self, name: str) -> DmlStats:
        engine = self._engines[name]
        if isinstance(engine, ShardedQueryEngine):
            storage = engine.sharded
            capacity = sum(shard.record_capacity for shard in storage.shards)
        else:
            storage = engine.stored
            capacity = storage.record_capacity
        counters = self._dml_counters[name]
        return DmlStats(
            live_rows=storage.live_count,
            tombstones=storage.tombstone_count,
            slots_in_use=storage.num_records,
            capacity=capacity,
            inserted=counters["inserted"],
            deleted=counters["deleted"],
            compactions=counters["compactions"],
            slots_reclaimed=counters["slots_reclaimed"],
        )

    def _dml_snapshot(self) -> DmlStats | None:
        """Aggregate DML state over all relations; ``None`` before any DML."""
        if not any(
            any(counters.values()) for counters in self._dml_counters.values()
        ):
            return None
        per_relation = [self._relation_dml_stats(name) for name in self._engines]
        return DmlStats(
            live_rows=sum(s.live_rows for s in per_relation),
            tombstones=sum(s.tombstones for s in per_relation),
            slots_in_use=sum(s.slots_in_use for s in per_relation),
            capacity=sum(s.capacity for s in per_relation),
            inserted=sum(s.inserted for s in per_relation),
            deleted=sum(s.deleted for s in per_relation),
            compactions=sum(s.compactions for s in per_relation),
            slots_reclaimed=sum(s.slots_reclaimed for s in per_relation),
        )

    def _bind_dml_stats(self, name: str) -> list[PimExecutor]:
        """Attach fresh per-call stats to the relation's executor(s)."""
        executors = self._executors[name]
        if isinstance(executors, PimExecutor):
            executors = [executors]
        for executor in executors:
            executor.stats = PimStats()
            self.tracer.bind(executor.stats)
        return executors

    def _merge_dml_stats(
        self, executors: Sequence[PimExecutor], parallel: bool
    ) -> PimStats:
        """One stats roll-up per DML call: parallel broadcast or serial routing."""
        if len(executors) == 1:
            return executors[0].stats
        merged = PimStats()
        if parallel:
            merged.merge_parallel(
                [executor.stats for executor in executors], phase="dml-scatter"
            )
        else:
            for executor in executors:
                merged.merge(executor.stats)
        return merged
