"""A batched query service over PIM-resident relations.

:class:`QueryService` is the serving layer the ROADMAP's production
north-star asks for: it accepts *batches* of queries against one or more
registered :class:`~repro.db.storage.StoredRelation`\\ s, runs each on its
relation's engine, and returns the individual
:class:`~repro.core.executor.QueryExecution` results together with aggregate
:class:`~repro.service.stats.ServiceStats`.

Per-query work is amortised across the batch (and across batches) by a
shared :class:`~repro.service.cache.ProgramCache` — repeated WHERE clauses
and pim-gb subgroup filters skip ``compile_predicate`` entirely — and by
zone-map pruning.  Every WHERE clause, DELETE filter and subgroup mask is
evaluated on the bits stored in the crossbars, through the same kernels as a
bare :class:`~repro.core.executor.PimQueryEngine`.

Every relation is K >= 1 stores (``stored.shards``: K = 1 for
:meth:`QueryService.register`, K shards for
:meth:`QueryService.register_sharded`) served by one engine type, a
:class:`~repro.sharding.executor.ShardedQueryEngine`.  It routes each store
cost-based (PIM or host scan) and, above K = 1, gathers the per-store
results; the modelled latency is then max-over-shards plus a merge term.
Programs compile once through the shared cache (the shards share layout
objects).  ``register_sharded(shards=1)`` serves exactly like ``register``.

Queries and DML make their executors per call.  DML has one path for every
relation: every statement compiles once and runs on each store in store
order, with one fresh executor per store (INSERT routes each record to the
least-full store).

Results are bit-exact with sequential
:meth:`~repro.core.executor.PimQueryEngine.execute` calls;
``perf/`` measures the wall-clock of service passes and
``tests/test_sharding.py`` gates the sharded modelled-latency scaling.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field
from functools import reduce
from collections.abc import Iterable, Mapping, Sequence

from repro.config import SystemConfig, default_trace_sink, default_tracing
from repro.core.executor import QueryExecution
from repro.core.latency_model import GroupByCostModel
from repro.core.parallel import ScatterPool
from repro.db import dml
from repro.db.query import Predicate, Query
from repro.db.relation import Relation
from repro.db.storage import RelationFullError, StoredRelation
from repro.db.update import compile_update, execute_update
from repro.obs.explain import ExplainResult
from repro.obs.metrics import add_stats
from repro.obs.trace import SpanTracer
from repro.obs.wear import WearReport
from repro.pim.controller import PimExecutor
from repro.pim.module import PimModule
from repro.pim.stats import PimStats
from repro.planner.adaptive import AdaptiveSnapshot
from repro.planner.candidates import CandidateCacheStats
from repro.planner.planner import CostPlanner
from repro.service.cache import CacheStats, ProgramCache
from repro.service.stats import DmlStats, ServiceStats
from repro.sharding.executor import ShardedQueryEngine
from repro.sharding.storage import ShardedStoredRelation


@dataclass(frozen=True)
class QueryRequest:
    """One query of a batch, optionally pinned to a registered relation."""

    query: Query
    relation: str | None = None


@dataclass
class DmlOutcome:
    """One DML call served by the service: the outcome plus modelled stats.

    ``results`` holds the statement's per-store results, one per store of
    the relation in store order (one for an unsharded relation); ``result``
    is their sum — the same type, counts added, cycle fields describing the
    statement — and *is* ``results[0]`` for a single store.  ``stats``
    merges the per-store executors — deletes, updates and compactions
    combine as parallel phases (max-over-shards), routed inserts as serial
    work.  ``shard_stats`` keeps the unmerged per-store breakdown, which is
    where the per-phase detail lives.
    """

    results: list
    stats: PimStats
    shard_stats: list[PimStats] = field(default_factory=list)

    @property
    def result(self):
        """The per-store results summed (``results[0]`` itself for K = 1)."""
        return reduce(operator.add, self.results)


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
        pruning: bool = True,
        planner: bool = True,
        scatter_workers: int | None = None,
        tracing: bool | None = None,
        trace_sink: str | None = None,
    ) -> None:
        """Create an empty service.

        Args:
            cache_capacity: Capacity of the shared compiled-program cache.
            pruning: Run the registered engines with zone-map crossbar
                skipping (bit-exact; see :mod:`repro.planner`).
            planner: Route each query cost-based between the PIM engine and
                the host-scan path instead of always executing on PIM.
                Results are identical either way; only the modelled (and
                wall-clock) cost differs.
            scatter_workers: Width of the service-owned
                :class:`~repro.core.parallel.ScatterPool` every registered
                engine shares.  Only a relation with three or more vertical
                partitions uses it: a GROUP-BY maps its remote partitions'
                kernel batches over the pool when there are at least two of
                them (shard executions never run on it, see
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
        self.cache = ProgramCache(cache_capacity)
        self.pruning = bool(pruning)
        self.planner_enabled = bool(planner)
        self.pool = ScatterPool(scatter_workers)
        self.tracer = SpanTracer(
            enabled=default_tracing() if tracing is None else bool(tracing),
            sink=trace_sink if trace_sink is not None else default_trace_sink(),
        )
        self._planner = CostPlanner()
        #: One engine per relation; its ``sharded.shards`` are the K >= 1
        #: stores queries scatter over and DML runs on.
        self._engines: dict[str, ShardedQueryEngine] = {}
        self._dml_counters: dict[str, dict[str, int]] = {}
        self._default: str | None = None

    # -------------------------------------------------------------- registry
    def register(
        self,
        name: str,
        stored: StoredRelation,
        config: SystemConfig | None = None,
        label: str | None = None,
        cost_model: GroupByCostModel | None = None,
        timing_scale: float = 1.0,
        default: bool = False,
    ) -> ShardedQueryEngine:
        """Register a stored relation and build its engine.

        The relation is one store: the returned engine's one store engine is
        ``shard_engines[0]``, labelled ``label`` (default ``name``).  The
        engine shares the service's program cache and scatter pool.  The
        first registered relation becomes the default target for requests
        that do not name one.
        """
        self._check_name_free(name)
        return self._register_engine(
            name, stored, self.pool, default, config=config, label=label,
            cost_model=cost_model, timing_scale=timing_scale,
        )

    def register_sharded(
        self,
        name: str,
        relation: Relation,
        shards: int = 2,
        module: PimModule | None = None,
        config: SystemConfig | None = None,
        label: str | None = None,
        cost_model: GroupByCostModel | None = None,
        timing_scale: float = 1.0,
        max_workers: int = 1,
        partitions: Sequence[Sequence[str]] | None = None,
        aggregation_width: int | None = None,
        reserve_bulk_aggregation: bool = True,
        default: bool = False,
    ) -> ShardedQueryEngine:
        """Shard ``relation`` horizontally and register the scatter-gather engine.

        The relation is split into ``shards`` contiguous horizontal shards,
        each stored in its own crossbar allocation of ``module`` (a fresh
        :class:`PimModule` is created when omitted).  Queries routed to
        ``name`` scatter over the shards and gather through the
        partial-aggregate merge; their results are bit-exact with an
        unsharded engine while the modelled latency follows max-over-shards
        plus the merge term; ``shards=1`` serves exactly like
        :meth:`register`.  The shards are *simulated* one after the other:
        ``max_workers`` (at least 1) changes neither results nor costs;
        above 1 it hands the service's pool to the shard engines, which use
        it only for a relation with three or more vertical ``partitions``
        (a GROUP-BY maps the kernel batches of two or more remote
        partitions over it).
        Programs compile once: the shards share layouts, so the service's
        program cache hits across shards (and across queries, as usual).
        The shard allocations use ``config``'s simulation backend.
        """
        self._check_name_free(name)
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
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
        return self._register_engine(
            name, sharded, self.pool if max_workers > 1 else None, default,
            config=config, label=label, cost_model=cost_model,
            timing_scale=timing_scale,
        )

    def _register_engine(
        self, name: str, store, pool: ScatterPool | None, default: bool,
        label: str | None, **options,
    ) -> ShardedQueryEngine:
        """Build and register the engine over ``store``'s K >= 1 stores."""
        engine = ShardedQueryEngine(
            store,
            label=label if label is not None else name,
            compiler=self.cache,
            pruning=self.pruning,
            planner=self._planner if self.planner_enabled else None,
            pool=pool,
            tracer=self.tracer,
            **options,
        )
        self._engines[name] = engine
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

    def engine(self, name: str | None = None) -> ShardedQueryEngine:
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
        return self._execute_routed(self._resolve(relation), query)

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
            execution = self._execute_routed(name, query)
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
        return WearReport.from_stored(self._engines[name].sharded, label=name)

    def _execute_routed(self, name: str, query: Query) -> QueryExecution:
        """Execute one query; the engine routes each of its stores itself."""
        with self.tracer.span("query", relation=name) as span:
            if self.tracer.enabled:
                cache_before = self.cache.snapshot()
            execution = self._engines[name].execute(query)
            if self.tracer.enabled:
                self._annotate_query_span(span, execution, cache_before)
            return execution

    def _annotate_query_span(self, span, execution, cache_before):
        """Decision attributes of one served query's root span."""
        cache_delta = self.cache.snapshot() - cache_before
        span.set(
            routed=execution.route,
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
        start = time.perf_counter()
        for index in schedule:
            pending[index] = self._execute_routed(
                targets[index], requests[index].query
            )
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
        return reduce(add_stats, (
            stored.statistics.candidate_stats()
            for engine in self._engines.values() for stored in engine.sharded.shards
        ), CandidateCacheStats())

    def adaptive_stats(self) -> AdaptiveSnapshot:
        """Summed feedback-loop snapshots of every registered relation.

        Point-in-time, like :meth:`dml_stats` — the loop's counters only
        grow, so a caller that wants a per-batch delta can difference the
        ``observations``/``rebuilds`` counts itself.
        """
        return reduce(add_stats, (
            stored.statistics.adaptive_snapshot()
            for engine in self._engines.values() for stored in engine.sharded.shards
        ), AdaptiveSnapshot())

    def state_digest(self, relation: str | None = None) -> str:
        """:meth:`StoredRelation.state_digest` of a registered relation's store
        (over the shards of a sharded one): equal digests mean no later
        statement can tell two services' relations apart."""
        return self._engines[self._resolve(relation)].sharded.state_digest()

    # ------------------------------------------------------------------- DML
    def insert(
        self,
        records: Sequence[Mapping[str, object]],
        relation: str | None = None,
    ) -> DmlOutcome:
        """Insert records into a registered relation (slot reuse, then tail).

        Each record goes to the store with the most free slots at that point
        of the batch (ties to the lowest store index), so a large batch
        spreads across a sharded relation's stores.  The batch is
        all-or-nothing: capacity over all stores and every record's encoding
        are checked first, so a batch that does not fit raises
        :class:`~repro.db.storage.RelationFullError` and a bad record raises
        :class:`ValueError`, with no store touched.
        """
        name = self._resolve(relation)
        stores = self._engines[name].sharded.shards
        records = list(records)
        with self.tracer.span(
            "dml-insert", relation=name, records=len(records)
        ) as span:
            executors = self._bind_dml_stats(name)
            free = [stored.free_slots for stored in stores]
            if len(records) > sum(free):
                raise RelationFullError(
                    f"cannot insert {len(records)} records into {name!r}: "
                    f"only {sum(free)} free slots in {len(stores)} store(s)"
                )
            # The stores share one schema: encode the whole batch once.
            columns = stores[0].relation.encode_records(records)
            routed: list[list[int]] = [[] for _ in stores]
            for index in range(len(records)):
                target = free.index(max(free))
                routed[target].append(index)
                free[target] -= 1
            results = [
                dml.execute_insert(
                    stored,
                    {attr: column[indices] for attr, column in columns.items()},
                    executor,
                    encoded=True,
                )
                for stored, executor, indices in zip(stores, executors, routed)
            ]
            outcome = self._outcome(results, executors, parallel=False)
            inserted = outcome.result.records_inserted
            self._dml_counters[name]["inserted"] += inserted
            if self.tracer.enabled:
                span.set(inserted=inserted)
            return outcome

    def delete(
        self, predicate: Predicate, relation: str | None = None
    ) -> DmlOutcome:
        """Tombstone the records selected by ``predicate`` — in memory.

        The filter and clear programs compile once through the service's
        program cache (a repeated DELETE, or a DELETE matching a cached WHERE
        clause, skips compilation) and run on each of the relation's stores,
        each pruned through its own zone maps.
        """
        name = self._resolve(relation)
        stores = self._engines[name].sharded.shards
        with self.tracer.span("dml-delete", relation=name) as span:
            executors = self._bind_dml_stats(name)
            compiled = dml.compile_delete(stores[0], predicate, compiler=self.cache)
            results = [
                dml.execute_delete(stored, predicate, executor, compiled=compiled)
                for stored, executor in zip(stores, executors)
            ]
            outcome = self._outcome(results, executors, parallel=True)
            deleted = outcome.result.records_deleted
            self._dml_counters[name]["deleted"] += deleted
            if self.tracer.enabled:
                span.set(deleted=deleted)
            return outcome

    def update(
        self,
        predicate: Predicate,
        assignments: Mapping[str, object],
        relation: str | None = None,
    ) -> DmlOutcome:
        """Set ``assignments`` on the records selected by ``predicate`` — in
        memory (Algorithm 1).

        The filter and mux programs compile once and run on each of the
        relation's stores, each pruned through its own zone maps; the
        ground-truth columns are updated with the stored bits.
        """
        name = self._resolve(relation)
        stores = self._engines[name].sharded.shards
        assignments = dict(assignments)
        with self.tracer.span("dml-update", relation=name) as span:
            executors = self._bind_dml_stats(name)
            compiled = compile_update(stores[0], predicate, assignments)
            results = [
                execute_update(
                    stored, predicate, assignments, executor, compiled=compiled
                )
                for stored, executor in zip(stores, executors)
            ]
            outcome = self._outcome(results, executors, parallel=True)
            if self.tracer.enabled:
                span.set(updated=outcome.result.records_updated)
            return outcome

    def compact(
        self,
        relation: str | None = None,
        threshold: float = dml.DEFAULT_COMPACTION_THRESHOLD,
        force: bool = False,
        cluster_by: str | None = None,
    ) -> DmlOutcome:
        """Compact a relation's tombstones away when fragmentation warrants it.

        Each store compacts when its own fragmentation crosses
        ``threshold`` (or ``force``).  The rewrite applies both decisions of
        the store's adaptive feedback loop: it re-clusters the surviving rows
        by ``cluster_by`` (default: the store's hottest predicate column) and
        builds the correlated-pair sketch once a pair is hot.  A
        ``cluster_by`` the relation does not have raises :class:`ValueError`
        with nothing charged.
        """
        name = self._resolve(relation)
        stores = self._engines[name].sharded.shards
        with self.tracer.span("compact", relation=name) as span:
            executors = self._bind_dml_stats(name)
            results = [
                dml.execute_compaction(
                    stored, executor, threshold=threshold, force=force,
                    cluster_by=cluster_by,
                )
                for stored, executor in zip(stores, executors)
            ]
            outcome = self._outcome(results, executors, parallel=True)
            performed = sum(result.performed for result in results)
            reclaimed = outcome.result.slots_reclaimed
            self._dml_counters[name]["compactions"] += performed
            self._dml_counters[name]["slots_reclaimed"] += reclaimed
            if self.tracer.enabled:
                span.set(compactions=performed, slots_reclaimed=reclaimed)
            return outcome

    def dml_stats(self, relation: str | None = None) -> DmlStats:
        """Live-row / tombstone / lifecycle counters of one relation."""
        return self._relation_dml_stats(self._resolve(relation))

    def _relation_dml_stats(self, name: str) -> DmlStats:
        return reduce(add_stats, (
            DmlStats(
                live_rows=stored.live_count,
                tombstones=stored.tombstone_count,
                slots_in_use=stored.num_records,
                capacity=stored.record_capacity,
            )
            for stored in self._engines[name].sharded.shards
        ), DmlStats(**self._dml_counters[name]))

    def _dml_snapshot(self) -> DmlStats | None:
        """Aggregate DML state over all relations; ``None`` before any DML."""
        if not any(
            any(counters.values()) for counters in self._dml_counters.values()
        ):
            return None
        return reduce(
            add_stats, map(self._relation_dml_stats, self._engines), DmlStats()
        )

    def _bind_dml_stats(self, name: str) -> list[PimExecutor]:
        """Fresh executors for one DML call, one per store, their stats bound
        to the service's tracer."""
        engine = self._engines[name]
        executors = [PimExecutor(engine.config) for _ in engine.sharded.shards]
        for executor in executors:
            self.tracer.bind(executor.stats)
        return executors

    @staticmethod
    def _outcome(
        results: list, executors: Sequence[PimExecutor], parallel: bool
    ) -> DmlOutcome:
        """The outcome of one DML call: per-store results, one stats roll-up
        (parallel per-store runs or serial routing) and the per-store stats."""
        if len(executors) == 1:
            merged = executors[0].stats
        else:
            merged = PimStats()
            if parallel:
                merged.merge_parallel(
                    [executor.stats for executor in executors], phase="dml-scatter"
                )
            else:
                for executor in executors:
                    merged.merge(executor.stats)
        return DmlOutcome(
            results, merged, [executor.stats.copy() for executor in executors]
        )
