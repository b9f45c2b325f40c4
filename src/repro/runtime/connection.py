"""Connections: the paper's ``fromQ`` -- compile, execute, stitch.

A :class:`Connection` pairs a catalog (schema + data) with a query
backend.  ``run`` performs the full Figure 2 pipeline at run time:
loop-lift the deep-embedded program, optimize the algebra plans, execute
the bundle on the backend, and stitch the tabular results back into a
Python value.  As in the paper, referencing a missing table or declaring a
wrong row type surfaces here, not at query construction.

Compilation is memoized through a content-addressed :class:`PlanCache`:
``run``/``compile`` fingerprint the program (structure + referenced table
schemas), and a repeated program skips loop-lifting, the rewrite fixpoint,
and backend code generation entirely -- avalanche safety guarantees the
cached bundle is valid for any instance with the same schema.
:meth:`Connection.prepare` exposes the same machinery explicitly as a
prepared-query handle.

Every execution is observable (``repro.obs``): ``run`` and
``PreparedQuery.execute`` record a span tree (``check`` → ``cache-lookup``
→ ``lift`` → ``optimize`` per rewrite pass → ``codegen`` → one ``execute``
span per bundle query → ``stitch``) retrievable via
:attr:`Connection.last_trace` and exportable through sinks registered
with :meth:`Connection.add_sink`; :meth:`Connection.explain` returns a
structured :class:`~repro.obs.ExplainReport` including the runtime
avalanche check (and, with ``analyze=True``, an execution-time
:class:`~repro.obs.AnalyzeReport`); the process-wide
:data:`repro.obs.METRICS` registry counts compiles, cache traffic,
queries, and per-phase latencies; and every execution -- traced or not
-- lands in the connection's flight recorder
(:attr:`Connection.query_log`), which retains the N most recent and N
slowest executions and promotes profiles for runs past
``slow_query_threshold``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from ..analysis import verify_bundle, verify_debug_enabled
from ..analysis.cost import estimate_bundle
from ..core.bundle import Bundle, compile_exp
from ..errors import ObservabilityError, QTypeError
from ..expr import exp_fingerprint, tables_referenced
from ..frontend.q import Q, to_q
from ..frontend.tables import SchemaLike, table
from ..obs import (
    METRICS,
    NULL_TRACER,
    AnalyzeCollector,
    ExplainReport,
    QueryLog,
    StatementStats,
    Trace,
    Tracer,
    build_analyze,
    build_report,
    make_entry,
    resolve_sampling,
)
from ..optimizer import PassStats
from .catalog import Catalog
from .plancache import CacheEntry, CacheKey, CacheStats, PlanCache
from .stitch import stitch


@dataclass
class CompiledQuery:
    """A compiled program plus compilation accounting (for inspection)."""

    bundle: Bundle
    optimized: bool
    #: Structural fingerprint of the source program (plan-cache identity).
    fingerprint: str | None = None
    #: Did the plan cache serve this compilation?
    cache_hit: bool = False
    #: Wall-clock seconds per compile phase ("check", "lookup", and on a
    #: cold path "lift" / "optimize"; ``run`` adds "codegen" whenever the
    #: backend actually generated code rather than reusing the cached
    #: artifact).
    timings: dict[str, float] = field(default_factory=dict)
    #: Rewrite-pipeline statistics (``None`` when the optimizer did not
    #: run for this call -- disabled, or the plan came from the cache).
    pass_stats: PassStats | None = None
    #: Plan-cache entry backing this compilation (shared codegen store).
    cache_entry: CacheEntry | None = field(default=None, repr=False)

    @property
    def query_count(self) -> int:
        """Bundle size: the avalanche-safety metric of Section 3.2."""
        return self.bundle.size

    @property
    def compile_time(self) -> float:
        """Total wall-clock seconds spent in recorded compile phases."""
        return sum(self.timings.values())


class Connection:
    """A database session: catalog + backend (default: in-memory engine).

    ``cache_size`` bounds the connection's :class:`PlanCache`; pass a
    shared ``plan_cache`` instead to let many connections reuse each
    other's compiled plans (entries are keyed on the compilation flags
    and the catalog's schema generation, so sharing is always safe).

    ``trace=False`` disables span recording entirely (the tracer becomes
    a shared no-op object, and reading :attr:`last_trace` raises
    :class:`~repro.errors.ObservabilityError`); with tracing on but no
    sink installed the cost is a handful of slotted span objects per
    execution.  ``sampling`` keeps tracing cheap under load: ``"always"``
    (default), a ratio in ``[0, 1]`` (head sampling -- untraced runs pay
    the ``NULL_TRACER`` floor), or ``"slow-only"`` (tail sampling --
    traces are recorded but only retained when the run exceeds
    ``slow_query_threshold``).

    ``slow_query_threshold`` (seconds) arms the flight recorder's
    promotion path: every execution then runs a cheap per-query
    stopwatch, and runs past the threshold land in
    :attr:`Connection.query_log` flagged ``slow`` with a full
    :class:`~repro.obs.AnalyzeReport`.  ``query_log_size`` bounds both
    of the recorder's views (N most recent + N slowest).

    ``statement_stats`` (default on) aggregates every execution into a
    per-fingerprint :class:`~repro.obs.StatementStats` -- calls, errors,
    cache hits, rows, per-phase compile/execute time, per-backend
    latency histograms, and the worst call's trace id -- read
    back via :meth:`statement_stats` (bounded by ``stats_capacity``
    tracked fingerprints; evictions fold into an overflow bucket so
    totals stay exact).
    """

    def __init__(self, backend: "str | Any | None" = None,
                 catalog: Catalog | None = None, optimize: bool = True,
                 decorrelate: bool = True, cache_size: int = 128,
                 plan_cache: PlanCache | None = None, trace: bool = True,
                 sampling: "str | float | Any" = "always",
                 slow_query_threshold: "float | None" = None,
                 query_log_size: int = 32,
                 statement_stats: bool = True,
                 stats_capacity: int = 512):
        self.catalog = catalog or Catalog()
        self.optimize = optimize
        #: Join-graph isolation (correlated-filter decorrelation); only
        #: ever disabled by the ablation benchmarks.
        self.decorrelate = decorrelate
        self.backend = _resolve_backend(backend)
        self.plan_cache = (plan_cache if plan_cache is not None
                           else PlanCache(cache_size))
        #: Total number of relational queries issued over this connection's
        #: lifetime (Table 1 instrumentation).  Counts *executions*: a
        #: plan served from the cache still issues its queries.
        self.queries_issued = 0
        #: Number of ``run``/``PreparedQuery.execute`` calls.
        self.executions = 0
        #: Record span trees for every execution?
        self.trace_enabled = trace
        #: Trace sampling policy (``repro.obs.SamplingPolicy``).
        self.sampling = resolve_sampling(sampling)
        #: Executions at least this many wall-clock seconds are flagged
        #: slow and promoted (profile + trace) into the query log;
        #: ``None`` disables the stopwatch entirely.
        self.slow_query_threshold = slow_query_threshold
        #: The flight recorder: N most recent + N slowest executions.
        self.query_log = QueryLog(recent=query_log_size,
                                  slowest=query_log_size)
        #: Per-fingerprint workload aggregates (``pg_stat_statements``
        #: for FERRY); ``None`` when ``statement_stats=False``.
        self.stats: "StatementStats | None" = (
            StatementStats(capacity=stats_capacity)
            if statement_stats else None)
        self._last_trace: Trace | None = None
        #: Trace exporters (``repro.obs.Sink``); every finished trace is
        #: passed to each.
        self.sinks: list[Any] = []

    # ------------------------------------------------------------------
    # observability plumbing
    # ------------------------------------------------------------------
    @property
    def last_trace(self) -> "Trace | None":
        """The span tree of the most recent retained execution.

        ``None`` before the first traced execution (or when the sampling
        policy dropped every trace so far).  Raises
        :class:`~repro.errors.ObservabilityError` when the connection
        was built with ``trace=False`` -- a loud answer instead of a
        permanently-``None`` surprise.
        """
        if not self.trace_enabled:
            raise ObservabilityError(
                "tracing is disabled on this connection; construct it "
                "with trace=True (the default) to record span trees, "
                "or read the flight recorder via conn.query_log")
        return self._last_trace

    def statement_stats(self) -> dict[str, Any]:
        """Snapshot of the per-fingerprint workload aggregates (the
        ``pg_stat_statements`` view): busiest statements first, the
        eviction overflow bucket, and exact workload totals.  Raises
        :class:`~repro.errors.ObservabilityError` when the connection
        was built with ``statement_stats=False``."""
        if self.stats is None:
            raise ObservabilityError(
                "statement statistics are disabled on this connection; "
                "construct it with statement_stats=True (the default) "
                "to aggregate per-fingerprint workload telemetry")
        return self.stats.snapshot()

    def add_sink(self, sink: Any) -> Any:
        """Register a trace sink (e.g. ``JsonLinesSink``); returns it."""
        self.sinks.append(sink)
        return sink

    def remove_sink(self, sink: Any) -> None:
        self.sinks.remove(sink)

    def _start_trace(self, name: str):
        if not self.trace_enabled or not self.sampling.sample():
            return NULL_TRACER
        return Tracer(name, backend=self.backend.name)

    def _record_execution(self, kind: str, tracer, info: dict,
                          started_at: float, duration: float,
                          collector: "AnalyzeCollector | None") -> None:
        """Tail of every ``run``/``execute``: finish the trace, apply the
        sampling keep-decision, detect slow queries, and log the
        execution into the flight recorder and statement stats."""
        slow = (self.slow_query_threshold is not None
                and duration >= self.slow_query_threshold)
        if slow:
            METRICS.counter("connection.slow_queries").inc()
        if info.get("error") is not None:
            METRICS.counter("connection.errors").inc()
        trace = tracer.finish()
        if trace is not None and self.sampling.keep(slow):
            self._last_trace = trace
            for sink in self.sinks:
                sink.emit(trace)
        else:
            trace = None
        analyze = None
        if collector is not None and collector.queries:
            info.setdefault("rows", collector.total_rows)
            if slow and "bundle" in info:
                analyze = build_analyze(info["bundle"], collector,
                                        self.backend.name, duration)
        self.query_log.record(make_entry(
            kind, self.backend.name, started_at, duration, info,
            slow=slow, trace=trace, analyze=analyze))
        if self.stats is not None:
            self.stats.record(
                info.get("fingerprint"), duration=duration,
                started_at=started_at, backend=self.backend.name,
                rows=info.get("rows"),
                queries=info.get("queries", 0),
                cache_hit=bool(info.get("cache_hit", False)),
                compile_time=info.get("compile_time", 0.0),
                execute_time=info.get("execute_time", 0.0),
                error=info.get("error"),
                error_code=info.get("error_code"),
                trace_id=info.get("trace_id"),
                est_rows=info.get("est_rows"))

    # ------------------------------------------------------------------
    # schema definition (delegates to the catalog)
    # ------------------------------------------------------------------
    def create_table(self, name: str, schema: SchemaLike,
                     rows: Iterable[Sequence[Any]] = ()) -> None:
        """Create and populate a database table."""
        self.catalog.create_table(name, schema, rows)

    def create_table_from_records(self, cls: type, instances: Iterable[Any],
                                  name: str | None = None) -> None:
        """Create a table backing a ``@queryable`` record class."""
        self.catalog.create_table_from_records(cls, instances, name)

    def table(self, name: str) -> Q:
        """Reference a catalog table, deriving the declared row type from
        the catalog (so the runtime check cannot fail for this query)."""
        return table(name, self.catalog.schema(name))

    # ------------------------------------------------------------------
    # the fromQ pipeline
    # ------------------------------------------------------------------
    @property
    def cache_stats(self) -> CacheStats:
        """Plan-cache hit/miss/eviction counters."""
        return self.plan_cache.stats

    def compile(self, q: Any, use_cache: bool = True,
                tracer=NULL_TRACER) -> CompiledQuery:
        """Loop-lift and optimize a query without executing it.

        Consults the plan cache first: a structurally identical program
        compiled before (under the same flags and catalog schema) is
        returned without re-running the pipeline.
        """
        METRICS.counter("connection.compiles").inc()
        timings: dict[str, float] = {}
        with tracer.span("check"):
            t0 = time.perf_counter()
            qq = to_q(q)
            self._check_tables(qq)
            timings["check"] = time.perf_counter() - t0
        METRICS.histogram("phase.check").observe(timings["check"])

        with tracer.span("cache-lookup") as sp:
            t0 = time.perf_counter()
            fp = exp_fingerprint(qq.exp)
            key = CacheKey(fp, self.optimize, self.decorrelate,
                           self.catalog.schema_generation)
            entry = self.plan_cache.lookup(key) if use_cache else None
            timings["lookup"] = time.perf_counter() - t0
            sp.set(hit=entry is not None)
        METRICS.histogram("phase.lookup").observe(timings["lookup"])
        if entry is not None:
            return CompiledQuery(entry.bundle, self.optimize, fingerprint=fp,
                                 cache_hit=True, timings=timings,
                                 cache_entry=entry)

        with tracer.span("lift"):
            t0 = time.perf_counter()
            bundle = compile_exp(qq.exp, decorrelate=self.decorrelate)
            timings["lift"] = time.perf_counter() - t0
        METRICS.histogram("phase.lift").observe(timings["lift"])
        if verify_debug_enabled():
            # Debug mode: staged verification of the raw loop-lifting
            # output, before any rewrite touches it.
            with tracer.span("verify", stage="post-lift"):
                verify_bundle(bundle, label="post-lift", mark=False)
        stats = None
        if self.optimize:
            from ..optimizer import optimize_bundle
            with tracer.span("optimize"):
                t0 = time.perf_counter()
                stats = PassStats()
                bundle = optimize_bundle(bundle, stats, tracer,
                                         table_rows=self._table_stats(),
                                         backend=self.backend.name)
                timings["optimize"] = time.perf_counter() - t0
            METRICS.histogram("phase.optimize").observe(timings["optimize"])
        if not bundle.verified:
            # optimize=False path: the backend still only ever receives
            # verified plans.
            with tracer.span("verify", stage="final"):
                t0 = time.perf_counter()
                verify_bundle(bundle, label="final")
                timings["verify"] = time.perf_counter() - t0
            METRICS.histogram("phase.verify").observe(timings["verify"])
        if bundle.cost is None:
            # optimize=False still gets a cost stamp: the drift lint
            # works on unoptimized plans too.
            bundle.cost = estimate_bundle(bundle, backend=self.backend.name,
                                          table_rows=self._table_stats())
        entry = CacheEntry(bundle, pass_stats=stats)
        if use_cache:
            self.plan_cache.insert(key, entry)
        return CompiledQuery(bundle, self.optimize, fingerprint=fp,
                             cache_hit=False, timings=timings,
                             pass_stats=stats, cache_entry=entry)

    def prepare(self, q: Any, tracer=NULL_TRACER) -> "PreparedQuery":
        """Compile ``q`` (through the cache) into a reusable handle whose
        :meth:`PreparedQuery.execute` skips straight to backend execution
        and stitching."""
        qq = to_q(q)
        compiled = self.compile(qq, tracer=tracer)
        code = self._codegen(compiled, tracer)
        if self.stats is not None:
            # Account the compile-phase cost and cache traffic against
            # the fingerprint without counting an execution.
            self.stats.record_compile(compiled.fingerprint,
                                      compiled.compile_time,
                                      compiled.cache_hit)
        return PreparedQuery(self, qq, compiled, code,
                             self.catalog.schema_generation)

    def run(self, q: Any) -> Any:
        """Execute a query and return its result as a plain Python value
        (the paper's ``fromQ``)."""
        tracer = self._start_trace("run")
        collector = (AnalyzeCollector()
                     if self.slow_query_threshold is not None else None)
        info: dict[str, Any] = {"trace_id": tracer.trace_id}
        started_at = time.time()
        t0 = time.perf_counter()
        try:
            compiled = self.compile(q, tracer=tracer)
            info.update(fingerprint=compiled.fingerprint,
                        cache_hit=compiled.cache_hit,
                        bundle_size=compiled.bundle.size,
                        bundle=compiled.bundle)
            tracer.root.set(fingerprint=compiled.fingerprint,
                            cache_hit=compiled.cache_hit,
                            bundle_size=compiled.bundle.size)
            code = self._codegen(compiled, tracer)
            info["compile_time"] = compiled.compile_time
            return self._execute(compiled.bundle, code, tracer, collector,
                                 info=info)
        except Exception as err:
            _note_error(info, err)
            raise
        finally:
            self._record_execution("run", tracer, info, started_at,
                                   time.perf_counter() - t0, collector)

    def explain(self, q: Any, analyze: bool = False,
                properties: bool = False) -> ExplainReport:
        """Structured report on the compiled bundle: fingerprint, plan
        cache status, the runtime avalanche check (bundle size vs. ``[.]``
        constructors in the result type), the staged verifier's verdict,
        pretty-printed algebra plans, and this backend's generated
        artifact per query.

        ``analyze=True`` additionally *executes* the bundle (like SQL's
        ``EXPLAIN ANALYZE`` -- it counts as a real execution) and attaches
        an :class:`~repro.obs.AnalyzeReport`: per-operator wall time,
        cardinalities, and peak intermediate width on the engine backend;
        per-query timings and row counts on SQL/MIL, on SQL also per
        temporary-table step (the plan nodes shared inside the bundle).

        ``properties=True`` annotates every plan operator with its
        inferred properties (``repro.analysis``: cardinality bounds,
        keys, constant columns, density facts) *and* its cost estimate
        (``est N rows .. cost``) next to the ``@n`` refs; combined with
        ``analyze=True`` the report also carries the estimate-drift
        lint's findings (``D500``/``D501``/``D502``).

        Returns an :class:`~repro.obs.ExplainReport`; ``print`` it (or
        call :meth:`~repro.obs.ExplainReport.render`) for the
        human-readable form, :meth:`~repro.obs.ExplainReport.to_dict`
        for a JSON-able one.
        """
        compiled = self.compile(q)
        prepared = self._codegen(compiled)
        artifacts = self.backend.describe_prepared(prepared)
        table_rows = self._table_stats()
        analyze_report = None
        drift = None
        if analyze:
            collector = AnalyzeCollector(per_op=True)
            # A real execution: it lands in the flight recorder and the
            # statement stats like any run, so their totals keep
            # reconciling with ``executions`` and the METRICS counters.
            info: dict[str, Any] = {"fingerprint": compiled.fingerprint,
                                    "cache_hit": compiled.cache_hit,
                                    "bundle_size": compiled.bundle.size,
                                    "bundle": compiled.bundle}
            started_at = time.time()
            t0 = time.perf_counter()
            try:
                self._execute(compiled.bundle, prepared, NULL_TRACER,
                              collector, info=info)
            except Exception as err:
                _note_error(info, err)
                raise
            finally:
                elapsed = time.perf_counter() - t0
                self._record_execution("explain-analyze", NULL_TRACER, info,
                                       started_at, elapsed, collector)
            analyze_report = build_analyze(
                compiled.bundle, collector, self.backend.name,
                elapsed, table_rows=table_rows)
            from ..analysis.lint import lint_report
            drift = lint_report(compiled.bundle, analyze_report,
                                self.backend.name, table_rows=table_rows)
        verify = verify_bundle(compiled.bundle, label="explain",
                               raise_on_error=False, mark=False)
        return build_report(compiled, self.backend, artifacts,
                            analyze=analyze_report, properties=properties,
                            verify=verify, table_rows=table_rows,
                            drift=drift)

    # ------------------------------------------------------------------
    def _codegen(self, compiled: CompiledQuery, tracer=NULL_TRACER) -> Any:
        """The backend's generated code for ``compiled``, reusing (and
        filling) the plan-cache entry's per-backend codegen store."""
        entry = compiled.cache_entry
        with tracer.span("codegen", backend=self.backend.name) as sp:
            if entry is not None:
                code = entry.codegen.get(self.backend.name)
                if code is not None:
                    sp.set(cached=True)
                    return code
            t0 = time.perf_counter()
            code = self.backend.prepare_bundle(compiled.bundle)
            compiled.timings["codegen"] = time.perf_counter() - t0
            sp.set(cached=False)
        METRICS.histogram("phase.codegen").observe(compiled.timings["codegen"])
        if entry is not None and code is not None:
            entry.codegen[self.backend.name] = code
        return code

    def _execute(self, bundle: Bundle, code: Any, tracer=NULL_TRACER,
                 collector: "AnalyzeCollector | None" = None,
                 info: "dict[str, Any] | None" = None) -> Any:
        t0 = time.perf_counter()
        result = self.backend.execute_bundle(bundle, self.catalog,
                                             prepared=code, tracer=tracer,
                                             collector=collector)
        execute_time = time.perf_counter() - t0
        exemplar = ({"trace_id": tracer.trace_id}
                    if tracer.trace_id is not None else None)
        METRICS.histogram("phase.execute").observe(execute_time,
                                                   exemplar=exemplar)
        # Cached or not, every execution issues the bundle's queries --
        # the Section 3.2 avalanche metric counts executions, not
        # compilations.
        self.queries_issued += result.queries_issued
        self.executions += 1
        METRICS.counter("connection.executions").inc()
        METRICS.counter("connection.queries").inc(result.queries_issued)
        with tracer.span("stitch") as sp:
            t0 = time.perf_counter()
            value = stitch(bundle, result.rows)
            rows = sum(len(r) for r in result.rows)
            sp.set(rows=rows)
        METRICS.histogram("phase.stitch").observe(time.perf_counter() - t0)
        METRICS.counter("connection.rows_stitched").inc(rows)
        if info is not None:
            # Feed the statement-stats reconciliation surface: rows here
            # is the stitched-row count (== connection.rows_stitched
            # delta), queries the avalanche metric.
            info["rows"] = rows
            info["queries"] = result.queries_issued
            info["execute_time"] = execute_time
            if bundle.cost is not None:
                # Static row estimate for the drift lint's per-
                # fingerprint comparison (/statements, D500).
                info["est_rows"] = bundle.cost.est_rows
        return value

    def _check_tables(self, q: Q) -> None:
        for ref in tables_referenced(q.exp).values():
            self.catalog.check_reference(ref)

    def _table_stats(self) -> dict[str, int]:
        """Exact per-table row counts (compile-time statistics).  Tables
        are immutable and DDL bumps the schema generation the plan cache
        keys on, so these counts stay valid for the cached plan."""
        return {name: len(self.catalog.rows(name))
                for name in self.catalog.table_names()}


class PreparedQuery:
    """A compiled, codegen'd program bound to a connection.

    ``execute`` performs only steps 4-6 of Figure 2 (backend execution +
    stitching); compilation happened at :meth:`Connection.prepare` time.
    If the catalog's schema changes between executions, the handle
    transparently re-prepares itself (and the stale plan ages out of the
    cache via LRU).
    """

    def __init__(self, connection: Connection, q: Q,
                 compiled: CompiledQuery, code: Any,
                 schema_generation: int):
        self.connection = connection
        self._q = q
        self.compiled = compiled
        self._code = code
        self._schema_generation = schema_generation

    @property
    def query_count(self) -> int:
        """Bundle size (avalanche metric); fixed across executions."""
        return self.compiled.bundle.size

    @property
    def fingerprint(self) -> str | None:
        return self.compiled.fingerprint

    def execute(self) -> Any:
        """Run the prepared bundle and stitch the result."""
        conn = self.connection
        tracer = conn._start_trace("execute-prepared")
        collector = (AnalyzeCollector()
                     if conn.slow_query_threshold is not None else None)
        info: dict[str, Any] = {"trace_id": tracer.trace_id}
        started_at = time.time()
        t0 = time.perf_counter()
        try:
            if conn.catalog.schema_generation != self._schema_generation:
                # DDL since prepare(): re-validate and recompile.
                fresh = conn.prepare(self._q, tracer=tracer)
                self.compiled = fresh.compiled
                self._code = fresh._code
                self._schema_generation = fresh._schema_generation
            info.update(fingerprint=self.compiled.fingerprint,
                        cache_hit=True,
                        bundle_size=self.compiled.bundle.size,
                        bundle=self.compiled.bundle)
            tracer.root.set(fingerprint=self.compiled.fingerprint,
                            bundle_size=self.compiled.bundle.size)
            return conn._execute(self.compiled.bundle, self._code, tracer,
                                 collector, info=info)
        except Exception as err:
            _note_error(info, err)
            raise
        finally:
            conn._record_execution("execute-prepared", tracer, info,
                                   started_at,
                                   time.perf_counter() - t0, collector)


def _note_error(info: dict, err: Exception) -> None:
    """Record a failed execution's exception (and its stable diagnostic
    code, when it carries one) in the execution info dict."""
    info["error"] = repr(err)
    code = getattr(err, "code", None)
    info["error_code"] = code if isinstance(code, str) else None


def _resolve_backend(backend: "str | Any | None"):
    if backend is None:
        backend = "engine"
    if not isinstance(backend, str):
        return backend
    if backend == "engine":
        from ..backends.engine import EngineBackend
        return EngineBackend()
    if backend == "sqlite":
        from ..backends.sql import SQLiteBackend
        return SQLiteBackend()
    if backend == "mil":
        from ..backends.mil import MILBackend
        return MILBackend()
    raise QTypeError(f"unknown backend {backend!r}; "
                     f"expected 'engine', 'sqlite', or 'mil'")
