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

Every execution is observable (``repro.obs``).  ``run``,
``PreparedQuery.execute`` and ``explain(analyze=True)`` share one
execution path that records a span tree (``check`` → ``cache-lookup`` →
``lift`` → ``optimize`` per rewrite pass → ``codegen`` → one ``execute``
span per bundle query → ``stitch``; :attr:`Connection.last_trace`) and
finishes by building one frozen
:class:`~repro.obs.ExecutionRecord`.  Everything else is a view of that
record: the flight recorder (:attr:`Connection.query_log`) stores it
and the per-fingerprint statement statistics
(:meth:`Connection.statement_stats`) fold it in.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from ..analysis import lint_report, verify_bundle, verify_debug_enabled
from ..core.bundle import Bundle, compile_exp
from ..errors import ObservabilityError, QTypeError
from ..frontend.q import Q, to_q
from ..frontend.tables import SchemaLike, table
from ..obs import (
    NULL_TRACER,
    ExecutionRecord,
    ExplainReport,
    QueryLog,
    StatementStats,
    Trace,
    Tracer,
    build_analyze,
    build_report,
    phase,
)
from ..optimizer import PassStats, optimize_bundle
from .catalog import Catalog
from .plancache import CacheEntry, CacheKey, CacheStats, PlanCache
from .stitch import stitch


@dataclass
class CompiledQuery:
    """A compiled program plus compilation accounting (for inspection)."""

    bundle: Bundle
    #: Structural fingerprint of the source program (plan-cache identity).
    fingerprint: str | None = None
    #: Did the plan cache serve this compilation?
    cache_hit: bool = False
    #: Wall-clock seconds per compile phase ("check", "lookup", and on a
    #: cold path "lift" / "optimize"; ``run`` adds "codegen" whenever the
    #: backend actually generated code rather than reusing the cached
    #: artifact).
    timings: dict[str, float] = field(default_factory=dict)
    #: Rewrite-pipeline statistics (``None`` when the plan came from the
    #: cache).
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

    Each connection owns a :class:`PlanCache` of 128 plans; pass
    ``plan_cache`` to choose its size (``PlanCache(n)``) or to let many
    connections reuse each other's compiled plans (entries are keyed on
    the program's fingerprint and the catalog's schema generation, so
    sharing is always safe).  Every plan is loop-lifted, optimized and
    verified: there is no switch to skip a stage.

    Every execution lands in :attr:`query_log` (the 32 most recent + 32
    slowest executions).  ``trace=False`` disables span recording
    entirely (the tracer becomes a shared no-op object, and reading
    :attr:`last_trace` raises :class:`~repro.errors.ObservabilityError`);
    with tracing on the cost is a handful of slotted span objects per
    execution.

    ``statement_stats`` (default on) aggregates every execution into a
    per-fingerprint :class:`~repro.obs.StatementStats` -- calls, errors,
    cache hits, rows, per-phase compile/execute time, latency quantiles,
    and the worst call's trace id -- read back via
    :meth:`statement_stats` (bounded at 512 tracked fingerprints;
    evictions fold into an overflow bucket so totals stay exact).
    """

    def __init__(self, backend: "str | Any | None" = None,
                 catalog: Catalog | None = None,
                 plan_cache: PlanCache | None = None, trace: bool = True,
                 statement_stats: bool = True):
        self.catalog = catalog or Catalog()
        self.backend = _resolve_backend(backend)
        self.plan_cache = (plan_cache if plan_cache is not None
                           else PlanCache())
        #: Total number of relational queries issued over this connection's
        #: lifetime (Table 1 instrumentation).  Counts *executions*: a
        #: plan served from the cache still issues its queries.
        self.queries_issued = 0
        #: Number of ``run``/``PreparedQuery.execute`` calls.
        self.executions = 0
        #: Record span trees for every execution?
        self.trace_enabled = trace
        #: The flight recorder: N most recent + N slowest executions.
        self.query_log = QueryLog()
        #: Per-fingerprint workload aggregates (``pg_stat_statements``
        #: for FERRY); ``None`` when ``statement_stats=False``.
        self.stats: "StatementStats | None" = (
            StatementStats() if statement_stats else None)
        self._last_trace: Trace | None = None
        #: Guards ``executions`` / ``queries_issued`` (see ``_publish``).
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # observability plumbing
    # ------------------------------------------------------------------
    @property
    def last_trace(self) -> "Trace | None":
        """The span tree of the most recent traced execution.

        ``None`` before the first traced execution.  Raises
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

    def _publish(self, rec: ExecutionRecord) -> None:
        """Hand a finished record to its views: the connection's own
        counters and the flight recorder (executions only), then the
        statement stats."""
        if rec.executed:
            with self._lock:
                if rec.error is None:
                    self.executions += 1
                self.queries_issued += rec.queries_issued
            self.query_log.record(rec)
        if self.stats is not None:
            self.stats.record(rec)

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

    def compile(self, q: Any, tracer=NULL_TRACER) -> CompiledQuery:
        """Loop-lift and optimize a query without executing it (for
        inspection: nothing is recorded).

        Consults the plan cache first: a structurally identical program
        compiled before (under the same catalog schema) is
        returned without re-running the pipeline.  The ``Q`` handle
        keeps its fingerprint and table references, so compiling it
        again only re-checks those references against the live catalog.
        """
        timings: dict[str, float] = {}
        with phase(tracer, timings, "check"):
            qq = to_q(q)
            for ref in qq.tables_referenced():
                self.catalog.check_reference(ref)
        with phase(tracer, timings, "lookup", "cache-lookup") as span:
            fp = qq.fingerprint()
            key = CacheKey(fp, self.catalog.schema_generation)
            entry = self.plan_cache.lookup(key)
            span.set(hit=entry is not None)
        if entry is not None:
            return CompiledQuery(entry.bundle, fingerprint=fp,
                                 cache_hit=True, timings=timings,
                                 cache_entry=entry)

        with phase(tracer, timings, "lift"):
            bundle = compile_exp(qq.exp)
        if verify_debug_enabled():
            # Debug mode: staged verification of the raw loop-lifting
            # output, before any rewrite touches it.
            with tracer.span("verify", stage="post-lift"):
                verify_bundle(bundle, label="post-lift", mark=False)
        stats = PassStats()
        with phase(tracer, timings, "optimize"):
            bundle = optimize_bundle(bundle, stats, tracer,
                                     table_rows=self._table_stats(),
                                     backend=self.backend.name)
        entry = self.plan_cache.insert(key, CacheEntry(bundle,
                                                       pass_stats=stats))
        return CompiledQuery(bundle, fingerprint=fp,
                             cache_hit=False, timings=timings,
                             pass_stats=stats, cache_entry=entry)

    def prepare(self, q: Any) -> "PreparedQuery":
        """Compile ``q`` (through the cache) into a reusable handle whose
        :meth:`PreparedQuery.execute` skips straight to backend execution
        and stitching.  Publishes a record of kind ``prepare``: the
        compile phases and cache traffic count against the fingerprint,
        no execution does."""
        started_at, t0 = time.time(), time.perf_counter()
        qq = to_q(q)
        compiled, code = self._prepare(qq)
        self._publish(ExecutionRecord(
            "prepare", self.backend.name, started_at,
            time.perf_counter() - t0, fingerprint=compiled.fingerprint,
            cache_hit=compiled.cache_hit, bundle_size=compiled.bundle.size,
            phases=dict(compiled.timings)))
        return PreparedQuery(self, qq, compiled, code,
                             self.catalog.schema_generation)

    def run(self, q: Any) -> Any:
        """Execute a query and return its result as a plain Python value
        (the paper's ``fromQ``)."""
        return self._execute(
            "run", lambda tracer: (*self._prepare(q, tracer), True))[0]

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
        keys, constant columns, density facts) *and* its row bounds for
        this catalog instance (``[rows lo..hi w=N]``) next to the ``@n``
        refs.  With ``analyze=True`` every measured row count is printed
        beside its bounds (``bound=lo..hi``) and the report carries the
        row-bounds lint's findings (``D500``: a count outside them).

        Returns an :class:`~repro.obs.ExplainReport`; ``print`` it (or
        call :meth:`~repro.obs.ExplainReport.render`) for the
        human-readable form, :meth:`~repro.obs.ExplainReport.to_dict`
        for a JSON-able one.
        """
        handle = self.prepare(q)
        compiled = handle.compiled
        artifacts = self.backend.describe_prepared(handle._code)
        table_rows = self._table_stats()
        analyze_report = findings = None
        if analyze:
            # A real execution of the prepared bundle, recorded like any
            # other.
            rec = self._execute(
                "explain-analyze",
                lambda tracer: (compiled, handle._code, False),
                analyze=True)[1]
            analyze_report = build_analyze(
                compiled.bundle, rec.queries, self.backend.name,
                rec.duration, table_rows=table_rows)
            findings = lint_report(compiled.bundle, analyze_report,
                                   table_rows)
        verify = verify_bundle(compiled.bundle, label="explain",
                               raise_on_error=False, mark=False)
        return build_report(compiled, self.backend, artifacts,
                            analyze=analyze_report, properties=properties,
                            verify=verify, table_rows=table_rows,
                            lint=findings)

    # ------------------------------------------------------------------
    def _execute(self, kind: str,
                 plan: "Callable[[Any], tuple[CompiledQuery, Any, bool]]",
                 analyze: bool = False) -> "tuple[Any, ExecutionRecord]":
        """The one execution path: obtain the plan, run the bundle on
        the backend, stitch -- and, whatever happened, finish by
        building and publishing the one record of it.

        ``plan(tracer)`` returns ``(compiled, code, fresh)``; ``fresh``
        says the compile ran inside this execution, so its phases and
        cache verdict belong to this record (otherwise the plan came
        ready-made from a prepared handle: a hit, no compile phases).
        ``analyze`` is EXPLAIN ANALYZE: operator/step profiles, no trace.
        """
        started_at, t0 = time.time(), time.perf_counter()
        tracer = (Tracer(kind, backend=self.backend.name)
                  if self.trace_enabled and not analyze else NULL_TRACER)
        backend = self.backend.name
        phases: dict[str, float] = {}
        #: The record's fields, known as far as the execution got.
        fields: dict[str, Any] = {}
        try:
            compiled, code, fresh = plan(tracer)
            bundle = compiled.bundle
            fields.update(fingerprint=compiled.fingerprint,
                          cache_hit=compiled.cache_hit if fresh else True,
                          bundle_size=bundle.size)
            if fresh:
                phases.update(compiled.timings)
                tracer.root.set(**fields)
            else:
                tracer.root.set(fingerprint=compiled.fingerprint,
                                bundle_size=bundle.size)
            # No span of its own: the per-query ``execute`` spans sit
            # directly under the root.
            with phase(NULL_TRACER, phases, "execute"):
                result = self.backend.execute_bundle(
                    bundle, self.catalog, prepared=code, tracer=tracer,
                    per_op=analyze)
            rows = sum(len(r) for r in result.rows)
            fields.update(queries=result.profiles, rows=rows,
                          queries_issued=result.queries_issued)
            with phase(tracer, phases, "stitch") as span:
                value = stitch(bundle, result.rows)
                span.set(rows=rows)
        except Exception as err:
            err_code = getattr(err, "code", None)
            fields.update(error=repr(err), error_code=(
                err_code if isinstance(err_code, str) else None))
            raise
        finally:
            duration = time.perf_counter() - t0
            trace = tracer.finish()
            if trace is not None:
                self._last_trace = trace
            rec = ExecutionRecord(
                kind, backend, started_at, duration, phases=phases,
                trace_id=tracer.trace_id, trace=trace, **fields)
            self._publish(rec)
        return value, rec

    def _prepare(self, q: Any, tracer=NULL_TRACER
                 ) -> "tuple[CompiledQuery, Any]":
        """Compile ``q`` and generate (or fetch) the backend's code."""
        compiled = self.compile(q, tracer=tracer)
        return compiled, self._codegen(compiled, tracer)

    def _codegen(self, compiled: CompiledQuery, tracer=NULL_TRACER) -> Any:
        """The backend's generated code for ``compiled``, reusing (and
        filling) the plan-cache entry's per-backend codegen store."""
        entry = compiled.cache_entry
        name = self.backend.name
        code = entry.codegen.get(name) if entry is not None else None
        if code is not None:
            with tracer.span("codegen", backend=name, cached=True):
                return code
        with phase(tracer, compiled.timings, "codegen", backend=name,
                   cached=False):
            code = self.backend.prepare_bundle(compiled.bundle)
        if entry is not None and code is not None:
            entry.codegen[name] = code
        return code

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
        return self.connection._execute("execute-prepared", self._plan)[0]

    def _plan(self, tracer) -> "tuple[CompiledQuery, Any, bool]":
        conn = self.connection
        if conn.catalog.schema_generation == self._schema_generation:
            return self.compiled, self._code, False
        # DDL since prepare(): re-validate and recompile, as part of
        # this execution.
        self.compiled, self._code = conn._prepare(self._q, tracer)
        self._schema_generation = conn.catalog.schema_generation
        return self.compiled, self._code, True


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
