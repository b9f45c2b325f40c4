"""Observability: traces, EXPLAIN (ANALYZE), metrics, logs, and export.

The pipeline's instrumentation layer, shared by the runtime, the
optimizer, and every backend:

* :mod:`repro.obs.record` -- the :class:`ExecutionRecord` a connection
  builds once per execution; the flight recorder, the statement stats
  and the ``connection.*`` / ``phase.*`` / ``backend.*`` metrics are
  views of it;
* :mod:`repro.obs.trace` -- per-execution span trees (``conn.last_trace``)
  with pluggable sinks (JSON-lines export);
* :mod:`repro.obs.explain` -- the structured report behind
  ``Connection.explain``, including the runtime avalanche check;
* :mod:`repro.obs.analyze` -- EXPLAIN ANALYZE: per-operator (engine) /
  per-query (SQL, MIL) execution profiles and annotated plan trees;
* :mod:`repro.obs.querylog` -- the flight recorder (N most recent + N
  slowest executions) and trace sampling policies;
* :mod:`repro.obs.metrics` -- the process-wide :data:`METRICS` registry
  of counters and latency histograms with a ``snapshot()`` API;
* :mod:`repro.obs.export` -- OpenMetrics/Prometheus text and JSON
  exposition (``dump_metrics``) plus an opt-in stdlib HTTP server
  (``/metrics``, ``/statements``, ``/dashboard``);
* :mod:`repro.obs.stats` -- per-fingerprint workload statistics
  (``pg_stat_statements`` for FERRY), bounded and thread-safe;
* :mod:`repro.obs.report` -- workload reports with baseline regression
  gating (stable R-codes, ``python -m repro.obs.report``).
"""

from .analyze import (
    AnalyzeReport,
    OpProfile,
    QueryProfile,
    build_analyze,
)
from .explain import ExplainReport, QueryExplain, build_report
from .export import (
    OPENMETRICS_CONTENT_TYPE,
    MetricsServer,
    dump_metrics,
    parse_openmetrics,
    render_openmetrics,
    serve_metrics,
    snapshot_json,
    statements_json,
)
from .metrics import METRICS, Counter, Histogram, MetricsRegistry
from .stats import EVICTED, UNFINGERPRINTED, StatementStats
from .querylog import (
    AlwaysSample,
    QueryLog,
    RatioSample,
    SamplingPolicy,
    SlowOnlySample,
    resolve_sampling,
)
from .record import ExecutionRecord, publish_metrics
from .trace import (
    NULL_TRACER,
    CollectingSink,
    JsonLinesSink,
    NullTracer,
    Sink,
    Span,
    Trace,
    Tracer,
    new_trace_id,
    phase,
)

__all__ = [
    "EVICTED",
    "METRICS",
    "NULL_TRACER",
    "OPENMETRICS_CONTENT_TYPE",
    "UNFINGERPRINTED",
    "AlwaysSample",
    "AnalyzeReport",
    "CollectingSink",
    "Counter",
    "ExecutionRecord",
    "ExplainReport",
    "Finding",
    "Histogram",
    "JsonLinesSink",
    "MetricsRegistry",
    "MetricsServer",
    "NullTracer",
    "OpProfile",
    "QueryExplain",
    "QueryLog",
    "QueryProfile",
    "RatioSample",
    "SamplingPolicy",
    "Sink",
    "SlowOnlySample",
    "Span",
    "StatementStats",
    "Trace",
    "Tracer",
    "build_analyze",
    "build_report",
    "compare",
    "dump_metrics",
    "load_snapshot",
    "new_trace_id",
    "parse_openmetrics",
    "phase",
    "publish_metrics",
    "render_openmetrics",
    "render_report",
    "resolve_sampling",
    "serve_metrics",
    "snapshot_json",
    "statements_json",
]

#: Report symbols resolve lazily so ``python -m repro.obs.report`` does
#: not re-execute a module the package import already loaded (runpy's
#: "found in sys.modules" warning).
_REPORT_EXPORTS = ("Finding", "compare", "load_snapshot", "render_report")


def __getattr__(name: str):
    if name in _REPORT_EXPORTS:
        from . import report
        return getattr(report, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")
