"""Observability: traces, EXPLAIN (ANALYZE), the flight recorder and
statement statistics.

The pipeline's instrumentation layer, shared by the runtime, the
optimizer, and every backend:

* :mod:`repro.obs.record` -- the :class:`ExecutionRecord` a connection
  builds once per execution; the flight recorder and the statement
  stats are views of it;
* :mod:`repro.obs.trace` -- per-execution span trees (``conn.last_trace``);
* :mod:`repro.obs.explain` -- the structured report behind
  ``Connection.explain``, including the runtime avalanche check;
* :mod:`repro.obs.analyze` -- EXPLAIN ANALYZE: per-operator (engine) /
  per-query (SQL, MIL) execution profiles and annotated plan trees;
* :mod:`repro.obs.querylog` -- the flight recorder (N most recent + N
  slowest executions);
* :mod:`repro.obs.stats` -- per-fingerprint workload statistics
  (``pg_stat_statements`` for FERRY), bounded and thread-safe.
"""

from .analyze import (
    AnalyzeReport,
    OpProfile,
    QueryProfile,
    build_analyze,
)
from .explain import ExplainReport, QueryExplain, build_report
from .querylog import QueryLog
from .record import ExecutionRecord
from .stats import EVICTED, UNFINGERPRINTED, StatementStats
from .trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Trace,
    Tracer,
    new_trace_id,
    phase,
)

__all__ = [
    "EVICTED",
    "NULL_TRACER",
    "UNFINGERPRINTED",
    "AnalyzeReport",
    "ExecutionRecord",
    "ExplainReport",
    "NullTracer",
    "OpProfile",
    "QueryExplain",
    "QueryLog",
    "QueryProfile",
    "Span",
    "StatementStats",
    "Trace",
    "Tracer",
    "build_analyze",
    "build_report",
    "new_trace_id",
    "phase",
]
