"""Observability: traces, EXPLAIN (ANALYZE), the flight recorder and
statement statistics.

The pipeline's instrumentation layer, shared by the runtime, the
optimizer, and every backend:

* :mod:`repro.obs.record` -- the :class:`ExecutionRecord` a connection
  builds once per execution; the flight recorder and the statement
  stats are views of it;
* :mod:`repro.obs.trace` -- the span tree (``conn.last_trace``), a
  read-only view of one record;
* :mod:`repro.obs.explain` -- the structured report behind
  ``Connection.explain``, including the runtime avalanche check, the
  annotated EXPLAIN ANALYZE plans and the ``D500`` row-bounds findings;
* :mod:`repro.obs.analyze` -- EXPLAIN ANALYZE's records: per-operator
  (engine) / per-query and per-step (SQL) execution profiles;
* :mod:`repro.obs.querylog` -- the flight recorder (N most recent + N
  slowest executions);
* :mod:`repro.obs.stats` -- per-fingerprint workload statistics
  (``pg_stat_statements`` for FERRY), bounded and thread-safe.
"""

from .analyze import (
    AnalyzeReport,
    OpProfile,
    QueryProfile,
)
from .explain import ExplainReport, QueryExplain, build_report
from .querylog import QueryLog
from .record import ExecutionRecord
from .stats import EVICTED, UNFINGERPRINTED, StatementStats
from .trace import Span, Trace, new_trace_id

__all__ = [
    "EVICTED",
    "UNFINGERPRINTED",
    "AnalyzeReport",
    "ExecutionRecord",
    "ExplainReport",
    "OpProfile",
    "QueryExplain",
    "QueryLog",
    "QueryProfile",
    "Span",
    "StatementStats",
    "Trace",
    "build_report",
    "new_trace_id",
]
