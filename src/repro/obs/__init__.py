"""Observability: traces, EXPLAIN (ANALYZE), the flight recorder and
statement statistics.

The pipeline's instrumentation layer, shared by the runtime, the
optimizer, and every backend:

* :mod:`repro.obs.record` -- the :class:`ExecutionRecord` a connection
  builds once per execution, and :class:`Totals`, the additive fold of
  those records that is the connection's one running account;
* :mod:`repro.obs.trace` -- the span tree (``conn.last_trace``), a
  read-only view of one record;
* :mod:`repro.obs.explain` -- the structured report behind
  ``Connection.explain``, including the runtime avalanche check, the
  annotated EXPLAIN ANALYZE plans and the ``D500`` row-bounds findings;
* :mod:`repro.obs.analyze` -- the execution profiles a record carries:
  per-query, plus per-operator (engine) / per-step (SQL) for EXPLAIN
  ANALYZE;
* :mod:`repro.obs.querylog` -- the flight recorder (N most recent + N
  slowest executions, and the :class:`Totals` of every record);
* :mod:`repro.obs.stats` -- per-fingerprint workload statistics
  (``pg_stat_statements`` for FERRY), bounded and thread-safe.
"""

from .analyze import OpProfile, QueryProfile
from .explain import ExplainReport, QueryExplain, build_report
from .querylog import QueryLog
from .record import ExecutionRecord, Totals
from .stats import UNFINGERPRINTED, StatementStats
from .trace import Span, Trace, new_trace_id

__all__ = [
    "UNFINGERPRINTED",
    "ExecutionRecord",
    "ExplainReport",
    "OpProfile",
    "QueryExplain",
    "QueryLog",
    "QueryProfile",
    "Span",
    "StatementStats",
    "Totals",
    "Trace",
    "build_report",
    "new_trace_id",
]
