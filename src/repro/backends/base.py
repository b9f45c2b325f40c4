"""The backend interface: executing query bundles on some query engine.

A backend receives a compiled (and optimized) :class:`Bundle` plus the
:class:`Catalog` holding the database instance, executes the bundle's
queries, and returns -- per query -- rows in the standard
``(iter, pos, item...)`` form, sorted by ``(iter, pos)``, with item values
converted back to native Python values.

Backends also report how many queries they issued: the measurement behind
the paper's Table 1 (query avalanches).

Code generation is split from execution so prepared queries can skip it:
:meth:`Backend.prepare_bundle` produces the backend's generated artefact
(SQL text, MIL programs, engine schedules) without touching data, and
:meth:`Backend.execute_bundle` accepts that artefact back via its
``prepared`` argument.  The runtime's plan cache stores the artefacts per
backend, so a repeated program re-runs *only* the data-dependent part.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any

from ..core.bundle import Bundle
from ..obs.metrics import METRICS
from ..obs.trace import NULL_TRACER
from ..runtime.catalog import Catalog


def observe_query_time(backend_name: str, qi: int, seconds: float,
                       trace_id: "str | None" = None) -> None:
    """Record one bundle query's wall time into the per-backend
    ``backend.<name>.query_seconds`` histogram.  Traced executions attach
    an exemplar naming the trace id and 1-based query index, so the
    OpenMetrics exposition links each latency bucket's worst case back to
    the flight-recorder entry that produced it."""
    exemplar = ({"trace_id": trace_id, "query": str(qi + 1)}
                if trace_id is not None else None)
    METRICS.histogram(f"backend.{backend_name}.query_seconds").observe(
        seconds, exemplar=exemplar)


@dataclass
class ExecutionResult:
    """Rows per bundle query, plus accounting for the avalanche metric."""

    rows: list[list[tuple]]
    queries_issued: int
    #: Backend-specific artefacts (e.g. the generated SQL text) for
    #: inspection by examples and tests.
    artifacts: dict = field(default_factory=dict)


class Backend(abc.ABC):
    """Abstract query-execution backend."""

    #: Short identifier ("engine", "sqlite", "mil").
    name: str = "abstract"

    def prepare_bundle(self, bundle: Bundle) -> Any:
        """Generate this backend's executable artefact for ``bundle``.

        The result is opaque to callers; it is handed back unchanged as
        ``execute_bundle``'s ``prepared`` argument.  Data-independent by
        contract (it may be cached across catalogs and executions).
        """
        return None

    def describe_prepared(self, prepared: Any) -> "list[str | None]":
        """Human-readable rendering of a :meth:`prepare_bundle` result,
        one string per bundle query (``Connection.explain`` attaches
        these as the backend artifacts).  Backends with no meaningful
        artifact may return an empty list."""
        return []

    @abc.abstractmethod
    def execute_bundle(self, bundle: Bundle, catalog: Catalog,
                       prepared: Any = None,
                       tracer=NULL_TRACER,
                       collector=None) -> ExecutionResult:
        """Execute every query of the bundle against the catalog.

        ``prepared``, when given, is a previous :meth:`prepare_bundle`
        result for this very bundle; the backend then skips code
        generation and goes straight to execution.

        ``tracer`` (a :class:`repro.obs.Tracer`) receives one
        ``execute`` span per bundle query, tagged with the query index
        and its result row count -- the trace-level image of the
        avalanche metric.

        ``collector`` (a :class:`repro.obs.AnalyzeCollector`), when
        given, receives one ``QueryProfile`` per bundle query -- wall
        time and row count -- at the finest granularity the backend
        supports; when ``collector.per_op`` is set (EXPLAIN ANALYZE) the
        engine backend additionally fills per-operator profiles, the
        sqlite backend one profile per temporary-table step.
        """
