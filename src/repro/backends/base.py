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
(SQL text, the engine's bundle program) without touching data, and
:meth:`Backend.execute_bundle` accepts that artefact back via its
``prepared`` argument.  The runtime's plan cache stores the artefacts per
backend, so a repeated program re-runs *only* the data-dependent part.

The per-query loop is shared: :meth:`Backend.execute_bundle` runs and
times each bundle query (profile, row count); a backend supplies
:meth:`Backend.open_bundle` -- set up the bundle, run query *i*.
"""

from __future__ import annotations

import abc
import time
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from typing import Any, Callable

from ..core.bundle import Bundle
from ..obs.analyze import OpProfile, QueryProfile
from ..runtime.catalog import Catalog

#: ``run_query(i, ops)``: rows of bundle query ``i`` (0-based), sorted
#: by ``(iter, pos)``.  ``ops``, when not ``None``, receives the
#: operator/step profiles the backend can give for that query.
RunQuery = Callable[[int, "list[OpProfile] | None"], "list[tuple]"]


@dataclass
class ExecutionResult:
    """Rows per bundle query, plus accounting for the avalanche metric."""

    rows: list[list[tuple]]
    queries_issued: int
    #: One profile per bundle query, in bundle order: wall time and row
    #: count, plus operator/step profiles when ``per_op`` was asked for.
    profiles: list[QueryProfile] = field(default_factory=list)


class Backend(abc.ABC):
    """Abstract query-execution backend."""

    #: Short identifier ("engine", "sqlite").
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
    def open_bundle(self, bundle: Bundle, catalog: Catalog,
                    prepared: Any) -> "AbstractContextManager[RunQuery]":
        """Set up one execution of ``bundle`` (load data, open a
        transaction, ...) and yield the function that runs bundle query
        ``i``; leaving the context tears the set-up down, on success and
        on error."""

    def execute_bundle(self, bundle: Bundle, catalog: Catalog,
                       prepared: Any = None,
                       per_op: bool = False) -> ExecutionResult:
        """Execute every query of the bundle against the catalog.

        ``prepared``, when given, is a previous :meth:`prepare_bundle`
        result for this very bundle; the backend then skips code
        generation and goes straight to execution.

        Each query is timed once, into its
        :class:`~repro.obs.QueryProfile` with its result row count (the
        span tree shows one ``execute`` span per profile: the avalanche
        metric made visible).  ``per_op`` (EXPLAIN ANALYZE)
        adds per-operator profiles on the engine and one profile per
        temporary-table step on sqlite.
        """
        if prepared is None:
            prepared = self.prepare_bundle(bundle)
        results: list[list[tuple]] = []
        profiles: list[QueryProfile] = []
        with self.open_bundle(bundle, catalog, prepared) as run_query:
            for qi in range(len(bundle.queries)):
                ops: "list[OpProfile] | None" = [] if per_op else None
                t0 = time.perf_counter()
                rows = run_query(qi, ops)
                profiles.append(QueryProfile(qi + 1, time.perf_counter() - t0,
                                             len(rows), ops or []))
                results.append(rows)
        return ExecutionResult(results, queries_issued=len(results),
                               profiles=profiles)
