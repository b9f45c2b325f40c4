"""Executing generated SQL on an off-the-shelf RDBMS via DB-API.

Step 4 of Figure 2: the bundle's SQL statements run on a standards-
compliant relational system.  The paper used PostgreSQL 9.0; here any
PEP 249 driver can play that role through the adapter layer in
:mod:`repro.backends.sql.dbapi` (the default adapter wraps the stdlib
``sqlite3``: window functions, CTEs).  Catalog tables are loaded once per
catalog version; each bundle member is a single SQL statement, so the
connection's statement count directly measures avalanches (Table 1).
"""

from __future__ import annotations

import time

from ...analysis import ensure_verified
from ...core.bundle import Bundle, SerializedQuery
from ...errors import ExecutionError
from ...obs.metrics import METRICS
from ...obs.trace import NULL_TRACER
from ...runtime.catalog import Catalog
from ..base import Backend, ExecutionResult, observe_query_time
from .dbapi import (
    Adapter,
    SQLiteAdapter,
    clear_udf_error,
    load_catalog,
    take_udf_error,
)
from .generate import GeneratedSQL, generate_sql


class SQLiteBackend(Backend):
    """Generates dialect-rendered SQL:1999 and executes it over DB-API.

    Named for its default host: with no explicit adapter this runs on
    in-memory SQLite.  Any :class:`~repro.backends.sql.dbapi.Adapter`
    can be substituted; the generator takes its quirks from
    ``adapter.dialect``.
    """

    name = "sqlite"

    def __init__(self, path: str = ":memory:",
                 adapter: "Adapter | None" = None):
        self.adapter: Adapter = (SQLiteAdapter(path) if adapter is None
                                 else adapter)
        self.dialect = self.adapter.dialect
        self._conn = self.adapter.connect()
        #: Catalog (identity, version) currently loaded into ``_conn``.
        self._loaded: "tuple[int, int] | None" = None
        #: SQL statements executed over this backend's lifetime.
        self.statements_executed = 0

    # ------------------------------------------------------------------
    def prepare_bundle(self, bundle: Bundle) -> list[GeneratedSQL]:
        """Generate the bundle's SQL statements (no execution)."""
        ensure_verified(bundle, "backend:sqlite")
        return [self.generate(query) for query in bundle.queries]

    def describe_prepared(self, prepared: "list[GeneratedSQL]") -> list[str]:
        """The generated SQL statements, each stamped with the dialect
        and DB-API driver that produced and will host it."""
        stamp = f"-- dialect {self.dialect.name} ({self.adapter.describe()})"
        return [f"{stamp}\n{gen.text}" for gen in prepared]

    def execute_bundle(self, bundle: Bundle, catalog: Catalog,
                       prepared: "list[GeneratedSQL] | None" = None,
                       tracer=NULL_TRACER,
                       collector=None) -> ExecutionResult:
        if prepared is None:
            prepared = self.prepare_bundle(bundle)
        n = len(bundle.queries)
        sql_texts = [gen.text for gen in prepared]
        results: list[list[tuple]] = []
        self._ensure_loaded(catalog)
        for qi, (gen, query) in enumerate(zip(prepared, bundle.queries)):
            # The host runs each statement as one opaque unit, so
            # per-query wall time + row count is the finest ANALYZE
            # granularity here.
            qp = collector.query(qi + 1) if collector is not None else None
            with tracer.span("execute", query=qi + 1,
                             backend=self.name) as sp:
                t0 = time.perf_counter()
                rows = self.run_sql(gen, query)
                seconds = time.perf_counter() - t0
                sp.set(rows=len(rows))
                if qp is not None:
                    qp.time = seconds
                    qp.rows = len(rows)
            observe_query_time(self.name, qi, seconds, tracer.trace_id)
            self.statements_executed += 1
            results.append(rows)

        total_rows = sum(len(rows) for rows in results)
        METRICS.counter("backend.sqlite.queries").inc(n)
        METRICS.counter("backend.sqlite.rows").inc(total_rows)
        return ExecutionResult(results, queries_issued=n,
                               artifacts={"sql": sql_texts})

    # ------------------------------------------------------------------
    def generate(self, query: SerializedQuery) -> GeneratedSQL:
        """SQL for one bundle member (iter, pos, items; ordered)."""
        out_cols = (query.iter_col, query.pos_col) + query.item_cols
        return generate_sql(query.plan, out_cols,
                            (query.iter_col, query.pos_col),
                            self.dialect)

    def run_sql(self, gen: GeneratedSQL,
                query: SerializedQuery) -> list[tuple]:
        """Execute one generated statement and convert values back.

        Does *not* bump ``statements_executed`` -- the bundle loop does."""
        clear_udf_error()
        try:
            cursor = self._conn.execute(gen.text)
            raw_rows = cursor.fetchall()
        except Exception as err:
            udf_err = take_udf_error()
            if udf_err is not None:
                raise udf_err from None
            raise ExecutionError(
                f"{self.dialect.name} rejected generated SQL: {err}\n"
                f"{gen.text}") from None
        converters = [self.dialect.from_db_value(ty)
                      for ty in query.item_types]
        rows = []
        for raw in raw_rows:
            it, pos = raw[0], raw[1]
            items = tuple(conv(v) for conv, v in zip(converters, raw[2:]))
            rows.append((it, pos) + items)
        return rows

    # ------------------------------------------------------------------
    def _ensure_loaded(self, catalog: Catalog) -> None:
        key = (id(catalog), catalog.version)
        if self._loaded == key:
            return
        load_catalog(self._conn, catalog, self.dialect)
        self._loaded = key
