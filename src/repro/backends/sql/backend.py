"""Executing generated SQL on an off-the-shelf RDBMS via DB-API.

Step 4 of Figure 2: the bundle's SQL statements run on a standards-
compliant relational system.  The paper used PostgreSQL 9.0; here the
stdlib ``sqlite3`` plays that role (window functions, CTEs), opened by
the adapter in :mod:`repro.backends.sql.dbapi`.  Catalog tables are
loaded once per catalog schema generation; each bundle member is a
single row-returning SQL statement, so the connection's statement count
directly measures avalanches (Table 1).  Plan nodes shared inside the
bundle are built once as temporary tables ahead of the first statement
that reads them (``generate.Step``) -- a fixed number of auxiliary
statements per program, whatever the data -- inside one transaction that
is always rolled back, so no run leaves a table or an open transaction
behind.  The catalog columns a bundle probes in its joins
(``GeneratedSQL.probes``) are indexed once per loaded catalog, ahead of
the transaction, so the rollback keeps them and a reload drops them with
their tables; each index covers its table, in list order.  A backend
runs one bundle at a time: a lock spans the catalog load, the indexes
and the script, so threads sharing one connection take turns.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from ...algebra.ops import position_column
from ...analysis import ensure_verified
from ...core.bundle import Bundle, SerializedQuery
from ...errors import ExecutionError
from ...obs.analyze import OpProfile
from ...runtime.catalog import Catalog
from ..base import Backend
from .dbapi import (
    SQLiteAdapter,
    clear_udf_error,
    load_catalog,
    take_udf_error,
)
from .generate import GeneratedSQL, generate_bundle


class SQLiteBackend(Backend):
    """Generates dialect-rendered SQL:1999 and executes it over DB-API
    on SQLite (in memory unless ``path`` names a database file)."""

    name = "sqlite"

    def __init__(self, path: str = ":memory:"):
        self.adapter = SQLiteAdapter(path)
        self.dialect = self.adapter.dialect
        self._conn = self.adapter.connect()
        #: Serializes bundles on ``_conn``: the catalog load and a
        #: script's transaction + temporary tables cannot interleave.
        self._lock = threading.Lock()
        #: The catalog currently loaded into ``_conn``, and its schema
        #: generation then.  Held, not its address: a freed catalog's
        #: address may be a fresh one's.
        self._loaded: "tuple[Catalog, int] | None" = None
        #: Probed ``(table, column)`` -> the index built on it, over the
        #: tables loaded now.
        self._indexes: dict[tuple[str, str], str] = {}
        #: SQL statements executed over this backend's lifetime.
        self.statements_executed = 0

    # ------------------------------------------------------------------
    def prepare_bundle(self, bundle: Bundle) -> list[GeneratedSQL]:
        """Generate the bundle's SQL statements (no execution)."""
        ensure_verified(bundle, "backend:sqlite")
        return generate_bundle(bundle.queries, self.dialect, bundle.keys)

    def describe_prepared(self, prepared: "list[GeneratedSQL]") -> list[str]:
        """The bundle's script, split per query: each statement preceded
        by the temporary-table steps no earlier statement has built, and
        stamped with the dialect and DB-API driver that produced and
        will host it."""
        stamp = f"-- dialect {self.dialect.name} ({self.adapter.describe()})"
        built: set[str] = set()
        described = []
        for gen in prepared:
            described.append(f"{stamp}\n{gen.script(built)}")
            built.update(step.name for step in gen.steps)
        return described

    @contextmanager
    def open_bundle(self, bundle: Bundle, catalog: Catalog,
                    prepared: "list[GeneratedSQL]"):
        built: set[str] = set()

        def run_query(qi, ops):
            # The host runs each statement as one opaque unit; inside a
            # query ``ops`` gets one profile per temporary-table step.
            rows = self._run(prepared[qi], built, ops)
            self.statements_executed += 1
            return rows

        with self._lock:
            self._ensure_loaded(catalog)
            self._ensure_indexed(prepared)
            with self._script():
                yield run_query

    # ------------------------------------------------------------------
    def run_sql(self, gen: GeneratedSQL,
                query: SerializedQuery) -> list[tuple]:
        """Execute one generated statement (``query``'s) standalone --
        its steps, then the SELECT -- and convert values back.

        Does *not* bump ``statements_executed`` -- a bundle execution does."""
        with self._lock:
            self._ensure_indexed([gen])
            with self._script():
                return self._run(gen, set(), None)

    @contextmanager
    def _script(self):
        """The lifetime of a script's temporary tables: one transaction,
        always rolled back -- on success and on error -- which drops
        every table created in it and leaves the connection idle."""
        clear_udf_error()
        try:
            self._send(self.dialect.begin)
            yield
        finally:
            self._conn.rollback()

    def _run(self, gen: GeneratedSQL, built: "set[str]",
             ops: "list[OpProfile] | None") -> list[tuple]:
        """Build ``gen``'s steps not yet in ``built``, then fetch its
        rows -- as they come, unless ``gen`` says a column converts.
        ``ops`` receives one profile per step built."""
        for step in gen.steps:
            if step.name in built:
                continue
            t0 = time.perf_counter()
            self._send(step.create)
            inserted = self._send(step.insert).rowcount
            built.add(step.name)
            if ops is not None:
                ops.append(OpProfile(step.ref, step.op,
                                     time.perf_counter() - t0, None,
                                     inserted, step.width))
        rows = self._send(gen.text, fetch=True)
        return list(map(gen.convert, rows)) if gen.convert else rows

    def _send(self, sql: str, fetch: bool = False):
        """Execute one statement; with ``fetch`` return its rows (the
        host computes them lazily, so fetching can fail like executing),
        else the cursor."""
        try:
            cursor = self._conn.execute(sql)
            return cursor.fetchall() if fetch else cursor
        except Exception as err:
            udf_err = take_udf_error()
            if udf_err is not None:
                raise udf_err from None
            raise ExecutionError(
                f"{self.dialect.name} rejected generated SQL: {err}\n"
                f"{sql}") from None

    # ------------------------------------------------------------------
    def _ensure_loaded(self, catalog: Catalog) -> None:
        generation = catalog.schema_generation
        if self._loaded is not None and self._loaded[0] is catalog \
                and self._loaded[1] == generation:
            return
        self._indexes.clear()  # the load drops them with their tables
        load_catalog(self._conn, catalog, self.dialect)
        self._loaded = (catalog, generation)

    def _ensure_indexed(self, prepared: "list[GeneratedSQL]") -> None:
        """Index every catalog column ``prepared`` probes that has none
        yet.  An automatic index would be rebuilt on every run.  Index
        names share the catalog tables' namespace (case-insensitively):
        ``ferry_iNNNN``, skipping any a table or an index bears.

        An index covers its table: the probed column, then the position,
        then every other column, so a probe reads the index alone.  The
        position comes second so that the rows of one probed value still
        come in list order -- the order an aggregate over them (a
        ``Double`` sum: addition is not associative) adds them in."""
        missing = dict.fromkeys(pair for gen in prepared
                                for pair in gen.probes
                                if pair not in self._indexes)
        if not missing or self._loaded is None:
            return  # (no table to index: the script fails on its own)
        catalog = self._loaded[0]
        taken = set(self._indexes.values())
        taken.update(name.lower() for name in catalog.table_names())
        n = 0
        for table, column in missing:
            while (name := f"ferry_i{n:04d}") in taken:
                n += 1
            taken.add(name)
            names = [c for c, _ in catalog.schema(table)]
            self._send(self.dialect.create_index(name, table, dict.fromkeys(
                [column, position_column(names), *names])))
            self._indexes[table, column] = name
