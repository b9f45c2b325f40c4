"""A LINQ-style baseline: lazy queryables with N+1 nested execution.

Section 4 of the paper: "a LINQ query against database-resident relational
tables is compiled into a sequence of SQL statements, but without DSH's
avalanche safety guarantee.  Also, LINQ does not provide any relational
encoding of order."

This module models those two deficiencies faithfully:

* a :class:`Queryable` pipeline (``where``/``select``/``select_many``/
  ``group_by``) compiles its *flat* part to one SQL statement, but any
  nested queryable produced inside ``select`` re-executes per outer row
  when enumerated -- the classic N+1 avalanche;
* result rows carry **no order guarantee**: enumeration shuffles rows
  deterministically per statement (seeded by the statement text), the way
  an order-oblivious engine is free to return them.
"""

from __future__ import annotations

import hashlib
import random
import sqlite3
from typing import Any, Callable, Iterable

from ..backends.sql.dbapi import SQLITE_DIALECT, load_catalog
from ..runtime.catalog import Catalog

_quote = SQLITE_DIALECT.quote_ident


class LinqSession:
    """Executes LINQ-style pipelines; counts statements (Table 1)."""

    def __init__(self, catalog: Catalog, shuffle: bool = True):
        self.catalog = catalog
        self.shuffle = shuffle
        self._conn = sqlite3.connect(":memory:")
        load_catalog(self._conn, catalog, SQLITE_DIALECT)
        self.statements_executed = 0

    def table(self, name: str) -> "Queryable":
        cols = tuple(c for c, _ in self.catalog.schema(name))
        return Queryable(self, name, cols)

    def avalanche_diagnostics(self, result_ty: Any) -> list:
        """``F302`` lint: compare ``statements_executed`` against the
        static bound the result type permits (Table 1's shaming row)."""
        from ..analysis import avalanche_lint
        return avalanche_lint(result_ty, self.statements_executed)

    def execute(self, sql: str, params: tuple = ()) -> list[tuple]:
        cursor = self._conn.execute(sql, params)
        self.statements_executed += 1
        rows = cursor.fetchall()
        if self.shuffle and len(rows) > 1:
            # An order-oblivious backend may deliver rows any way it
            # likes; model that with a statement-seeded shuffle so runs
            # are deterministic but order is meaningless.
            seed = int(hashlib.sha256(
                (sql + repr(params)).encode()).hexdigest()[:8], 16)
            random.Random(seed).shuffle(rows)
        return rows


class Queryable:
    """A lazily evaluated LINQ-ish table pipeline."""

    def __init__(self, session: LinqSession, table: str,
                 columns: tuple[str, ...],
                 wheres: tuple[tuple[str, Any], ...] = ()):
        self.session = session
        self.table = table
        self.columns = columns
        self.wheres = wheres

    # -- pipeline builders ------------------------------------------------
    def where_eq(self, column: str, value: Any) -> "Queryable":
        """``.Where(row => row.column == value)``."""
        return Queryable(self.session, self.table, self.columns,
                         self.wheres + ((column, value),))

    def select(self, fn: Callable[[dict], Any]) -> "SelectedQueryable":
        """``.Select(fn)``; ``fn`` may build nested queryables, which
        execute per row on enumeration (the N+1 pattern)."""
        return SelectedQueryable(self, fn)

    def distinct_values(self, column: str) -> list[Any]:
        sql = (f"SELECT DISTINCT {_quote(column)} "
               f"FROM {_quote(self.table)}")
        return [r[0] for r in self.session.execute(sql)]

    # -- enumeration ---------------------------------------------------
    def _sql(self) -> tuple[str, tuple]:
        cols = ", ".join(_quote(c) for c in self.columns)
        sql = f"SELECT {cols} FROM {_quote(self.table)}"
        params: tuple = ()
        if self.wheres:
            sql += " WHERE " + " AND ".join(
                f"{_quote(c)} = ?" for c, _ in self.wheres)
            params = tuple(v for _, v in self.wheres)
        return sql, params

    def __iter__(self) -> Iterable[dict]:
        sql, params = self._sql()
        for row in self.session.execute(sql, params):
            yield dict(zip(self.columns, row))

    def to_list(self) -> list[dict]:
        return list(iter(self))


class SelectedQueryable:
    """The result of ``.select``: enumeration applies ``fn`` per row, and
    nested queryables built by ``fn`` each hit the database again."""

    def __init__(self, source: Queryable, fn: Callable[[dict], Any]):
        self.source = source
        self.fn = fn

    def __iter__(self):
        for row in self.source:
            yield self.fn(row)

    def to_list(self) -> list[Any]:
        return list(iter(self))


def run_running_example(session: LinqSession) -> list[tuple[str, list[str]]]:
    """The running example in LINQ style: group facilities by category and
    collect each category's feature meanings -- executed as one query for
    the keys plus one per category (N+1), with no order guarantee."""
    cats = session.table("facilities").distinct_values("cat")
    out = []
    for cat in cats:
        meanings: list[str] = []
        seen: set[str] = set()
        for fac_row in session.table("facilities").where_eq("cat", cat):
            for feat_row in session.table("features").where_eq(
                    "fac", fac_row["fac"]):
                for mean_row in session.table("meanings").where_eq(
                        "feature", feat_row["feature"]):
                    if mean_row["meaning"] not in seen:
                        seen.add(mean_row["meaning"])
                        meanings.append(mean_row["meaning"])
        out.append((cat, meanings))
    return out
