"""The HaskellDB-style baseline (Figure 4 / Table 1 of the paper).

HaskellDB [17] builds each SQL query declaratively and type-safely, but a
program that *iterates* over one query's results and issues a follow-up
query per row produces a **query avalanche**: the number of SQL statements
grows with the database instance (Section 4.1).  The paper's Figure 4
reformulates the running example exactly that way: ``getCats`` fetches the
distinct categories, then ``sequence $ map (doQuery . getCatFeatures) cs``
fires one query *per category* -- 1 + #categories statements, versus
Ferry/DSH's constant 2.

This module reproduces that programming model: a small relational query
monad (``table`` / ``restrict`` / ``project`` / ``unique``) whose
``do_query`` compiles one ``Query`` to one SQL statement and executes it
immediately on SQLite.  It is intentionally *not* avalanche-safe -- it is
the measured baseline.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass, field
from typing import Any

from ..backends.sql.dbapi import SQLITE_DIALECT, load_catalog
from ..errors import ExecutionError
from ..runtime.catalog import Catalog

_quote = SQLITE_DIALECT.quote_ident


# ----------------------------------------------------------------------
# expressions (the Expr of HaskellDB)
# ----------------------------------------------------------------------

class Expr:
    """A scalar expression usable in ``restrict``/``project``."""

    def __eq__(self, other: Any) -> "Expr":  # type: ignore[override]
        return BinExpr("=", self, constant(other))

    def __and__(self, other: "Expr") -> "Expr":
        return BinExpr("AND", self, other)

    def __or__(self, other: "Expr") -> "Expr":
        return BinExpr("OR", self, other)

    __hash__ = None  # type: ignore[assignment]

    def sql(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class ColRef(Expr):
    alias: str
    column: str

    def sql(self) -> str:
        return f"{self.alias}.{_quote(self.column)}"


@dataclass(frozen=True, eq=False)
class Constant(Expr):
    value: Any

    def sql(self) -> str:
        v = self.value
        if isinstance(v, bool):
            return "1" if v else "0"
        if isinstance(v, (int, float)):
            return repr(v)
        return "'" + str(v).replace("'", "''") + "'"


@dataclass(frozen=True, eq=False)
class BinExpr(Expr):
    op: str
    lhs: Expr
    rhs: Expr

    def sql(self) -> str:
        return f"({self.lhs.sql()} {self.op} {self.rhs.sql()})"


def constant(value: Any) -> Expr:
    """Lift a Python value into the expression language (HaskellDB's
    ``constant``)."""
    return value if isinstance(value, Expr) else Constant(value)


class Rel:
    """A table brought into scope by ``Query.table``; HaskellDB's
    ``facs ! cat`` field access becomes attribute access."""

    def __init__(self, alias: str, columns: tuple[str, ...]):
        self._alias = alias
        self._columns = columns

    def __getattr__(self, name: str) -> ColRef:
        if name.startswith("_"):
            raise AttributeError(name)
        if name not in self._columns:
            raise ExecutionError(f"table alias {self._alias!r} has no "
                                 f"column {name!r}")
        return ColRef(self._alias, name)


# ----------------------------------------------------------------------
# the query monad
# ----------------------------------------------------------------------

@dataclass
class Query:
    """One declarative query under construction (HaskellDB's ``Query``)."""

    catalog: Catalog
    tables: list[tuple[str, str]] = field(default_factory=list)
    conditions: list[Expr] = field(default_factory=list)
    projections: list[tuple[str, Expr]] = field(default_factory=list)
    distinct: bool = False

    def table(self, name: str) -> Rel:
        """Bring a database table into scope."""
        columns = tuple(c for c, _ in self.catalog.schema(name))
        alias = f"a{len(self.tables):04d}"
        self.tables.append((alias, name))
        return Rel(alias, columns)

    def restrict(self, condition: Expr) -> None:
        """Add a WHERE condition."""
        self.conditions.append(condition)

    def project(self, **cols: "Expr | Any") -> None:
        """Choose the output columns."""
        for name, expr in cols.items():
            self.projections.append((name, constant(expr)))

    def unique(self) -> None:
        """Request duplicate elimination (HaskellDB's ``unique``)."""
        self.distinct = True

    # ------------------------------------------------------------------
    def sql(self) -> str:
        if not self.projections:
            raise ExecutionError("query projects no columns")
        head = "SELECT DISTINCT" if self.distinct else "SELECT"
        cols = ", ".join(f"{e.sql()} AS {_quote(n)}"
                         for n, e in self.projections)
        tables = ", ".join(f"{_quote(t)} AS {a}"
                           for a, t in self.tables)
        sql = f"{head} {cols} FROM {tables}"
        if self.conditions:
            sql += " WHERE " + " AND ".join(c.sql() for c in self.conditions)
        return sql


class HaskellDBSession:
    """Executes ``Query`` objects one statement at a time (``doQuery``).

    ``statements_executed`` counts every SQL statement -- the avalanche
    metric of Table 1.
    """

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._conn = sqlite3.connect(":memory:")
        load_catalog(self._conn, catalog, SQLITE_DIALECT)
        self.statements_executed = 0

    def query(self) -> Query:
        """Start building a new query."""
        return Query(self.catalog)

    def do_query(self, q: Query) -> list[dict[str, Any]]:
        """Compile to one SQL statement, execute, fetch (``doQuery``)."""
        cursor = self._conn.execute(q.sql())
        self.statements_executed += 1
        names = [d[0] for d in cursor.description]
        return [dict(zip(names, row)) for row in cursor.fetchall()]

    def avalanche_diagnostics(self, result_ty: Any) -> list:
        """``F302`` lint: compare ``statements_executed`` against the
        static bound the result type permits (Table 1's shaming row)."""
        from ..analysis import avalanche_lint
        return avalanche_lint(result_ty, self.statements_executed)


# ----------------------------------------------------------------------
# the running example, HaskellDB-style (Figure 4)
# ----------------------------------------------------------------------

def get_cats(session: HaskellDBSession) -> Query:
    """``getCats``: the distinct facility categories."""
    q = session.query()
    facs = q.table("facilities")
    q.project(cat=facs.cat)
    q.unique()
    return q


def get_cat_features(session: HaskellDBSession, cat: str) -> Query:
    """``getCatFeatures cat``: feature meanings for one category."""
    q = session.query()
    facs = q.table("facilities")
    feats = q.table("features")
    means = q.table("meanings")
    q.restrict((feats.feature == means.feature)
               & (facs.cat == cat)
               & (facs.fac == feats.fac))
    q.project(meaning=means.meaning)
    q.unique()
    return q


def run_running_example(session: HaskellDBSession) -> list[tuple[str, list[str]]]:
    """The full Figure 4 program: one query for the categories, then one
    query per category -- the avalanche."""
    cats = session.do_query(get_cats(session))
    out = []
    for row in cats:
        means = session.do_query(get_cat_features(session, row["cat"]))
        out.append((row["cat"], [m["meaning"] for m in means]))
    return out
