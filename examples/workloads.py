"""Workloads for the examples, tests and paper-figure benchmarks.

* :func:`paper_dataset` -- the Figure 1 demo tables, verbatim;
* :func:`avalanche_dataset` -- the Table 1 workload: ``facilities`` /
  ``features`` / ``meanings`` scaled by the number of *distinct
  categories* (the paper varies exactly this: 1 000 / 10 000 / 100 000);
* :func:`numbers_dataset`, :func:`orders_dataset`, :func:`sparse_vector`
  -- micro-workloads for the nested-data example, Figures 5/6 and the
  ablations;
* :func:`running_example_query` (and its three spellings) and
  :func:`dotp_query`, Figure 5's program as a DSH query;
* the HaskellDB baseline (:class:`HaskellDBSession`, Figure 4), the
  ``F302`` lint that flags its avalanche (:func:`avalanche_lint`), the
  Table 1 harness (:func:`run_table1`, :func:`format_table1`) and
  criterion-style timing (:func:`measure`);
* :func:`raw_bundle` / :func:`run_raw` -- the ablation hook: the
  compiler with the optimizer or join-graph isolation switched off,
  which ``Connection`` does not offer.

Examples import this file as a sibling module (``import workloads``);
tests and benchmarks, run from the repository root, as
``examples.workloads``.
"""

from __future__ import annotations

import random
import sqlite3
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import (Connection, concat_map, fmap, fst, fsum, group_with, index,
                   nub, pyq, qc, the, tup)
from repro.analysis import Diagnostic, verify_bundle
from repro.backends.engine import EngineBackend
from repro.backends.sql import SQLiteBackend
from repro.backends.sql.dbapi import SQLITE_DIALECT, load_catalog
from repro.core.bundle import Bundle, compile_exp
from repro.errors import ExecutionError
from repro.frontend.q import Q, to_q
from repro.ftypes import Type, count_list_constructors
from repro.optimizer import optimize_bundle
from repro.runtime import Catalog
from repro.runtime.stitch import stitch

# ----------------------------------------------------------------------
# datasets
# ----------------------------------------------------------------------

#: Figure 1: facilities and their categories.
PAPER_FACILITIES = [
    ("SQL", "QLA"), ("ODBC", "API"), ("LINQ", "LIN"), ("Links", "LIN"),
    ("Rails", "ORM"), ("DSH", "LIB"), ("ADO.NET", "ORM"),
    ("Kleisli", "QLA"), ("HaskellDB", "LIB"),
]

#: Figure 1: feature meanings.
PAPER_MEANINGS = [
    ("list", "respects list order"),
    ("nest", "supports data nesting"),
    ("aval", "avoids query avalanches"),
    ("type", "is statically type-checked"),
    ("SQL!", "guarantees translation to SQL"),
    ("maps", "admits user-defined object mappings"),
    ("comp", "has compositional syntax and semantics"),
]

#: Figure 1: facility features.
PAPER_FEATURES = [
    ("SQL", "aval"), ("SQL", "type"), ("SQL", "SQL!"),
    ("LINQ", "nest"), ("LINQ", "comp"), ("LINQ", "type"),
    ("Links", "comp"), ("Links", "type"), ("Links", "SQL!"),
    ("Rails", "nest"), ("Rails", "maps"),
    ("DSH", "list"), ("DSH", "nest"), ("DSH", "comp"),
    ("DSH", "aval"), ("DSH", "type"), ("DSH", "SQL!"),
    ("ADO.NET", "maps"), ("ADO.NET", "comp"), ("ADO.NET", "type"),
    ("Kleisli", "list"), ("Kleisli", "nest"), ("Kleisli", "comp"),
    ("Kleisli", "type"),
    ("HaskellDB", "comp"), ("HaskellDB", "type"), ("HaskellDB", "SQL!"),
]


def _facility_catalog(facilities, features, meanings) -> Catalog:
    catalog = Catalog()
    catalog.create_table("facilities", [("fac", str), ("cat", str)],
                         facilities)
    catalog.create_table("features", [("fac", str), ("feature", str)],
                         features)
    catalog.create_table("meanings", [("feature", str), ("meaning", str)],
                         meanings)
    return catalog


def paper_dataset() -> Catalog:
    """The Figure 1 tables, exactly as printed in the paper."""
    return _facility_catalog(PAPER_FACILITIES, PAPER_FEATURES,
                             PAPER_MEANINGS)


def avalanche_dataset(n_categories: int, facilities_per_category: int = 1,
                      features_per_facility: int = 2,
                      n_meanings: int = 64, seed: int = 42) -> Catalog:
    """The Table 1 workload, scaled by the population of column ``cat``:
    the HaskellDB baseline issues ``1 + n_categories`` SQL statements,
    Ferry/DSH always 2."""
    rng = random.Random(seed)
    meanings = [(f"feat{i:05d}", f"meaning of feature {i:05d}")
                for i in range(n_meanings)]
    facilities, features = [], []
    for c in range(n_categories):
        for f in range(facilities_per_category):
            fac = f"fac{c:07d}_{f}"
            facilities.append((fac, f"cat{c:07d}"))
            for feat, _ in rng.sample(meanings, features_per_facility):
                features.append((fac, feat))
    return _facility_catalog(facilities, features, meanings)


def numbers_dataset(n: int, seed: int = 7) -> Catalog:
    """A table ``nums`` of ``n`` shuffled integers."""
    values = list(range(n))
    random.Random(seed).shuffle(values)
    catalog = Catalog()
    catalog.create_table("nums", [("n", int)], [(v,) for v in values])
    return catalog


def orders_dataset(n_customers: int, max_orders: int = 5,
                   max_items: int = 4, seed: int = 13) -> Catalog:
    """A customers/orders/lineitems schema for the nested-data example
    and the nesting-representation ablation."""
    rng = random.Random(seed)
    customers, orders, items = [], [], []
    oid = 0
    for c in range(n_customers):
        customers.append((c, f"customer{c:05d}", rng.choice(
            ["EU", "US", "APAC"])))
        for _ in range(rng.randint(0, max_orders)):
            orders.append((oid, c, rng.randint(1, 12)))
            for line in range(rng.randint(1, max_items)):
                items.append((oid, line,
                              round(rng.uniform(1.0, 500.0), 2)))
            oid += 1
    catalog = Catalog()
    catalog.create_table("customers",
                         [("cid", int), ("name", str), ("region", str)],
                         customers)
    catalog.create_table("orders",
                         [("oid", int), ("cid", int), ("month", int)],
                         orders)
    catalog.create_table("lineitems",
                         [("oid", int), ("line", int), ("price", float)],
                         items)
    return catalog


def sparse_vector(n: int, density: float = 0.1,
                  seed: int = 99) -> tuple[list[tuple[int, float]], list[float]]:
    """A random sparse vector (index/value pairs) and a dense vector of
    length ``n`` (the Figure 5 workload, scaled)."""
    rng = random.Random(seed)
    dense = [round(rng.uniform(-1.0, 1.0), 6) for _ in range(n)]
    sparse = [(i, round(rng.uniform(-1.0, 1.0), 6))
              for i in range(n) if rng.random() < density]
    return sparse, dense


# ----------------------------------------------------------------------
# the paper's programs as DSH queries
# ----------------------------------------------------------------------

def running_example_query(db: Connection):
    """The Section 2 program (the avalanche subject) as a DSH query."""
    facilities = db.table("facilities")
    features = db.table("features")
    meanings = db.table("meanings")

    def descr_facility(f):
        return qc("[mean | (feat, mean) <- meanings,"
                  " (fac, feat2) <- features,"
                  " feat == feat2 and fac == f]",
                  meanings=meanings, features=features, f=f)

    return qc("[(the(cat), nub(concatMap(descr, fac)))"
              " | (cat, fac) <- facilities, then group by cat]",
              facilities=facilities, descr=descr_facility)


def running_example_variants(db: Connection) -> dict:
    """The same program through each front end (``qc``, ``pyq``, fluent
    combinators): as written the three place their guards differently;
    join-graph isolation compiles them to one plan."""
    facilities, features, meanings = (
        db.table(t) for t in ("facilities", "features", "meanings"))

    def descr_pyq(f):
        return pyq("[mean for (feat, mean) in meanings"
                   " for (fac, feat2) in features"
                   " if feat == feat2 and fac == f]",
                   meanings=meanings, features=features, f=f)

    def descr_fluent(f):
        return concat_map(
            lambda me: features.filter(
                lambda ft: (ft[1] == me[0]) & (ft[0] == f))
            .map(lambda ft: me[1]),
            meanings)

    groups = group_with(lambda r: r[0], facilities)
    return {
        "qc": running_example_query(db),
        "pyq": pyq("[(the([cat for (cat, fac) in g]),"
                   "  nub([m for (cat, fac) in g for m in descr(fac)]))"
                   " for g in groups]",
                   groups=groups, descr=descr_pyq, the=the, nub=nub),
        "fluent": groups.map(
            lambda g: tup(the(g.map(fst)),
                          nub(concat_map(lambda r: descr_fluent(r[1]), g)))),
    }


def dotp_query(sv: list[tuple[int, float]], v: list[float]) -> Q:
    """Figure 5's ``dotp sv v = sumP [: x * (v !: i) | (i, x) <- sv :]``
    as a DSH query (Figure 6, right).  ``v !: i`` becomes positional
    indexing ``v !! i`` (0-based), which loop-lifting compiles into an
    equi-join on the ``pos`` column."""
    vq = to_q(v)
    return fsum(fmap(lambda p: p[1] * index(vq, p[0]), to_q(sv)))


#: The concrete arrays of Figure 6.
FIG6_SV: list[tuple[int, float]] = [(1, 0.1), (3, 1.0), (4, 0.0)]
FIG6_V: list[float] = [10.0, 20.0, 30.0, 40.0, 50.0]


# ----------------------------------------------------------------------
# the ablation hook: the compiler without Connection's pipeline
# ----------------------------------------------------------------------

_BACKENDS = {"engine": EngineBackend, "sqlite": SQLiteBackend}


def raw_bundle(q: Any, optimize: bool = False,
               decorrelate: bool = True) -> Bundle:
    """Loop-lift ``q`` (join-graph isolation only with ``decorrelate``),
    optimize it only if asked, and verify it: the plans a backend gets."""
    bundle = compile_exp(to_q(q).exp, decorrelate=decorrelate)
    if optimize:
        bundle = optimize_bundle(bundle)
    if not bundle.verified:
        verify_bundle(bundle, label="final")
    return bundle


def run_raw(q: Any, catalog: Catalog, optimize: bool = False,
            decorrelate: bool = True, backend: str = "engine") -> Any:
    """Execute :func:`raw_bundle` on ``backend`` and stitch the result."""
    bundle = raw_bundle(q, optimize, decorrelate)
    return stitch(bundle, _BACKENDS[backend]().execute_bundle(
        bundle, catalog).rows)


# ----------------------------------------------------------------------
# the HaskellDB baseline (Figure 4 / Table 1)
# ----------------------------------------------------------------------
#
# HaskellDB [17] builds each SQL query declaratively and type-safely, but
# a program that iterates over one query's results and issues a follow-up
# query per row produces a query avalanche (Section 4.1).  Figure 4
# reformulates the running example that way: ``getCats`` fetches the
# distinct categories, then ``doQuery . getCatFeatures`` runs once per
# category -- 1 + #categories statements against Ferry's constant 2.
# ``do_query`` compiles one ``Query`` to one SQL statement and executes it
# at once on SQLite: the measured baseline, intentionally not
# avalanche-safe.

_quote = SQLITE_DIALECT.quote_ident


class Expr:
    """A scalar expression usable in ``restrict``/``project``."""

    def __eq__(self, other: Any) -> "Expr":  # type: ignore[override]
        return BinExpr("=", self, constant(other))

    def __and__(self, other: "Expr") -> "Expr":
        return BinExpr("AND", self, other)

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


def haskelldb_example(session: HaskellDBSession
                      ) -> list[tuple[str, list[str]]]:
    """The full Figure 4 program: one query for the categories, then one
    query per category -- the avalanche."""
    cats = session.do_query(get_cats(session))
    return [(row["cat"],
             [m["meaning"] for m in
              session.do_query(get_cat_features(session, row["cat"]))])
            for row in cats]


def avalanche_lint(result_ty: Type, statements: int,
                   root_is_list: bool = True) -> list[Diagnostic]:
    """``F302``: lint an *observed* statement count against the static
    bound -- Table 1's shaming row.

    HaskellDB- and LINQ-style execution issues one statement per inner
    list (1 + N for the running example), while the static type licenses
    one query per ``[.]`` constructor (one more for a scalar root).
    Returns an ``F302`` diagnostic when ``statements`` exceeds the bound,
    and nothing when the execution was avalanche-safe.
    """
    n = count_list_constructors(result_ty)
    bound = n if root_is_list else n + 1
    if statements <= bound:
        return []
    return [Diagnostic(
        "F302", "avalanche",
        f"query avalanche: {statements} statements issued where the "
        f"static result type {result_ty.show()} permits {bound}")]


# ----------------------------------------------------------------------
# Table 1 and criterion-style timing
# ----------------------------------------------------------------------

@dataclass
class Measurement:
    """Mean runtime with a bootstrapped 95% confidence interval, as
    Table 1 reports it ("as calculated by the criterion library")."""

    mean: float          # seconds
    ci_lower: float      # seconds (2.5th percentile of bootstrap means)
    ci_upper: float      # seconds (97.5th percentile)
    samples: list[float]

    def show(self) -> str:
        """The paper's format, e.g. ``11.712s +0.2% -0.2%``."""
        up = 100.0 * (self.ci_upper - self.mean) / self.mean
        down = 100.0 * (self.mean - self.ci_lower) / self.mean
        return f"{self.mean:.4f}s +{up:.1f}% -{down:.1f}%"


def measure(subject: Callable[[], object], runs: int = 10,
            bootstrap_resamples: int = 1000, seed: int = 0) -> Measurement:
    """Run ``subject`` ``runs`` times (the paper executed each program ten
    times) and bootstrap a 95% CI of the mean."""
    samples: list[float] = []
    for _ in range(runs):
        start = time.perf_counter()
        subject()
        samples.append(time.perf_counter() - start)
    rng = random.Random(seed)
    means = sorted(
        sum(samples[rng.randrange(len(samples))] for _ in samples)
        / len(samples) for _ in range(bootstrap_resamples))
    return Measurement(sum(samples) / len(samples),
                       means[int(0.025 * len(means))],
                       means[min(int(0.975 * len(means)), len(means) - 1)],
                       samples)


@dataclass
class Table1Row:
    """One row of Table 1."""

    categories: int
    haskelldb_queries: int
    haskelldb_time: Measurement
    dsh_queries: int
    dsh_time: Measurement


def run_dsh(catalog: Catalog, backend: str = "engine"):
    """Execute the running example through the full Ferry stack; returns
    (result, #queries issued)."""
    db = Connection(backend=backend, catalog=catalog)
    query = running_example_query(db)
    compiled = db.compile(query)
    return db.run(query), compiled.query_count


def run_haskelldb(catalog: Catalog):
    """Execute the running example HaskellDB-style; returns
    (result, #statements issued)."""
    session = HaskellDBSession(catalog)
    result = haskelldb_example(session)
    return result, session.statements_executed


def run_table1(category_counts: tuple[int, ...] = (100, 500, 2000),
               runs: int = 3, backend: str = "engine") -> list[Table1Row]:
    """Regenerate Table 1 at the given category counts.

    The defaults scale the paper's 1k/10k/100k down so both systems
    terminate in benchmark time; pass larger counts to watch the
    HaskellDB avalanche blow up quadratically (each of its 1+N statements
    scans tables that grow with N) while the Ferry bundle stays at two
    queries -- the paper's "DNF" cell at 100k.
    """
    rows = []
    for n in category_counts:
        catalog = avalanche_dataset(n)
        # warm up both stacks (loads the data into SQLite) and record the
        # query counts once.
        _, hq = run_haskelldb(catalog)
        _, dq = run_dsh(catalog, backend)
        ht = measure(lambda: run_haskelldb(catalog), runs=runs)
        dt = measure(lambda: run_dsh(catalog, backend), runs=runs)
        rows.append(Table1Row(n, hq, ht, dq, dt))
    return rows


def format_table1(rows: list[Table1Row]) -> str:
    """Render rows the way the paper prints Table 1."""
    lines = [
        "                 HaskellDB                    DSH",
        "# categories   # queries  time              # queries  time",
        "-" * 68,
    ]
    for row in rows:
        lines.append(
            f"{row.categories:>12,}   {row.haskelldb_queries:>9,}  "
            f"{row.haskelldb_time.show():<16}  {row.dsh_queries:>9}  "
            f"{row.dsh_time.show()}")
    return "\n".join(lines)
