"""Table 1: query avalanches -- HaskellDB vs. Ferry/DSH.

The paper's only quantitative experiment: for the running example over a
``facilities`` table with 1 000 / 10 000 / 100 000 distinct categories,
HaskellDB issues ``1 + #categories`` SQL statements (and did not finish
within hours at 100 000), while DSH always issues exactly 2.

:func:`run_table1` regenerates the table at configurable category counts
(laptop-scaled by default; the paper's 100 000-category HaskellDB cell is
"DNF" for a reason) and reports, per system: the number of SQL statements
issued and the criterion-style runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines.haskelldb import HaskellDBSession
from ..baselines.haskelldb import run_running_example as haskelldb_example
from ..frontend import concat_map, fst, group_with, nub, pyq, qc, the, tup
from ..runtime import Catalog, Connection
from .stats import Measurement, measure
from .workloads import avalanche_dataset


@dataclass
class Table1Row:
    """One row of Table 1."""

    categories: int
    haskelldb_queries: int
    haskelldb_time: Measurement
    dsh_queries: int
    dsh_time: Measurement


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


def run_dsh(catalog: Catalog, backend: str = "engine"):
    """Execute the running example through the full Ferry stack; returns
    (result, #queries issued)."""
    db = Connection(backend=backend, catalog=catalog)
    query = running_example_query(db)
    compiled = db.compile(query)
    result = db.run(query)
    return result, compiled.query_count


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
    queries -- the paper's "DNF" cell at 100k.  ``backend`` selects the
    DSH execution backend; "engine" and "mil" scale linearly, while
    "sqlite" is limited by SQLite's nested-loop-only joins over the
    generated CTE pyramid (the paper used PostgreSQL).
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
