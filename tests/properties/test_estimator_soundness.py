"""Property: the static row bounds contain every measured row count.

``repro.analysis.cost`` bounds the rows of every plan node for the
catalog instance at hand: the ``Card`` rule of each operator, seeded
with the exact table sizes ``Connection._table_stats()`` reports.  The
bounds are a soundness claim -- the materialized relation of every plan
node must hold between ``lo`` and ``hi`` rows -- and this suite is the
reference they are held to.  It compiles programs over literal lists
*and over real tables* (empty, one row, duplicate-heavy keys, whole
duplicate rows: the exact-``TableScan`` path is what makes the bounds
finite), optimized and as the lifter left them, materializes every
intermediate DAG node on the in-memory engine and audits each node's
bounds and width; per query it holds the row counts sqlite and the MIL
VM report to the same bounds.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from examples.workloads import raw_bundle
from repro import Connection
from repro.analysis.cost import RowBounds, estimate_bundle
from repro.backends.engine.evaluate import BundleCache, Engine
from repro.runtime import Catalog

from ..programs import (
    SPINE_PROGRAMS,
    TABLE_DATA,
    T,
    U,
    Program,
    append,
    concat_map,
    ffilter,
    fmap,
    fsum,
    length,
    nub,
    programs,
    tup,
)
from .support import pair_rows, prop_settings
from .test_shared_spines import INSTANCES, catalog_of

SETTINGS = prop_settings(30)

#: name -> program over the two ``(k, v)`` pair tables: flat programs,
#: one per way a bound is derived from exact scans (``SPINE_PROGRAMS``
#: adds the nested ones).
FLAT_PROGRAMS = {
    "scan": T,
    "filter": ffilter(lambda r: r[1] > 0, T),
    "join": concat_map(
        lambda a: fmap(lambda b: tup(a[1], b[1]),
                       ffilter(lambda b: a[0] == b[0], U)), T),
    "product": concat_map(lambda a: fmap(lambda b: a[1] + b[1], U), T),
    "append": append(fmap(lambda r: r[1], T), fmap(lambda r: r[0], U)),
    "nub": nub(fmap(lambda r: r[0], T)),
    "count": length(T),
    "sum_of_matches": fmap(
        lambda a: fsum(fmap(lambda b: b[1],
                            ffilter(lambda b: a[0] == b[0], U))), T),
}
PROGRAMS = {**{name: Program(term, TABLE_DATA)
               for name, term in FLAT_PROGRAMS.items()},
            **{name: program for name, (_, program) in SPINE_PROGRAMS.items()}}

TABLES = {**INSTANCES,
          "one_row_each": ([(1, 1)], [(1, 2)]),
          "one_row_no_match": ([(0, 5)], [(3, 5)])}


def check_bounds(q, catalog=None):
    """Compile (optimized, and not), materialize every node on the
    engine, and audit every node's bounds and width."""
    catalog = catalog if catalog is not None else Catalog()
    db = Connection(catalog=catalog)
    for bundle in (db.compile(q).bundle, raw_bundle(q)):
        engine = Engine(catalog)
        cache = BundleCache()
        bounds = RowBounds(db._table_stats())
        for query in bundle.queries:
            engine.execute(query.plan, cache=cache)
            bounds.of(query.plan)

        audited = 0
        for nid, rel in cache.values.items():
            bound = bounds.memo.get(nid)
            if bound is None:
                continue
            audited += 1
            assert bound.lo <= rel.nrows, (
                f"bounds {bound.show()} exclude the actual {rel.nrows} rows")
            assert bound.hi is not None, (
                "every table's size is known, yet the bound is open")
            assert rel.nrows <= bound.hi, (
                f"bounds {bound.show()} exclude the actual {rel.nrows} rows")
            assert bound.width == len(rel.cols), (
                f"width {bound.width} != actual {len(rel.cols)}")
        assert audited > 0


def check_program(name, t_rows, u_rows):
    catalog = catalog_of(t_rows, u_rows)
    check_bounds(PROGRAMS[name].query, catalog)
    return catalog


class TestBoundsContainActuals:
    @SETTINGS
    @given(programs("pipeline"))
    def test_flat(self, program):
        check_bounds(program.query)

    @SETTINGS
    @given(programs("nested"))
    def test_nested(self, program):
        check_bounds(program.query)

    @SETTINGS
    @given(programs("any"))
    def test_any(self, program):
        check_bounds(program.query)

    @prop_settings(60)
    @given(st.sampled_from(sorted(PROGRAMS)), pair_rows(), pair_rows())
    def test_with_catalog_statistics(self, name, t_rows, u_rows):
        # Real tables, the connection's real statistics: every scan is
        # exact, so every bound is finite -- and must still hold.
        check_program(name, t_rows, u_rows)


@pytest.mark.tier1
@pytest.mark.parametrize("instance", TABLES)
@pytest.mark.parametrize("name", PROGRAMS)
def test_fixed_corpus(name, instance):
    catalog = check_program(name, *TABLES[instance])
    # per query, the other two backends answer to the same bounds
    for backend in ("sqlite", "mil"):
        db = Connection(backend=backend, catalog=catalog)
        q = PROGRAMS[name].query
        report = db.explain(q, analyze=True)
        bounds = estimate_bundle(db.compile(q).bundle,
                                 table_rows=db._table_stats()).queries
        assert len(bounds) == len(report.analyze.queries)
        for bound, profile in zip(bounds, report.analyze.queries):
            assert bound.contains(profile.rows), (
                f"{backend} Q{profile.index}: bounds {bound.show()} "
                f"exclude the measured {profile.rows} rows")
        assert report.lint == []


def test_a_statistic_that_undercounts_is_caught():
    """The audit is not vacuous: with a table size that is too small the
    same check fails."""
    catalog = catalog_of(*TABLES["general"])
    db = Connection(catalog=catalog)
    bundle = db.compile(db.table("t")).bundle
    [bound] = estimate_bundle(bundle, table_rows={"t": 1, "u": 5}).queries
    assert not bound.contains(len(TABLES["general"][0]))
