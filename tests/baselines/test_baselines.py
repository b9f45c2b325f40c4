"""The HaskellDB and LINQ baselines: avalanche counts and (lack of)
order guarantees, versus Ferry's constant-size bundle."""

import pytest

from repro import Connection
from examples.comparisons import LinqSession
from examples.comparisons import linq_example as linq_run
from examples.workloads import (
    HaskellDBSession,
    avalanche_dataset,
    avalanche_lint,
    get_cat_features,
    get_cats,
    run_dsh,
    running_example_query,
)
from examples.workloads import haskelldb_example as hdb_run
from repro.errors import ExecutionError
from repro.ftypes import IntT, ListT


class TestHaskellDBQueryBuilder:
    def test_get_cats_sql(self, paper_catalog):
        session = HaskellDBSession(paper_catalog)
        sql = get_cats(session).sql()
        assert sql.startswith("SELECT DISTINCT")
        assert '"facilities"' in sql

    def test_get_cat_features_sql(self, paper_catalog):
        session = HaskellDBSession(paper_catalog)
        sql = get_cat_features(session, "LIB").sql()
        assert "WHERE" in sql
        assert "'LIB'" in sql

    def test_unknown_column_rejected(self, paper_catalog):
        session = HaskellDBSession(paper_catalog)
        q = session.query()
        facs = q.table("facilities")
        with pytest.raises(ExecutionError):
            facs.nonexistent

    def test_projection_required(self, paper_catalog):
        session = HaskellDBSession(paper_catalog)
        q = session.query()
        q.table("facilities")
        with pytest.raises(ExecutionError):
            q.sql()

    def test_string_constants_escaped(self, paper_catalog):
        session = HaskellDBSession(paper_catalog)
        q = session.query()
        facs = q.table("facilities")
        q.restrict(facs.cat == "o'brien")
        q.project(cat=facs.cat)
        assert "'o''brien'" in q.sql()


class TestAvalancheCounts:
    def test_haskelldb_issues_one_plus_n(self):
        for n in (3, 7):
            catalog = avalanche_dataset(n)
            session = HaskellDBSession(catalog)
            hdb_run(session)
            assert session.statements_executed == 1 + n

    def test_dsh_always_issues_two(self):
        for n in (3, 7, 25):
            _, count = run_dsh(avalanche_dataset(n))
            assert count == 2

    def test_linq_issues_even_more(self):
        catalog = avalanche_dataset(4)
        session = LinqSession(catalog)
        linq_run(session)
        assert session.statements_executed > 1 + 4


class TestResultAgreement:
    def test_haskelldb_matches_dsh_content(self, paper_catalog):
        session = HaskellDBSession(paper_catalog)
        hdb = hdb_run(session)
        db = Connection(catalog=paper_catalog)
        dsh = db.run(running_example_query(db))
        assert {k for k, _ in hdb} == {k for k, _ in dsh}
        # HaskellDB gives no order guarantee inside groups: compare as sets
        assert ({k: frozenset(v) for k, v in hdb}
                == {k: frozenset(v) for k, v in dsh})

    def test_linq_loses_order(self, paper_catalog):
        # the same groups and meanings, in another order
        linq = linq_run(LinqSession(paper_catalog))
        db = Connection(catalog=paper_catalog)
        dsh = db.run(running_example_query(db))
        assert linq != dsh
        assert ({k: frozenset(v) for k, v in linq}
                == {k: frozenset(v) for k, v in dsh})

    def test_dsh_order_is_deterministic(self, paper_catalog):
        db1 = Connection(catalog=paper_catalog)
        db2 = Connection(backend="sqlite", catalog=paper_catalog)
        assert (db1.run(running_example_query(db1))
                == db2.run(running_example_query(db2)))


class TestAvalancheLint:
    """The F302 observed-statement lint: baselines get flagged, the Ferry
    bundle passes the verifier with all stages green."""

    def test_haskelldb_is_flagged(self):
        catalog = avalanche_dataset(5)
        session = HaskellDBSession(catalog)
        hdb_run(session)
        db = Connection(catalog=catalog)
        ty = running_example_query(db).ty
        diags = avalanche_lint(ty, session.statements_executed)
        assert [d.code for d in diags] == ["F302"]
        assert "6 statements" in diags[0].message

    def test_linq_is_flagged(self):
        catalog = avalanche_dataset(5)
        session = LinqSession(catalog)
        linq_run(session)
        db = Connection(catalog=catalog)
        diags = avalanche_lint(running_example_query(db).ty,
                               session.statements_executed)
        assert [d.code for d in diags] == ["F302"]

    def test_ferry_bundle_is_verified_not_flagged(self):
        catalog = avalanche_dataset(5)
        db = Connection(catalog=catalog)
        query = running_example_query(db)
        compiled = db.compile(query)
        assert compiled.bundle.verified
        db.run(query)
        assert avalanche_lint(query.ty, compiled.query_count) == []

    def test_under_budget_sessions_stay_clean(self):
        catalog = avalanche_dataset(3)
        session = HaskellDBSession(catalog)
        session.do_query(get_cats(session))
        db = Connection(catalog=catalog)
        # one statement against a two-[.] type: within the static bound
        assert avalanche_lint(running_example_query(db).ty,
                              session.statements_executed) == []

    def test_observed_statement_lint_is_f302(self):
        ty = ListT(ListT(IntT))  # two [.] constructors: bound 2
        assert avalanche_lint(ty, 2) == []
        diags = avalanche_lint(ty, 7)
        assert [d.code for d in diags] == ["F302"]
        assert "7 statements" in diags[0].message

    def test_scalar_root_gets_one_extra_statement(self):
        assert avalanche_lint(IntT, 1, root_is_list=False) == []
        assert avalanche_lint(IntT, 2, root_is_list=False)
