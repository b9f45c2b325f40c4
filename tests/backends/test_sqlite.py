"""SQL:1999 generation and the SQLite executor.

Includes the appendix golden test: the running example compiles to a
bundle of exactly two SQL statements whose shapes match the paper's --
a duplicate-elimination binding (DISTINCT) driving the outer query and
DENSE_RANK bindings carrying surrogates in the inner query.
"""

import datetime

import pytest

from repro import Connection, PartialFunctionError, fmap, to_q
from repro.backends.sql import SQLiteBackend, render_literal, sql_type
from repro.bench.table1 import running_example_query
from repro.ftypes import BoolT, DateT, DoubleT, IntT, StringT, TimeT

from ..conftest import feature_meanings_query


@pytest.fixture()
def db(paper_catalog):
    return Connection(backend="sqlite", catalog=paper_catalog)


def bundle_sql(db, q):
    compiled = db.compile(q)
    backend = db.backend
    return [backend.generate(query).text
            for query in compiled.bundle.queries]


class TestAppendixGolden:
    def test_running_example_is_two_statements(self, db):
        sqls = bundle_sql(db, running_example_query(db))
        assert len(sqls) == 2

    def test_outer_query_has_distinct_binding(self, db):
        outer, _inner = bundle_sql(db, running_example_query(db))
        assert "SELECT DISTINCT" in outer

    def test_queries_use_rank_operators(self, db):
        outer, inner = bundle_sql(db, running_example_query(db))
        assert "DENSE_RANK() OVER" in inner
        assert "ROW_NUMBER() OVER" in outer

    def test_statements_are_cte_shaped_and_ordered(self, db):
        for sql in bundle_sql(db, running_example_query(db)):
            assert sql.startswith("WITH")
            assert "t0000" in sql
            assert sql.rstrip().endswith(";")
            assert "ORDER BY" in sql

    def test_result_matches_other_backends(self, db, paper_catalog):
        engine = Connection(backend="engine", catalog=paper_catalog)
        q1 = running_example_query(db)
        q2 = running_example_query(engine)
        assert db.run(q1) == engine.run(q2)


class TestDialect:
    def test_sql_types(self):
        assert sql_type(IntT) == "INTEGER"
        assert sql_type(BoolT) == "INTEGER"
        assert sql_type(DoubleT) == "REAL"
        assert sql_type(StringT) == "TEXT"
        assert sql_type(DateT) == "TEXT"

    def test_literals(self):
        assert render_literal(True, BoolT) == "1"
        assert render_literal(3, IntT) == "3"
        assert render_literal("o'hare", StringT) == "'o''hare'"
        assert render_literal(datetime.date(2009, 6, 29), DateT) == \
            "'2009-06-29'"
        assert render_literal(datetime.time(12, 30), TimeT) == "'12:30:00'"


class TestExecution:
    def test_roundtrip_all_atom_types(self):
        db = Connection(backend="sqlite")
        value = [(True, 1, 2.5, "x",
                  datetime.date(2020, 2, 2), datetime.time(23, 59))]
        assert db.run(to_q(value)) == value

    def test_integer_division_floors(self):
        # sqlite's native '/' truncates; the FERRY_IDIV UDF must floor
        db = Connection(backend="sqlite")
        assert db.run(fmap(lambda x: x // 2, to_q([-7, 7]))) == [-4, 3]

    def test_mod_sign(self):
        db = Connection(backend="sqlite")
        assert db.run(fmap(lambda x: x % 3, to_q([-7, 7]))) == [2, 1]

    def test_division_by_zero_raises(self):
        db = Connection(backend="sqlite")
        with pytest.raises(PartialFunctionError):
            db.run(fmap(lambda x: x // (x - x), to_q([1])))

    def test_statement_accounting(self, paper_catalog):
        db = Connection(backend="sqlite", catalog=paper_catalog)
        backend: SQLiteBackend = db.backend
        before = backend.statements_executed
        db.run(running_example_query(db))
        assert backend.statements_executed - before == 2

    def test_statement_accounting_three_statement_bundle(self,
                                                         paper_catalog):
        db = Connection(backend="sqlite", catalog=paper_catalog)
        q = feature_meanings_query(db)
        assert db.compile(q).bundle.size == 3
        before = db.backend.statements_executed
        db.run(q)
        assert db.backend.statements_executed - before == 3
        assert db.queries_issued == 3

    def test_catalog_reload_on_version_change(self):
        db = Connection(backend="sqlite")
        db.create_table("t", [("n", int)], [(1,)])
        q = db.table("t")
        assert db.run(q) == [1]
        db.catalog.drop_table("t")
        db.create_table("t", [("n", int)], [(5,), (6,)])
        assert db.run(db.table("t")) == [5, 6]

    def test_empty_table(self):
        db = Connection(backend="sqlite")
        db.create_table("t", [("n", int)], [])
        assert db.run(db.table("t")) == []
