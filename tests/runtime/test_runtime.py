"""Catalog, connection, and stitching behaviour."""

import pytest

from repro import Connection, PartialFunctionError, SchemaError, head, nil, to_q
from repro.core import compile_exp
from repro.errors import ExecutionError, QTypeError
from repro.ftypes import IntT
from repro.runtime import Catalog, stitch


class TestCatalog:
    def test_create_and_read(self):
        cat = Catalog()
        cat.create_table("t", [("b", int), ("a", str)], [(1, "x"), (2, "y")])
        assert cat.table_names() == ["t"]
        assert [c for c, _ in cat.schema("t")] == ["a", "b"]
        # rows reordered to alphabetical columns and sorted
        assert cat.rows("t") == [("x", 1), ("y", 2)]

    def test_duplicate_table(self):
        cat = Catalog()
        cat.create_table("t", [("n", int)])
        with pytest.raises(SchemaError):
            cat.create_table("t", [("n", int)])

    def test_row_width_checked(self):
        cat = Catalog()
        with pytest.raises(SchemaError):
            cat.create_table("t", [("n", int)], [(1, 2)])

    def test_cell_type_checked(self):
        cat = Catalog()
        with pytest.raises(SchemaError):
            cat.create_table("t", [("n", int)], [("oops",)])

    def test_int_widened_in_double_column(self):
        cat = Catalog()
        cat.create_table("t", [("x", float)], [(1,)])
        assert cat.rows("t") == [(1.0,)]

    def test_scalar_rows_accepted(self):
        cat = Catalog()
        cat.create_table("t", [("n", int)], [1, 2])
        assert cat.rows("t") == [(1,), (2,)]

    def test_drop_table(self):
        cat = Catalog()
        cat.create_table("t", [("n", int)])
        cat.drop_table("t")
        assert not cat.has_table("t")
        with pytest.raises(SchemaError):
            cat.rows("t")

    def test_version_bumps(self):
        cat = Catalog()
        v0 = cat.schema_generation
        cat.create_table("t", [("n", int)])
        v1 = cat.schema_generation
        assert v1 > v0
        cat.drop_table("t")
        assert cat.schema_generation > v1


class TestConnection:
    def test_unknown_backend(self):
        with pytest.raises(QTypeError):
            Connection(backend="oracle9i")
        # the engine is the one column-at-a-time executor
        with pytest.raises(QTypeError, match="'engine' or 'sqlite'"):
            Connection(backend="mil")

    def test_run_plain_python_value(self):
        db = Connection()
        assert db.run([1, 2, 3]) == [1, 2, 3]
        assert db.run(42) == 42

    def test_missing_table_at_run_time(self):
        from repro import table
        db = Connection()
        q = table("ghost", {"n": int})
        with pytest.raises(SchemaError):
            db.run(q)

    def test_declared_type_mismatch_at_run_time(self):
        from repro import table
        db = Connection()
        db.create_table("t", [("n", int)], [(1,)])
        with pytest.raises(SchemaError):
            db.run(table("t", {"n": str}))

    def test_queries_issued_accumulates(self):
        db = Connection()
        db.run(to_q([[1], [2]]))
        db.run(to_q([1]))
        assert db.queries_issued == 3

    def test_explain_mentions_queries(self):
        db = Connection()
        report = db.explain(to_q([[1]]))
        text = str(report)
        assert "-- Q1" in text and "-- Q2" in text
        assert report.bundle_size == 2
        assert report.avalanche_ok

    def test_compile_reports_query_count(self):
        db = Connection()
        assert db.compile(to_q([[1]])).query_count == 2


class TestStitch:
    def test_partial_scalar_raises(self):
        db = Connection()
        with pytest.raises(PartialFunctionError):
            db.run(head(nil(IntT)))

    def test_wrong_result_set_count(self):
        bundle = compile_exp(to_q([1]).exp)
        with pytest.raises(ExecutionError):
            stitch(bundle, [])

    def test_empty_list_result(self):
        db = Connection()
        assert db.run(nil(IntT)) == []

    def test_deeply_nested_roundtrip(self):
        db = Connection()
        value = [([("a", [1.5])], True)]
        assert db.run(to_q(value)) == value
