"""Per-operator code generation: every algebra operator round-trips
through the SQL generator and SQLite with the same semantics the
in-memory engine gives it."""

import pytest

from repro.algebra import (
    AntiJoin,
    Attach,
    BinApp,
    Const,
    Cross,
    Distinct,
    EqJoin,
    GroupAggr,
    LitTable,
    Node,
    Project,
    RowNum,
    RowRank,
    Select,
    SemiJoin,
    TableScan,
    UnApp,
    UnionAll,
    schema_of,
)
from repro.backends.engine import Engine
from repro.backends.sql.backend import SQLiteBackend
from repro.backends.sql.generate import generate_bundle
from repro.core.bundle import SerializedQuery
from repro.errors import VerifyError
from repro.ftypes import BoolT, DoubleT, IntT, StringT
from repro.runtime import Catalog


def lt(rows, *cols):
    return LitTable(tuple(rows), tuple(cols))


NUMS = lt([(3,), (1,), (2,), (2,)], ("n", IntT))
PAIRS = lt([(1, "a"), (2, "b"), (2, "c")], ("k", IntT), ("s", StringT))


def serialized(plan: Node) -> SerializedQuery:
    """``plan`` as a bundle member: constant ``iter``/``pos`` columns
    attached on top, every plan column an item."""
    schema = schema_of(plan)
    root = Attach(Attach(plan, "_iter", 1, IntT), "_pos", 1, IntT)
    return SerializedQuery(root, "_iter", "_pos", tuple(schema),
                           tuple(schema.values()))


def sql_rows(plan: Node, backend: "SQLiteBackend | None" = None
             ) -> list[tuple]:
    """``plan``'s rows via generated SQL: steps and SELECT, through
    ``run_sql`` (on ``backend``'s loaded tables, by default none)."""
    if backend is None:
        backend = SQLiteBackend()
        backend._ensure_loaded(Catalog())
    query = serialized(plan)
    rows = backend.run_sql(generate_bundle([query])[0], query)
    return sorted(row[2:] for row in rows)


def both_ways(plan: Node):
    """Execute via the engine and via generated SQL; assert equal bags."""
    cols = tuple(schema_of(plan))
    engine_rel = Engine(Catalog()).execute(plan)
    idx = [engine_rel.col_index(c) for c in cols]
    engine_rows = sorted(tuple(r[i] for i in idx) for r in engine_rel.rows)
    rows = sql_rows(plan)
    assert rows == engine_rows
    return rows


class TestOperatorsOnSQLite:
    def test_littable(self):
        assert both_ways(NUMS) == [(1,), (2,), (2,), (3,)]

    def test_empty_littable(self):
        assert both_ways(lt([], ("n", IntT))) == []

    def test_attach_project_select(self):
        plan = Select(BinApp(Attach(NUMS, "k", 10, IntT), "lt", "n", "k",
                             "c"), "c")
        plan = Project(plan, (("out", "n"),))
        both_ways(plan)

    def test_distinct(self):
        assert both_ways(Distinct(NUMS)) == [(1,), (2,), (3,)]

    def test_rownum_with_partition(self):
        t = lt([(1, 9), (1, 3), (2, 5)], ("g", IntT), ("v", IntT))
        both_ways(RowNum(t, "pos", (("v", "asc"),), ("g",)))

    def test_rownum_desc(self):
        both_ways(RowNum(NUMS, "pos", (("n", "desc"),)))

    def test_dense_rank(self):
        assert both_ways(RowRank(NUMS, "rk", (("n", "asc"),))) == [
            (1, 1), (2, 2), (2, 2), (3, 3)]

    def test_cross(self):
        both_ways(Cross(NUMS, lt([(True,)], ("b", BoolT))))

    def test_eqjoin_multi_pair(self):
        left = lt([(1, "a"), (2, "b")], ("k", IntT), ("s", StringT))
        right = lt([(1, "a"), (2, "x")], ("j", IntT), ("t", StringT))
        assert both_ways(EqJoin(left, right, (("k", "j"), ("s", "t")))) == [
            (1, "a", 1, "a")]

    def test_semijoin_antijoin(self):
        right = lt([(2,)], ("j", IntT))
        assert both_ways(SemiJoin(NUMS, right, (("n", "j"),))) == [
            (2,), (2,)]
        assert both_ways(AntiJoin(NUMS, right, (("n", "j"),))) == [
            (1,), (3,)]

    def test_multi_column_semijoin_antijoin(self):
        right = lt([(2, "b"), (2, "x")], ("j", IntT), ("t", StringT))
        pairs = (("k", "j"), ("s", "t"))
        assert both_ways(SemiJoin(PAIRS, right, pairs)) == [(2, "b")]
        assert both_ways(AntiJoin(PAIRS, right, pairs)) == [
            (1, "a"), (2, "c")]

    def test_antijoin_keeps_not_exists_result_on_null_keys(self):
        # No generated statement yields NULL (an aggregate without
        # groups answers no rows with no row), so the one-row table
        # (NULL, 0) is put into the database behind the generator's
        # back.  A NULL key equals nothing, so NOT EXISTS keeps its row
        # -- where NOT IN would drop it, and with a NULL on the right
        # every row.  (``run_sql`` converts no NULL: only the count is
        # projected.)
        catalog = Catalog()
        catalog.create_table("t", [("c", int), ("m", int)], [(0, 0)])
        backend = SQLiteBackend()
        backend._ensure_loaded(catalog)
        backend._conn.execute(
            f'UPDATE {backend.dialect.table_ref("t")} SET "m" = NULL')
        backend._conn.commit()
        nothing = TableScan("t", (("c", "c", IntT), ("m", "m", IntT)))

        def count_only(plan):
            return sql_rows(Project(plan, (("c", "c"),)), backend)

        assert count_only(nothing) == [(0,)]
        assert count_only(AntiJoin(nothing, NUMS, (("m", "n"),))) == [(0,)]
        assert sql_rows(AntiJoin(NUMS, nothing, (("n", "m"),)),
                        backend) == [(1,), (2,), (2,), (3,)]
        assert count_only(SemiJoin(nothing, NUMS, (("m", "n"),))) == []
        assert sql_rows(SemiJoin(NUMS, nothing, (("n", "m"),)),
                        backend) == []

    def test_shared_node_is_a_step_and_joins_itself(self):
        # both join inputs read the one RowNum: it becomes a temp table
        ranked = RowNum(NUMS, "p", (("n", "asc"),))
        left = Project(ranked, (("a", "n"), ("pa", "p")))
        right = Project(ranked, (("b", "n"), ("pb", "p")))
        plan = EqJoin(left, right, (("pa", "pb"),))
        query = serialized(plan)
        gen = generate_bundle([query])[0]
        assert [step.op for step in gen.steps] == [
            "RowNum p := row_number(order by n asc)"]
        assert gen.text.count("temp.ferry_m0000") == 2
        both_ways(plan)

    def test_union_all(self):
        both_ways(UnionAll(NUMS, NUMS))

    def test_group_aggr_all_functions(self):
        t = lt([(1, 2), (1, 4), (2, 6)], ("g", IntT), ("v", IntT))
        plan = GroupAggr(t, ("g",), (("sum", "v", "s"),
                                     ("count", None, "c"),
                                     ("min", "v", "lo"),
                                     ("max", "v", "hi"),
                                     ("avg", "v", "m")))
        assert both_ways(plan) == [(1, 6, 2, 2, 4, 3.0), (2, 6, 1, 6, 6, 6.0)]

    def test_global_aggregate_of_rows_is_one_row(self):
        aggs = (("count", None, "c"), ("sum", "n", "s"))
        assert both_ways(GroupAggr(NUMS, (), aggs)) == [(4, 8)]
        assert both_ways(GroupAggr(NUMS, (), aggs[:1])) == [(4,)]

    def test_global_aggregate_of_no_rows_is_no_row(self):
        # not SQL's (0,) / NULL: ``analysis/properties.py`` infers
        # Card(0..1) for this node
        empty = lt([], ("n", IntT))
        aggs = (("count", None, "c"), ("sum", "n", "s"))
        assert both_ways(GroupAggr(empty, (), aggs)) == []
        assert both_ways(GroupAggr(empty, (), aggs[:1])) == []
        assert both_ways(GroupAggr(Select(
            BinApp(NUMS, "gt", "n", Const(9, IntT), "big"), "big"),
            (), aggs[1:])) == []

    @pytest.mark.parametrize("plan", [
        RowNum(NUMS, "p", (), ()), RowNum(NUMS, "p", (), ("n",)),
        RowRank(NUMS, "p", ())], ids=["rownum", "partitioned", "rowrank"])
    def test_numbering_without_an_order_is_rejected(self, plan):
        # it would number arbitrarily: no two backends need agree
        with pytest.raises(VerifyError) as exc:
            schema_of(plan)
        assert exc.value.code == "F104"

    def test_bool_aggregates(self):
        t = BinApp(lt([(1, 2), (1, 4), (2, 6)],
                      ("g", IntT), ("v", IntT)),
                   "gt", "v", Const(3, IntT), "b")
        plan = GroupAggr(t, ("g",), (("all", "b", "a"), ("any", "b", "o")))
        both_ways(plan)

    def test_scalar_operator_matrix(self):
        plan = NUMS
        for op, rhs in (("add", Const(1, IntT)), ("sub", Const(1, IntT)),
                        ("mul", Const(3, IntT)), ("idiv", Const(2, IntT)),
                        ("mod", Const(2, IntT)), ("min", Const(2, IntT)),
                        ("max", Const(2, IntT))):
            plan = BinApp(plan, op, "n", rhs, f"c_{op}")
        both_ways(plan)

    def test_comparison_matrix(self):
        plan = NUMS
        for op in ("eq", "ne", "lt", "le", "gt", "ge"):
            plan = BinApp(plan, op, "n", Const(2, IntT), f"c_{op}")
        both_ways(plan)

    def test_unapps(self):
        base = BinApp(NUMS, "gt", "n", Const(1, IntT), "b")
        plan = UnApp(UnApp(UnApp(base, "not", "b", "nb"),
                           "neg", "n", "m"), "to_double", "n", "d")
        both_ways(plan)

    def test_real_division(self):
        t = lt([(1.0,), (3.0,)], ("x", DoubleT))
        plan = BinApp(t, "div", "x", Const(2.0, DoubleT), "h")
        assert both_ways(plan) == [(1.0, 0.5), (3.0, 1.5)]

    def test_string_escaping(self):
        t = lt([("o'hare",)], ("s", StringT))
        plan = BinApp(t, "eq", "s", Const("o'hare", StringT), "c")
        both_ways(plan)
