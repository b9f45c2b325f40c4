"""Direct evaluation of algebra plans on the in-memory engine."""

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
    Project,
    RowNum,
    RowRank,
    Select,
    SemiJoin,
    TableScan,
    UnApp,
    UnionAll,
    postorder,
)
from repro import Connection
from repro.backends.engine import Engine, EngineBackend
from examples.workloads import paper_dataset, running_example_query
from repro.errors import PartialFunctionError
from repro.ftypes import BoolT, IntT, StringT
from repro.runtime import Catalog

from ..conftest import feature_meanings_query
from ..optimizer import test_surrogate_keys as surrogate


@pytest.fixture()
def engine():
    catalog = Catalog()
    catalog.create_table("t", [("n", int), ("s", str)],
                         [(2, "b"), (1, "a"), (2, "a")])
    return Engine(catalog)


def lt(rows, *cols):
    return LitTable(tuple(rows), tuple(cols))


NUMS = lt([(3,), (1,), (2,)], ("n", IntT))


def rows_of(engine, plan, cols=None):
    rel = engine.execute(plan)
    if cols is None:
        return sorted(rel.rows)
    idx = [rel.col_index(c) for c in cols]
    return sorted(tuple(r[i] for i in idx) for r in rel.rows)


class TestLeavesAndBasics:
    def test_littable(self, engine):
        assert rows_of(engine, NUMS) == [(1,), (2,), (3,)]

    def test_tablescan_renames(self, engine):
        scan = TableScan("t", (("x", "n", IntT), ("y", "s", StringT)))
        assert rows_of(engine, scan) == [(1, "a"), (2, "a"), (2, "b")]

    def test_attach(self, engine):
        plan = Attach(NUMS, "k", True, BoolT)
        assert rows_of(engine, plan) == [(1, True), (2, True), (3, True)]

    def test_project_duplicates(self, engine):
        plan = Project(NUMS, (("a", "n"), ("b", "n")))
        assert rows_of(engine, plan) == [(1, 1), (2, 2), (3, 3)]

    def test_select(self, engine):
        plan = Select(BinApp(NUMS, "gt", "n", Const(1, IntT), "c"), "c")
        assert rows_of(engine, plan, ["n"]) == [(2,), (3,)]

    def test_distinct(self, engine):
        dup = lt([(1,), (1,), (2,)], ("n", IntT))
        assert rows_of(engine, Distinct(dup)) == [(1,), (2,)]


class TestWindows:
    def test_rownum_order(self, engine):
        plan = RowNum(NUMS, "pos", (("n", "asc"),))
        assert rows_of(engine, plan) == [(1, 1), (2, 2), (3, 3)]

    def test_rownum_desc(self, engine):
        plan = RowNum(NUMS, "pos", (("n", "desc"),))
        assert rows_of(engine, plan) == [(1, 3), (2, 2), (3, 1)]

    def test_rownum_partitioned(self, engine):
        t = lt([(1, 10), (1, 5), (2, 7)], ("g", IntT), ("v", IntT))
        plan = RowNum(t, "pos", (("v", "asc"),), ("g",))
        assert rows_of(engine, plan) == [(1, 5, 1), (1, 10, 2), (2, 7, 1)]

    def test_dense_rank(self, engine):
        t = lt([(5,), (3,), (5,), (9,)], ("v", IntT))
        plan = RowRank(t, "rk", (("v", "asc"),))
        assert rows_of(engine, plan) == [(3, 1), (5, 2), (5, 2), (9, 3)]


class TestJoins:
    L = lt([(1, "l1"), (2, "l2")], ("k", IntT), ("lv", StringT))
    R = lt([(2, "r2"), (3, "r3"), (2, "r2b")], ("j", IntT), ("rv", StringT))

    def test_cross(self, engine):
        assert len(rows_of(engine, Cross(self.L, self.R))) == 6

    def test_eqjoin(self, engine):
        plan = EqJoin(self.L, self.R, (("k", "j"),))
        assert rows_of(engine, plan, ["lv", "rv"]) == [
            ("l2", "r2"), ("l2", "r2b")]

    def test_eqjoin_multi_pair(self, engine):
        plan = EqJoin(self.L, self.R, (("k", "j"), ("lv", "rv")))
        assert rows_of(engine, plan) == []

    def test_semijoin(self, engine):
        plan = SemiJoin(self.L, self.R, (("k", "j"),))
        assert rows_of(engine, plan) == [(2, "l2")]

    def test_antijoin(self, engine):
        plan = AntiJoin(self.L, self.R, (("k", "j"),))
        assert rows_of(engine, plan) == [(1, "l1")]

    def test_union_aligns_by_name(self, engine):
        flipped = Project(self.L, (("lv", "lv"), ("k", "k")))
        plan = UnionAll(self.L, flipped)
        assert len(rows_of(engine, plan)) == 4


class TestAggregates:
    T = lt([(1, 10), (1, 20), (2, 5)], ("g", IntT), ("v", IntT))

    def test_sum_count(self, engine):
        plan = GroupAggr(self.T, ("g",), (("sum", "v", "s"),
                                          ("count", None, "n")))
        assert rows_of(engine, plan) == [(1, 30, 2), (2, 5, 1)]

    def test_min_max_avg(self, engine):
        plan = GroupAggr(self.T, ("g",), (("min", "v", "lo"),
                                          ("max", "v", "hi"),
                                          ("avg", "v", "m")))
        assert rows_of(engine, plan) == [(1, 10, 20, 15.0), (2, 5, 5, 5.0)]

    def test_all_any(self, engine):
        t = Attach(BinApp(self.T, "gt", "v", Const(7, IntT), "b"), "k", 0, IntT)
        plan = GroupAggr(t, ("g",), (("all", "b", "a"), ("any", "b", "o")))
        assert rows_of(engine, plan) == [(1, True, True), (2, False, False)]

    def test_global_aggregate_empty_input(self, engine):
        empty = lt([], ("v", IntT))
        plan = GroupAggr(empty, (), (("count", None, "n"),))
        # SQL semantics at the algebra level: no group, no row
        assert rows_of(engine, plan) == []


class TestScalarKernels:
    def test_arith(self, engine):
        plan = BinApp(NUMS, "mul", "n", Const(10, IntT), "m")
        assert rows_of(engine, plan, ["m"]) == [(10,), (20,), (30,)]

    def test_division_by_zero_raises(self, engine):
        plan = BinApp(NUMS, "idiv", "n", Const(0, IntT), "d")
        with pytest.raises(PartialFunctionError):
            engine.execute(plan)

    def test_unapp(self, engine):
        plan = UnApp(NUMS, "neg", "n", "m")
        assert rows_of(engine, plan, ["m"]) == [(-3,), (-2,), (-1,)]

    def test_const_operand_on_left(self, engine):
        plan = BinApp(NUMS, "sub", Const(10, IntT), "n", "m")
        assert rows_of(engine, plan, ["m"]) == [(7,), (8,), (9,)]

    def test_memoizes_shared_subplans(self, engine):
        shared = RowNum(NUMS, "pos", (("n", "asc"),))
        left = Project(shared, (("a", "pos"),))
        right = Project(shared, (("b", "pos"),))
        plan = EqJoin(left, right, (("a", "b"),))
        assert len(rows_of(engine, plan)) == 3


def counted_steps(monkeypatch) -> dict[int, int]:
    """Count, per plan node, how often its lowered step runs in the
    programs the engine backend prepares from now on."""
    counts: dict[int, int] = {}
    plain = EngineBackend.prepare_bundle

    def counting(step, key):
        def counted(slots, catalog):
            counts[key] = counts.get(key, 0) + 1
            return step(slots, catalog)
        return counted

    def prepare(self, bundle):
        program = plain(self, bundle)
        program.steps[:] = [counting(step, id(node)) for node, step
                            in zip(program.nodes, program.steps)]
        return program

    monkeypatch.setattr(EngineBackend, "prepare_bundle", prepare)
    return counts


def nested_orders_program():
    return surrogate.nested_orders(), surrogate.catalog()


def running_example_program():
    catalog = paper_dataset()
    return running_example_query(Connection(catalog=catalog)), catalog


class TestBundleMemo:
    def test_each_shared_dag_node_materializes_once_per_bundle(
            self, monkeypatch):
        """The queries of a bundle share subplans (the outer spine feeds
        each inner query); across all three queries of a ``[[[.]]]``
        bundle no DAG node is evaluated twice.  Each execution owns its
        slots, so running the bundle twice evaluates every node exactly
        twice -- slots that leaked across executions would serve the
        second run from the first."""
        db = Connection(catalog=paper_dataset())
        q = feature_meanings_query(db)
        plans = [query.plan for query in db.compile(q).bundle.queries]
        assert len(plans) == 3
        distinct = {id(node) for plan in plans for node in postorder(plan)}
        assert sum(len(list(postorder(plan))) for plan in plans) > len(
            distinct), \
            "the bundle's queries must share nodes for this test to bite"

        counts = counted_steps(monkeypatch)
        result = db.run(q)
        assert any(any(inner for inner in outer) for outer in result)
        assert set(counts) == distinct
        assert set(counts.values()) == {1}

        assert db.run(q) == result
        assert set(counts) == distinct
        assert set(counts.values()) == {2}

    @pytest.mark.parametrize("program", [running_example_program,
                                         nested_orders_program],
                             ids=["running_example", "nested_orders"])
    def test_one_step_per_distinct_node_run_once_per_execution(
            self, program, monkeypatch):
        """A bundle lowers to exactly one step per distinct node of its
        plans, and an execution runs each step once: twice over two
        executions."""
        q, catalog = program()
        db = Connection(catalog=catalog)
        bundle = db.compile(q).bundle
        prepared = db.backend.prepare_bundle(bundle)
        plans = [query.plan for query in bundle.queries]
        assert len(prepared.steps) == len(list(postorder(*plans)))
        assert len(prepared.steps) < sum(
            len(list(postorder(plan))) for plan in plans), \
            "the bundle's queries must share nodes for this test to bite"

        counts = counted_steps(monkeypatch)
        result = db.run(q)
        assert len(counts) == len(prepared.steps)
        assert set(counts.values()) == {1}
        assert db.run(q) == result
        assert set(counts.values()) == {2}


class TestCatalogColumns:
    def test_transposes_only_the_tables_the_plans_read(
            self, paper_catalog, monkeypatch):
        paper_catalog.create_table("audit", [("who", str)], [("nobody",)])
        db = Connection(catalog=paper_catalog)
        q = running_example_query(db)
        want = db.run(q)  # cold: compile-time statistics read every table
        # one transposition per referenced table, none of the others ...
        assert sorted(paper_catalog._columns) == [
            "facilities", "features", "meanings"]
        kept = {t: dict(cols) for t, cols in paper_catalog._columns.items()}
        reads = []
        rows = paper_catalog.rows
        monkeypatch.setattr(paper_catalog, "rows",
                            lambda name: reads.append(name) or rows(name))
        assert db.run(q) == want
        # ... and none at all on a warm run: the scans share the columns
        assert reads == []
        for table, cols in paper_catalog._columns.items():
            assert all(cols[c] is kept[table][c] for c in cols)
