"""Order by the columns, not by their number: the positional scan, order
inlining and the order-only root ``pos``, differentially.

A wrong list order is the failure these rules could cause, and no census
would see it: every program below runs through the reference
interpreter, the engine, SQLite and the MIL VM, optimized and not
(``run_all_ways``), over tables built to make order matter -- duplicate
rows, ties, an empty table, and user columns that bear the position
column's own name.  The second half pins the plan shapes the rules are
for, by name.
"""

import pytest

from repro import (
    Connection,
    concat_map,
    drop,
    fmap,
    fsum,
    group_with,
    index,
    nub,
    number,
    sort_with,
    sort_with_desc,
    take,
    tup,
    zip_q,
)
from repro.algebra import (
    Project,
    RowNum,
    RowRank,
    TableScan,
    position_column,
    postorder,
)
from examples.workloads import paper_dataset, running_example_query
from repro.core.bundle import compile_exp
from repro.runtime import Catalog

from ..conftest import BACKENDS, e2e_workloads, run_all_ways

W = e2e_workloads()


def catalog() -> Catalog:
    cat = Catalog()
    # duplicate rows, and keys that tie
    cat.create_table("t", [("a", int), ("b", str)], [
        (2, "y"), (1, "x"), (3, "b"), (1, "x"), (2, "a"), (3, "b"),
        (2, "y")])
    cat.create_table("u", [("k", int), ("v", int)], [
        (1, 30), (1, 10), (2, 20), (2, 20), (3, 5), (4, 1)])
    cat.create_table("empty", [("n", int)], [])
    # user columns named like the position column
    cat.create_table("p", [("pos", int), ("val", str)], [
        (3, "c"), (1, "a"), (2, "b"), (1, "a")])
    cat.create_table("pp", [("pos", int), ("pos_", str)], [
        (2, "z"), (1, "y"), (2, "x")])
    return cat


def tables(*names):
    db = Connection(catalog=catalog())
    return [db.table(name) for name in names]


def pairs_of(t, u):
    """``[(b, v) | (a, b) <- t, (k, v) <- u, k == a]``: a join whose
    result order is (position in t, position in u)."""
    return concat_map(
        lambda r: u.filter(lambda s: s[0] == r[0]).map(
            lambda s: tup(r[1], s[1])), t)


PROGRAMS = {
    "scan_with_duplicate_rows": lambda: tables("t")[0],
    "map_over_duplicates": lambda: tables("t")[0].map(lambda r: r[1]),
    "number_a_table": lambda: number(tables("t")[0]),
    "sort_desc": lambda: sort_with_desc(lambda r: r[0], tables("t")[0]),
    "sort_with_ties_is_stable": lambda: sort_with(
        lambda r: r[0], tables("u")[0]),
    "sort_mixed_directions": lambda: sort_with(
        lambda r: r[1], sort_with_desc(lambda r: r[0], tables("t")[0])),
    "sort_desc_of_desc": lambda: sort_with_desc(
        lambda r: r[1], sort_with_desc(lambda r: r[0], tables("u")[0])),
    "join_order": lambda: pairs_of(*tables("t", "u")),
    "sort_over_concat_map": lambda: sort_with(
        lambda p: p[1], pairs_of(*tables("t", "u"))),
    "sort_desc_over_concat_map": lambda: sort_with_desc(
        lambda p: p[0], pairs_of(*tables("t", "u"))),
    "nub_root": lambda: nub(pairs_of(*tables("t", "u"))),
    "nub_of_a_table": lambda: nub(tables("t")[0]),
    "group_with_root": lambda: group_with(lambda r: r[0], tables("t")[0]),
    "group_with_then_nub": lambda: group_with(
        lambda r: r[0], tables("t")[0]).map(
            lambda g: nub(g.map(lambda r: r[1]))),
    "nested_joins_per_group": lambda: (lambda t, u: group_with(
        lambda r: r[0], t).map(lambda g: nub(concat_map(
            lambda r: u.filter(lambda s: s[0] == r[0]).map(
                lambda s: s[1]), g))))(*tables("t", "u")),
    "take_after_sort": lambda: take(3, sort_with_desc(
        lambda r: r[1], tables("u")[0])),
    "drop_after_sort": lambda: drop(2, sort_with(
        lambda p: p[1], pairs_of(*tables("t", "u")))),
    "index_after_sort": lambda: index(sort_with(
        lambda p: p[1], pairs_of(*tables("t", "u"))), 4),
    "zip_after_sort": lambda: (lambda t, u: zip_q(
        sort_with_desc(lambda r: r[0], t), pairs_of(t, u)))(
            *tables("t", "u")),
    "sort_an_empty_table": lambda: sort_with_desc(
        lambda n: n, tables("empty")[0]),
    "group_an_empty_table": lambda: group_with(
        lambda n: n % 2, tables("empty")[0]),
    "join_with_an_empty_table": lambda: (lambda t, e: concat_map(
        lambda r: e.filter(lambda n: n == r[0]), t))(*tables("t", "empty")),
    "user_column_named_pos": lambda: sort_with_desc(
        lambda r: r[0], tables("p")[0]),
    "user_columns_named_pos_and_pos_": lambda: (lambda p, pp: concat_map(
        lambda r: pp.filter(lambda s: s[0] == r[0]).map(
            lambda s: tup(r[1], s[1])), p))(*tables("p", "pp")),
}


@pytest.mark.parametrize("name", PROGRAMS)
def test_every_backend_agrees_with_the_interpreter(name):
    run_all_ways(PROGRAMS[name](), catalog())


def numberings(bundle):
    return [node for node in postorder(*(q.plan for q in bundle.queries))
            if isinstance(node, (RowNum, RowRank))]


def compiled(q, cat=None):
    db = Connection(catalog=cat or catalog())
    return db.compile(q)


class TestPositionalScan:
    def test_no_lifted_plan_numbers_a_scan(self):
        cat = W.make_catalog(W.paper_mix_tables(1, 42))
        scans = 0
        for program in W.CORPUS:
            raw = compile_exp(program.build(Connection(catalog=cat)).exp)
            for node in postorder(*(q.plan for q in raw.queries)):
                assert not (isinstance(node, (RowNum, RowRank))
                            and isinstance(node.child, TableScan)), (
                                program.name)
                if isinstance(node, TableScan):
                    scans += 1
                    assert node.pos is not None
        assert scans

    def test_no_corpus_statement_sorts_a_base_table(self):
        """No ``ROW_NUMBER() OVER (ORDER BY <every column of a table>)``:
        what a scan is numbered by is the stored position."""
        cat = W.make_catalog(W.paper_mix_tables(1, 42))
        for program in W.CORPUS:
            db = Connection(backend="sqlite", catalog=cat)
            bundle = db.compile(program.build(db)).bundle
            for node in postorder(*(q.plan for q in bundle.queries)):
                assert not (isinstance(node, (RowNum, RowRank))
                            and isinstance(node.child, TableScan)), (
                                program.name)
            scans = [n for n in postorder(*(q.plan for q in bundle.queries))
                     if isinstance(n, TableScan)]
            for sql in db.backend.describe_prepared(
                    db.backend.prepare_bundle(bundle)):
                for scan in scans:
                    every = ", ".join(f'"{out}" ASC'
                                      for out, _, _ in scan.columns)
                    assert f"ORDER BY {every})" not in sql, program.name

    def test_the_scan_drops_a_position_nobody_reads(self):
        [t] = tables("t")
        bundle = compiled(fsum(fmap(lambda r: r[0], t))).bundle
        [scan] = [n for n in postorder(bundle.queries[0].plan)
                  if isinstance(n, TableScan)]
        assert scan.pos is None and [src for _, src, _ in scan.columns] == [
            "a"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_the_position_column_steps_aside_for_user_columns(self, backend):
        assert position_column(["a", "b"]) == "pos"
        assert position_column(["pos", "val"]) == "pos_"
        assert position_column(["pos", "pos_"]) == "pos__"
        db = Connection(backend=backend, catalog=catalog())
        assert db.run(db.table("pp")) == [(1, "y"), (2, "x"), (2, "z")]
        assert db.run(db.table("p").map(lambda r: r[0])) == [1, 1, 2, 3]

    def test_sqlite_scans_the_stored_position(self):
        db = Connection(backend="sqlite", catalog=catalog())
        bundle = db.compile(db.table("pp")).bundle
        [sql] = db.backend.describe_prepared(
            db.backend.prepare_bundle(bundle))
        assert '"pos__" AS' in sql and "ROW_NUMBER" not in sql
        assert db.run(db.table("pp")) == [(1, "y"), (2, "x"), (2, "z")]
        [(ddl,)] = db.backend._conn.execute(
            "SELECT sql FROM sqlite_master WHERE name = 'pp'")
        assert '"pos__" INTEGER PRIMARY KEY' in ddl


class TestOrderInlining:
    def test_the_running_example_sorts_once_by_columns(self):
        db = Connection(catalog=paper_dataset())
        c = db.compile(running_example_query(db))
        left = numberings(c.bundle)
        assert len(left) == 3
        # Q2: one sort on (position in the group, position in meanings,
        # position in features) where four numberings fed each other
        [q2] = [n for n in postorder(c.bundle.queries[1].plan)
                if isinstance(n, RowNum)
                and n not in list(postorder(c.bundle.queries[0].plan))]
        assert len(q2.order) == 3 and q2.part
        assert c.pass_stats.rewrites_fired["order_inline"] == 3
        # ... and its root pos is the least of those numbers, not their
        # renumbering
        assert c.pass_stats.rewrites_fired["pos_order"] == 1
        assert isinstance(c.bundle.queries[1].plan, Project)
        assert not isinstance(c.bundle.queries[1].plan.child, RowNum)

    def test_desc_flips_the_inlined_directions(self):
        t, u = tables("t", "u")
        c = compiled(sort_with_desc(lambda p: p[0], pairs_of(t, u)))
        assert c.pass_stats.rewrites_fired.get("order_inline", 0) >= 1
        [num] = numberings(c.bundle)
        assert [d for _, d in num.order].count("desc") == 1

    @pytest.mark.parametrize("name", [
        "take_after_sort", "drop_after_sort", "index_after_sort",
        "zip_after_sort"])
    def test_a_number_read_by_position_stays(self, name):
        """``take`` / ``drop`` / ``!!`` / ``zip`` compare ``pos`` with a
        value: the numbering that makes it is read, and stays."""
        c = compiled(PROGRAMS[name]())
        assert any(isinstance(n, RowNum) for n in numberings(c.bundle))
        assert c.pass_stats.rewrites_gated == {}

    def test_a_number_the_root_reads_through_a_shared_node_stays(self):
        """Nested orders numbers each customer's orders (``pos`` of Q3)
        and orders their surrogates by that number; the surrogates have
        three consumers, so the columns cannot be handed up past them
        (they would be numbered twice), Q3 goes on reading the number
        and the numbering stays: 5, not 4."""
        cat = W.make_catalog(W.paper_mix_tables(1, 42))
        program = next(p for p in W.CORPUS if p.name == "nested_orders")
        db = Connection(catalog=cat)
        c = db.compile(program.build(db))
        assert len(numberings(c.bundle)) == 5
        assert "pos_order" not in c.pass_stats.rewrites_fired
        assert c.pass_stats.rewrites_gated == {}
