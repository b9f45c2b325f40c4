"""Optimizer rewrites: each family in isolation, plus pipeline soundness."""

import pytest

from repro import Connection, ffilter, fmap, fsum, group_with, length, table, tup
from repro.algebra import (
    Attach,
    BinApp,
    Const,
    Cross,
    EqJoin,
    LitTable,
    Project,
    RowNum,
    RowRank,
    Select,
    UnionAll,
    contains,
    node_count,
    postorder,
    schema_of,
)
from repro.analysis import PlanStore, check_plan
from repro.backends.engine.evaluate import Engine
from examples.workloads import (
    paper_dataset,
    raw_bundle,
    run_raw,
    running_example_query,
)
from repro.ftypes import IntT
from repro.runtime import Catalog
from repro.optimizer import PassStats
from repro.optimizer.pipeline import _optimize
from repro.optimizer.rewrites import prune_unneeded_columns, simplify


def optimize_plan(plan):
    """The pipeline over a bundle of one plan."""
    [out] = _optimize([plan], PlanStore(), PassStats())
    return out


def eliminate_common_subexpressions(plan):
    """CSE is construction: interning a plan shares its equal subplans."""
    return PlanStore().intern(plan)


def prune(plan):
    [out] = prune_unneeded_columns([plan])
    return out


def simplified(plan):
    [out] = simplify([plan])
    return out


#: constant folding and projection merging are rules of the one sweep
fold_constants = merge_projections = simplified


def leaf(*names):
    cols = tuple((n, IntT) for n in names)
    return LitTable(((1,) * len(names),), cols)


class TestCSE:
    def test_identical_projects_shared(self):
        base = leaf("a")
        p1 = Project(base, (("b", "a"),))
        p2 = Project(base, (("b", "a"),))
        u = UnionAll(p1, p2)
        out = eliminate_common_subexpressions(u)
        assert out.left is out.right
        assert node_count(out) == 3  # union + shared project + shared leaf

    def test_distinct_params_not_shared(self):
        base = leaf("a")
        u = UnionAll(Project(base, (("b", "a"),)),
                     Project(base, (("c", "a"),)))
        out = eliminate_common_subexpressions(u)
        assert out.left is not out.right  # different renames stay distinct


class TestConstFold:
    def test_binapp_over_two_consts(self):
        plan = BinApp(leaf("a"), "add", Const(2, IntT), Const(3, IntT), "c")
        out = fold_constants(plan)
        assert isinstance(out, Attach)
        assert out.value == 5

    def test_comparison_folds_to_bool(self):
        plan = BinApp(leaf("a"), "lt", Const(2, IntT), Const(3, IntT), "c")
        out = fold_constants(plan)
        assert out.value is True

    #: two rows, so that ``a`` is no constant
    ROWS = LitTable(((1,), (2,)), (("a", IntT),))

    def test_reads_through_attach(self):
        plan = BinApp(Attach(self.ROWS, "k", 7, IntT), "add", "k", "a", "c")
        out = fold_constants(plan)
        assert isinstance(out, BinApp) and out.rhs == "a"
        assert isinstance(out.lhs, Const) and out.lhs.value == 7

    def test_reads_through_project(self):
        renamed = Project(Attach(self.ROWS, "k", 7, IntT),
                          (("j", "k"), ("a", "a")))
        out = fold_constants(BinApp(renamed, "add", "a", "j", "c"))
        assert isinstance(out, BinApp) and out.lhs == "a"
        assert isinstance(out.rhs, Const) and out.rhs.value == 7

    def test_division_by_zero_not_folded(self):
        plan = BinApp(leaf("a"), "idiv", Const(1, IntT), Const(0, IntT), "c")
        out = fold_constants(plan)
        assert isinstance(out, BinApp)  # stays a runtime error

    def test_select_true_removed(self):
        from repro.ftypes import BoolT
        plan = Select(Attach(leaf("a"), "t", True, BoolT), "t")
        out = fold_constants(plan)
        assert isinstance(out, Attach)


class TestIcols:
    def test_prunes_dead_attach(self):
        plan = Project(Attach(leaf("a"), "junk", 1, IntT), (("out", "a"),))
        out = prune(plan)
        assert node_count(out) == 2  # Attach gone

    def test_prunes_littable_columns(self):
        wide = LitTable(((1, 2, 3),),
                        (("a", IntT), ("b", IntT), ("c", IntT)))
        plan = Project(wide, (("out", "b"),))
        out = prune(plan)
        assert list(schema_of(out.child)) == ["b"]

    def test_distinct_blocks_pruning(self):
        from repro.algebra import Distinct
        wide = LitTable(((1, 2), (1, 3)), (("a", IntT), ("b", IntT)))
        plan = Project(Distinct(wide), (("out", "a"),))
        out = prune(plan)
        # pruning "b" below Distinct would merge the two rows
        assert list(schema_of(out.child.child)) == ["a", "b"]
        check_plan(out)

    def test_union_children_realigned(self):
        wide = leaf("a", "b")
        u = UnionAll(wide, leaf("a", "b"))
        plan = Project(u, (("out", "a"),))
        out = prune(plan)
        check_plan(out)

    def test_never_empties_a_relation(self):
        # a semijoin's right side is demanded only for its join column;
        # pruning must keep the relation's cardinality intact
        from repro.algebra import SemiJoin
        plan = SemiJoin(leaf("a"), Project(leaf("b", "c"), (("b", "b"),)),
                        (("a", "b"),))
        out = prune(plan)
        check_plan(out)
        assert len(schema_of(out)) >= 1

    @pytest.mark.parametrize("backend", ["engine", "sqlite"])
    def test_a_scan_left_with_its_position_keeps_it(self, backend):
        # one sweep narrows the inner scan to its pos, the next demands
        # nothing of it: the pos stays, so the length stays right
        catalog = Catalog()
        catalog.create_table("t", [("a", int)], [(1,), (2,)])
        t = table("t", [("a", int)])
        q = fmap(lambda r: length(fmap(lambda x: 0, t)), t)
        assert Connection(backend=backend, catalog=catalog).run(q) == [2, 2]


class TestProjMerge:
    def test_composes_chains(self):
        base = leaf("a")
        plan = Project(Project(base, (("b", "a"),)), (("c", "b"),))
        out = merge_projections(plan)
        assert isinstance(out, Project)
        assert out.cols == (("c", "a"),)
        assert out.child is base

    def test_identity_projection_removed(self):
        base = leaf("a", "b")
        plan = Project(base, (("a", "a"), ("b", "b")))
        assert merge_projections(plan) is base

    def test_reordering_projection_kept(self):
        base = leaf("a", "b")
        plan = Project(base, (("b", "b"), ("a", "a")))
        assert isinstance(merge_projections(plan), Project)


def rows_of(plan) -> list:
    """The plan's rows on the engine, columns by name, as a sorted bag."""
    rel = Engine(Catalog()).execute(plan)
    order = sorted(range(len(rel.cols)), key=lambda i: rel.cols[i])
    return sorted(tuple(row[i] for i in order) for row in rel.rows)


class TestSelfJoinElim:
    """``EqJoin(d, Project(b))`` on a key of ``b`` that ``d`` descends
    from: the join goes, ``d`` carries the columns it fetched."""

    #: a numbered relation: k is its key, p a payload column
    BASE = RowNum(LitTable(((10, 7), (20, 8), (30, 7), (40, 9)),
                           (("v", IntT), ("p", IntT))),
                  "k", (("v", "asc"),))

    def derived(self, base=None):
        """``d``: rows of the base filtered, repeated and renamed."""
        base = self.BASE if base is None else base
        twice = Cross(Project(base, (("dk", "k"), ("dv", "v"))),
                      LitTable(((1,), (2,)), (("n", IntT),)))
        flagged = BinApp(twice, "gt", "dv", Const(10, IntT), "f")
        return Project(Select(flagged, "f"), (("j", "dk"), ("n", "n")))

    def anchor(self):
        return Project(self.BASE, (("ak", "k"), ("ap", "p"), ("ak2", "k")))

    def rewritten(self, plan):
        fired: dict = {}
        [out] = simplify([plan], fired=fired)
        assert rows_of(out) == rows_of(plan)
        assert list(schema_of(out)) == list(schema_of(plan))
        return out, fired

    def joins(self, plan):
        return [n for n in postorder(plan) if isinstance(n, EqJoin)]

    @pytest.mark.parametrize("anchor_first", [False, True])
    def test_the_join_goes_and_its_columns_are_carried(self, anchor_first):
        sides = (self.derived(), self.anchor())
        pair = (("j", "ak"),)
        if anchor_first:
            sides, pair = sides[::-1], (("ak", "j"),)
        out, fired = self.rewritten(EqJoin(*sides, pair))
        assert fired == {"selfjoin_elim": 1}
        assert not self.joins(out)
        assert len(rows_of(out)) == 6  # three base rows pass, twice each

    def test_the_classic_self_join_is_the_shortest_path(self):
        plan = EqJoin(Project(self.BASE, (("a", "k"), ("av", "v"))),
                      Project(self.BASE, (("b", "k"), ("bp", "p"))),
                      (("a", "b"),))
        out, fired = self.rewritten(plan)
        assert fired == {"selfjoin_elim": 1}
        assert isinstance(out, Project) and out.child is not None
        assert not self.joins(out)

    def test_a_join_on_a_non_key_stays(self):
        # p is no key of the base: rows meet foreign partners
        plan = EqJoin(Project(self.BASE, (("a", "p"),)),
                      Project(self.BASE, (("b", "p"), ("bv", "v"))),
                      (("a", "b"),))
        out, fired = self.rewritten(plan)
        assert not fired and len(self.joins(out)) == 1
        assert len(rows_of(out)) == 6  # 2 x 2 + 1 + 1

    def test_a_column_computed_on_the_way_is_not_the_bases(self):
        renumbered = RowNum(Project(self.BASE, (("dv", "v"),)),
                            "j", (("dv", "desc"),))
        plan = EqJoin(renumbered, self.anchor(), (("j", "ak"),))
        out, fired = self.rewritten(plan)
        assert not fired and len(self.joins(out)) == 1

    def test_a_path_somebody_else_reads_is_not_widened(self):
        derived = self.derived()
        plan = UnionAll(
            Project(EqJoin(derived, self.anchor(), (("j", "ak"),)),
                    (("x", "ap"),)),
            Project(derived, (("x", "n"),)))
        out, fired = self.rewritten(plan)
        # widening `derived` for the join would compute it twice (the
        # number k, which only the join reads, may become the key v)
        assert "selfjoin_elim" not in fired and len(self.joins(out)) == 1


class TestNumberingRules:
    def test_unit_cross_becomes_attach(self):
        unit = LitTable(((1,),), (("i", IntT),))
        table = LitTable(((5,), (6,)), (("v", IntT),))
        fired: dict = {}
        for plan in (Project(Cross(unit, table), (("v", "v"), ("i", "i"))),
                     Project(Cross(table, unit), (("i", "i"), ("v", "v")))):
            [out] = simplify([plan], fired=fired)
            assert rows_of(out) == rows_of(plan)
            assert not contains(out, lambda n: isinstance(n, Cross))
            assert contains(out, lambda n: isinstance(n, Attach))
        assert fired == {"unit_cross": 2}

    def test_a_product_of_two_relations_stays(self):
        two = LitTable(((1,), (2,)), (("i", IntT),))
        other = LitTable(((5,), (6,)), (("v", IntT),))
        plan = Project(Cross(two, other), (("v", "v"),))
        fired: dict = {}
        simplify([plan], fired=fired)
        assert not fired

    def test_group_with_numbers_its_groups_once(self):
        # RowRank -> Project -> Distinct -> RowNum over the same order:
        # the lifter's group_with spine
        db = Connection(catalog=paper_dataset())
        q = group_with(lambda r: r[0], db.table("features"))
        compiled = db.compile(q)
        assert compiled.pass_stats.rewrites_fired["rownum_rank"] == 1
        [rank] = [n for n in postorder(*(query.plan for query
                                         in compiled.bundle.queries))
                  if isinstance(n, RowRank)]
        numberings = [n for n in postorder(
            *(query.plan for query in compiled.bundle.queries))
            if isinstance(n, RowNum) and not n.part
            and {c for c, _ in n.order} <= {c for c, _ in rank.order}]
        assert not numberings
        assert db.run(q) == run_raw(q, db.catalog)


class TestOrderByColumns:
    """``order_inline`` / ``pos_order`` on hand-built plans: what a
    number ranks replaces the number, where -- and only where -- the
    reader compares rows of one partition of its numbering."""

    #: v tells rows apart; (g, w) does not
    ROWS = LitTable(((1, 30, 5), (1, 10, 6), (1, 20, 5), (2, 25, 5),
                     (2, 15, 7), (3, 12, 5)),
                    (("g", IntT), ("v", IntT), ("w", IntT)))
    INNER = RowNum(ROWS, "n", (("v", "desc"),), ("g",))

    def outer(self, order, part=(), inner=None, keep=("m", "w")):
        """``m``: a second numbering, of the rows of ``inner`` a filter
        leaves (so that its ``n`` is no longer dense)."""
        flagged = BinApp(inner or self.INNER, "gt", "v", Const(10, IntT), "f")
        below = Project(Select(flagged, "f"),
                        (("g", "g"), ("n", "n"), ("w", "w")))
        return Project(RowNum(below, "m", order, part),
                       tuple((c, c) for c in keep))

    def optimized(self, plan, serial=(), same_rows=True):
        stats = PassStats()
        [out] = _optimize([plan], PlanStore(), stats, serial)
        assert not same_rows or rows_of(out) == rows_of(plan)
        return out, stats.rewrites_fired

    def numberings(self, plan):
        return [n for n in postorder(plan) if isinstance(n, RowNum)]

    def test_the_number_gives_way_to_what_it_ranks(self):
        out, fired = self.optimized(
            self.outer((("g", "desc"), ("n", "desc"))))
        assert fired == {"order_inline": 1}
        [num] = self.numberings(out)
        # desc of a desc rank: the inlined column turns around
        assert num.order == (("g", "desc"), ("v", "asc"))

    def test_the_partition_may_fix_it_as_well(self):
        out, fired = self.optimized(self.outer((("n", "asc"),), ("g",)))
        assert fired == {"order_inline": 1}
        [num] = self.numberings(out)
        assert num.order == (("v", "desc"),) and num.part == ("g",)

    def test_rows_of_different_partitions_compare_by_the_number(self):
        # m orders all rows by n: 1st of group 1, 1st of group 2, ...
        out, fired = self.optimized(self.outer((("n", "asc"), ("w", "asc"))))
        assert not fired and len(self.numberings(out)) == 2

    def test_a_number_somebody_reads_stays(self):
        out, fired = self.optimized(
            self.outer((("g", "asc"), ("n", "asc")), keep=("m", "n")))
        assert not fired and len(self.numberings(out)) == 2

    def test_a_number_that_breaks_ties_ranks_nothing(self):
        tied = RowNum(self.ROWS, "n", (("w", "asc"),), ("g",))
        out, fired = self.optimized(
            self.outer((("g", "asc"), ("n", "asc")), inner=tied))
        assert not fired and len(self.numberings(out)) == 2

    def test_a_root_pos_is_an_order_not_a_count(self):
        # pos renumbers, per iter g, the rows a filter leaves of a list
        # whose positions d a literal holds
        listed = LitTable(((1, 1, 5), (1, 2, 6), (1, 3, 5), (2, 4, 5),
                           (2, 5, 7), (3, 6, 5)),
                          (("g", IntT), ("d", IntT), ("w", IntT)))
        flagged = BinApp(listed, "gt", "w", Const(5, IntT), "f")
        pos = RowNum(Select(flagged, "f"), "p", (("d", "asc"),), ("g",))
        root = Project(pos, (("g", "g"), ("p", "p"), ("w", "w")))
        out, fired = self.optimized(root, serial=[("g", "p")],
                                    same_rows=False)
        assert fired == {"pos_order": 1}
        assert not self.numberings(out) and dict(out.cols)["p"] == "d"
        # the same rows in the same (iter, pos) order; pos has gaps now
        by_pos = [[(g, w) for g, _, w in sorted(rows_of(plan))]
                  for plan in (root, out)]
        assert by_pos[0] == by_pos[1] == [(1, 6), (2, 7)]
        # ... for the reader of a bundle query only
        out, fired = self.optimized(root)
        assert not fired and len(self.numberings(out)) == 1

    def test_a_pos_without_lineage_keeps_its_numbering(self):
        pos = RowNum(self.ROWS, "p", (("v", "asc"),), ("g",))
        root = Project(pos, (("g", "g"), ("p", "p"), ("w", "w")))
        out, fired = self.optimized(root, serial=[("g", "p")])
        assert not fired and len(self.numberings(out)) == 1


class TestPipeline:
    def test_shrinks_running_example(self):
        db = Connection(catalog=paper_dataset())
        for query in raw_bundle(running_example_query(db)).queries:
            optimized = optimize_plan(query.plan)
            assert node_count(optimized) < node_count(query.plan)
            check_plan(optimized)

    @pytest.mark.parametrize("mk", [
        lambda t: fmap(lambda x: x * 2 + 1, t),
        lambda t: ffilter(lambda x: (x > 1) & (x < 5), t),
        lambda t: group_with(lambda x: x % 2, t),
        lambda t: fmap(lambda x: tup(x, fsum(t)), t),
    ])
    def test_optimizer_preserves_results(self, mk):
        db = Connection()
        db.create_table("t", [("n", int)], [(i,) for i in range(8)])
        q = mk(db.table("t"))
        assert run_raw(q, db.catalog) == db.run(q)
