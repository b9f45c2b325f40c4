"""Unit tests of the row-bounds fold (``repro.analysis.cost``).

Pins: the per-operator bounds on hand-built plans (the same rule
property inference uses, seeded with exact table sizes), widths, the
memo over shared nodes, and the bundle stamp.
"""

from repro.algebra import (
    Cross,
    Distinct,
    EqJoin,
    GroupAggr,
    LitTable,
    Project,
    Select,
    SemiJoin,
    TableScan,
    UnionAll,
)
from repro.analysis import PlanStore
from repro.analysis.cost import Bounds, RowBounds, estimate_bundle
from repro.frontend import tup
from repro.ftypes import BoolT, IntT
from repro.runtime import Catalog, Connection


def lit(n, *cols):
    cols = cols or (("i", IntT), ("v", IntT))
    return LitTable(tuple((r,) * len(cols) for r in range(n)), tuple(cols))


def bounds(plan, table_rows=None):
    b = RowBounds(table_rows).of(plan)
    return b.lo, b.hi


class TestRowEstimates:
    def test_littable_is_exact(self):
        assert bounds(lit(7)) == (7, 7)

    def test_tablescan_without_stats_is_unbounded(self):
        scan = TableScan("t", (("c1", "a", IntT),))
        assert bounds(scan) == (0, None)
        # statistics that do not name the table are no statistics
        assert bounds(scan, {"u": 3}) == (0, None)

    def test_tablescan_with_stats_is_exact(self):
        scan = TableScan("t", (("c1", "a", IntT),))
        assert bounds(scan, {"t": 42}) == (42, 42)
        assert bounds(scan, {"t": 0}) == (0, 0)

    def test_cross_multiplies(self):
        assert bounds(Cross(lit(3), lit(5, ("w", IntT)))) == (15, 15)

    def test_key_join_does_not_multiply(self):
        # right side {0..4} is key on j: each left row matches <= once
        right = LitTable(tuple((r, r) for r in range(5)),
                         (("j", IntT), ("w", IntT)))
        assert bounds(EqJoin(lit(3), right, (("i", "j"),))) == (0, 3)
        # ... and a key on the left bounds by the right side
        dup = LitTable(((1,), (1,)), (("i", IntT),))
        assert bounds(EqJoin(right, dup, (("j", "i"),))) == (0, 2)

    def test_an_empty_keyed_side_leaves_no_row(self):
        # the empty right side is keyed on j (it has no two rows), so
        # the key rule applies -- and the product still bounds it
        empty = LitTable((), (("j", IntT), ("w", IntT)))
        assert bounds(EqJoin(lit(3), empty, (("i", "j"),))) == (0, 0)
        dup = LitTable(((1,), (1,)), (("i", IntT),))
        assert bounds(EqJoin(empty, dup, (("j", "i"),))) == (0, 0)

    def test_keyless_join_is_bounded_by_the_product(self):
        dup = LitTable(((1,), (1,)), (("j", IntT),))
        left = LitTable(((1,), (1,), (1,)), (("i", IntT),))
        assert bounds(EqJoin(left, dup, (("i", "j"),))) == (0, 6)

    def test_select_filters_and_union_adds(self):
        rows = LitTable(((1, True), (2, False), (3, True)),
                        (("i", IntT), ("b", BoolT)))
        assert bounds(Select(rows, "b")) == (0, 3)
        # a column that is constantly true filters nothing
        true = LitTable(((1, True), (2, True)),
                        (("i", IntT), ("b", BoolT)))
        assert bounds(Select(true, "b")) == (2, 2)
        assert bounds(UnionAll(lit(3), lit(4))) == (7, 7)

    def test_semijoin_never_exceeds_left(self):
        semi = SemiJoin(lit(6), lit(2, ("j", IntT)), (("i", "j"),))
        assert bounds(semi) == (0, 6)

    def test_global_aggregate_is_one_row(self):
        agg = GroupAggr(lit(9), (), (("count", None, "n"),))
        assert bounds(agg) == (1, 1)
        grouped = GroupAggr(lit(9), ("v",), (("count", None, "n"),))
        assert bounds(grouped) == (1, 9)

    def test_distinct_bounded_by_child(self):
        assert bounds(Distinct(lit(10))) == (1, 10)
        assert bounds(Distinct(lit(0))) == (0, 0)

    def test_width_follows_schema(self):
        assert RowBounds().of(Project(lit(4), (("a", "i"),))).width == 1
        assert RowBounds().of(Cross(lit(3), lit(5, ("w", IntT)))).width == 3

    def test_inferred_card_tightens_the_bounds(self):
        # The join rule alone says 0..2 (k keys the right side).  But
        # i keys the left side and the join makes it the constant 7,
        # which leaves the empty key: inference knows "at most one
        # row", and the fold intersects with it.
        one = LitTable(((7,),), (("k", IntT),))
        assert bounds(EqJoin(lit(2), one, (("i", "k"),))) == (0, 1)

    def test_a_carried_fact_says_nothing_about_the_nodes_below(self):
        # The optimizer carries Props from a node to its rewrite without
        # analysing what the rewrite is built on (found by the
        # differential suite: `and (map f (append [] []))`).
        store = PlanStore()
        old = Project(lit(3), (("a", "i"),))
        store.infer(old)
        new = Project(Project(lit(3), (("i", "i"), ("v", "v"))),
                      (("a", "i"),))
        store.carry(old, new)
        assert new in store.props and new.child not in store.props
        assert RowBounds(store=store).of(new) == Bounds(3, 3, 1)

    def test_shared_nodes_are_bounded_once(self):
        base = lit(8)
        pa, pb = Project(base, (("a", "i"),)), Project(base, (("b", "v"),))
        shared = Cross(pa, pb)
        fold = RowBounds()
        assert fold.of(shared) == Bounds(64, 64, 2)
        assert set(fold.memo) == {base, pa, pb, shared}
        assert fold.of(pa) is fold.memo[pa]


class TestBundleCost:
    def test_estimate_bundle_sums_queries(self):
        db = Connection(catalog=Catalog())
        db.create_table("t", [("a", int)], [(1,), (2,)])
        db.create_table("u", [("a", int), ("b", int)],
                        [(1, 10), (1, 11), (2, 12)])
        t, u = db.table("t"), db.table("u")
        nested = t.map(lambda a: tup(a, u.filter(lambda r: r[0] == a)))
        bundle = db.compile(nested).bundle
        cost = estimate_bundle(bundle, backend="engine",
                               table_rows={"t": 2, "u": 3})
        assert cost.backend == "engine" and len(cost.queries) == 2
        assert all(isinstance(q, Bounds) for q in cost.queries)
        assert cost.est_rows == sum(q.hi for q in cost.queries)
        assert cost.to_dict()["queries"][0] == {
            "rows_lo": 2, "rows_hi": 2, "width": 4}  # iter, pos, a, surrogate
        # the backend is a label: the bounds are the same everywhere
        assert estimate_bundle(bundle, "sqlite", {"t": 2, "u": 3}
                               ).queries == cost.queries
        # without the tables' sizes the bound is open, not a guess
        assert estimate_bundle(bundle).est_rows == float("inf")

    def test_compile_stamps_bundle_cost(self):
        db = Connection(catalog=Catalog())
        db.create_table("t", [("a", int)], [(1,), (2,)])
        compiled = db.compile(db.table("t"))
        assert compiled.bundle.cost is not None
        assert compiled.bundle.cost.est_rows == 2
