"""Surrogates are keys: ``surrogate_key`` and the keyed SQL steps.

A number that only links rows -- a nested list's surrogate, a query's
``iter``, a group or join key against the same numbering -- is compared
for equality and nothing else, so any ``Int`` key of the numbered rows
(usually a scan's position) serves in its place.  The first half runs
the programs the rule is for on every executor, over tables built to
break a rule that took the wrong column for a key: a customer id held
by two customers, line items stored out of order-id order, customers
without orders and orders without line items.  The second half pins,
on hand-built plans, which readers leave a number a surrogate and which
keep it.
"""

import pytest

from repro import (
    Connection,
    concat_map,
    drop,
    group_with,
    head,
    index,
    number,
    sort_with,
    take,
    the,
    tup,
    zip_q,
)
from repro.algebra import (
    Attach,
    BinApp,
    Const,
    EqJoin,
    GroupAggr,
    LitTable,
    Project,
    RowNum,
    RowRank,
    TableScan,
    bundle_text,
    postorder,
    schema_of,
)
from repro.analysis import PlanStore
from repro.ftypes import IntT
from repro.optimizer.pipeline import PassStats, _optimize

from ..conftest import e2e_workloads, run_all_ways

W = e2e_workloads()
NESTED_ORDERS = next(p for p in W.CORPUS if p.name == "nested_orders")


def catalog():
    """Customer id 7 twice (ids are no key), line items (stored in
    ``(line, oid, price)`` order) out of order-id order, customer 5
    without orders, order 104 without line items."""
    return W.make_catalog({
        "customers": ([("cid", int), ("name", str), ("region", str)], [
            (7, "g", "EU"), (2, "b", "US"), (7, "h", "US"), (5, "e", "EU"),
            (1, "a", "EU")]),
        "orders": ([("oid", int), ("cid", int), ("month", int)], [
            (103, 7, 3), (101, 2, 1), (104, 1, 2), (102, 7, 1),
            (105, 2, 5)]),
        "lineitems": ([("oid", int), ("line", int), ("price", float)], [
            (102, 1, 5.5), (101, 2, 1.25), (103, 1, 2.0), (101, 1, 4.0),
            (105, 1, 8.0), (102, 2, 0.5)]),
    })


def compiled(q, cat=None):
    db = Connection(catalog=cat or catalog())
    return db.compile(q)


def nested_orders():
    db = Connection(catalog=catalog())
    return NESTED_ORDERS.build(db)


def origin(node, col):
    """The operator that computes column ``col`` of ``node`` -- or, for a
    scan's column, ``(scan, source column)``."""
    while True:
        if isinstance(node, Project):
            node, col = node.child, dict(node.cols)[col]
        elif isinstance(node, TableScan):
            return node, dict((out, src) for out, src, _ in node.outputs)[col]
        elif col in (getattr(node, "col", None), getattr(node, "out", None)):
            return node
        elif isinstance(node, GroupAggr) and col not in node.group:
            return node
        else:
            node = next(c for c in node.children if col in schema_of(c))


def numberings(bundle):
    return [n for n in postorder(*(q.plan for q in bundle.queries))
            if isinstance(n, (RowNum, RowRank))]


class TestNestedOrders:
    def test_every_executor_agrees_with_the_interpreter(self):
        value = run_all_ways(nested_orders(), catalog())
        eu = dict(value)["EU"]
        # both customers 7 see both of customer 7's orders
        assert [totals for name, totals in eu if name == "g"] == [[6.0, 2.0]]
        assert dict(dict(value)["US"])["h"] == [6.0, 2.0]
        assert dict(eu)["e"] == []  # no orders
        assert dict(eu)["a"] == [0.0]  # an order without line items

    def test_the_customers_surrogate_is_their_position(self):
        """Q2's nested-list surrogate and Q3's ``iter`` (``c54`` at the
        parent commit, a row number of the customers) are the customers'
        stored position now, and Q3's ``pos`` the orders'."""
        c = compiled(nested_orders())
        assert c.pass_stats.rewrites_fired["surrogate_key"] >= 1
        assert c.pass_stats.rewrites_gated == {}
        _, q2, q3 = c.bundle.queries
        customers = origin(q2.plan, q2.item_cols[1])
        assert customers == origin(q3.plan, q3.iter_col)
        assert customers[0].table == "customers"
        assert customers[1] == "pos"
        assert origin(q3.plan, q3.pos_col)[0].table == "orders"

    def test_three_numberings_are_left_of_five(self):
        """The region rank, the customers' positions within a region
        (``the`` reads it) and the surrogate of an order *of a customer*
        (``c96``): an order of customer 7 belongs to two customers, so
        no one column tells these rows apart and the number stays."""
        c = compiled(nested_orders())
        kinds = sorted((type(n).__name__, bool(getattr(n, "part", ())))
                       for n in numberings(c.bundle))
        assert kinds == [("RowNum", False), ("RowNum", True),
                         ("RowRank", False)]
        [surrogate] = [n for n in numberings(c.bundle)
                       if isinstance(n, RowNum) and not n.part]
        # ordered by the two positions it pairs, not by a number
        assert all(isinstance(origin(surrogate.child, col), tuple)
                   for col, _ in surrogate.order)

    def test_the_plan_does_not_depend_on_the_data(self):
        db = Connection(catalog=W.make_catalog(W.orders_tables(40, 3)))
        ours = compiled(nested_orders()).bundle
        theirs = db.compile(NESTED_ORDERS.build(db)).bundle
        assert bundle_text(ours) == bundle_text(theirs)


def tables(*names):
    db = Connection(catalog=catalog())
    return [db.table(name) for name in names]


#: programs whose numbers are read for more than equality
KEPT = {
    "zip_of_two_numbered_lists": lambda: (lambda c, o: zip_q(
        number(sort_with(lambda r: r[1], c)),
        number(sort_with(lambda r: r[0], o))))(
            *tables("customers", "orders")),
    "take_after_sort": lambda: take(2, sort_with(
        lambda r: r[2], tables("orders")[0])),
    "drop_after_sort": lambda: drop(3, sort_with(
        lambda r: r[1], tables("lineitems")[0])),
    "index_after_sort": lambda: index(sort_with(
        lambda r: r[1], tables("customers")[0]), 2),
    "the_of_a_group": lambda: group_with(
        lambda r: r[2], tables("customers")[0]).map(
            lambda g: tup(the(g.map(lambda r: r[2])), head(g))),
    "head_of_a_group_of_pairs": lambda: (lambda c, o: group_with(
        lambda p: p[0], concat_map(lambda r: o.filter(
            lambda s: s[1] == r[0]).map(lambda s: tup(r[2], s[0])), c)).map(
                head))(*tables("customers", "orders")),
}


@pytest.mark.parametrize("name", KEPT)
def test_a_number_read_for_more_than_equality_stays(name):
    run_all_ways(KEPT[name](), catalog())
    c = compiled(KEPT[name]())
    assert any(isinstance(n, RowNum) for n in numberings(c.bundle))
    assert c.pass_stats.rewrites_gated == {}


class TestReaders:
    """Which readers leave the number ``k`` of the rows of a literal
    (``v`` is a key of them) a surrogate.  The plans are a bundle of
    two: an outer query that hands out ``k`` as a nested list's
    surrogate ``s``, and the inner query, whose ``iter`` the stitcher
    matches with it."""

    ROWS = LitTable(((30, 1), (10, 2), (20, 1)), (("v", IntT), ("p", IntT)))
    NUMBERED = RowNum(ROWS, "k", (("p", "asc"), ("v", "asc")))
    OUTER = Project(Attach(NUMBERED, "one", 1, IntT),
                    (("o", "one"), ("q", "v"), ("s", "k")))

    def optimized(self, inner, iter_col="k", item="v", pos="p"):
        root = Project(inner, (("i", iter_col), ("pos", pos), ("x", item)))
        stats = PassStats()
        outer, inner = _optimize(
            [self.OUTER, root], PlanStore(), stats,
            [("o", "q"), ("i", "pos")],
            [{"s": ((1, "i"),)}, {"i": ((0, "s"),)}])
        fired = stats.rewrites_fired.get("surrogate_key", 0)
        left = [n for n in postorder(outer, inner)
                if isinstance(n, RowNum) and n.col == "k"]
        assert bool(fired) != bool(left)
        return fired

    def test_the_stitcher_matches_it_for_equality(self):
        assert self.optimized(self.NUMBERED)

    def test_an_item_the_stitcher_hands_out_keeps_it(self):
        assert not self.optimized(self.NUMBERED, item="k")

    def test_a_pos_keeps_it(self):
        assert not self.optimized(self.NUMBERED, pos="k")

    def test_a_match_with_another_numbering_keeps_it(self):
        # the same numbers, from another node: each end must stay as is
        twin = RowNum(self.ROWS, "k2", (("p", "asc"), ("v", "asc")))
        assert not self.optimized(twin, iter_col="k2")

    def test_a_comparison_keeps_it(self):
        first = BinApp(self.NUMBERED, "eq", "k", Const(1, IntT), "f")
        assert not self.optimized(first, item="f")

    def test_an_aggregate_keeps_it(self):
        least = GroupAggr(self.NUMBERED, ("k",), (("min", "k", "m"),
                                                  ("max", "v", "v"),
                                                  ("max", "p", "p")))
        assert not self.optimized(least, item="m")

    def test_a_group_key_is_equality(self):
        groups = GroupAggr(self.NUMBERED, ("k",), (("sum", "v", "v"),
                                                   ("max", "p", "p")))
        assert self.optimized(groups)

    def test_a_join_with_the_same_numbering_is_equality(self):
        other = Project(self.NUMBERED, (("j", "k"), ("w", "v")))
        joined = EqJoin(self.NUMBERED, other, (("k", "j"),))
        assert self.optimized(joined, item="w")

    def test_a_join_with_another_numbering_keeps_it(self):
        # ``zip``: the k-th row of one list meets the k-th of another
        renumbered = RowNum(Project(self.ROWS, (("u", "v"),)), "j",
                            (("u", "desc"),))
        joined = EqJoin(self.NUMBERED, renumbered, (("k", "j"),))
        assert not self.optimized(joined, item="u")

    def test_ordering_a_partitioned_numbering_keeps_it(self):
        # renumbering within each partition changes which rows of two
        # partitions share a number
        again = RowNum(self.NUMBERED, "n", (("k", "asc"),), ("p",))
        assert not self.optimized(again, iter_col="n")

    def test_a_partitioned_number_stays(self):
        part = RowNum(self.ROWS, "k", (("v", "asc"),), ("p",))
        assert not self.optimized(part)
