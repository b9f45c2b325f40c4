"""Join-graph isolation: where the normal form places guard conjuncts,
and the lifter's decorrelated-filter rule that compiles them."""

import pytest

from examples.workloads import run_raw
from repro import Connection, ffilter, fmap, qc, table, to_q
from repro.expr import AppE, conjuncts, normalize
from repro.semantics import Interpreter

from ..conftest import check_normal_form


@pytest.fixture()
def db():
    conn = Connection()
    conn.create_table("t", [("k", int), ("v", str)],
                      [(1, "a"), (2, "b"), (1, "c"), (3, "d")])
    conn.create_table("nums", [("n", int)], [(i,) for i in range(5)])
    return conn


def filters(exp):
    """``(source, conjunct count)`` of every filter in ``exp``, with the
    source a table name, ``product`` or the builtin it filters."""
    out = []

    def go(e):
        if isinstance(e, AppE) and e.fun == "filter":
            src = e.args[1]
            name = getattr(src, "name", None) or (
                "product" if getattr(src, "fun", "") == "concat_map"
                else getattr(src, "fun", type(src).__name__))
            out.append((name, len(conjuncts(e.args[0].body))))
        for child in e.children():
            go(child)

    go(exp)
    return sorted(out)


class TestGuardScheduling:
    """The placements the desugarer's guard scheduler used to make, now
    asserted on the normal form of what ``qc`` emits as written."""

    XS = table("xs", [("a", int)])
    YS = table("ys", [("b", int)])
    T = table("t", [("k", int), ("v", str)])

    def normal(self, src, **env):
        env = {"xs": self.XS, "ys": self.YS, "t": self.T, **env}
        written = qc(src, **env).exp
        return written, normalize(written)

    def test_conjunct_split(self):
        _, n = self.normal("[x | x <- xs, y <- ys, x > 1 and y > 2 and x == y]")
        assert sum(count for _, count in filters(n)) == 3

    def test_single_generator_guard_fused(self):
        written, n = self.normal("[x | x <- xs, x > 1]")
        assert filters(n) == [("xs", 1)]
        assert n is written  # already where it belongs

    def test_multi_generator_guard_stays_after(self):
        # ... after the generator that binds its last variable: on its
        # source, where the lifter's rule makes it the join key
        written, n = self.normal("[x | x <- xs, y <- ys, x == y]")
        assert filters(written) == [("product", 1)]
        assert filters(n) == [("ys", 1)]

    def test_mixed_guard_splits_across_generators(self):
        _, n = self.normal(
            "[x | x <- xs, y <- ys, x > 1 and y > 2 and x == y]")
        assert filters(n) == [("xs", 1), ("ys", 2)]   # x > 1 | y > 2, x == y

    def test_guard_never_crosses_group_by(self):
        written, n = self.normal(
            "[the(x) | x <- xs, then group by x, length(x) > 1]")
        # the guard references x *after* grouping; it must stay there
        assert filters(n) == [("group_with", 1)]
        assert n is written

    def test_free_variable_guard_fuses_into_generator(self):
        written, n = self.normal("[v | (k, v) <- t, k == x]", x=to_q(1))
        assert filters(n) == [("t", 1)]
        assert n is written

    def test_correlated_key_floats_around_the_closed_product(self):
        inner = lambda f: qc(  # noqa: E731
            "[v | x <- xs, (k, v) <- t, x == k and k == f]",
            xs=self.XS, t=self.T, f=f)
        n = normalize(fmap(inner, self.XS).exp)
        # x == k is the product's own join key; k == f joins the product,
        # compiled once, to the enclosing iteration
        assert filters(n) == [("product", 1), ("t", 1)]

    def test_three_generators_recurse_into_the_left_product(self):
        zs = table("zs", [("c", int)])
        _, n = self.normal(
            "[z | x <- xs, y <- ys, z <- zs, x == y and y == z]", zs=zs)
        assert filters(n) == [("ys", 1), ("zs", 1)]

    def test_partial_and_builtin_conjuncts_stay_where_written(self):
        written, n = self.normal(
            "[x | x <- xs, y <- ys, x // y > 1 and length([x]) == y]")
        assert filters(n) == [("product", 2)]
        assert n is written


class TestDecorrelationSemantics:
    def test_correlated_filter_matches_oracle(self, db):
        t = db.table("t")
        q = fmap(lambda x: ffilter(lambda r: r[0] == x % 4, t),
                 db.table("nums"))
        oracle = Interpreter(db.catalog).run(q.exp)
        check_normal_form(q.exp, db.catalog, oracle)
        assert db.run(q) == oracle
        assert run_raw(q, db.catalog, optimize=True,
                       decorrelate=False) == oracle

    def test_constant_key_filter(self, db):
        t = db.table("t")
        q = ffilter(lambda r: r[0] == 1, t)
        assert db.run(q) == [(1, "a"), (1, "c")]

    def test_rest_conjuncts_applied(self, db):
        t = db.table("t")
        q = fmap(lambda x: ffilter(lambda r: (r[0] == 1) & (r[1] != "a"), t),
                 db.table("nums"))
        oracle = Interpreter(db.catalog).run(q.exp)
        check_normal_form(q.exp, db.catalog, oracle)
        assert db.run(q) == oracle

    def test_swapped_equality_sides(self, db):
        t = db.table("t")
        q = fmap(lambda x: ffilter(lambda r: x % 4 == r[0], t),
                 db.table("nums"))
        oracle = Interpreter(db.catalog).run(q.exp)
        check_normal_form(q.exp, db.catalog, oracle)
        assert db.run(q) == oracle

    def test_non_invariant_source_not_decorrelated(self, db):
        # inner source depends on the outer variable: rule must not apply,
        # and results must still be correct
        nums = db.table("nums")
        q = fmap(lambda x: ffilter(lambda y: y == x,
                                   nums.map(lambda z: z + x)), nums)
        oracle = Interpreter(db.catalog).run(q.exp)
        check_normal_form(q.exp, db.catalog, oracle)
        assert db.run(q) == oracle

    def test_running_example_agrees_across_modes(self):
        from examples.workloads import paper_dataset, running_example_query
        db = Connection(catalog=paper_dataset())
        q = running_example_query(db)
        assert db.run(q) == run_raw(q, db.catalog, optimize=True,
                                    decorrelate=False)


class TestDecorrelationScaling:
    def test_linear_not_quadratic(self):
        """Row counts through the decorrelated plan grow linearly with the
        category count (the naive plan is quadratic)."""
        import time
        from examples.workloads import avalanche_dataset, run_dsh

        def cost(n):
            catalog = avalanche_dataset(n)
            start = time.perf_counter()
            run_dsh(catalog, "engine")
            return time.perf_counter() - start

        small, large = cost(60), cost(240)
        # 4x data; quadratic would be ~16x -- allow generous noise
        assert large < small * 11
