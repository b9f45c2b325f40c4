"""DAG utilities: traversal order, sharing, rewriting, pretty printing."""

from repro.algebra import (
    Attach,
    Cross,
    EqJoin,
    LitTable,
    Project,
    UnionAll,
    contains,
    describe,
    node_count,
    operator_histogram,
    plan_dot,
    plan_text,
    postorder,
    rewrite_dag,
)
from repro.ftypes import IntT


def leaf(name="a"):
    return LitTable(((1,),), ((name, IntT),))


class TestPostorder:
    def test_children_before_parents(self):
        l = leaf()
        p = Project(l, (("b", "a"),))
        order = list(postorder(p))
        assert order.index(l) < order.index(p)

    def test_shared_nodes_visited_once(self):
        l = leaf()
        p1 = Project(l, (("b", "a"),))
        p2 = Project(l, (("c", "a"),))
        u = EqJoin(p1, p2, (("b", "c"),))
        order = list(postorder(u))
        assert order.count(l) == 1
        assert node_count(u) == 4

    def test_deep_plan_iterative(self):
        plan = leaf()
        for i in range(5000):  # recursion would overflow here
            plan = Attach(plan, f"c{i}", i, IntT)
        assert node_count(plan) == 5001


class TestUtilities:
    def test_histogram(self):
        l = leaf("a")
        r = leaf("b")
        plan = Cross(Project(l, (("x", "a"),)), r)
        assert operator_histogram(plan) == {
            "Cross": 1, "LitTable": 2, "Project": 1}

    def test_contains(self):
        plan = Cross(leaf("a"), leaf("b"))
        assert contains(plan, lambda n: isinstance(n, Cross))
        assert not contains(plan, lambda n: isinstance(n, Project))

    def test_rewrite_preserves_sharing(self):
        l = leaf()
        p1 = Project(l, (("b", "a"),))
        p2 = Project(l, (("c", "a"),))
        j = EqJoin(p1, p2, (("b", "c"),))
        rebuilt = rewrite_dag(j, lambda n, kids: n)
        assert rebuilt is j

    def test_rewrite_replaces(self):
        l = leaf()
        p = Project(l, (("b", "a"),))

        def visit(node, kids):
            if isinstance(node, Project):
                return Project(kids[0], (("z", "a"),))
            return node

        new = rewrite_dag(p, visit)
        assert new.cols == (("z", "a"),)


class TestPretty:
    def test_describe_each_operator(self):
        l = leaf()
        assert "LitTable" in describe(l)
        assert "Project" in describe(Project(l, (("b", "a"),)))
        assert "UnionAll" in describe(UnionAll(l, l))

    def test_plan_text_marks_sharing(self):
        l = leaf()
        u = UnionAll(l, l)
        text = plan_text(u)
        assert "shared" in text

    def test_plan_text_refers_to_what_an_earlier_plan_printed(self):
        base = Attach(leaf(), "k", 1, IntT)
        first = Project(base, (("x", "a"),))
        second = Project(UnionAll(base, base), (("y", "a"),))
        earlier: dict = {}
        assert "shared" not in plan_text(first, earlier=earlier, label="Q1")
        text = plan_text(second, earlier=earlier, label="Q2").splitlines()
        # printed under Q1 as @1: referred to, once, and not descended into
        assert text[2].strip() == "@1 (shared with Q1 @1)"
        assert text[3].strip() == "@1 (shared, see above)"
        assert len(text) == 4 and "LitTable" not in "".join(text)
        assert earlier[second] == "Q2 @3"
        # without the map every plan stands alone
        assert "shared with" not in plan_text(second)

    def test_plan_dot_shape(self):
        dot = plan_dot(Cross(leaf("a"), leaf("b")))
        assert dot.startswith("digraph")
        assert dot.count("->") == 2
