"""Figure 6: the structural correspondence between DPH's vectorised code
and DSH's loop-lifted algebra plan for sparse-vector multiplication.

The paper's table of correspondences:

* ``bpermuteP`` (bulk indexed lookup)  =>  relational equi-join over ``pos``
  (a product and a selection ``pos = index + 1``: the optimizer removes
  the lifter's surrogate ``EqJoin``-s around it, the lookup stays)
* ``*^`` (lifted multiplication)       =>  column-wise ``BinApp mul``
* ``sumP``                             =>  grouped aggregation ``sum``
"""

import pytest

from repro import Connection
from repro.algebra import (
    BinApp,
    Cross,
    GroupAggr,
    Project,
    Select,
    contains,
    postorder,
)
from repro.dph import (
    FIG6_SV,
    FIG6_V,
    dotp_comprehension,
    dotp_query,
    dotp_vectorised,
    from_list,
)


class TestAllThreeAgree:
    def test_fig6_concrete_value(self):
        # sv = [(1,0.1),(3,1.0),(4,0.0)], v = [10..50] (0-based indexing):
        # 0.1*20 + 1.0*40 + 0.0*50 = 42.0
        expected = 42.0
        assert dotp_comprehension(FIG6_SV, FIG6_V) == expected
        assert dotp_vectorised(from_list(FIG6_SV),
                               from_list(FIG6_V)) == expected
        db = Connection()
        assert db.run(dotp_query(FIG6_SV, FIG6_V)) == expected

    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_random_sizes(self, n):
        from examples.workloads import sparse_vector
        sv, v = sparse_vector(n, density=0.5, seed=n)
        if not sv:
            pytest.skip("empty sparse vector")
        expected = dotp_comprehension(sv, v)
        assert dotp_vectorised(from_list(sv),
                               from_list(v)) == pytest.approx(expected)
        db = Connection()
        assert db.run(dotp_query(sv, v)) == pytest.approx(expected)


class TestStructuralCorrespondence:
    def plan(self):
        db = Connection()
        compiled = db.compile(dotp_query(FIG6_SV, FIG6_V))
        assert compiled.bundle.size == 1  # scalar result: one query
        return compiled.bundle.queries[0].plan

    def pos_lookup(self):
        """``(select, comparison, product)`` of the join on ``pos``."""
        for node in postorder(self.plan()):
            if isinstance(node, Select):
                cmp = node.child
                while not (isinstance(cmp, BinApp) and cmp.out == node.col):
                    cmp = cmp.child
                below = cmp.child
                while not isinstance(below, Cross):
                    assert isinstance(below, (BinApp, Project))
                    below = below.child
                return node, cmp, below
        raise AssertionError("no selection in the plan")

    def test_bpermute_becomes_equi_join(self):
        # positional lookup v !! i compiles to a join on the pos encoding:
        # an equality selection over the product of the two vectors
        _select, cmp, product = self.pos_lookup()
        assert cmp.op == "eq"
        assert isinstance(product, Cross)

    def test_lifted_multiplication_becomes_binapp(self):
        assert contains(self.plan(),
                        lambda n: isinstance(n, BinApp) and n.op == "mul")

    def test_sump_becomes_group_aggregation(self):
        assert contains(
            self.plan(),
            lambda n: (isinstance(n, GroupAggr)
                       and any(f == "sum" for f, _, _ in n.aggs)))

    def test_index_join_compares_positions(self):
        # the join predicate compares the dense vector's positions with
        # an Int column computed from the sparse indexes (0-based index
        # + 1 = 1-based pos)
        _select, cmp, _product = self.pos_lookup()
        computed = [node for node in postorder(self.plan())
                    if isinstance(node, BinApp) and node.op == "add"
                    and node.out in (cmp.lhs, cmp.rhs)]
        assert len(computed) == 1
        assert computed[0].rhs.value == 1
