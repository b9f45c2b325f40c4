"""The property-driven rewrites: firing evidence and self-verification.

Each rewrite is shown firing on a real frontend query --
``PassStats.rewrites_fired`` is the acceptance evidence -- with results
identical across all three backends, and the F190 self-check is pinned
on deliberately broken rewrite outputs.  (``tests/optimizer/
test_rewrites.py`` holds the same rules on hand-built plans.)
"""

import pytest

from repro import Connection, ffilter, group_with, nub, number, to_q
from repro.algebra import Distinct, LitTable, Project
from repro.analysis import PlanStore
from examples.workloads import paper_dataset, running_example_query
from repro.errors import VerifyError
from repro.optimizer.rewrites.properties import (
    REWRITES,
    _self_verify,
    simplify,
)
from repro.runtime import Catalog

from ..conftest import run_all_ways


def fired(db, q) -> dict:
    return db.compile(q).pass_stats.rewrites_fired


class TestFiring:
    """Each rewrite demonstrably fires (and the value stays correct)."""

    def test_distinct_elim_on_deduplicated_group_input(self):
        # group_with's outer Distinct is redundant once nub guarantees
        # (iter, item) is duplicate-free -- a property, not a pattern.
        q = group_with(lambda x: x, nub(to_q([3, 1, 3, 2, 1])))
        assert fired(Connection(catalog=Catalog()), q)["distinct_elim"] == 1
        assert run_all_ways(q, Catalog()) == [[1], [2], [3]]

    def test_select_true_on_constant_predicate(self):
        q = ffilter(lambda x: to_q(True), to_q([1, 2, 3]))
        assert fired(Connection(catalog=Catalog()), q)["select_true"] == 1
        assert run_all_ways(q, Catalog()) == [1, 2, 3]

    def test_rownum_dense_on_renumbering(self):
        from repro import fmap

        q = fmap(lambda p: p, number(number(to_q([7, 8]))))
        assert fired(Connection(catalog=Catalog()), q)["rownum_dense"] >= 1
        assert run_all_ways(q, Catalog()) == [((7, 1), 1), ((8, 2), 2)]

    def test_rownum_dense_on_the_running_example(self):
        db = Connection(catalog=paper_dataset())
        counts = fired(db, running_example_query(db))
        assert counts.get("rownum_dense", 0) >= 3

    def test_the_running_example_fires_the_bundle_level_rules(self):
        db = Connection(catalog=paper_dataset())
        counts = fired(db, running_example_query(db))
        # per plan: the spine both queries share counts for each
        assert counts["unit_cross"] == 4      # the unit loop, 3 tables
        assert counts["rownum_rank"] == 2     # the groups' second numbering
        # surrogate re-attachments, and the group spine's join-backs
        assert counts["selfjoin_elim"] == 16
        assert counts["order_inline"] == 4    # Q2 sorts once, by columns
        assert counts["const_spec"] == 3      # the constant iter leaves
        assert counts["pos_order"] == 1       # Q2's pos is the least of them
        assert run_all_ways(running_example_query(db), paper_dataset())

    def test_semantically_required_distinct_survives(self):
        # plain group_with over duplicate-heavy input: the outer Distinct
        # is load-bearing and must NOT be eliminated
        q = group_with(lambda x: x % 2, to_q([1, 1, 2, 1]))
        counts = fired(Connection(catalog=Catalog()), q)
        assert counts.get("distinct_elim", 0) == 0
        assert run_all_ways(q, Catalog()) == [[2], [1, 1, 1]]

    def test_stats_only_name_known_rewrites(self):
        db = Connection(catalog=paper_dataset())
        counts = fired(db, running_example_query(db))
        assert set(counts) <= set(REWRITES)


class TestSelfVerification:
    """F190: a rewrite emitting a wrong plan is caught, not shipped."""

    def lit(self, *cols, rows=()):
        return LitTable(tuple(rows), tuple(cols))

    def test_schema_change_is_rejected(self):
        from repro.ftypes import IntT

        old = self.lit(("a", IntT), ("b", IntT), rows=[(1, 2)])
        cache = PlanStore()
        cache.infer(old)
        new = Project(old, (("a", "a"),))  # drops column b
        with pytest.raises(VerifyError) as exc:
            _self_verify(old, new, cache)
        assert exc.value.code == "F190"

    def test_lost_key_is_rejected(self):
        from repro.ftypes import IntT

        dupes = self.lit(("a", IntT), rows=[(1,), (1,), (2,)])
        old = Distinct(dupes)
        cache = PlanStore()
        cache.infer(old)
        # "rewriting" Distinct away here is wrong: the child has no key
        with pytest.raises(VerifyError) as exc:
            _self_verify(old, dupes, cache)
        assert exc.value.code == "F190"

    def test_identity_sweep_changes_nothing(self):
        db = Connection(catalog=paper_dataset())
        bundle = db.compile(running_example_query(db)).bundle
        plans = [query.plan for query in bundle.queries]
        # the optimizer already ran the bundle to its fixpoint: another
        # sweep over it is a no-op
        assert simplify(plans) == plans
