"""The optimizer's plan store: work bounds without a clock.

One :class:`~repro.analysis.PlanStore` holds a bundle's plans as one
interned DAG and every fact derived from it, so each node is analysed
and rewritten at most once per compile.  ``PassStats`` counts what the
store did; the bounds below are the clock-free form of "a second full
inference walk sneaking in" -- the same numbers on every machine.
"""

import gc

import pytest

from repro import Connection
from repro.algebra import (
    Distinct,
    LitTable,
    Project,
    RowRank,
    bundle_text,
    node_key,
    postorder,
)
from repro.analysis import PlanStore
from examples.workloads import (
    orders_dataset,
    paper_dataset,
    running_example_query,
)
from repro.core.bundle import compile_exp
from repro.dph import FIG6_SV, FIG6_V, dotp_query
from repro.frontend.q import to_q
from repro.ftypes import IntT
from repro.obs.trace import NULL_SPAN, NULL_TRACER
from repro.optimizer import PassStats, optimize_bundle
from repro.optimizer.pipeline import _FAMILIES, _optimize
from repro.runtime import Catalog

from ..backends.test_sql_scaling import nested_orders_query

#: name -> (catalog, query builder): the running example, nested orders
#: and Figure 5's dot product.
PROGRAMS = {
    "running_example": (paper_dataset, running_example_query),
    "nested_orders": (lambda: orders_dataset(8), nested_orders_query),
    "dotp": (Catalog, lambda db: dotp_query(FIG6_SV, FIG6_V)),
}


def raw_bundle(name):
    make_catalog, build = PROGRAMS[name]
    db = Connection(catalog=make_catalog())
    return compile_exp(to_q(build(db)).exp)


def optimized(name, **kwargs):
    stats = PassStats()
    return optimize_bundle(raw_bundle(name), stats, **kwargs), stats


@pytest.mark.parametrize("name", PROGRAMS)
class TestWorkDoneOnce:
    def test_each_interned_node_is_analysed_at_most_once(self, name):
        _, stats = optimized(name)
        assert 0 < stats.inferences <= stats.nodes_interned

    def test_each_family_visits_a_node_at_most_once(self, name):
        _, stats = optimized(name)
        assert set(stats.rule_visits) == set(_FAMILIES)
        for family, visits in stats.rule_visits.items():
            assert 0 < visits <= stats.nodes_interned, family

    def test_counts_do_not_depend_on_backend_or_statistics(self, name):
        bundle, stats = optimized(name)
        for kwargs in ({"backend": "sqlite"}, {"backend": "mil"},
                       {"table_rows": {"facilities": 10 ** 6,
                                       "customers": 10 ** 6}}):
            other, other_stats = optimized(name, **kwargs)
            assert bundle_text(other) == bundle_text(bundle)
            for field in ("rounds", "nodes_after", "rewrites_fired",
                          "rewrites_gated", "nodes_interned", "inferences",
                          "rule_visits"):
                assert getattr(other_stats, field) == getattr(stats, field)


class TestInterning:
    @pytest.mark.parametrize("name", PROGRAMS)
    def test_equal_subplans_of_different_queries_are_one_object(self, name):
        bundle, _ = optimized(name)
        seen: dict = {}
        for query in bundle.queries:
            for node in postorder(query.plan):
                # children are shared already, so the key is structural
                assert seen.setdefault(node_key(node), node) is node

    @pytest.mark.parametrize("name", PROGRAMS)
    def test_every_fact_hangs_off_a_pinned_node(self, name):
        store = PlanStore()
        _optimize([q.plan for q in raw_bundle(name).queries], store,
                  PassStats(), tracer=GcTracer())
        pinned = {id(n) for n in store.canonical.values()}
        pinned.update(id(n) for n in store.pins)
        facts = [store.props, store.schemas, store.twin,
                 *store.rewritten.values()]
        for memo in facts:
            assert memo and set(memo) <= pinned

    @pytest.mark.parametrize("name", PROGRAMS)
    def test_collecting_garbage_between_families_changes_nothing(self, name):
        """The ``id()``-reuse regression: with facts keyed by ``id`` and
        a node freed mid-compile, a later node can inherit its schema."""
        raw = raw_bundle(name)
        calm = optimize_bundle(raw, PassStats())
        shaken = optimize_bundle(raw, PassStats(), tracer=GcTracer())
        assert bundle_text(shaken) == bundle_text(calm)
        assert shaken.verified and shaken.cost is not None


class TestFixpoint:
    @pytest.mark.parametrize("name", PROGRAMS)
    def test_an_optimized_bundle_is_left_alone(self, name):
        once, _ = optimized(name)
        stats = PassStats()
        twice = optimize_bundle(once, stats)
        assert stats.rounds == 1
        assert stats.rewrites_fired == {} and stats.rewrites_gated == {}
        assert stats.nodes_after == stats.nodes_before
        assert bundle_text(twice) == bundle_text(once)

    def test_backends_receive_identical_algebra(self):
        texts = set()
        for backend in ("engine", "sqlite", "mil"):
            db = Connection(backend=backend, catalog=paper_dataset())
            texts.add(bundle_text(
                db.compile(running_example_query(db)).bundle))
        assert len(texts) == 1


class TestCostGate:
    """No candidate is priced: the one gate left is that a candidate
    must show every key of the node it replaces."""

    def twice_ranked(self, rows):
        """``b`` ranks the rows by the order ``a`` already ranks them by:
        ``rownum_rank`` offers ``b <= a`` for the second ``RowRank``."""
        ranked = RowRank(LitTable(rows, (("v", IntT),)), "a", (("v", "asc"),))
        return RowRank(ranked, "b", (("v", "asc"),))

    def optimize(self, plan):
        stats = PassStats()
        [out] = _optimize([plan], PlanStore(), stats, NULL_TRACER)
        return out, stats

    def test_a_tie_fires(self):
        # Over no rows a projection does the work a ranking does (none).
        # The cost gate called that a tie and kept the second ranking;
        # a rule needs no such permission -- a Project ranks below a
        # RowRank whatever the data.
        out, stats = self.optimize(self.twice_ranked(()))
        assert stats.rewrites_fired == {"rownum_rank": 1}
        assert stats.rewrites_gated == {}
        assert isinstance(out, Project) and ("b", "a") in out.cols

    def test_the_same_candidate_fires_when_it_saves_work(self):
        out, stats = self.optimize(self.twice_ranked(((1,), (2,))))
        assert stats.rewrites_fired == {"rownum_rank": 1}
        assert stats.rewrites_gated == {}
        assert isinstance(out, Project) and ("b", "a") in out.cols

    def test_a_candidate_that_loses_a_key_is_skipped_and_counted(
            self, monkeypatch):
        # No rule of the family offers such a candidate (that is what
        # F190 re-verifies), so a broken one is planted: it drops every
        # Distinct, also where the child has duplicates and the
        # all-columns key of the Distinct is lost.
        from repro.optimizer.rewrites import properties as rules

        def drop_every_distinct(node, store, shared):
            if isinstance(node, Distinct):
                return "distinct_elim", node.child
            return None

        monkeypatch.setattr(rules, "_rewrite_node", drop_every_distinct)
        dups = Distinct(LitTable(((1,), (1,)), (("v", IntT),)))
        out, stats = self.optimize(dups)
        assert out is not dups.child and isinstance(out, Distinct)
        assert stats.rewrites_gated == {"distinct_elim": 1}
        assert stats.rewrites_fired == {}
        # where the child does have a key the same candidate is safe
        out, stats = self.optimize(
            Distinct(LitTable(((1,), (2,)), (("v", IntT),))))
        assert isinstance(out, LitTable)
        assert stats.rewrites_fired == {"distinct_elim": 1}
        assert stats.rewrites_gated == {}


class GcTracer:
    """A tracer that collects garbage at every family boundary."""

    def span(self, name, **attrs):
        gc.collect()
        return NULL_SPAN
