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
    LitTable,
    Project,
    RowRank,
    bundle_text,
    node_key,
    postorder,
)
from repro.analysis import PlanStore
from repro.bench.table1 import running_example_query
from repro.bench.workloads import orders_dataset, paper_dataset
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
        # the gate model and the final stamp each estimate a node once
        assert 0 < stats.cost_estimates <= stats.nodes_interned

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
    """A candidate fires only when the estimated cost strictly drops."""

    def twice_ranked(self, rows):
        """``b`` ranks the rows by the order ``a`` already ranks them by:
        ``rownum_rank`` offers ``b <= a`` for the second ``RowRank``."""
        ranked = RowRank(LitTable(rows, (("v", IntT),)), "a", (("v", "asc"),))
        return RowRank(ranked, "b", (("v", "asc"),))

    def optimize(self, plan):
        stats = PassStats()
        [out] = _optimize([plan], PlanStore(), stats, NULL_TRACER)
        return out, stats

    def test_a_tie_is_rejected_and_counted(self):
        # Over no rows a projection costs what a ranking costs (one
        # operator's fixed cost): the candidate matches, the gate
        # rejects it, the second ranking stands.
        out, stats = self.optimize(self.twice_ranked(()))
        assert stats.rewrites_gated == {"rownum_rank": 1}
        assert stats.rewrites_fired == {}
        assert isinstance(out, RowRank)

    def test_the_same_candidate_fires_when_it_saves_work(self):
        out, stats = self.optimize(self.twice_ranked(((1,), (2,))))
        assert stats.rewrites_fired == {"rownum_rank": 1}
        assert stats.rewrites_gated == {}
        assert isinstance(out, Project) and ("b", "a") in out.cols


class GcTracer:
    """A tracer that collects garbage at every family boundary."""

    def span(self, name, **attrs):
        gc.collect()
        return NULL_SPAN
