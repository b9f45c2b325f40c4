"""The optimizer's plan store: work bounds without a clock.

One :class:`~repro.analysis.PlanStore` holds a bundle's plans as one
interned DAG and every fact derived from it, so each node is analysed
and rewritten at most once per compile.  ``PassStats`` counts what the
store did; the bounds below are the clock-free form of "a second full
inference walk sneaking in" -- the same numbers on every machine.
"""

import gc
import sys

import pytest

from repro import Connection
from repro.algebra import (
    Distinct,
    LitTable,
    Node,
    Project,
    RowRank,
    bundle_text,
    node_key,
    postorder,
)
from repro.analysis import PlanStore
from examples.workloads import (
    FIG6_SV,
    FIG6_V,
    dotp_query,
    orders_dataset,
    paper_dataset,
    running_example_query,
)
from repro.core.bundle import compile_exp
from repro.frontend.q import to_q
from repro.ftypes import IntT
from repro.optimizer import PassStats, optimize_bundle, pipeline
from repro.optimizer.pipeline import _FAMILIES, _optimize
from repro.runtime import Catalog

from ..backends.test_sql_scaling import nested_orders_query
from ..conftest import map_chain

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
        for kwargs in ({"backend": "sqlite"},
                       {"table_rows": {"facilities": 10 ** 6,
                                       "customers": 10 ** 6}}):
            other, other_stats = optimized(name, **kwargs)
            assert bundle_text(other) == bundle_text(bundle)
            for field in ("rounds", "nodes_after", "rewrites_fired",
                          "rewrites_gated", "nodes_interned", "inferences",
                          "rule_visits"):
                assert getattr(other_stats, field) == getattr(stats, field)


class TestFamilyTimes:
    def test_optimize_times_every_family(self):
        _, stats = optimized("running_example")
        assert set(stats.family_seconds) == {"cse", *_FAMILIES}
        assert all(t > 0.0 for t in stats.family_seconds.values())


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
    def test_every_fact_is_keyed_by_its_node(self, name, monkeypatch):
        """A fact keyed by the node itself keeps that node alive, so no
        later node can inherit it."""
        collect_between_families(monkeypatch)
        store = PlanStore()
        _optimize([q.plan for q in raw_bundle(name).queries], store,
                  PassStats())
        facts = [store.props, store.schemas, store.twin,
                 *store.rewritten.values()]
        assert all(facts)
        for memo in (*facts, store.heights, store.wider):
            assert all(isinstance(key, Node) for key in memo)

    @pytest.mark.parametrize("name", PROGRAMS)
    def test_collecting_garbage_between_families_changes_nothing(
            self, name, monkeypatch):
        """The ``id()``-reuse regression: with facts keyed by ``id`` and
        a node freed mid-compile, a later node can inherit its schema."""
        raw = raw_bundle(name)
        calm = optimize_bundle(raw, PassStats())
        collect_between_families(monkeypatch)
        shaken = optimize_bundle(raw, PassStats())
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
        for backend in ("engine", "sqlite"):
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
        [out] = _optimize([plan], PlanStore(), stats)
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


def lines_run(code, fn) -> int:
    """The lines run in frames of ``code`` while ``fn()`` runs."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    sys.settrace(lambda frame, event, arg:
                 local if frame.f_code is code else None)
    try:
        fn()
    finally:
        sys.settrace(None)
    return count


def collect_between_families(monkeypatch):
    """Collect garbage before every ``icols`` and ``simplify`` call of
    the pipeline: at each family boundary."""
    for name in ("prune_unneeded_columns", "simplify"):
        family = getattr(pipeline, name)
        monkeypatch.setattr(pipeline, name, lambda *args, family=family: (
            gc.collect(), family(*args))[1])


class TestDeepPlans:
    def test_column_walks_grow_linearly_with_depth(self, monkeypatch):
        """``selfjoin_elim`` follows a join column down to the subplan
        it is joined back to; the walk stops at the first node no
        higher than that subplan, so the steps of all the walks of a
        compile double, and no more, as the program's depth doubles."""
        from repro.optimizer.rewrites import properties as rules
        steps = []
        trace = rules._trace

        def counted(node, col, stop, store):
            return trace(node, col,
                         lambda n, c: steps.append(n) or stop(n, c), store)

        monkeypatch.setattr(rules, "_trace", counted)
        seen = {}
        for n in (150, 300):
            steps.clear()
            Connection().prepare(map_chain(n))
            seen[n] = len(steps)
        assert seen[300] <= 2.1 * seen[150]

    def test_derivation_walks_grow_linearly_with_depth(self):
        """``surrogate_key`` asks whether a column is handed up from a
        numbering (``_Uses.derives``): a walk of a few steps per
        question, so the lines it runs over a compile double, and no
        more, as the depth doubles (its self time under cProfile can
        look steeper: the cyclic collector runs inside it)."""
        from repro.optimizer.rewrites.properties import _Uses
        seen = {n: lines_run(_Uses._derives.__code__,
                             lambda: Connection().prepare(map_chain(n)))
                for n in (150, 300)}
        assert seen[150] > 0
        assert seen[300] <= 2.1 * seen[150]
