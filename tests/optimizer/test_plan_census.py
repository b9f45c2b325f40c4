"""The plan census: what the optimizer leaves behind, without a clock.

Every ``RowNum``/``RowRank`` is a sort on the engine and the MIL VM and a
window function in SQL, every node an operator somebody executes; the
counts below are upper bounds on both, per bundle, for the paper's
programs and the 24-program ``paper_mix`` corpus of the end-to-end
benchmark.  They moved with the bundle-wide fixpoint (nested orders 80
nodes / 17 numberings, running example 73 / 16, corpus 966 / 105 before
it) and with ordering by the columns instead of by their number (48 / 7,
44 / 11 and 746 / 75 before the positional scan, order inlining and the
order-only root ``pos``), and may only go down from here.  The second half pins what "fixpoint"
means: a finished bundle is left alone by both rewrite families, shares
its ``group_with`` spine across its queries as *objects*, and holds no
operator, column or projection the tidy-up should have removed.
"""

import pytest

from repro import Connection
from repro.algebra import (
    Attach,
    Cross,
    Distinct,
    EqJoin,
    Project,
    RowNum,
    RowRank,
    Select,
    UnionAll,
    node_count,
    postorder,
)
from repro.analysis import PlanStore
from examples.workloads import paper_dataset, running_example_variants
from repro.optimizer.rewrites import properties as rules
from repro.optimizer.rewrites import prune_unneeded_columns, simplify
from repro.optimizer.rewrites.icols import _computes, demanded
from repro.optimizer.rewrites.projmerge import merge_projection
from repro.runtime import Catalog

from ..conftest import e2e_workloads
from ..properties.test_regressions import CORPUS as REGRESSIONS

W = e2e_workloads()
PAPER_MIX = W.make_catalog(W.paper_mix_tables(1, 42))


def compiled(program):
    db = Connection(catalog=PAPER_MIX)
    return db.compile(program.build(db))


def census(bundle) -> tuple[int, int]:
    """(distinct nodes, numbering operators) of a bundle's DAG."""
    nodes = list(postorder(*(query.plan for query in bundle.queries)))
    return len(nodes), sum(isinstance(n, (RowNum, RowRank)) for n in nodes)


def program(name):
    return next(p for p in W.CORPUS if p.name == name)


class TestCensus:
    #: program -> (distinct nodes, RowNum + RowRank), upper bounds
    BOUNDS = {
        "running_example_qc": (30, 3),
        "running_example_fluent": (30, 3),
        "running_example_pyq": (30, 3),
        "nested_orders": (43, 5),
        "dotp": (22, 0),
        "group_with": (28, 2),
    }
    CORPUS_BOUND = (665, 26)

    @pytest.mark.parametrize("name", BOUNDS)
    def test_the_papers_programs(self, name):
        nodes, numberings = census(compiled(program(name)).bundle)
        max_nodes, max_numberings = self.BOUNDS[name]
        assert nodes <= max_nodes
        assert numberings <= max_numberings

    def test_the_corpus_total(self):
        totals = [census(compiled(p).bundle) for p in W.CORPUS]
        assert sum(n for n, _ in totals) <= self.CORPUS_BOUND[0]
        assert sum(k for _, k in totals) <= self.CORPUS_BOUND[1]

    #: (nodes, numberings) of every corpus program before the order
    #: rules (PR 22): none may be worse for them
    BEFORE = {
        "running_example_qc": (44, 11), "running_example_fluent": (44, 11),
        "running_example_pyq": (44, 11), "nested_orders": (48, 7),
        "dotp": (22, 0), "map_filter": (10, 2), "concat_map": (12, 4),
        "sort_asc_desc": (20, 4), "group_with": (29, 3), "nub": (7, 2),
        "zip_unzip": (22, 2), "take_drop": (18, 2),
        "take_drop_while": (42, 1), "number_reverse": (6, 2),
        "append_cons": (24, 3), "head_last_the_index": (41, 2),
        "length_null": (32, 1), "aggregates": (31, 0),
        "quantifiers": (65, 0), "cond": (37, 1), "nested_tuples": (23, 1),
        "queryable_record": (8, 2), "maybe": (41, 1), "either": (76, 2),
    }

    def test_no_program_grew(self):
        assert set(self.BEFORE) == {p.name for p in W.CORPUS}
        for p in W.CORPUS:
            nodes, numberings = census(compiled(p).bundle)
            assert nodes <= self.BEFORE[p.name][0], p.name
            assert numberings <= self.BEFORE[p.name][1], p.name

    def test_three_front_ends_still_one_plan(self):
        db = Connection(catalog=paper_dataset())
        shapes = {
            name: [node_count(query.plan)
                   for query in db.compile(q).bundle.queries]
            for name, q in running_example_variants(db).items()}
        assert shapes["qc"] == shapes["pyq"] == shapes["fluent"]
        assert sum(shapes["qc"]) <= 17 + 23

    def test_every_bundle_converges_in_a_few_sweeps(self):
        # a working sweep or four, then one that changes nothing
        for p in W.CORPUS:
            assert 2 <= compiled(p).pass_stats.rounds <= 5, p.name


class TestSharedSpine:
    def test_the_group_with_spine_is_one_object(self):
        """Nested orders groups its customers once: the numbering of the
        table, the group rank and the duplicate elimination above it are
        the *same nodes* in all three queries of the bundle (a demand
        pass per query used to narrow them three different ways)."""
        bundle = compiled(program("nested_orders")).bundle
        spines = []
        for query in bundle.queries:
            [rank] = [n for n in postorder(query.plan)
                      if isinstance(n, RowRank)]
            spines.append([n for n in postorder(rank)])
        first, *others = spines
        for spine in others:
            assert len(spine) == len(first)
            assert all(a is b for a, b in zip(spine, first))
        # ... and so are the groups' positions built on top of it
        numbered = [[n for n in postorder(query.plan)
                     if isinstance(n, RowNum) and n.part]
                    for query in bundle.queries]
        assert numbered[0][0] is numbered[1][0] is numbered[2][0]


def compiled_by_name(name):
    """A ``paper_mix`` program or a regression-corpus query, compiled."""
    if name in REGRESSIONS:
        build, _expected = REGRESSIONS[name]
        db = Connection(catalog=Catalog())
        return db.compile(build())
    return compiled(program(name))


def bundle_of(name):
    return compiled_by_name(name).bundle


EVERY_PROGRAM = [p.name for p in W.CORPUS] + sorted(REGRESSIONS)

#: The operator order of the pipeline's termination argument; what is
#: not named ranks lowest.
RANK = {EqJoin: 5, Cross: 4, RowNum: 3, RowRank: 3, Distinct: 2, Select: 2,
        Attach: 1}


def unfolded_ranks(plan) -> list[int]:
    """How many operators of each rank, highest rank first, the tree
    unfolding of ``plan`` holds (multisets over a total order compare
    as these lists do)."""
    counts: dict[int, list[int]] = {}
    for node in postorder(plan):
        mine = [0] * (1 + max(RANK.values()))
        mine[-1 - RANK.get(type(node), 0)] = 1
        for child in node.children:
            mine = [a + b for a, b in zip(mine, counts[id(child)])]
        counts[id(node)] = mine
    return counts[id(plan)]


class TestTermination:
    """Why the fixpoint loop stops, without a clock and without a cost
    model: a rule trades an operator for operators ranked below it."""

    def test_every_candidate_ranks_below_the_node_it_replaces(
            self, monkeypatch):
        offered = []

        def recording(offer):
            def record(node, *args):
                hit = offer(node, *args)
                if hit is not None:
                    offered.append((hit[0], node, hit[1]))
                return hit
            return record

        for rule in ("_rewrite_node", "_order_inline", "_pos_order"):
            monkeypatch.setattr(rules, rule, recording(getattr(rules, rule)))
        for name in EVERY_PROGRAM:
            stats = compiled_by_name(name).pass_stats
            assert stats.rounds <= 5, name
            assert stats.rewrites_gated == {}, name
        assert {name for name, _, _ in offered} == set(rules.REWRITES)
        for name, old, new in offered:
            if name in ("order_inline", "pos_order"):
                # they order by the columns a number ranks; the number,
                # which nobody else reads, then falls to icols -- and
                # the numbering that made it with it
                dead = {c for c, _ in getattr(old, "order", ())} - {
                    c for c, _ in getattr(new.child, "order", ())}
                [new] = prune_unneeded_columns([Project(new.child, tuple(
                    c for c in new.cols if c[0] not in dead))])
            assert unfolded_ranks(new) < unfolded_ranks(old), (
                f"{name}: {type(old).__name__} -> {type(new).__name__}")


@pytest.mark.parametrize("name", EVERY_PROGRAM)
class TestTidy:
    """After the fixpoint nothing is left that a family would remove."""

    def test_no_operator_computes_a_column_nobody_reads(self, name):
        bundle = bundle_of(name)
        store = PlanStore()
        roots = [store.intern(query.plan) for query in bundle.queries]
        order, needed = demanded(roots, store)
        for node in order:
            made = _computes(node)
            assert made is None or made[0] in needed[id(node)], (
                f"{name}: dead {type(node).__name__} {made[0]}")

    def test_no_projection_is_left_to_merge(self, name):
        bundle = bundle_of(name)
        store = PlanStore()
        roots = [store.intern(query.plan) for query in bundle.queries]
        for node in postorder(*roots):
            if isinstance(node, Project):
                assert not isinstance(node.child, Project), name
                assert merge_projection(node, store) is node, name
            if isinstance(node, UnionAll):
                for arm in node.children:
                    if isinstance(arm, Project):  # not an identity
                        assert merge_projection(arm, store) is arm, name

    def test_both_families_leave_it_alone(self, name):
        plans = [query.plan for query in bundle_of(name).queries]
        store = PlanStore()
        assert prune_unneeded_columns(plans, store) == plans
        assert simplify(plans, store) == plans
