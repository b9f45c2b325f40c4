"""``Connection.explain``: the structured report and its render."""

import json
import re
from itertools import product

import pytest

import repro.algebra
from repro import Connection, ExplainReport, fsum, to_q, tup
from repro.algebra import EqJoin, LitTable, Project, Select, postorder
from repro.analysis import RowBounds, properties
from repro.ftypes import BoolT, IntT
from repro.obs.explain import inclusive_times
from examples.workloads import running_example_query

from ..conftest import BACKENDS, map_chain


class TestExplainReport:
    def test_structured_fields(self, paper_db):
        report = paper_db.explain(running_example_query(paper_db))
        assert isinstance(report, ExplainReport)
        assert report.backend == "engine"
        assert report.result_type == "[(String, [String])]"
        assert report.bundle_size == 2
        assert report.list_constructors == 2
        assert report.expected_bundle_size == 2
        assert report.avalanche_ok
        assert report.fingerprint and len(report.fingerprint) == 64

    def test_cache_status_flips_on_second_explain(self, paper_catalog):
        db = Connection(catalog=paper_catalog)
        q = running_example_query(db)
        assert db.explain(q).cache_hit is False
        assert db.explain(q).cache_hit is True

    def test_queries_carry_plans_and_operator_counts(self, paper_db):
        report = paper_db.explain(running_example_query(paper_db))
        assert len(report.queries) == 2
        for q in report.queries:
            assert q.plan.startswith("@")
            assert sum(q.operators.values()) > 0
            assert q.iter_col and q.pos_col and q.item_cols

    def test_engine_artifact_is_a_schedule(self, paper_db):
        report = paper_db.explain(running_example_query(paper_db))
        for q in report.queries:
            assert "TableScan" in q.artifact

    def test_sqlite_artifact_is_sql(self, paper_catalog):
        db = Connection(backend="sqlite", catalog=paper_catalog)
        report = db.explain(running_example_query(db))
        assert report.backend == "sqlite"
        for q in report.queries:
            assert "SELECT" in q.artifact

    def test_scalar_query_expected_size(self):
        db = Connection()
        report = db.explain(fsum(to_q([1, 2, 3])))
        # scalar results need one carrier query beyond the [.] count
        assert report.list_constructors == 0
        assert report.expected_bundle_size == 1 == report.bundle_size
        assert report.avalanche_ok

    def test_tuple_of_lists_expected_size(self):
        db = Connection()
        report = db.explain(tup(to_q([1]), to_q([True, False])))
        assert report.list_constructors == 2
        assert report.expected_bundle_size == 3 == report.bundle_size

    def test_render_and_str(self, paper_db):
        report = paper_db.explain(running_example_query(paper_db))
        text = str(report)
        assert "== explain (backend=engine) ==" in text
        assert "avalanche invariant OK" in text
        assert "-- Q1" in text and "-- Q2" in text
        assert "-- engine artifact for Q1" in text
        bare = report.render(plans=False, artifacts=False)
        assert "-- Q1" in bare and "TableScan" not in bare

    def test_to_dict_round_trips_through_json(self, paper_db):
        report = paper_db.explain(running_example_query(paper_db))
        data = json.loads(json.dumps(report.to_dict()))
        assert data["avalanche_ok"] is True
        assert data["bundle_size"] == 2
        assert [q["index"] for q in data["queries"]] == [1, 2]
        assert "timings" in data


class TestOneAnalysis:
    """An explain analyses every plan node once: the verifier, the row
    bounds, the property notes and the analyze annotations share one
    plan store and one bounds fold."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_flag_combination_infers_each_node_once(
            self, backend, paper_catalog, monkeypatch):
        db = Connection(backend=backend, catalog=paper_catalog)
        q = running_example_query(db)
        plans = [query.plan for query in db.compile(q).bundle.queries]
        assert len(list(postorder(*plans))) == 23
        inferences, folds = [], []
        infer, init = properties._infer_props, RowBounds.__init__

        def counted_infer(node, *args):
            inferences.append(node)
            return infer(node, *args)

        def counted_init(self, *args):
            folds.append(self)
            init(self, *args)

        monkeypatch.setattr(properties, "_infer_props", counted_infer)
        monkeypatch.setattr(RowBounds, "__init__", counted_init)
        for analyze, props in product((False, True), repeat=2):
            inferences.clear()
            folds.clear()
            db.explain(q, analyze=analyze, properties=props)
            assert len(inferences) == 23, (analyze, props)
            assert len(folds) <= 1, (analyze, props)


class TestDeepPlans:
    """Explaining walks plans with explicit stacks: a plan 300 maps deep
    (the program runs) renders plain, analyzed and with properties."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_300_map_chain_explains(self, backend):
        db = Connection(backend=backend)
        q = map_chain(300)
        assert db.run(q) == [301, 302, 303]
        plain = db.explain(q)
        (query,) = plain.queries
        assert len(query.plan.splitlines()) > 600
        analyzed = db.explain(q, analyze=True)
        assert analyzed.lint == []
        header, *plan = analyzed.annotated[0].splitlines()
        assert "[rows=3 bound=3..3 " in header
        if backend == "engine":  # every operator profiled
            assert len(plan) > 600
            assert re.search(r"\| in=\d+ out=3 bound=3\.\.3 w=\d+ cum=",
                             plan[0])
        else:  # no shared node, so no temporary-table step
            assert plan == []
        noted = db.explain(q, properties=True).queries[0].plan
        assert noted.splitlines()[0].endswith(" w=3]")
        assert "[rows 3..3 w=" in noted

    def test_cum_walks_each_plan_once(self, monkeypatch):
        """``cum=`` comes from one bottom-up pass per query, not from a
        walk of every operator's subplan: the plan nodes explain visits
        double, and no more, as the chain doubles."""
        visited = []

        def counted(*roots):
            nodes = list(postorder(*roots))
            visited.extend(nodes)
            return iter(nodes)

        monkeypatch.setattr(repro.algebra, "postorder", counted)
        db = Connection()
        seen = {}
        for n in (150, 300):
            q = map_chain(n)
            plan = db.compile(q).bundle.queries[0].plan
            visited.clear()
            assert db.explain(q, analyze=True).lint == []
            seen[n] = len(visited) / len(list(postorder(plan)))
        assert seen[300] == seen[150] == 1


class TestInclusiveTimes:
    def test_a_node_two_paths_reach_counts_once(self):
        """Two diamonds, one over the other: every node's sum equals
        the naive sum over its subplan (times are powers of two, so both
        sums are exact)."""
        leaf = LitTable(((1, True),), (("a", IntT), ("b", BoolT)))
        join = EqJoin(Select(leaf, "b"), Project(leaf, (("c", "a"),)),
                      (("a", "c"),))
        root = Project(EqJoin(join, Project(join, (("d", "a"),)),
                              (("a", "d"),)), (("x", "a"),))
        nodes = list(postorder(root))
        times = [2.0 ** i for i in range(len(nodes))]
        slot = {id(n): i for i, n in enumerate(nodes)}
        assert inclusive_times(nodes, times) == [
            sum(times[slot[id(m)]] for m in postorder(n)) for n in nodes]
