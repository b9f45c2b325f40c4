"""EXPLAIN ANALYZE: per-operator/per-query execution profiles."""

import json
import re

import pytest

from repro import Connection, to_q
from repro.algebra import describe, postorder
from examples.workloads import running_example_query
from repro.obs import ExecutionRecord, QueryProfile, build_report


class TestEnginePerOperator:
    """The engine interprets the DAG node by node, so analyze gets a
    full per-operator breakdown."""

    def test_every_operator_is_profiled(self, paper_db):
        report = paper_db.explain(running_example_query(paper_db),
                                  analyze=True)
        analyze = report.analyze
        # the analyze run's own record, as the flight recorder holds it
        assert analyze is paper_db.query_log.recent[0]
        assert analyze.kind == "explain-analyze"
        assert analyze.backend == "engine"
        assert len(analyze.queries) == 2
        for qp in analyze.queries:
            assert qp.ops, "engine must profile per operator"
            assert qp.rows > 0
            assert qp.time >= 0.0
            for op in qp.ops:
                assert op.time >= 0.0
                assert op.rows_in >= 0 and op.rows_out >= 0
                assert op.width >= 1

    def test_refs_match_plan_text_numbering(self, paper_db):
        """OpProfile.ref is the postorder index -- the same ``@n`` the
        pretty-printer assigns, so annotations line up with the plan."""
        q = running_example_query(paper_db)
        compiled = paper_db.compile(q)
        report = paper_db.explain(q, analyze=True)
        from repro.algebra import plan_text, postorder
        for qp, query in zip(report.analyze.queries, compiled.bundle.queries):
            nodes = list(postorder(query.plan))
            assert [op.ref for op in qp.ops] == list(range(len(nodes)))
            text = plan_text(query.plan)
            for op in qp.ops:
                assert f"@{op.ref} " in text or f"@{op.ref}\n" in text \
                    or text.startswith(f"@{op.ref}")

    def test_peak_width_is_max_over_operators(self, paper_db):
        report = paper_db.explain(running_example_query(paper_db),
                                  analyze=True)
        for qp in report.analyze.queries:
            assert qp.peak_width == max(op.width for op in qp.ops)
            assert qp.peak_rows == max(op.rows_out for op in qp.ops)
            assert f"peak_rows={qp.peak_rows} " in \
                report.annotated[qp.index - 1].splitlines()[0]
        record = paper_db.query_log.recent[0]
        assert record.peak_intermediate_rows == max(
            qp.peak_rows for qp in report.analyze.queries)

    def test_root_rows_out_equals_query_rows(self, paper_db):
        """The last postorder node is the plan root: its output
        cardinality is the query's delivered row count."""
        report = paper_db.explain(running_example_query(paper_db),
                                  analyze=True)
        for qp in report.analyze.queries:
            assert qp.ops[-1].rows_out == qp.rows


class TestOtherBackends:
    """A plain run profiles each query as a whole: per-query
    granularity, no operator breakdown.  SQLite's analyze adds one
    profile per temporary-table step -- the plan nodes shared inside the
    bundle."""

    def test_a_plain_run_profiles_per_query_only(self, paper_db):
        q = running_example_query(paper_db)
        paper_db.run(q)
        record = paper_db.query_log.recent[0]
        assert len(record.queries) == 2
        for qp in record.queries:
            assert qp.ops == []
            assert qp.peak_width is None
            assert qp.peak_rows is None
            assert qp.rows > 0
            assert qp.time >= 0.0
        assert record.peak_intermediate_rows is None
        report = build_report(paper_db.compile(q), paper_db.backend, [],
                              record=record)
        assert report.analyze is record
        assert f"rows={record.rows}) ==" in report.render_analyze()
        assert "peak_rows" not in report.render_analyze()
        # a header per query, no annotated plan under it
        assert [len(a.splitlines()) for a in report.annotated] == [1, 1]

    def test_sqlite_profiles_every_temp_table_step(self, paper_catalog):
        db = Connection(backend="sqlite", catalog=paper_catalog)
        q = running_example_query(db)
        report = db.explain(q, analyze=True)
        bundle = db.compile(q).bundle
        code = db.backend.prepare_bundle(bundle)
        built: set[str] = set()
        assert len(report.analyze.queries) == 2
        for qp, gen, query in zip(report.analyze.queries, code,
                                  bundle.queries):
            assert qp.rows > 0
            # one profile per step this statement had to build, under
            # the shared node's @n, in build order
            steps = [s for s in gen.steps if s.name not in built]
            built.update(s.name for s in steps)
            assert [(op.ref, op.op, op.width) for op in qp.ops] == [
                (s.ref, s.op, s.width) for s in steps]
            nodes = list(postorder(query.plan))
            for op in qp.ops:
                assert op.op == describe(nodes[op.ref])
                assert op.rows_in is None
                assert op.rows_out > 0
                assert 0.0 <= op.time <= qp.time
        assert len(built) == 1
        # the rows the engine sees at the same operators
        engine = Connection(backend="engine", catalog=paper_catalog)
        reference = engine.explain(running_example_query(engine),
                                   analyze=True).analyze
        for qp, ref_qp in zip(report.analyze.queries, reference.queries):
            for op in qp.ops:
                assert op.rows_out == ref_qp.ops[op.ref].rows_out
        rendered = report.render_analyze()
        assert "in=" not in rendered
        assert rendered.count("| out=") == 1

    def test_all_backends_agree_on_rows(self, paper_catalog):
        rows = set()
        for backend in ("engine", "sqlite"):
            db = Connection(backend=backend, catalog=paper_catalog)
            report = db.explain(running_example_query(db), analyze=True)
            rows.add(tuple(qp.rows for qp in report.analyze.queries))
        assert len(rows) == 1, f"backends disagree on cardinalities: {rows}"


class TestReportSurface:
    def test_plain_explain_has_no_analyze(self, paper_db):
        report = paper_db.explain(running_example_query(paper_db))
        assert report.analyze is None
        assert "== analyze" not in str(report)

    def test_analyze_counts_as_a_real_execution(self, paper_db):
        before = paper_db.executions
        paper_db.explain(running_example_query(paper_db), analyze=True)
        assert paper_db.executions == before + 1

    def test_render_annotates_the_plan(self, paper_db):
        report = paper_db.explain(running_example_query(paper_db),
                                  analyze=True)
        text = str(report)
        assert "== analyze (backend=engine" in text
        assert re.search(r"-- Q1 .*\[rows=\d+ bound=\d+\.\.\d+ peak_rows=\d+ "
                         r"time=\d+\.\d+ ms \(\d+\.\d+% of bundle\)\]",
                         text)
        # per-operator annotation on at least every plan line with a ref
        assert re.search(r"\[\d+\.\d+ ms \d+\.\d+% \| in=\d+ out=\d+ "
                         r"bound=\d+\.\.\d+ w=\d+ cum=\d+\.\d+ ms\]", text)

    def test_to_dict_round_trips_through_json(self, paper_db):
        report = paper_db.explain(running_example_query(paper_db),
                                  analyze=True)
        data = json.loads(json.dumps(report.to_dict()))
        analyze = data["analyze"]
        assert analyze["backend"] == "engine"
        assert analyze["rows"] == report.analyze.rows == sum(
            q["rows"] for q in analyze["queries"])
        assert analyze["duration"] == report.analyze.duration
        assert [q["index"] for q in analyze["queries"]] == [1, 2]
        for q in analyze["queries"]:
            assert q["peak_width"] == max(op["width"] for op in q["ops"])
            assert q["peak_rows"] == max(op["rows_out"] for op in q["ops"])

    def test_cumulative_time_of_root_covers_the_query(self, paper_db):
        """The root's rendered inclusive subtree time (``cum=``) equals
        the sum of every operator's exclusive time (shared DAG nodes
        counted once)."""
        report = paper_db.explain(running_example_query(paper_db),
                                  analyze=True)
        for qp, text in zip(report.analyze.queries, report.annotated):
            root = text.splitlines()[1]
            assert root.startswith(f"@{len(qp.ops) - 1} ")
            (cum,) = re.findall(r"cum=(\d+\.\d+) ms\]$", root)
            assert float(cum) == pytest.approx(
                sum(op.time for op in qp.ops) * 1e3, abs=1e-3)

    def test_build_analyze_shares_and_totals(self, paper_db):
        """Query shares are computed against the recorded bundle
        total."""
        record = ExecutionRecord(
            "explain-analyze", "engine", 0.0, 0.5, rows=3,
            queries=[QueryProfile(1, time=0.25, rows=3)])
        report = build_report(paper_db.compile(to_q([1, 2, 3])),
                              paper_db.backend, [], record=record)
        assert report.render_analyze().startswith(
            "== analyze (backend=engine, total=500.000 ms, rows=3) ==")
        assert "(50.0% of bundle)" in report.annotated[0]
