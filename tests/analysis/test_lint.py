"""Unit tests of the row-bounds lint (``repro.analysis.lint``).

``D500`` -- a measured row count outside the static bounds -- gets a
dedicated trigger per place it can fire (query, operator, peak) on
forged profiles, and the CLI gate is exercised end to end: clean exit 0
on the golden workload (Table 1 at 100 *and* 800 categories), exit 1
when ``--assume-rows`` claims a table is smaller than it is.
"""

import json

import pytest

from repro import Connection
from repro.algebra import LitTable, Select, TableScan
from repro.analysis import lint
from repro.analysis.lint import _parse_assume, lint_report
from repro.bench.table1 import running_example_query
from repro.bench.workloads import avalanche_dataset
from repro.ftypes import BoolT, IntT
from repro.obs.analyze import AnalyzeReport, OpProfile, QueryProfile


def lit(n, *cols):
    cols = cols or (("i", IntT), ("v", IntT))
    return LitTable(tuple((r,) * len(cols) for r in range(n)), tuple(cols))


class FakeQuery:
    def __init__(self, plan):
        self.plan = plan


class FakeBundle:
    def __init__(self, *plans):
        self.queries = [FakeQuery(p) for p in plans]


def analyze_for(*profiles):
    return AnalyzeReport(backend="engine",
                         total_time=sum(p.time for p in profiles),
                         queries=list(profiles))


class TestD500:
    def test_per_query_rows_misestimate(self):
        plan = lit(2)
        report = analyze_for(QueryProfile(index=1, time=0.0, rows=5000))
        (out,) = lint_report(FakeBundle(plan), report)
        assert (out.code, out.stage) == ("D500", "bounds")
        assert out.query == 0 and out.node_ref is None
        assert "5000" in out.message and "2..2" in out.message

    def test_rows_below_the_lower_bound_are_a_finding_too(self):
        report = analyze_for(QueryProfile(index=1, time=0.0, rows=1))
        (out,) = lint_report(FakeBundle(lit(2)), report)
        assert out.code == "D500" and "2..2" in out.message

    def test_accurate_estimate_is_clean(self):
        report = analyze_for(QueryProfile(index=1, time=0.0, rows=2))
        assert lint_report(FakeBundle(lit(2)), report) == []

    def test_any_count_inside_the_bounds_is_clean(self):
        # No ratio budget, no slack: 0..3 admits 0 and 3 alike ...
        rows = LitTable(((1, True), (2, False), (3, True)),
                        (("i", IntT), ("b", BoolT)))
        for n in (0, 2, 3):
            report = analyze_for(QueryProfile(index=1, time=0.0, rows=n))
            assert lint_report(FakeBundle(Select(rows, "b")), report) == []
        # ... and 4 not, however close
        report = analyze_for(QueryProfile(index=1, time=0.0, rows=4))
        assert len(lint_report(FakeBundle(Select(rows, "b")), report)) == 1

    def test_open_bounds_never_alarm(self):
        scan = TableScan("t", (("c1", "a", IntT),))
        op = OpProfile(ref=0, op="TableScan", time=0.0, rows_in=0,
                       rows_out=10 ** 9, width=1)
        report = analyze_for(
            QueryProfile(index=1, time=0.0, rows=10 ** 9, ops=[op]))
        assert lint_report(FakeBundle(scan), report) == []
        # the catalog statistic closes them
        assert len(lint_report(FakeBundle(scan), report, {"t": 5})) == 3

    def test_per_operator_misestimate_carries_the_node_ref(self):
        plan = lit(2)
        op = OpProfile(ref=0, op="LitTable 2x2", time=0.0,
                       rows_in=0, rows_out=4000, width=2)
        report = analyze_for(
            QueryProfile(index=1, time=0.0, rows=2, ops=[op]))
        findings = lint_report(FakeBundle(plan), report)
        assert {d.code for d in findings} == {"D500"}
        (at_op,) = [d for d in findings if d.node_ref is not None]
        assert at_op.node_ref == 0 and "LitTable 2x2" in at_op.message
        # the same profile's peak (4000 rows) is past the plan's sound
        # upper bound (a 2-row literal): one more, query-level finding
        (peak,) = [d for d in findings if "peak" in d.message]
        assert peak.query == 0 and peak.node_ref is None

    def test_peak_inside_the_upper_bound_is_clean(self):
        plan = lit(2)
        op = OpProfile(ref=0, op="LitTable 2x2", time=0.0,
                       rows_in=0, rows_out=2, width=2)
        report = analyze_for(
            QueryProfile(index=1, time=0.0, rows=2, ops=[op]))
        assert lint_report(FakeBundle(plan), report) == []


class TestExplain:
    @pytest.mark.parametrize("backend", ["engine", "sqlite", "mil"])
    def test_the_running_example_at_800_categories_is_clean(self, backend):
        db = Connection(backend=backend, catalog=avalanche_dataset(800))
        report = db.explain(running_example_query(db), analyze=True)
        assert report.lint == []
        assert "bounds lint   : clean" in report.render(plans=False)
        assert report.to_dict()["lint"] == []
        # every measured count is printed beside its bounds
        assert "rows=1600 bound=0.." in report.analyze.annotated[1]

    def test_plain_explain_does_not_lint(self):
        db = Connection(catalog=avalanche_dataset(10))
        report = db.explain(running_example_query(db))
        assert report.lint is None and "bounds lint" not in str(report)


class TestCLI:
    def test_golden_workload_is_clean(self, capsys):
        assert lint.main([]) == 0
        assert "clean" in capsys.readouterr().out

    def test_seeded_misestimate_trips_the_gate(self, capsys):
        # The ISSUE's acceptance check: claiming a table is *smaller*
        # than it is makes the bounds unsound, which must produce D500
        # findings and a non-zero exit on every backend.
        for backend in ("engine", "sqlite", "mil"):
            rc = lint.main(["--backend", backend,
                            "--assume-rows", "facilities=1"])
            out = capsys.readouterr().out
            assert rc == 1, backend
            assert "D500" in out and "bounds finding(s)" in out

    def test_a_larger_assumed_size_trips_only_the_lower_bounds(self, capsys):
        # 100000 assumed rows: the scan's bounds are 100000..100000, so
        # the engine's operator profile (9 rows) falls below them; the
        # queries' own bounds start at 0 and stay satisfied.
        assert lint.main(["--assume-rows", "facilities=100000"]) == 1
        out = capsys.readouterr().out
        assert "TableScan" in out and "the query" not in out

    def test_json_output(self, capsys):
        rc = lint.main(["--json", "--assume-rows", "facilities=1"])
        assert rc == 1
        findings = json.loads(capsys.readouterr().out)
        assert findings and all(f["code"] == "D500" for f in findings)
        assert {f["workload"] for f in findings} <= {
            "running_example", "table1_100", "table1_800", "nested_orders"}

    def test_there_is_no_ratio_budget(self):
        with pytest.raises(SystemExit):
            lint.main(["--ratio-budget", "8"])

    def test_bad_assume_rows_rejected(self):
        with pytest.raises(SystemExit):
            _parse_assume(["facilities"])
        with pytest.raises(ValueError):
            _parse_assume(["facilities=lots"])
