"""Unit tests of the estimate-drift lint (``repro.analysis.lint``).

Every D-code gets a dedicated trigger on forged profiles or
monkeypatched calibration tables, ``_misestimate``'s slack/budget edges
are pinned, and the CLI gate is exercised end to end: clean exit 0 on
the golden workload, exit 1 when ``--assume-rows`` seeds a deliberate
D500 misestimate.
"""

import json

import pytest

from repro.algebra import Cross, LitTable
from repro.analysis import lint
from repro.analysis.cost import CALIBRATION
from repro.analysis.lint import (
    DEFAULT_RATIO_BUDGET,
    ROW_SLACK,
    _misestimate,
    _parse_assume,
    lint_calibration,
    lint_report,
    lint_statements,
)
from repro.ftypes import IntT
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


class TestMisestimate:
    def test_inside_absolute_slack_never_alarms(self):
        assert not _misestimate(0.0, ROW_SLACK, DEFAULT_RATIO_BUDGET)
        assert not _misestimate(1000.0, 1000.0 + ROW_SLACK, 8.0)

    def test_small_counts_past_slack_use_the_floor(self):
        # |0 - 17| > slack and 17 > 8 * max(0, 1.0)
        assert _misestimate(0.0, ROW_SLACK + 1.0, 8.0)

    def test_ratio_budget_is_the_boundary(self):
        assert not _misestimate(100.0, 700.0, 8.0)   # 7x: inside
        assert _misestimate(100.0, 900.0, 8.0)       # 9x: outside
        assert _misestimate(900.0, 100.0, 8.0)       # symmetric


class TestD500:
    def test_per_query_rows_misestimate(self):
        plan = lit(2)
        report = analyze_for(QueryProfile(index=1, time=0.0, rows=5000))
        out = [d for d in lint_report(FakeBundle(plan), report, "engine")
               if d.code == "D500"]
        assert len(out) == 1
        assert out[0].query == 0 and out[0].node_ref is None
        assert "5000" in out[0].message

    def test_accurate_estimate_is_clean(self):
        plan = lit(2)
        report = analyze_for(QueryProfile(index=1, time=0.0, rows=2))
        assert not [d for d in
                    lint_report(FakeBundle(plan), report, "engine")
                    if d.code == "D500"]

    def test_per_operator_misestimate_carries_the_node_ref(self):
        plan = lit(2)
        op = OpProfile(ref=0, op="LitTable 2x2", time=0.0,
                       rows_in=0, rows_out=4000, width=2)
        report = analyze_for(
            QueryProfile(index=1, time=0.0, rows=2, ops=[op]))
        out = [d for d in lint_report(FakeBundle(plan), report, "engine")
               if d.code == "D500" and d.node_ref is not None]
        assert len(out) == 1 and out[0].node_ref == 0
        # the same profile's peak (4000 rows) is past the plan's sound
        # upper bound (a 2-row literal): one more, query-level finding
        (peak,) = [d for d in
                   lint_report(FakeBundle(plan), report, "engine")
                   if d.code == "D500" and "peak" in d.message]
        assert peak.query == 0 and peak.node_ref is None

    def test_peak_inside_the_upper_bound_is_clean(self):
        plan = lit(2)
        op = OpProfile(ref=0, op="LitTable 2x2", time=0.0,
                       rows_in=0, rows_out=2, width=2)
        report = analyze_for(
            QueryProfile(index=1, time=0.0, rows=2, ops=[op]))
        assert not [d for d in
                    lint_report(FakeBundle(plan), report, "engine")
                    if d.code == "D500"]

    def test_statements_snapshot_misestimate(self):
        snap = {"statements": [
            {"fingerprint": "deadbeef" * 8, "est_rows": 10.0,
             "rows": 100_000, "calls": 10},          # mean 10k vs 10
            {"fingerprint": "cafebabe" * 8, "est_rows": 10.0,
             "rows": 100, "calls": 10},              # mean 10: exact
            {"fingerprint": "0" * 64, "rows": 99, "calls": 3},  # no est
            {"fingerprint": "1" * 64, "est_rows": 5.0,
             "rows": 0, "calls": 0},                 # never ran
        ]}
        out = lint_statements(snap)
        assert [d.code for d in out] == ["D500"]
        assert "deadbeef" in out[0].message


class TestD501:
    def test_cost_inversion_between_siblings(self):
        cheap, big = lit(2), Cross(
            lit(200, ("a", IntT)), lit(200, ("b", IntT)))
        # Model says `cheap` is ~1500x cheaper, clock says 100x slower.
        report = analyze_for(
            QueryProfile(index=1, time=1.0, rows=2),
            QueryProfile(index=2, time=0.01, rows=40_000))
        out = [d for d in
               lint_report(FakeBundle(cheap, big), report, "engine")
               if d.code == "D501"]
        assert len(out) == 1
        assert out[0].query == 0 and "slower" in out[0].message

    def test_noise_floor_suppresses_fast_queries(self):
        cheap, big = lit(2), Cross(
            lit(200, ("a", IntT)), lit(200, ("b", IntT)))
        report = analyze_for(
            QueryProfile(index=1, time=0.004, rows=2),
            QueryProfile(index=2, time=0.0001, rows=40_000))
        assert not [d for d in
                    lint_report(FakeBundle(cheap, big), report, "engine")
                    if d.code == "D501"]

    def test_consistent_ordering_is_clean(self):
        cheap, big = lit(2), Cross(
            lit(200, ("a", IntT)), lit(200, ("b", IntT)))
        report = analyze_for(
            QueryProfile(index=1, time=0.01, rows=2),
            QueryProfile(index=2, time=1.0, rows=40_000))
        assert not [d for d in
                    lint_report(FakeBundle(cheap, big), report, "engine")
                    if d.code == "D501"]


class TestD502:
    def test_unknown_backend_is_uncalibrated(self):
        out = lint_calibration("postgres")
        assert [d.code for d in out] == ["D502"]
        assert "no calibration table" in out[0].message

    def test_version_mismatch(self, monkeypatch):
        stale = dict(CALIBRATION["engine"], __version__=0)
        monkeypatch.setitem(CALIBRATION, "engine", stale)
        out = lint_calibration("engine")
        assert [d.code for d in out] == ["D502"]
        assert "version 0" in out[0].message

    def test_missing_operator_constant(self, monkeypatch):
        gappy = {k: v for k, v in CALIBRATION["engine"].items()
                 if k != "LitTable"}
        monkeypatch.setitem(CALIBRATION, "engine", gappy)
        out = lint_calibration("engine", plans=[lit(2)])
        assert [d.code for d in out] == ["D502"]
        assert "'LitTable'" in out[0].message

    def test_current_calibration_is_clean(self):
        assert lint_calibration("engine", plans=[lit(2)]) == []


class TestCLI:
    def test_golden_workload_is_clean(self, capsys):
        assert lint.main([]) == 0
        assert "clean" in capsys.readouterr().out

    def test_seeded_misestimate_trips_the_gate(self, capsys):
        # The ISSUE's acceptance check: a deliberate stats lie must
        # produce D500 findings and a non-zero exit.
        rc = lint.main(["--assume-rows", "facilities=100000"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "D500" in out and "drift finding(s)" in out

    def test_json_output(self, capsys):
        rc = lint.main(["--json",
                        "--assume-rows", "facilities=100000"])
        assert rc == 1
        findings = json.loads(capsys.readouterr().out)
        assert findings and all(f["code"].startswith("D5")
                                for f in findings)
        assert {f["workload"] for f in findings} <= {
            "running_example", "table1_100", "nested_orders"}

    def test_bad_assume_rows_rejected(self):
        with pytest.raises(SystemExit):
            _parse_assume(["facilities"])
        with pytest.raises(ValueError):
            _parse_assume(["facilities=lots"])
