"""The staged plan verifier: diagnostic codes, stages, and debug mode.

Every code in the F1xx/F2xx/F301 table is triggered at least once on a
deliberately broken plan or bundle, and the happy path (a well-formed
bundle in standard ``iter|pos|item`` form) is pinned as diagnostic-free.
"""

import pytest

from repro.algebra import LitTable, Project, RowNum
from repro.analysis import (
    STAGES,
    Diagnostic,
    check_plan,
    ensure_verified,
    set_verify_debug,
    verify_bundle,
    verify_debug_enabled,
)
from repro.core.bundle import AtomRef, Bundle, SerializedQuery
from repro.errors import VerifyError
from repro.ftypes import IntT, ListT, StringT


def lit(*cols, rows=()):
    return LitTable(tuple(rows), tuple(cols))


def good_bundle() -> Bundle:
    """One well-formed query in standard form with a RowNum'd pos."""
    base = lit(("i", IntT), ("v", IntT), rows=[(1, 20), (1, 10)])
    num = RowNum(base, "p", (("v", "asc"),), ("i",))
    plan = Project(num, (("i", "i"), ("p", "p"), ("v", "v")))
    q = SerializedQuery(plan, "i", "p", ("v",), (IntT,))
    return Bundle(ListT(IntT), [q], AtomRef(0, IntT), True)


class TestStructuralStage:
    def test_unknown_column_is_f101(self):
        bad = Project(lit(("a", IntT)), (("b", "missing"),))
        with pytest.raises(VerifyError) as exc:
            check_plan(bad)
        assert exc.value.code == "F101"
        assert "@" in str(exc.value)  # carries the node ref

    def test_duplicate_name_is_f102(self):
        bad = lit(("a", IntT), ("a", IntT))
        with pytest.raises(VerifyError) as exc:
            check_plan(bad)
        assert exc.value.code == "F102"

    def test_collect_mode_continues_past_failures(self):
        bad = Project(lit(("a", IntT)), (("b", "missing"),))
        diags = []
        check_plan(bad, collect=diags)
        assert [d.code for d in diags] == ["F101"]
        assert diags[0].stage == "structural"

    def test_raise_mode_accepts_a_good_plan(self):
        with pytest.raises(VerifyError):
            check_plan(Project(lit(("a", IntT)), (("b", "missing"),)))
        check_plan(good_bundle().queries[0].plan)


class TestOrderStage:
    def test_well_formed_bundle_is_clean(self):
        report = verify_bundle(good_bundle(), label="test")
        assert report.ok and report.stages == STAGES

    def test_nonstandard_root_schema_is_f202(self):
        bundle = good_bundle()
        q = bundle.queries[0]
        # claim the columns in the wrong order
        bundle.queries[0] = SerializedQuery(q.plan, q.pos_col, q.iter_col,
                                            q.item_cols, q.item_types)
        report = verify_bundle(bundle, label="test", raise_on_error=False)
        assert [d.code for d in report.diagnostics] == ["F202"]

    def test_item_type_mismatch_is_f203(self):
        bundle = good_bundle()
        q = bundle.queries[0]
        bundle.queries[0] = SerializedQuery(q.plan, q.iter_col, q.pos_col,
                                            q.item_cols, (StringT,))
        report = verify_bundle(bundle, label="test", raise_on_error=False)
        assert [d.code for d in report.diagnostics] == ["F203"]

    def test_pos_without_lineage_is_f201(self):
        # pos is a plain data column: no RowNum, not dense, not constant
        plan = lit(("i", IntT), ("p", IntT), ("v", IntT),
                   rows=[(1, 5, 10), (1, 9, 20)])
        bundle = Bundle(ListT(IntT),
                        [SerializedQuery(plan, "i", "p", ("v",), (IntT,))],
                        AtomRef(0, IntT), True)
        report = verify_bundle(bundle, label="test", raise_on_error=False)
        assert [d.code for d in report.diagnostics] == ["F201"]
        with pytest.raises(VerifyError) as exc:
            verify_bundle(bundle, label="test")
        assert exc.value.code == "F201"


class TestAvalancheStage:
    def test_excess_query_is_f301(self):
        bundle = good_bundle()
        bundle.queries.append(bundle.queries[0])
        report = verify_bundle(bundle, label="test", raise_on_error=False)
        assert "F301" in [d.code for d in report.diagnostics]


class TestReportAndStamp:
    def test_diagnostic_rendering(self):
        d = Diagnostic("F201", "order", "boom", query=1, node_ref=7)
        assert str(d) == "F201 [order] Q2 @7: boom"

    def test_report_to_dict(self):
        report = verify_bundle(good_bundle(), label="test")
        data = report.to_dict()
        assert data["ok"] is True
        assert data["stages"] == list(STAGES)
        assert data["diagnostics"] == []

    def test_verified_stamp_and_ensure(self):
        bundle = good_bundle()
        assert not bundle.verified
        verify_bundle(bundle, label="test")
        assert bundle.verified
        ensure_verified(bundle, "backend:test")  # no-op, already stamped

    def test_failed_bundle_is_not_stamped(self):
        bundle = good_bundle()
        bundle.queries.append(bundle.queries[0])
        verify_bundle(bundle, label="test", raise_on_error=False)
        assert not bundle.verified


class TestDebugMode:
    def test_programmatic_override_wins(self):
        previous = set_verify_debug(True)
        try:
            assert verify_debug_enabled()
            set_verify_debug(False)
            assert not verify_debug_enabled()
        finally:
            set_verify_debug(previous)

    def test_environment_variable(self, monkeypatch):
        previous = set_verify_debug(None)
        try:
            monkeypatch.delenv("FERRY_VERIFY", raising=False)
            assert not verify_debug_enabled()
            monkeypatch.setenv("FERRY_VERIFY", "1")
            assert verify_debug_enabled()
            monkeypatch.setenv("FERRY_VERIFY", "0")
            assert not verify_debug_enabled()
        finally:
            set_verify_debug(previous)
