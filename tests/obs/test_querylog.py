"""The flight recorder: bounded retention, errors, trace lookup."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Connection, QueryLog
from examples.workloads import running_example_query
from repro.errors import FerryError

from ..conftest import execution_record


def entry(duration: float, **kw):
    return execution_record("fp", duration, **kw)


class TestRetention:
    @pytest.mark.property
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e3,
                              allow_nan=False), max_size=120),
           st.integers(min_value=1, max_value=9))
    def test_slowest_and_recent_views(self, durations, bound):
        """For any stream: ``recent`` is the last N newest-first, and
        ``slowest`` is the top-N by duration (ties broken toward the
        earlier execution), regardless of arrival order."""
        log = QueryLog(recent=bound, slowest=bound)
        entries = [entry(d) for d in durations]
        for e in entries:
            log.record(e)

        assert log.recorded == len(entries)
        assert log.recent == list(reversed(entries[-bound:]))

        # expected top-N: sort by (duration desc, arrival asc)
        ranked = sorted(enumerate(entries),
                        key=lambda t: (-t[1].duration, t[0]))
        expected = [e for _, e in ranked[:bound]]
        assert log.slowest == expected
        assert len(log.slowest) <= bound

    def test_bounds_must_be_positive(self):
        with pytest.raises(ValueError):
            QueryLog(recent=0)
        with pytest.raises(ValueError):
            QueryLog(slowest=-1)

    def test_clear_keeps_cumulative_counts(self):
        log = QueryLog(recent=4, slowest=4)
        log.record(entry(1.0))
        log.record(entry(2.0, error="ValueError('x')"))
        log.clear()
        assert log.recent == [] and log.slowest == []
        assert log.recorded == 2 and log.error_count == 1

    def test_snapshot_is_json_able(self):
        log = QueryLog(recent=2, slowest=2)
        for d in (0.3, 0.1, 0.2):
            log.record(entry(d))
        snap = json.loads(json.dumps(log.snapshot()))
        assert snap["recorded"] == 3
        assert [e["duration"] for e in snap["recent"]] == [0.2, 0.1]
        assert [e["duration"] for e in snap["slowest"]] == [0.3, 0.2]
        assert snap["recent"][0]["traced"] is False


class TestConnectionRecording:
    def test_every_run_lands_in_the_log(self, paper_db):
        q = running_example_query(paper_db)
        paper_db.run(q)
        paper_db.run(q)
        log = paper_db.query_log
        assert log.recorded == 2
        newest, oldest = log.recent
        assert newest.kind == "run" and newest.cache_hit is True
        assert oldest.cache_hit is False
        assert newest.fingerprint == oldest.fingerprint
        assert newest.bundle_size == 2
        assert newest.trace is paper_db.last_trace
        # every record carries its row count
        assert newest.rows is not None and newest.rows > 0

    def test_prepared_execute_is_recorded(self, paper_db):
        handle = paper_db.prepare(running_example_query(paper_db))
        handle.execute()
        [rec] = paper_db.query_log.recent
        assert rec.kind == "execute-prepared"
        assert rec.cache_hit is True

    def test_failed_run_is_recorded_with_error(self, paper_db):
        with pytest.raises(FerryError):
            paper_db.run(_missing_table())
        [rec] = paper_db.query_log.recent
        assert rec.error is not None
        assert paper_db.query_log.error_count == 1


def _missing_table():
    from repro.frontend.tables import table
    return table("nowhere", [("x", int)])


class TestErrorCodes:
    def test_coded_entries_accumulate_per_code(self):
        log = QueryLog()
        log.record(entry(0.1, error="boom", error_code="F301"))
        log.record(entry(0.1, error="boom", error_code="F301"))
        log.record(entry(0.1, error="boom", error_code="S400"))
        log.record(entry(0.1, error="boom"))  # codeless error
        assert log.error_count == 4
        assert log.error_codes == {"F301": 2, "S400": 1}

    def test_connection_surfaces_the_exceptions_code(self, paper_db,
                                                     monkeypatch):
        from repro.errors import VerifyError
        q = running_example_query(paper_db)
        paper_db.run(q)  # warm the plan cache first

        def broken(bundle, catalog, **kw):
            raise VerifyError("injected failure", code="F301")

        monkeypatch.setattr(paper_db.backend, "execute_bundle", broken)
        with pytest.raises(VerifyError):
            paper_db.run(q)
        newest, _ = paper_db.query_log.recent
        assert newest.error is not None
        assert newest.error_code == "F301"
        assert paper_db.query_log.snapshot()["error_codes"] == {"F301": 1}

    def test_codeless_errors_leave_codes_empty(self, paper_db):
        with pytest.raises(FerryError):
            paper_db.run(_missing_table())
        [rec] = paper_db.query_log.recent
        assert rec.error_code is None
        assert paper_db.query_log.error_codes == {}


class TestFindTrace:
    def test_resolves_a_recorded_trace_id(self, paper_db):
        paper_db.run(running_example_query(paper_db))
        [rec] = paper_db.query_log.recent
        assert rec.trace_id is not None
        assert paper_db.query_log.find_trace(rec.trace_id) is rec

    def test_unknown_trace_id_is_none(self, paper_db):
        paper_db.run(running_example_query(paper_db))
        assert paper_db.query_log.find_trace("not-a-trace-id") is None

    def test_untraced_connections_record_no_trace_id(self, paper_catalog):
        db = Connection(catalog=paper_catalog, trace=False)
        db.run(running_example_query(db))
        [rec] = db.query_log.recent
        assert rec.trace_id is None

