"""Per-fingerprint statement statistics: the ``pg_stat_statements``
view.

Two layers under test.  First the :class:`StatementStats` aggregator
itself: exact counts, the LRU-eviction-into-overflow invariant (totals
stay exact no matter the fingerprint cardinality), quantiles, and the
compile-only accounting path.  Second the wiring: every
``Connection.run`` (and ``explain(analyze=True)``, which executes too)
must land in the stats with numbers that *reconcile exactly* against
the connection's own counters and its flight recorder.
"""

from __future__ import annotations

import pytest

from repro import Connection, to_q
from repro.bench.table1 import running_example_query
from repro.bench.workloads import numbers_dataset, paper_dataset
from repro.errors import ObservabilityError
from repro.obs import EVICTED, UNFINGERPRINTED, StatementStats

from ..conftest import execution_record as rec


def reconcile(conn: Connection) -> None:
    """Assert a fresh connection's stats totals equal its own counters
    and its flight recorder (every record still retained)."""
    log = conn.query_log
    totals = conn.statement_stats()["totals"]
    # ``executions`` counts completed executions; the log records failed
    # ones too, counting them in ``error_count``.
    assert conn.executions == log.recorded - log.error_count == \
        totals["calls"]
    assert log.error_count == totals["errors"]
    assert conn.queries_issued == totals["queries"]
    assert sum(r.rows or 0 for r in log.recent) == totals["rows"]


class TestStatementStatsUnit:
    def test_capacity_and_reservoir_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            StatementStats(capacity=0)
        with pytest.raises(ValueError, match="reservoir"):
            StatementStats(reservoir=0)

    def test_record_accumulates_exact_counts(self):
        stats = StatementStats()
        stats.record(rec("fp1", 0.1, rows=5, queries_issued=2,
                         cache_hit=False))
        stats.record(rec("fp1", 0.3, rows=5, queries_issued=2,
                         cache_hit=True))
        entry = stats.get("fp1")
        assert entry["calls"] == 2
        assert entry["rows"] == 10
        assert entry["queries"] == 4
        assert entry["cache_hits"] == 1
        assert entry["total_time"] == pytest.approx(0.4)
        assert entry["min_time"] == pytest.approx(0.1)
        assert entry["max_time"] == pytest.approx(0.3)
        assert entry["mean_time"] == pytest.approx(0.2)

    def test_errors_counted_separately_with_codes(self):
        stats = StatementStats()
        stats.record(rec("fp1", 0.1))
        stats.record(rec("fp1", 0.1, error="boom", error_code="F301"))
        stats.record(rec("fp1", 0.1, error="boom", error_code="F301"))
        stats.record(rec("fp1", 0.1, error="boom"))
        entry = stats.get("fp1")
        assert entry["calls"] == 1
        assert entry["errors"] == 3
        assert entry["error_codes"] == {"F301": 2}

    def test_none_fingerprint_lands_in_unfingerprinted(self):
        stats = StatementStats()
        stats.record(rec(None, 0.1, error="boom"))
        assert stats.get(UNFINGERPRINTED)["errors"] == 1

    def test_worst_trace_id_follows_max_time(self):
        stats = StatementStats()
        stats.record(rec("fp1", 0.2, trace_id="aa"))
        stats.record(rec("fp1", 0.9, trace_id="bb"))
        stats.record(rec("fp1", 0.4, trace_id="cc"))
        assert stats.get("fp1")["worst_trace_id"] == "bb"

    def test_quantiles_from_reservoir(self):
        stats = StatementStats()
        for ms in range(1, 101):
            stats.record(rec("fp1", ms / 1000.0))
        entry = stats.get("fp1")
        assert entry["p50"] == pytest.approx(0.050, abs=0.002)
        assert entry["p99"] == pytest.approx(0.099, abs=0.002)

    def test_prepare_record_counts_no_call(self):
        stats = StatementStats()
        stats.record(rec("fp1", 0.05, kind="prepare",
                         phases={"lift": 0.05}, cache_hit=False))
        stats.record(rec("fp1", 0.0, kind="prepare", cache_hit=True))
        entry = stats.get("fp1")
        assert entry["calls"] == 0
        assert entry["cache_hits"] == 1
        assert entry["compile_time"] == pytest.approx(0.05)

    def test_reset_drops_everything(self):
        stats = StatementStats(capacity=1)
        stats.record(rec("fp1", 0.1))
        stats.record(rec("fp2", 0.1))  # evicts fp1
        stats.reset()
        snap = stats.snapshot()
        assert snap["tracked"] == 0
        assert snap["evicted"] is None
        assert snap["totals"]["calls"] == 0


class TestEvictionInvariant:
    def test_eviction_folds_into_overflow_keeping_totals_exact(self):
        stats = StatementStats(capacity=4)
        for i in range(20):
            stats.record(rec(f"fp{i}", 0.01, rows=3, queries_issued=2))
        snap = stats.snapshot()
        assert snap["tracked"] == 4
        assert snap["evicted_statements"] == 16
        assert snap["evicted"]["fingerprint"] == EVICTED
        assert snap["evicted"]["folded"] == 16
        # The invariant: totals across tracked + evicted are exact.
        assert snap["totals"]["calls"] == 20
        assert snap["totals"]["rows"] == 60
        assert snap["totals"]["queries"] == 40
        assert snap["totals"]["total_time"] == pytest.approx(0.2)

    def test_lru_evicts_least_recently_called(self):
        stats = StatementStats(capacity=2)
        stats.record(rec("old", 0.1))
        stats.record(rec("hot", 0.1))
        stats.record(rec("hot", 0.1))  # touch: "old" is now LRU
        stats.record(rec("new", 0.1))  # evicts "old"
        assert stats.get("old") is None
        assert stats.get("hot") is not None
        assert stats.get("new") is not None

    def test_evicted_bucket_carries_worst_case_forward(self):
        stats = StatementStats(capacity=1)
        stats.record(rec("slow", 9.0, trace_id="tt"))
        stats.record(rec("fast", 0.1))  # evicts "slow"
        snap = stats.snapshot()
        assert snap["evicted"]["max_time"] == pytest.approx(9.0)
        assert snap["evicted"]["worst_trace_id"] == "tt"


class TestConnectionWiring:
    def test_run_populates_stats(self, paper_db):
        q = running_example_query(paper_db)
        paper_db.run(q)
        paper_db.run(q)
        snap = paper_db.statement_stats()
        [stmt] = snap["statements"]
        assert stmt["calls"] == 2
        assert stmt["cache_hits"] == 1
        assert stmt["rows"] > 0
        assert stmt["queries"] > 0
        assert stmt["compile_time"] > 0.0
        assert stmt["execute_time"] > 0.0
        assert stmt["p50"] is not None

    def test_fingerprint_matches_plan_cache(self, paper_db):
        q = running_example_query(paper_db)
        compiled = paper_db.compile(q)
        paper_db.run(q)
        assert paper_db.stats.get(compiled.fingerprint) is not None

    def test_worst_trace_resolves_in_flight_recorder(self, paper_db):
        q = running_example_query(paper_db)
        paper_db.run(q)
        [stmt] = paper_db.statement_stats()["statements"]
        tid = stmt["worst_trace_id"]
        assert tid is not None
        assert paper_db.query_log.find_trace(tid) is not None

    def test_prepare_accounts_compile_only(self, paper_db):
        prepared = paper_db.prepare(running_example_query(paper_db))
        entry = paper_db.stats.get(prepared.fingerprint)
        assert entry["calls"] == 0
        assert entry["compile_time"] > 0.0
        prepared.execute()
        entry = paper_db.stats.get(prepared.fingerprint)
        assert entry["calls"] == 1

    def test_disabled_stats_raise_loudly(self, paper_catalog):
        conn = Connection(catalog=paper_catalog, statement_stats=False)
        conn.run(to_q([1, 2]))
        with pytest.raises(ObservabilityError, match="statement_stats"):
            conn.statement_stats()

    def test_failed_run_lands_in_errors(self, paper_db):
        from repro.frontend.tables import table
        with pytest.raises(Exception):
            paper_db.run(table("missing", [("n", int)]))
        totals = paper_db.statement_stats()["totals"]
        assert totals["errors"] == 1
        assert totals["calls"] == 0


class TestMetricsReconciliation:
    def test_engine_default(self):
        conn = Connection(catalog=paper_dataset())
        q = running_example_query(conn)
        for _ in range(3):
            conn.run(q)
        conn.run(to_q([1, 2, 3]))
        reconcile(conn)
        assert conn.statement_stats()["totals"]["cache_hits"] == \
            conn.cache_stats.hits

    def test_explain_analyze_is_a_recorded_execution(self):
        conn = Connection(catalog=paper_dataset())
        q = running_example_query(conn)
        conn.run(q)
        conn.run(q)
        conn.explain(q, analyze=True)
        reconcile(conn)
        assert conn.statement_stats()["totals"]["calls"] == \
            conn.executions == 3
        assert [e.kind for e in conn.query_log.recent] == \
            ["explain-analyze", "run", "run"]

    def test_errors_reconcile_too(self):
        from repro.frontend.tables import table
        conn = Connection(catalog=numbers_dataset(5))
        conn.run(conn.table("nums").filter(lambda r: r > 2))
        with pytest.raises(Exception):
            conn.run(table("missing", [("n", int)]))
        reconcile(conn)

    @pytest.mark.parametrize("kind", ["run", "execute-prepared",
                                      "explain-analyze", "failing-run",
                                      "prepare"])
    def test_every_view_is_the_published_record(self, kind, monkeypatch):
        """Whatever ``Connection`` publishes, the flight recorder, the
        statement-stats totals and the connection's counters are that
        record, field by field."""
        from repro.frontend.tables import table
        conn = Connection(catalog=paper_dataset())
        q = running_example_query(conn)
        handle = conn.prepare(q)
        published = []
        record = conn.stats.record
        monkeypatch.setattr(conn.stats, "record",
                            lambda rec: (published.append(rec), record(rec)))
        totals = conn.statement_stats()["totals"]
        logged, failed = conn.query_log.recorded, conn.query_log.error_count
        executions, issued = conn.executions, conn.queries_issued

        if kind == "run":
            conn.run(q)
        elif kind == "execute-prepared":
            handle.execute()
        elif kind == "explain-analyze":
            conn.explain(q, analyze=True)  # a prepare, then the execution
        elif kind == "failing-run":
            with pytest.raises(Exception):
                conn.run(table("missing", [("n", int)]))
        else:
            conn.prepare(q)
        rec = published[-1]
        assert rec.kind == ("run" if kind == "failing-run" else kind)
        assert (rec.error is not None) == (kind == "failing-run")
        executed = [r for r in published if r.executed]

        def total(values):
            return pytest.approx(sum(values))

        # the flight recorder holds the record itself
        assert conn.query_log.recorded - logged == len(executed)
        assert conn.query_log.error_count - failed == \
            sum(r.error is not None for r in executed)
        if executed:
            assert conn.query_log.recent[0] is rec

        # statement stats
        after = conn.statement_stats()["totals"]
        delta = {key: after[key] - totals[key] for key in after}
        assert delta["calls"] == sum(r.error is None for r in executed)
        assert delta["errors"] == sum(r.error is not None for r in executed)
        assert delta["cache_hits"] == sum(r.cache_hit for r in published)
        assert delta["rows"] == sum(r.rows or 0 for r in executed)
        assert delta["queries"] == sum(r.queries_issued for r in executed)
        assert delta["compile_time"] == total(r.compile_time
                                              for r in published)
        assert delta["execute_time"] == total(r.execute_time
                                              for r in executed)
        assert delta["total_time"] == total(r.duration for r in executed)

        # the connection's own counters
        assert conn.executions - executions == delta["calls"]
        assert conn.queries_issued - issued == delta["queries"]
