"""Per-fingerprint statement statistics: the ``pg_stat_statements``
view.

Two layers under test.  First the :class:`StatementStats` aggregator
itself: exact counts, LRU eviction (an evicted fingerprint is dropped
and counted), quantiles, and the compile-only accounting path.  Second
the wiring: every ``Connection.run`` (and ``explain(analyze=True)``,
which executes too) lands in the flight recorder's one fold of the
workload -- the statement totals, the connection's counters and the
recorder's counts are all fields of it -- and in its statement's
aggregate, whatever the stats evicted.
"""

from __future__ import annotations

import pytest

from repro import Connection, to_q
from examples.workloads import (
    numbers_dataset,
    paper_dataset,
    running_example_query,
)
from repro.errors import ObservabilityError
from repro.obs import UNFINGERPRINTED, StatementStats

from ..conftest import execution_record as rec


def reconcile(conn: Connection) -> None:
    """Assert a fresh connection's stats totals, its own counters and
    its flight recorder's counts are fields of the recorder's one fold,
    and equal its retained records (every record still retained)."""
    log = conn.query_log
    totals = conn.statement_stats()["totals"]
    assert totals == log.totals.snapshot()
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
        assert snap["tracked"] == 0 and snap["statements"] == []
        assert snap["evicted_statements"] == 0


class TestEvictionInvariant:
    def test_eviction_keeps_the_totals_exact(self, paper_catalog):
        """Sixteen of twenty statements are evicted; the totals are the
        flight recorder's fold, which evicts nothing."""
        conn = Connection(catalog=paper_catalog)
        conn.stats = StatementStats(capacity=4)
        for i in range(20):
            conn.run(to_q([i, i + 1, i + 2]))
        snap = conn.statement_stats()
        assert snap["tracked"] == 4
        assert snap["evicted_statements"] == 16
        assert "evicted" not in snap
        assert sum(s["calls"] for s in snap["statements"]) == 4
        assert snap["totals"]["calls"] == conn.executions == 20
        assert snap["totals"]["rows"] == 60
        assert snap["totals"]["queries"] == conn.queries_issued == 20
        assert snap["totals"]["total_time"] == pytest.approx(
            sum(r.duration for r in conn.query_log.recent))
        reconcile(conn)

    def test_reset_and_clear_keep_the_totals(self, paper_db):
        q = running_example_query(paper_db)
        paper_db.run(q)
        paper_db.run(q)
        before = paper_db.statement_stats()["totals"]
        paper_db.stats.reset()
        paper_db.query_log.clear()
        snap = paper_db.statement_stats()
        assert snap["statements"] == [] and paper_db.query_log.recent == []
        assert snap["totals"] == before
        assert paper_db.executions == 2 == paper_db.query_log.recorded

    def test_lru_evicts_least_recently_called(self):
        stats = StatementStats(capacity=2)
        stats.record(rec("old", 0.1))
        stats.record(rec("hot", 0.1))
        stats.record(rec("hot", 0.1))  # touch: "old" is now LRU
        stats.record(rec("new", 0.1))  # evicts "old"
        assert stats.get("old") is None
        assert stats.get("hot") is not None
        assert stats.get("new") is not None

    def test_an_evicted_statement_is_dropped_and_counted(self):
        stats = StatementStats(capacity=1)
        stats.record(rec("slow", 9.0, trace_id="tt"))
        stats.record(rec("fast", 0.1))  # evicts "slow"
        snap = stats.snapshot()
        assert stats.get("slow") is None
        assert [s["fingerprint"] for s in snap["statements"]] == ["fast"]
        assert snap["evicted_statements"] == 1
        # back again: a fresh aggregate, no memory of the first one
        stats.record(rec("slow", 0.2))
        assert stats.get("slow")["max_time"] == pytest.approx(0.2)
        assert stats.snapshot()["evicted_statements"] == 2


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
        fold = conn.query_log.totals
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
        codes = after.pop("error_codes")
        assert codes == {r.error_code: 1 for r in executed if r.error_code}
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

        # ... and all of them are fields of the flight recorder's fold
        assert after == {k: v for k, v in fold.snapshot().items()
                         if k != "error_codes"}
        assert (conn.executions, conn.queries_issued) == \
            (fold.calls, fold.queries)
        assert (conn.query_log.recorded, conn.query_log.error_count) == \
            (fold.calls + fold.errors, fold.errors)
