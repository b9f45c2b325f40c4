"""Pipeline wiring: what real executions leave in the connection's
views -- the flight recorder, the statement stats and the plan-cache
counters."""

import pytest

from repro import Connection, to_q
from examples.workloads import running_example_query


class TestPipelineWiring:
    """Every execution's record reaches each per-connection view."""

    def test_run_counts_compiles_queries_and_rows(self, paper_catalog):
        db = Connection(catalog=paper_catalog)
        q = running_example_query(db)
        db.run(q)
        db.run(q)

        records = db.query_log.recent
        assert sum("check" in r.phases for r in records) == 2
        assert sum("lift" in r.phases for r in records) == 1
        assert db.executions == 2
        assert db.queries_issued == 4  # bundle of 2, run twice
        assert (db.cache_stats.hits, db.cache_stats.misses) == (1, 1)
        assert len(db.plan_cache) == 1
        totals = db.statement_stats()["totals"]
        assert totals["calls"] == 2 and totals["queries"] == 4
        assert totals["cache_hits"] == db.cache_stats.hits
        assert totals["rows"] > 0
        assert totals["rows"] == sum(r.rows for r in records)

    @pytest.mark.parametrize("backend", ["engine", "sqlite"])
    def test_every_backend_reports(self, paper_catalog, backend):
        db = Connection(backend=backend, catalog=paper_catalog)
        db.run(running_example_query(db))
        [rec] = db.query_log.recent
        assert rec.backend == backend
        assert rec.queries_issued == 2 == len(rec.queries)
        assert rec.rows > 0
        assert sum(p.rows for p in rec.queries) == rec.rows
        totals = db.statement_stats()["totals"]
        assert (totals["queries"], totals["rows"]) == (2, rec.rows)

    def test_phase_histograms_observe_cold_and_warm(self):
        db = Connection()
        q = to_q([[1, 2], [3]])
        db.run(q)
        db.run(q)
        warm, cold = db.query_log.recent
        for phase in ("check", "lookup", "lift", "optimize", "codegen",
                      "execute", "stitch"):
            # lift/optimize/codegen run once (cold); the rest run twice
            assert phase in cold.phases, phase
            assert (phase in warm.phases) == (
                phase not in ("lift", "optimize", "codegen")), phase
        [stmt] = db.statement_stats()["statements"]
        assert stmt["compile_time"] == pytest.approx(
            cold.compile_time + warm.compile_time)
        assert stmt["execute_time"] == pytest.approx(
            cold.execute_time + warm.execute_time)
