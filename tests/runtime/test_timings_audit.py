"""Audit of the accounting surfaces: timings, counters, and trace sums.

Pins down the documented contract of ``CompiledQuery.timings``,
``Connection.cache_stats``/``queries_issued``/``executions`` across every
run/prepare/cache-hit combination, and checks that the span tree's
children account (approximately) for the end-to-end wall time.
"""

from repro import Connection
from examples.workloads import running_example_query
from repro.obs.trace import Tracer

#: Phase keys documented on CompiledQuery.timings.
COLD_KEYS = {"check", "lookup", "lift", "optimize"}
WARM_KEYS = {"check", "lookup"}


class TestCompileTimings:
    def test_cold_compile_records_every_documented_phase(self, paper_db):
        compiled = paper_db.compile(running_example_query(paper_db))
        assert set(compiled.timings) == COLD_KEYS
        assert all(v >= 0.0 for v in compiled.timings.values())
        assert compiled.compile_time == sum(compiled.timings.values())
        assert not compiled.cache_hit
        assert compiled.pass_stats is not None

    def test_warm_compile_records_only_check_and_lookup(self, paper_db):
        q = running_example_query(paper_db)
        paper_db.compile(q)
        warm = paper_db.compile(q)
        assert warm.cache_hit
        assert set(warm.timings) == WARM_KEYS
        # a cache hit never re-runs the optimizer
        assert warm.pass_stats is None

    def test_cold_run_adds_codegen(self, paper_db):
        q = running_example_query(paper_db)
        paper_db.run(q)
        # the codegen timing lands on the CompiledQuery run() built; the
        # next compile is warm, so check via a compile after a clear
        paper_db.plan_cache.clear()
        cold = paper_db.compile(q)
        paper_db._codegen(cold)
        assert "codegen" in cold.timings

    def test_warm_run_reuses_cached_codegen(self, paper_db):
        q = running_example_query(paper_db)
        paper_db.run(q)
        warm = paper_db.compile(q)
        paper_db._codegen(warm)
        # cached artifact: no generation happened, so no codegen timing
        assert "codegen" not in warm.timings


class TestExecutionCounters:
    def test_run_prepare_cache_hit_combinations(self, paper_catalog):
        db = Connection(catalog=paper_catalog)
        q = running_example_query(db)
        assert (db.executions, db.queries_issued) == (0, 0)

        db.run(q)                      # cold: miss
        assert (db.executions, db.queries_issued) == (1, 2)
        assert (db.cache_stats.hits, db.cache_stats.misses) == (0, 1)

        db.run(q)                      # warm: hit, still issues 2 queries
        assert (db.executions, db.queries_issued) == (2, 4)
        assert (db.cache_stats.hits, db.cache_stats.misses) == (1, 1)

        handle = db.prepare(q)         # compile-only: hit, no execution
        assert (db.executions, db.queries_issued) == (2, 4)
        assert (db.cache_stats.hits, db.cache_stats.misses) == (2, 1)

        handle.execute()               # prepared: no cache lookup at all
        handle.execute()
        assert (db.executions, db.queries_issued) == (4, 8)
        assert (db.cache_stats.hits, db.cache_stats.misses) == (2, 1)

        db.compile(q)                  # compile alone never executes
        assert (db.executions, db.queries_issued) == (4, 8)
        assert db.cache_stats.lookups == 4

    def test_queries_issued_matches_bundle_size_times_executions(
            self, any_backend_db):
        q = running_example_query(any_backend_db)
        size = any_backend_db.compile(q).bundle.size
        for _ in range(3):
            any_backend_db.run(q)
        assert any_backend_db.queries_issued == size * 3
        assert any_backend_db.executions == 3


class TestTraceAccounting:
    def test_phase_spans_sum_to_end_to_end_time(self, paper_db):
        paper_db.run(running_example_query(paper_db))
        trace = paper_db.last_trace
        total = trace.root.duration
        children = sum(s.duration for s in trace.root.children)
        assert total > 0.0
        # the children partition the run: they can never exceed it (clock
        # granularity aside), and everything outside them is bookkeeping
        assert children <= total * 1.02 + 1e-6
        assert children >= total * 0.5

    def test_span_durations_match_compile_timings(self, paper_db):
        q = running_example_query(paper_db)
        # a traced phase's timing *is* its span's duration: one
        # measurement, so the two are equal, not merely close
        tracer = Tracer("compile")
        compiled = paper_db.compile(q, tracer=tracer)
        trace = tracer.finish()
        for phase, span_name in (("check", "check"),
                                 ("lookup", "cache-lookup"),
                                 ("lift", "lift"), ("optimize", "optimize")):
            span = trace.find(span_name)
            assert span is not None
            assert span.duration == compiled.timings[phase]

    def test_execute_spans_cover_the_bundle(self, paper_db):
        q = running_example_query(paper_db)
        paper_db.run(q)
        executes = paper_db.last_trace.find_all("execute")
        assert [s.attrs["query"] for s in executes] == [1, 2]
        total_rows = sum(s.attrs["rows"] for s in executes)
        stitch = paper_db.last_trace.find("stitch")
        assert stitch.attrs["rows"] == total_rows
