"""Plan-cache benchmark: the repeat-execution compile path.

The workload is ``examples/quickstart.py`` (the paper's Section 2
running example).  A cold compile runs the whole Figure 2 front half --
loop-lifting, the rewrite fixpoint, schema validation; a warm compile of
the structurally identical program is a fingerprint + cache lookup.  The
acceptance bar for the prepared-query subsystem: the warm compile path is
at least **10x** faster than the cold path, and hit counters prove the
optimizer never ran again.
"""

import time

from repro import Connection
from examples.workloads import running_example_query

#: CI headroom: locally the observed ratio is ~40-60x.
MIN_SPEEDUP = 10.0


def best_of(f, repeats=5):
    """Minimum wall-clock of ``repeats`` calls (noise-robust)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        f()
        times.append(time.perf_counter() - t0)
    return min(times)


class TestRepeatCompilePath:
    def test_warm_compile_at_least_10x_faster(self, paper_catalog):
        db = Connection(catalog=paper_catalog)

        # Cold: empty the cache first so every repeat pays the full
        # pipeline.
        cold = best_of(lambda: (db.plan_cache.clear(),
                                db.compile(running_example_query(db))))

        db.compile(running_example_query(db))  # populate the cache
        warm = best_of(lambda: db.compile(running_example_query(db)))

        assert warm * MIN_SPEEDUP <= cold, (
            f"warm compile {warm * 1e3:.3f}ms vs cold {cold * 1e3:.3f}ms: "
            f"only {cold / warm:.1f}x")

    def test_hit_counters_prove_pipeline_skipped(self, paper_catalog):
        db = Connection(catalog=paper_catalog)
        cold = db.compile(running_example_query(db))
        warm = db.compile(running_example_query(db))
        assert not cold.cache_hit and warm.cache_hit
        assert db.cache_stats.misses == 1 and db.cache_stats.hits == 1
        # loop-lifting and the rewrite fixpoint ran exactly once
        assert cold.pass_stats is not None and cold.pass_stats.rounds > 0
        assert warm.pass_stats is None
        assert "lift" not in warm.timings and "optimize" not in warm.timings

    def test_repeat_run_results_stable(self, paper_catalog):
        db = Connection(catalog=paper_catalog)
        results = [db.run(running_example_query(db)) for _ in range(3)]
        assert results[0] == results[1] == results[2]
        assert db.cache_stats.misses == 1 and db.cache_stats.hits == 2
        # execution accounting unaffected by caching (2-query bundle x 3)
        assert db.queries_issued == 6

    def test_prepared_execute_matches_run(self, paper_catalog):
        db = Connection(catalog=paper_catalog)
        expected = db.run(running_example_query(db))
        prepared = db.prepare(running_example_query(db))
        assert prepared.execute() == expected
        assert prepared.query_count == 2  # avalanche safety preserved


class TestWarmCompileTimings:
    def test_pytest_benchmark_warm_compile(self, benchmark, paper_catalog):
        """pytest-benchmark hook: warm-path compile latency."""
        db = Connection(catalog=paper_catalog)
        query = running_example_query(db)
        db.compile(query)
        compiled = benchmark(lambda: db.compile(query))
        assert compiled.cache_hit
