"""Statement stats under concurrency: ``Connection.run`` hammered from
many threads must lose no updates and create exactly one aggregate per
fingerprint.

The aggregator serializes mutation under one lock; these tests are the
empirical check that the wiring (``run`` -> one ``ExecutionRecord`` ->
``StatementStats.record``) preserves exactness when the *callers* race,
and that raw :class:`StatementStats` stays exact even while eviction is
churning the LRU under the same lock.
"""

from __future__ import annotations

import threading

import pytest

from repro import Connection
from examples.workloads import numbers_dataset
from repro.errors import VerifyError
from repro.obs.stats import StatementStats

from ..conftest import execution_record as rec

THREADS = 8
RUNS_PER_THREAD = 25


def hammer(n_threads, fn):
    """Run ``fn(worker_index)`` on ``n_threads`` threads, starting them
    on a barrier so the racy window actually overlaps; re-raise the
    first worker failure."""
    barrier = threading.Barrier(n_threads)
    errors: list[BaseException] = []

    def body(i):
        barrier.wait()
        try:
            fn(i)
        except BaseException as err:  # pragma: no cover - failure path
            errors.append(err)

    threads = [threading.Thread(target=body, args=(i,))
               for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


class TestConnectionConcurrency:
    def test_no_lost_updates_no_duplicate_rows(self):
        conn = Connection(catalog=numbers_dataset(10))
        nums = conn.table("nums")
        queries = [
            nums.filter(lambda r: r > 2),
            nums.map(lambda r: r + 1),
            nums.filter(lambda r: r < 5).map(lambda r: r * 2),
        ]

        def worker(i):
            for j in range(RUNS_PER_THREAD):
                conn.run(queries[(i + j) % len(queries)])

        hammer(THREADS, worker)
        snap = conn.statement_stats()
        assert snap["totals"]["calls"] == THREADS * RUNS_PER_THREAD
        assert snap["totals"]["errors"] == 0
        # The connection's own counters are updated in the same finish
        # step as the views: no lost updates there either.
        assert conn.executions == conn.query_log.recorded == \
            snap["totals"]["calls"]
        assert conn.queries_issued == snap["totals"]["queries"]
        # One aggregate per distinct program: no duplicate fingerprints.
        assert snap["tracked"] == len(queries)
        fps = [s["fingerprint"] for s in snap["statements"]]
        assert len(fps) == len(set(fps))
        # Every statement ran from several threads; rows stay exact.
        per_query_rows = {s["fingerprint"]: s["rows"]
                          for s in snap["statements"]}
        single = Connection(catalog=numbers_dataset(10))
        for q in queries:
            compiled = single.compile(q)
            expected_rows = len(single.run(q))
            calls = conn.stats.get(compiled.fingerprint)["calls"]
            assert per_query_rows[compiled.fingerprint] == \
                expected_rows * calls

    def test_errors_with_codes_counted_under_race(self, monkeypatch):
        conn = Connection(catalog=numbers_dataset(5))
        q = conn.table("nums").filter(lambda r: r > 1)
        conn.run(q)  # warm the plan cache before breaking the backend

        real = conn.backend.execute_bundle

        def flaky(bundle, catalog, **kw):
            if threading.current_thread().name.startswith("boom"):
                raise VerifyError("injected backend failure",
                                  code="F301")
            return real(bundle, catalog, **kw)

        monkeypatch.setattr(conn.backend, "execute_bundle", flaky)

        def worker(i):
            if i % 2:
                threading.current_thread().name = f"boom-{i}"
                for _ in range(RUNS_PER_THREAD):
                    with pytest.raises(VerifyError):
                        conn.run(q)
            else:
                for _ in range(RUNS_PER_THREAD):
                    conn.run(q)

        hammer(THREADS, worker)
        [stmt] = conn.statement_stats()["statements"]
        assert stmt["calls"] == 1 + (THREADS // 2) * RUNS_PER_THREAD
        assert stmt["errors"] == (THREADS // 2) * RUNS_PER_THREAD
        assert stmt["error_codes"] == {"F301": stmt["errors"]}
        log = conn.query_log
        assert conn.executions == log.recorded - log.error_count == \
            stmt["calls"]
        assert log.error_count == stmt["errors"]
        assert conn.queries_issued == stmt["queries"]


class TestAggregatorConcurrency:
    def test_exact_totals_while_eviction_churns(self):
        stats = StatementStats(capacity=8)
        per_thread = 200

        def worker(i):
            for j in range(per_thread):
                stats.record(rec(f"fp{i}-{j % 40}", 0.001, rows=2,
                                 queries_issued=1))

        hammer(THREADS, worker)
        snap = stats.snapshot()
        total = THREADS * per_thread
        assert snap["totals"]["calls"] == total
        assert snap["totals"]["rows"] == 2 * total
        assert snap["totals"]["queries"] == total
        assert snap["tracked"] == 8
        # 320 distinct fingerprints cycling through 8 slots: a key can
        # evict, re-enter, and evict again, so the fold count is at
        # least distinct-minus-capacity (totals stay exact regardless).
        assert snap["evicted_statements"] >= THREADS * 40 - 8
