"""Stitch micro-benchmark: bulk surrogate-index building.

Stitching (steps 5-6 of Figure 2) starts by grouping every query's rows
by their ``iter`` surrogate.  Backends deliver rows already sorted by
``(iter, pos)``, so equal surrogates form contiguous runs and
:func:`repro.runtime.stitch.build_index` detects run boundaries with one
C-level :func:`itertools.groupby` sweep instead of a per-row
``dict.setdefault`` loop.  This file checks the bulk path against the
naive loop for correctness and asserts it is not slower (typically
1.5-3x faster on wide fan-out).
"""

import time

from repro.runtime.stitch import build_index


def _setdefault_index(rows):
    """The pre-bulk implementation (reference + baseline)."""
    index = {}
    for row in rows:
        index.setdefault(row[0], []).append(row[2:])
    return index


def _fanout_rows(n_groups: int, per_group: int) -> list[tuple]:
    """(iter, pos, item...) rows, sorted by (iter, pos) -- the backend
    contract -- with ``per_group`` members per surrogate."""
    return [(g, p, g * per_group + p, float(p))
            for g in range(n_groups) for p in range(per_group)]


def best_of(f, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        f()
        best = min(best, time.perf_counter() - t0)
    return best


class TestBulkIndexCorrectness:
    def test_matches_setdefault_loop(self):
        rows = _fanout_rows(137, 7)
        assert build_index(rows) == _setdefault_index(rows)

    def test_empty_and_single_run(self):
        assert build_index([]) == {}
        rows = [(1, 0, "a"), (1, 1, "b")]
        assert build_index(rows) == {1: [("a",), ("b",)]}

    def test_items_stay_in_pos_order(self):
        rows = _fanout_rows(10, 50)
        index = build_index(rows)
        for members in index.values():
            assert members == sorted(members)


class TestBulkIndexSpeed:
    def test_bulk_not_slower_than_setdefault(self, request):
        quick = request.config.getoption("--quick", False)
        rows = _fanout_rows(200 if quick else 2000, 20)
        bulk = best_of(lambda: build_index(rows))
        naive = best_of(lambda: _setdefault_index(rows))
        # Generous bound: the bulk path must never regress below the
        # naive loop (observed ~1.5-3x faster); timer noise headroom.
        assert bulk <= naive * 1.10, (
            f"bulk index {bulk * 1e3:.3f}ms vs setdefault "
            f"{naive * 1e3:.3f}ms")

    def test_stitch_benchmark_hook(self, benchmark):
        rows = _fanout_rows(500, 10)
        index = benchmark(lambda: build_index(rows))
        assert len(index) == 500
