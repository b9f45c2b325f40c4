"""Guard: observability left on in production costs < 5% on the
quickstart workload.

The layer must be safe to leave on: with ``trace=True`` (the default)
a ``run`` only takes a trace id for its execution record -- the span
tree is a view of that record, built when someone reads it, so a run
nobody asks about builds no span.  These tests pin that promise by
timing the quickstart workload -- the paper's running example, warm plan
cache, engine backend -- in each mode against a ``trace=False`` control
and requiring the instrumented time to stay within 5%.

Timing discipline: the two modes are timed in *interleaved* batches
(instrumented, plain, instrumented, plain, ...).  The estimator is the
better of (a) the ratio of per-mode minima and (b) the smallest
per-pair ratio: (a) is the classic low-noise estimator for CPU-bound
loops, while (b) cancels machine-wide drift that happens to straddle
one mode's best batch, so a shared-CI slowdown is not misread as
instrumentation overhead.
"""

import time

import pytest

from repro import Connection, ObservabilityError
from examples.workloads import paper_dataset, running_example_query

BATCHES = 14
RUNS_PER_BATCH = 25
LIMIT = 1.05


def quickstart_connection(trace: bool,
                          stats: bool = True) -> tuple[Connection, object]:
    db = Connection(catalog=paper_dataset(), trace=trace,
                    statement_stats=stats)
    query = running_example_query(db)
    db.run(query)  # warm: plan cache + codegen store filled
    return db, query


def batch_time(db, query) -> float:
    t0 = time.perf_counter()
    for _ in range(RUNS_PER_BATCH):
        db.run(query)
    return time.perf_counter() - t0


def measured_ratio(instrumented_db, instrumented_q,
                   plain_db, plain_q) -> float:
    """instrumented/plain on interleaved batches; see module docstring."""
    batch_time(instrumented_db, instrumented_q)  # throwaway warm round
    batch_time(plain_db, plain_q)
    inst_batches, plain_batches = [], []
    for _ in range(BATCHES):
        inst_batches.append(batch_time(instrumented_db, instrumented_q))
        plain_batches.append(batch_time(plain_db, plain_q))
    of_minima = min(inst_batches) / min(plain_batches)
    best_pair = min(i / p for i, p in zip(inst_batches, plain_batches))
    return min(of_minima, best_pair)


def test_tracing_is_under_five_percent():
    traced_db, traced_q = quickstart_connection(trace=True)
    plain_db, plain_q = quickstart_connection(trace=False)

    ratio = measured_ratio(traced_db, traced_q, plain_db, plain_q)

    assert traced_db.last_trace is not None  # tracing really was on
    with pytest.raises(ObservabilityError):
        plain_db.last_trace  # ...and really was off on the control
    assert ratio <= LIMIT, (
        f"tracing costs {ratio - 1.0:+.1%} on the "
        f"quickstart workload; the observability layer promises < 5%")


def test_statement_stats_are_under_five_percent():
    """The per-fingerprint aggregator rides on every ``run``: one lock
    acquisition and a few dict/float updates per execution.  Timed with
    ``trace=False`` on both legs so the measured delta is the stats
    machinery alone (statement_stats on vs. off)."""
    stats_db, stats_q = quickstart_connection(trace=False, stats=True)
    plain_db, plain_q = quickstart_connection(trace=False, stats=False)

    ratio = measured_ratio(stats_db, stats_q, plain_db, plain_q)

    # the aggregator really ran on the instrumented leg...
    totals = stats_db.statement_stats()["totals"]
    assert totals["calls"] > BATCHES * RUNS_PER_BATCH
    with pytest.raises(ObservabilityError):
        plain_db.statement_stats()  # ...and really was off on the control
    assert ratio <= LIMIT, (
        f"statement statistics cost {ratio - 1.0:+.1%} on the "
        f"quickstart workload; the observability layer promises < 5%")

