"""One ``Connection`` shared by eight threads, on every backend.

Each thread runs the paper's running example and the nested-orders
report through ``run``, through a fresh ``prepare(q).execute()`` and
through a handle prepared before the threads started.  Every value must
equal the reference semantics and nothing may raise.  The threads share
what a warm run reuses: the ``Q`` handles (and the plan-cache key they
keep), the cached bundles' compiled stitchers and, on sqlite, the
backend's database connection.  Each thread empties every value it got,
so a list shared between two results would show up as a wrong value in
another thread.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import Connection
from repro.bench.table1 import running_example_query
from repro.bench.workloads import orders_dataset, paper_dataset
from repro.runtime import Catalog
from repro.semantics import Interpreter

from ..backends.test_sql_scaling import nested_orders_query
from ..conftest import BACKENDS
from .test_stitch import rounded

THREADS = 8
ROUNDS = 5
TIMEOUT_S = 120


def both_datasets() -> Catalog:
    """The Figure 1 tables and the orders tables in one catalog."""
    catalog = Catalog()
    for part in (paper_dataset(), orders_dataset(12)):
        for name in part.table_names():
            catalog.create_table(name, part.schema(name), part.rows(name))
    return catalog


def hammer(fn):
    """``fn(i)`` on ``THREADS`` threads released together, switching
    threads every few microseconds; returns the results and re-raises
    the first worker's exception."""
    barrier = threading.Barrier(THREADS)

    def body(i):
        barrier.wait(timeout=TIMEOUT_S)
        return fn(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(THREADS) as pool:
            futures = [pool.submit(body, i) for i in range(THREADS)]
            return [future.result(timeout=TIMEOUT_S) for future in futures]
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("backend", BACKENDS)
def test_shared_connection(backend):
    catalog = both_datasets()
    db = Connection(backend=backend, catalog=catalog)
    programs = [running_example_query(db), nested_orders_query(db)]
    # (sqlite adds the order totals in another order)
    references = [rounded(Interpreter(catalog).run(q.exp)) for q in programs]
    prepared = [db.prepare(q) for q in programs]

    def worker(i):
        wrong = []
        for j in range(ROUNDS):
            k = (i + j) % len(programs)
            q = programs[k]
            for how, execute in (("run", lambda: db.run(q)),
                                 ("prepare", lambda: db.prepare(q).execute()),
                                 ("prepared", prepared[k].execute)):
                value = execute()
                if rounded(value) != references[k]:
                    wrong.append((how, k))
                value.clear()
        return wrong

    assert hammer(worker) == [[]] * THREADS
    assert db.executions == THREADS * ROUNDS * 3
    if backend == "sqlite":
        conn = db.backend._conn
        assert conn.execute(
            "SELECT count(*) FROM sqlite_temp_master").fetchone() == (0,)
        assert not conn.in_transaction
