"""Ablation: execution backend choice (Figure 2, step 4).

The same compiled bundle runs on (a) the in-memory algebra engine, (b)
SQLite via the generated SQL:1999, and (c) the MIL column VM.  All three
return identical results; the bench shows their relative costs (the
paper's Pathfinder similarly targeted both SQL:1999 systems and
MonetDB/MIL).
"""


from repro import Connection
from repro.bench.table1 import running_example_query
from repro.bench.workloads import avalanche_dataset

#: One instance for all three backends.
CATALOG = avalanche_dataset(150)


def run_on(backend: str, catalog):
    db = Connection(backend=backend, catalog=catalog)
    return db.run(running_example_query(db))


class TestBackendsAgree:
    def test_all_backends_same_result(self):
        results = [run_on(b, CATALOG) for b in ("engine", "sqlite", "mil")]
        assert results[0] == results[1] == results[2]


class TestBackendRuntime:
    def test_engine(self, benchmark):
        benchmark(lambda: run_on("engine", CATALOG))

    def test_mil(self, benchmark):
        benchmark(lambda: run_on("mil", CATALOG))

    def test_sqlite(self, benchmark):
        benchmark(lambda: run_on("sqlite", CATALOG))
