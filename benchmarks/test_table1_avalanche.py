"""Table 1: query avalanches -- HaskellDB vs. Ferry/DSH.

The paper's experiment: run the Section 2 program over ``facilities``
tables with a growing number of distinct categories.

* HaskellDB issues ``1 + #categories`` SQL statements, each scanning
  tables that grow with the category count -- runtime grows
  super-linearly until the 100k row in the paper "did not finish within
  hours";
* DSH/Ferry compiles the whole program into **2** queries regardless of
  the instance, and runtime stays linear.

``pytest benchmarks/test_table1_avalanche.py --benchmark-only`` prints
the per-scale timings; query counts are asserted exactly.
"""

from examples.workloads import run_dsh, run_haskelldb


class TestQueryCounts:
    """The table's # queries columns, asserted exactly."""

    def test_haskelldb_avalanche_count(self, avalanche_catalog):
        n, catalog = avalanche_catalog
        _, statements = run_haskelldb(catalog)
        assert statements == 1 + n

    def test_dsh_constant_bundle(self, avalanche_catalog):
        _, catalog = avalanche_catalog
        _, queries = run_dsh(catalog)
        assert queries == 2


class TestRuntimes:
    """The table's runtime columns (pytest-benchmark)."""

    def test_haskelldb_running_example(self, benchmark, avalanche_catalog):
        n, catalog = avalanche_catalog
        result, _ = benchmark(lambda: run_haskelldb(catalog))
        assert len(result) == n

    def test_dsh_running_example_engine(self, benchmark, avalanche_catalog):
        n, catalog = avalanche_catalog
        result, _ = benchmark(lambda: run_dsh(catalog, "engine"))
        assert len(result) == n

    def test_dsh_running_example_mil(self, benchmark, avalanche_catalog):
        n, catalog = avalanche_catalog
        result, _ = benchmark(lambda: run_dsh(catalog, "mil"))
        assert len(result) == n


class TestAgreement:
    def test_both_systems_compute_the_same_answer(self, avalanche_catalog):
        _, catalog = avalanche_catalog
        hdb, _ = run_haskelldb(catalog)
        dsh, _ = run_dsh(catalog)
        assert ({c: frozenset(m) for c, m in hdb}
                == {c: frozenset(m) for c, m in dsh})
