"""Every example script must run to completion (small scales)."""

import subprocess
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "bundle size     : 2 queries" in out
        assert "avoids query avalanches" in out

    def test_quickstart_show_sql(self):
        out = run_example("quickstart.py", "--show-sql")
        assert "DENSE_RANK() OVER" in out
        assert "ROW_NUMBER() OVER" in out
        assert "DISTINCT" not in out  # the group spine joins nothing back

    def test_pipeline_tour(self):
        out = run_example("pipeline_tour.py")
        assert "step 1" in out
        assert "ROW_NUMBER" in out
        assert "-- Q1: 25 column operators" in out
        assert "[('eng', 260), ('ops', 175)]" in out

    def test_sparse_vector(self):
        out = run_example("sparse_vector.py", "--size", "64")
        assert "42.0" in out
        assert "equi-joins (bpermuteP)" in out

    def test_avalanche_table1(self):
        out = run_example("avalanche_table1.py", "-n", "5", "10",
                          "--runs", "1")
        assert "# categories" in out
        assert "2" in out

    def test_nested_orders(self):
        out = run_example("nested_orders.py")
        assert "bundle size : 3 queries" in out
        assert "independent of the number of customers" in out
