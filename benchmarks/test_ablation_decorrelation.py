"""Ablation: join-graph isolation [10], on and off.

One switch (``Connection(decorrelate=...)``) governs both halves of the
rule: the expression normal form that moves every guard conjunct to its
generator and floats a key correlated with the enclosing iteration
(``fac == f`` in the running example's ``descrFacility``) around the
closed ``meanings x features`` product, and the lifter rule that compiles
such a filter as one equi-join against the source compiled once
(DESIGN.md, "Join-graph isolation").  Off, every generator source
compiles to a ``loop x table`` cross product and every guard to a late
``Select`` -- *quadratic* in the Table 1 workload.

The three front ends write the same program with their guards in three
different places; on, they compile to one plan and run alike.

The benchmark sizes are deliberately tiny: the naive plan at n=40 already
costs what the isolated plan costs at n≈2000.
"""

import pytest

from repro import Connection
from repro.algebra import node_count
from repro.bench.table1 import running_example_variants
from repro.bench.workloads import avalanche_dataset

CATALOG_TINY = avalanche_dataset(12)
CATALOG = avalanche_dataset(40)
FRONT_ENDS = ("qc", "pyq", "fluent")


def run(catalog, decorrelate: bool, front_end: str = "qc"):
    db = Connection(catalog=catalog, decorrelate=decorrelate)
    return db.run(running_example_variants(db)[front_end])


def plan_sizes(decorrelate: bool, front_end: str) -> list[int]:
    db = Connection(catalog=CATALOG_TINY, decorrelate=decorrelate)
    compiled = db.compile(running_example_variants(db)[front_end])
    return [node_count(q.plan) for q in compiled.bundle.queries]


class TestEquivalence:
    def test_both_modes_agree(self):
        results = [run(CATALOG_TINY, mode, front_end)
                   for mode in (True, False) for front_end in FRONT_ENDS]
        assert all(r == results[0] for r in results)

    def test_decorrelated_plan_shape(self):
        """With the rule on, the three front ends compile to one plan
        shape and no quadratic cross of the loop with a table survives;
        off, each keeps the shape it was written in."""
        on = {fe: plan_sizes(True, fe) for fe in FRONT_ENDS}
        off = {fe: plan_sizes(False, fe) for fe in FRONT_ENDS}
        assert on["qc"] == on["pyq"] == on["fluent"]
        for front_end in FRONT_ENDS:
            assert on[front_end] != off[front_end]
        assert off["qc"] != off["fluent"]


@pytest.mark.parametrize("front_end", FRONT_ENDS)
class TestRuntime:
    def test_with_decorrelation(self, benchmark, front_end):
        benchmark(lambda: run(CATALOG, True, front_end))

    def test_without_decorrelation(self, benchmark, front_end):
        benchmark(lambda: run(CATALOG, False, front_end))
