"""Ablation: the Pathfinder-style optimizer on vs. off.

DESIGN.md calls out the optimizer (step 3 of Figure 2) as a design
component; this bench quantifies it on the running example: plan sizes
(algebra nodes per bundle query) and end-to-end runtime with the rewrite
pipeline enabled and disabled.
"""

from repro import Connection
from repro.algebra import node_count
from examples.workloads import (
    avalanche_dataset,
    raw_bundle,
    run_raw,
    running_example_query,
)

CATALOG = avalanche_dataset(150)
QUERY = running_example_query(Connection(catalog=CATALOG))


def run(optimize: bool):
    return run_raw(QUERY, CATALOG, optimize=optimize)


class TestPlanSizes:
    def test_optimizer_shrinks_plans(self):
        raw_sizes, opt_sizes = (
            [node_count(s.plan) for s in raw_bundle(QUERY, optimize).queries]
            for optimize in (False, True))
        assert sum(opt_sizes) < sum(raw_sizes)

    def test_results_identical(self):
        assert run(True) == run(False)


class TestRuntime:
    def test_with_optimizer(self, benchmark):
        benchmark(lambda: run(True))

    def test_without_optimizer(self, benchmark):
        benchmark(lambda: run(False))
