"""Shared benchmark fixtures and the ``--quick`` switch.

``--quick`` shrinks the suite to CI scale: only the smallest avalanche
instance runs (the full-scale experiment lives in
``examples/avalanche_table1.py``).  The performance record is
``benchmarks/e2e`` (``BENCHMARK.json``); the tests here are guards.
"""

import pathlib

import pytest

from examples.workloads import avalanche_dataset, paper_dataset

_HERE = pathlib.Path(__file__).parent


def pytest_addoption(parser):
    parser.addoption(
        "--quick", action="store_true", default=False,
        help="benchmark suite at CI scale (smallest instances only)")


def pytest_collection_modifyitems(config, items):
    """Everything under benchmarks/ carries the ``bench`` marker (the
    hook sees the whole session's items, so filter by path)."""
    for item in items:
        if _HERE in pathlib.Path(item.fspath).parents:
            item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def paper_catalog():
    return paper_dataset()


@pytest.fixture(scope="session", params=(50, 200, 800))
def avalanche_catalog(request):
    """Table 1 instances, scaled to benchmark time (the harness in
    ``examples/avalanche_table1.py`` runs the full-scale experiment)."""
    if request.param > 50 and request.config.getoption("--quick", False):
        pytest.skip("--quick runs the smallest instance only")
    return request.param, avalanche_dataset(request.param)
