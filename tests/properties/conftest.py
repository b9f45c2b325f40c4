"""Property-suite plumbing: the ``property`` marker and example scaling.

Everything under ``tests/properties`` is marked ``property`` (except the
deterministic corpora -- ``test_regressions`` and tests marked ``tier1``
explicitly -- which stay tier-1), so CI can run the
fast suite with ``-m "not property"`` and the full randomized sweep as
its own job.  ``FERRY_EXAMPLES_MULT`` multiplies each test's example
budget -- the CI property job sets it to 5 for the full-depth run.
"""

import pathlib

import pytest

_HERE = pathlib.Path(__file__).parent


def pytest_collection_modifyitems(config, items):
    # this hook sees the whole session's items, not just this directory's
    for item in items:
        if _HERE not in pathlib.Path(item.fspath).parents:
            continue
        if (item.module.__name__.endswith("test_regressions")
                or item.get_closest_marker("tier1")):
            continue  # explicit corpus: deterministic, stays tier-1
        item.add_marker(pytest.mark.property)
