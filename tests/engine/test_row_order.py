"""Relations are unordered: no engine answer depends on the row order in
which an operator hands its result on.

Every kernel may return rows in whatever order is cheapest (an
equi-join, say, in the order of the side that probes), because every
order a program can observe is an explicit ``RowNum`` column.  Here
every lowered step but a base-table scan's (whose row order is the
stored list order, read as the scan's ``pos``) passes its result on
under a seeded random permutation, and each program must still return
the reference interpreter's value.  A kernel, rewrite or stitcher that
starts to lean on an operator's input order fails here.
"""

import random

import pytest

from examples.workloads import (
    avalanche_dataset,
    paper_dataset,
    running_example_query,
)
from repro import Connection
from repro.algebra import TableScan
from repro.backends.engine import EngineBackend
from repro.backends.kernels import gather
from repro.runtime import Catalog
from repro.semantics import Interpreter

from ..optimizer import test_surrogate_keys as surrogate
from ..properties.test_regressions import CORPUS

SEEDS = (1, 2, 3)


@pytest.fixture(params=SEEDS)
def shuffled(request, monkeypatch):
    """Every engine step's result, but a scan's, in a random row order;
    returns the row counts of the results it shuffles."""
    rng = random.Random(request.param)
    plain = EngineBackend.prepare_bundle
    counts: list[int] = []

    def shuffling(step):
        def shuffled_step(slots, catalog):
            columns, nrows = step(slots, catalog)
            if nrows < 2:
                return columns, nrows
            perm = list(range(nrows))
            rng.shuffle(perm)
            counts.append(nrows)
            return gather(columns, perm), nrows
        return shuffled_step

    def prepare(self, bundle):
        program = plain(self, bundle)
        program.steps[:] = [
            step if isinstance(node, TableScan) else shuffling(step)
            for node, step in zip(program.nodes, program.steps)]
        return program

    monkeypatch.setattr(EngineBackend, "prepare_bundle", prepare)
    return counts


def check(q, catalog: Catalog):
    expected = Interpreter(catalog).run(q.exp)
    assert Connection(catalog=catalog).run(q) == expected


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_regression_corpus(name, shuffled):
    build, _ = CORPUS[name]
    check(build(), Catalog())


@pytest.mark.parametrize("catalog", [paper_dataset, lambda: avalanche_dataset(
    6, facilities_per_category=3)], ids=["figure1", "6_categories"])
def test_running_example(catalog, shuffled):
    cat = catalog()
    check(running_example_query(Connection(catalog=cat)), cat)
    assert max(shuffled) > 2


def test_nested_orders_of_duplicated_customers(shuffled):
    check(surrogate.nested_orders(), surrogate.catalog())
    assert max(shuffled) > 2


@pytest.mark.parametrize("name", surrogate.KEPT)
def test_numbers_read_for_more_than_equality(name, shuffled):
    check(surrogate.KEPT[name](), surrogate.catalog())
