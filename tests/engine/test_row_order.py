"""Relations are unordered: no engine answer depends on the row order in
which an operator hands its result on.

``Relation`` lets every kernel return rows in whatever order is
cheapest (an equi-join, say, in the order of the side that probes),
because every order a program can observe is an explicit ``RowNum``
column.  Here every operator but a base-table scan (whose row order is
the stored list order, read as the scan's ``pos``) passes its result on
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
from repro.backends.engine import Engine
from repro.runtime import Catalog
from repro.semantics import Interpreter

from ..optimizer import test_surrogate_keys as surrogate
from ..properties.test_regressions import CORPUS

SEEDS = (1, 2, 3)


@pytest.fixture(params=SEEDS)
def shuffled(request, monkeypatch):
    """Every engine operator's result, but a scan's, in a random row
    order; returns the row counts of the results it shuffles."""
    rng = random.Random(request.param)
    plain = Engine._eval
    counts: list[int] = []

    def shuffling(self, node, memo):
        rel = plain(self, node, memo)
        if isinstance(node, TableScan) or rel.nrows < 2:
            return rel
        perm = list(range(rel.nrows))
        rng.shuffle(perm)
        counts.append(rel.nrows)
        return rel.gathered(perm)

    monkeypatch.setattr(Engine, "_eval", shuffling)
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
