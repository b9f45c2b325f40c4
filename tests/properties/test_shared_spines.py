"""Nested-result programs whose bundle members share one spine.

The optimizer rewrites a bundle as one DAG: the ``group_with`` /
``sort_with`` spine every member reads is narrowed for the union of
their demands, numbered once and executed once.  That makes cross-query
sharing load-bearing, so these programs (2-4 bundle members each, see
``strategies.SPINE_PROGRAMS``) are run optimized *and* as the lifter
left them, on all three backends, against the reference interpreter --
over a fixed set of instances (tier-1: empty tables, duplicate-heavy
keys, whole duplicate rows, a one-sided empty join) and over generated
ones (the ``property`` job).
"""

import pytest
from hypothesis import given

from repro import Connection
from repro.algebra import postorder
from repro.runtime import Catalog
from repro.semantics import Interpreter

from ..conftest import BACKENDS
from .strategies import SPINE_PROGRAMS, shared_spine_program
from .support import prop_settings
from .test_property_inference import audit

#: name -> (rows of t, rows of u); ``(k, v)`` pairs
INSTANCES = {
    "empty": ([], []),
    "lookups_into_nothing": ([(1, 5), (0, -2), (1, 5), (2, 0)], []),
    "duplicate_heavy_keys": ([(1, 1), (1, 0), (1, 1), (1, -1), (1, 1),
                              (0, 1)],
                             [(1, 7), (1, 7), (0, 3)]),
    "general": ([(3, 4), (0, -1), (2, 2), (0, 3), (3, -4), (1, 0)],
                [(0, 1), (2, 2), (2, -3), (3, 0), (4, 9)]),
}


def catalog_of(t_rows, u_rows) -> Catalog:
    catalog = Catalog()
    for name, rows in (("t", t_rows), ("u", u_rows)):
        catalog.create_table(name, [("k", int), ("v", int)], rows)
    return catalog


def check(name, t_rows, u_rows):
    size, build = SPINE_PROGRAMS[name]
    catalog = catalog_of(t_rows, u_rows)

    def query(db):
        return build(db.table("t"), db.table("u"))

    oracle = Connection(catalog=catalog)
    expected = Interpreter(catalog).run(query(oracle).exp)
    for backend in BACKENDS:
        for optimize in (True, False):
            db = Connection(backend=backend, catalog=catalog,
                            optimize=optimize)
            assert db.compile(query(db)).bundle.size == size
            assert db.run(query(db)) == expected, (
                f"{backend} diverged (optimize={optimize})")
    return query(oracle), catalog


@pytest.mark.tier1
@pytest.mark.parametrize("instance", INSTANCES)
@pytest.mark.parametrize("name", SPINE_PROGRAMS)
def test_fixed_corpus(name, instance):
    q, catalog = check(name, *INSTANCES[instance])
    # the members of the optimized bundle do share plan nodes as objects
    bundle = Connection(catalog=catalog).compile(q).bundle
    reached = [{id(n) for n in postorder(query.plan)}
               for query in bundle.queries]
    assert all(reached[0] & other for other in reached[1:])
    for optimize in (True, False):
        audit(q, optimize, catalog)


@prop_settings(60)
@given(shared_spine_program())
def test_generated_instances(program):
    check(*program)
