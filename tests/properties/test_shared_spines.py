"""Nested-result programs whose 2-4 bundle members share one spine.

The optimizer builds the spine once, for the union of the members'
demands.  ``programs.SPINE_PROGRAMS`` run optimized *and* as the lifter
left them, on all three backends, against the interpreter -- on fixed
instances (tier-1: empty tables, duplicate-heavy keys, whole duplicate
rows, a one-sided empty join) and generated ones (``property``).
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from examples.workloads import raw_bundle
from repro import Connection
from repro.algebra import postorder
from repro.runtime import Catalog

from ..conftest import BACKENDS, run_all_ways
from ..programs import SPINE_PROGRAMS
from .support import pair_rows, prop_settings
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
    size, program = SPINE_PROGRAMS[name]
    catalog = catalog_of(t_rows, u_rows)
    db = Connection(catalog=catalog)
    q = program.query
    assert db.compile(q).bundle.size == raw_bundle(q).size == size
    run_all_ways(q, catalog, raw=[{"backend": b} for b in BACKENDS])
    return q, catalog


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
@given(st.sampled_from(sorted(SPINE_PROGRAMS)), pair_rows(), pair_rows())
def test_generated_instances(name, t_rows, u_rows):
    check(name, t_rows, u_rows)
