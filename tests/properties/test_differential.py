"""Property: every backend implements the reference list semantics.

Random well-typed query pipelines are executed through the interpreter,
the in-memory engine (optimized and unoptimized), SQLite via generated
SQL, and the MIL VM (``run_all_ways``); all must agree on values *and*
order.  This is the library's strongest correctness evidence for the
paper's claim that the relational encodings "faithfully preserve the DSH
semantics" (Section 3.2).
"""

from hypothesis import given

from repro.runtime import Catalog

from ..conftest import run_all_ways
from .strategies import any_query, int_list_query, nested_query, scalar_query
from .support import prop_settings

CATALOG = Catalog()
SETTINGS = prop_settings(40)


class TestDifferential:
    @SETTINGS
    @given(int_list_query())
    def test_flat_pipelines(self, q):
        run_all_ways(q, CATALOG)

    @SETTINGS
    @given(nested_query())
    def test_nested_pipelines(self, q):
        run_all_ways(q, CATALOG)

    @SETTINGS
    @given(scalar_query())
    def test_aggregations(self, q):
        run_all_ways(q, CATALOG)

    @prop_settings(25)
    @given(any_query())
    def test_mixed_shapes(self, q):
        run_all_ways(q, CATALOG)
