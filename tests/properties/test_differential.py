"""Property: every backend implements the reference list semantics.

Random well-typed query pipelines are executed through the interpreter,
the in-memory engine (optimized and unoptimized), SQLite via generated
SQL, and the MIL VM; all must agree on values *and* order.  This is the
library's strongest correctness evidence for the paper's claim that the
relational encodings "faithfully preserve the DSH semantics" (Section 3.2).
"""

from hypothesis import given

from .support import prop_settings

from repro import Connection
from repro.runtime import Catalog
from repro.semantics import Interpreter

from .strategies import any_query, int_list_query, nested_query, scalar_query

CATALOG = Catalog()
SETTINGS = prop_settings(40)


def run_everywhere(q):
    expected = Interpreter(CATALOG).run(q.exp)
    for backend in ("engine", "sqlite", "mil"):
        db = Connection(backend=backend, catalog=CATALOG)
        assert db.run(q) == expected, f"{backend} diverged"
    raw = Connection(catalog=CATALOG, optimize=False)
    assert raw.run(q) == expected, "unoptimized engine diverged"
    return expected


class TestDifferential:
    @SETTINGS
    @given(int_list_query())
    def test_flat_pipelines(self, q):
        run_everywhere(q)

    @SETTINGS
    @given(nested_query())
    def test_nested_pipelines(self, q):
        run_everywhere(q)

    @SETTINGS
    @given(scalar_query())
    def test_aggregations(self, q):
        run_everywhere(q)

    @prop_settings(25)
    @given(any_query())
    def test_mixed_shapes(self, q):
        run_everywhere(q)
