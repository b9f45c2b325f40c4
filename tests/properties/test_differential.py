"""Property: every backend implements the reference list semantics.

Random well-typed query pipelines (``tests/programs.py``, each rendered
as combinators, ``qc`` and ``pyq``) are executed through the interpreter,
the in-memory engine (optimized and unoptimized), SQLite via generated
SQL, and the MIL VM (``run_all_ways``); all must agree on values *and*
order.  This is the library's strongest correctness evidence for the
paper's claim that the relational encodings "faithfully preserve the DSH
semantics" (Section 3.2).
"""

from hypothesis import given

from repro.runtime import Catalog

from ..conftest import run_all_ways
from ..programs import programs
from .support import prop_settings

CATALOG = Catalog()
SETTINGS = prop_settings(40)


class TestDifferential:
    @SETTINGS
    @given(programs("pipeline"))
    def test_flat_pipelines(self, program):
        run_all_ways(program.query, CATALOG)

    @SETTINGS
    @given(programs("nested"))
    def test_nested_pipelines(self, program):
        run_all_ways(program.query, CATALOG)

    @SETTINGS
    @given(programs("scalar"))
    def test_aggregations(self, program):
        run_all_ways(program.query, CATALOG)

    @prop_settings(25)
    @given(programs("any"))
    def test_mixed_shapes(self, program):
        run_all_ways(program.query, CATALOG)
