"""Property: join-graph isolation preserves the list semantics.

``repro.expr.normalize`` moves guard conjuncts between the filters in
and around a generator product.  For random 2-4 generator comprehensions
with conjuncts (some correlated with an enclosing lambda) written at
every position a front end may leave them, the normal form must mean
the same under the reference interpreter, keep the type, capture
nothing, be a fixed point -- and compile to plans that still agree with
the interpreter, with the rewrite on and off.
"""

from hypothesis import given

from repro import Connection
from repro.runtime import Catalog
from repro.semantics import Interpreter

from ..conftest import check_normal_form
from .strategies import join_comprehension
from .support import prop_settings

CATALOG = Catalog()


@prop_settings(60)
@given(join_comprehension())
def test_normal_form_preserves_semantics(q):
    check_normal_form(q.exp, CATALOG)


@prop_settings(25)
@given(join_comprehension())
def test_isolated_plans_agree_with_the_interpreter(q):
    expected = Interpreter(CATALOG).run(q.exp)
    for backend in ("engine", "sqlite"):
        assert Connection(backend=backend, catalog=CATALOG).run(q) == expected
    naive = Connection(catalog=CATALOG, decorrelate=False)
    assert naive.run(q) == expected
