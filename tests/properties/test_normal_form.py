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

from repro.runtime import Catalog

from ..conftest import check_normal_form, run_all_ways
from ..programs import programs
from .support import prop_settings

CATALOG = Catalog()


@prop_settings(60)
@given(programs("join"))
def test_normal_form_preserves_semantics(program):
    check_normal_form(program.query.exp, CATALOG)


@prop_settings(25)
@given(programs("join"))
def test_isolated_plans_agree_with_the_interpreter(program):
    run_all_ways(program.query, CATALOG, backends=("engine", "sqlite"),
                 raw=[{"optimize": True, "decorrelate": False}])
