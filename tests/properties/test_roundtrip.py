"""Properties of the value/type layer and the relational round trip."""

import datetime

from hypothesis import given
from hypothesis import strategies as st

from repro import Connection, to_q
from repro.ftypes import (
    BoolT,
    DateT,
    DoubleT,
    IntT,
    ListT,
    StringT,
    TimeT,
    TupleT,
    Type,
    check_value,
    infer_type,
    normalize_value,
)

from .support import prop_settings

# arbitrary nested values, generated type-first so lists stay homogeneous
_ATOM_STRATEGIES = {
    BoolT: st.booleans(),
    IntT: st.integers(min_value=-20, max_value=20),
    DoubleT: st.floats(allow_nan=False, allow_infinity=False, width=32),
    # NUL is outside the database text domain (see ftypes.values)
    StringT: st.text(max_size=5).filter(lambda t: "\x00" not in t),
    DateT: st.dates(min_value=datetime.date(1990, 1, 1),
                    max_value=datetime.date(2030, 12, 31)),
    TimeT: st.times().map(lambda t: t.replace(microsecond=0)),
}

ferry_types = st.recursive(
    st.sampled_from(list(_ATOM_STRATEGIES)),
    lambda children: st.one_of(
        st.lists(children, min_size=2, max_size=3).map(
            lambda ts: TupleT(tuple(ts))),
        children.map(ListT),
    ),
    max_leaves=6,
)


def value_of(ty: Type) -> st.SearchStrategy:
    """A strategy for values inhabiting ``ty``."""
    if ty in _ATOM_STRATEGIES:
        return _ATOM_STRATEGIES[ty]
    if isinstance(ty, TupleT):
        return st.tuples(*(value_of(t) for t in ty.elts))
    assert isinstance(ty, ListT)
    return st.lists(value_of(ty.elt), max_size=4)


@st.composite
def typed_values(draw):
    """A (type, value) pair from the Ferry value universe."""
    ty = draw(ferry_types)
    return ty, draw(value_of(ty))


SETTINGS = prop_settings(60)


class TestValueLayer:
    @SETTINGS
    @given(typed_values())
    def test_check_accepts_inhabitants(self, tv):
        ty, value = tv
        check_value(value, ty)

    @SETTINGS
    @given(typed_values())
    def test_infer_agrees_with_hint(self, tv):
        ty, value = tv
        inferred = infer_type(value, hint=ty)
        assert inferred == ty

    @SETTINGS
    @given(typed_values())
    def test_normalize_stays_in_type(self, tv):
        ty, value = tv
        check_value(normalize_value(value, ty), ty)


class TestRelationalRoundTrip:
    """Figure 3's encodings are lossless: shredding a value through the
    compiler, executing the bundle, and stitching must reproduce it --
    including list order and empty inner lists (Section 4.1)."""

    @prop_settings(50)
    @given(typed_values())
    def test_engine_roundtrip(self, tv):
        ty, value = tv
        db = Connection()
        q = to_q(value, hint=ty)
        assert db.run(q) == normalize_value(value, ty)

    @prop_settings(25)
    @given(typed_values())
    def test_sqlite_roundtrip(self, tv):
        ty, value = tv
        db = Connection(backend="sqlite")
        q = to_q(value, hint=ty)
        assert db.run(q) == normalize_value(value, ty)
