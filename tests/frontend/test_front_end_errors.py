"""Both comprehension front ends refuse a bad call or a bad field with a
``FerryError`` at their one call site, before anything is built."""

import pytest

from repro import ComprehensionSyntaxError, QTypeError, fmap, pye, qe, to_q

ENV = dict(a=[1], xs=[1, 2], ys=[3])


@pytest.mark.parametrize("quote, source, takes", [
    (pye, "zip(a)", "zip takes 2 to 3 arguments, got 1"),
    (pye, "sorted()", "sorted takes 1 argument, got 0"),
    (pye, "len()", "len takes 1 argument, got 0"),
    (pye, "abs(1, 2)", "abs takes 1 argument, got 2"),
    (pye, "len(xs, ys)", "len takes 1 argument, got 2"),
    (pye, "max()", "max takes 1 to 2 arguments, got 0"),
    (qe, "fst(1, 2)", "fst takes 1 argument, got 2"),
    (qe, "head()", "head takes 1 argument, got 0"),
    (qe, "zip(a)", "zip takes 2 arguments, got 1"),
    (qe, "abs(1, 2)", "abs takes 1 argument, got 2"),
    (qe, "length(xs, ys)", "length takes 1 argument, got 2"),
])
def test_argument_count_is_checked_against_the_callee(quote, source, takes):
    with pytest.raises(ComprehensionSyntaxError) as err:
        quote(source, **ENV)
    assert str(err.value) == takes


@pytest.mark.parametrize("quote", [qe, pye])
def test_a_missing_field_is_a_type_error_naming_it(quote):
    with pytest.raises(QTypeError, match="has no field 'foo'"):
        quote("p.foo", p=(1, 2))
    # outside the quoters, Q keeps Python's attribute protocol
    assert getattr(to_q((1, 2)), "foo", None) is None


def test_a_non_function_argument_is_a_type_error():
    with pytest.raises(QTypeError, match="expected a function, got Int"):
        qe("map(1, xs)", **ENV)
    with pytest.raises(QTypeError, match="expected a function, got int"):
        fmap(1, to_q([1]))
