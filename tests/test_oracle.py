"""The differential driver's one comparison (``conftest.same``): two
executors agree only on the same value, down to the sign of a zero and
the type of an atom."""

import datetime

from repro.errors import PartialFunctionError, QTypeError

from .conftest import same


class TestSame:
    def test_the_sign_of_zero_counts(self):
        assert not same([0.0], [-0.0])
        assert not same(("value", [(1, -0.0)]), ("value", [(1, 0.0)]))
        assert same([-0.0], [-0.0])

    def test_every_nan_is_one_value(self):
        nan = float("nan")
        assert same(nan, float("nan"))
        assert same([nan], [-nan])
        assert not same([nan], [0.0])

    def test_atoms_of_another_type_differ(self):
        assert not same(True, 1)
        assert not same([1], [1.0])
        assert not same([False], [0])
        assert same(datetime.date(2009, 6, 29), datetime.date(2009, 6, 29))

    def test_lists_and_tuples_compare_by_structure(self):
        assert same([(1, [2.5, "x"])], [(1, [2.5, "x"])])
        assert not same([(1, 2)], [[1, 2]])
        assert not same([1, 2], [1, 2, 3])
        assert not same([[]], [])

    def test_outcomes(self):
        assert same(("error", PartialFunctionError),
                    ("error", PartialFunctionError))
        assert not same(("error", PartialFunctionError),
                        ("error", QTypeError))
        assert not same(("value", []), ("error", QTypeError))
