"""Per-combinator differential tests: every list-prelude operation is
compiled and executed on every backend and must agree exactly -- values
*and* order -- with the reference interpreter."""

import pytest

from repro import (
    all_q,
    and_q,
    any_q,
    append,
    break_q,
    concat,
    concat_map,
    cond,
    cons,
    drop,
    drop_while,
    elem,
    favg,
    ffilter,
    fmap,
    fsum,
    group_with,
    head,
    index,
    init,
    last,
    length,
    max_q,
    maximum_q,
    min_q,
    minimum_q,
    nil,
    not_elem,
    nub,
    null,
    number,
    or_q,
    reverse,
    singleton,
    snoc,
    sort_with,
    sort_with_desc,
    span_q,
    split_at,
    tail,
    take,
    take_while,
    the,
    to_q,
    tup,
    unzip_q,
    zip3_q,
    zip_q,
    zip_with,
)
from examples.workloads import numbers_dataset
from repro.ftypes import IntT

from ..conftest import run_all_ways


@pytest.fixture(scope="module")
def catalog():
    return numbers_dataset(6)


XS = to_q([3, 1, 4, 1, 5])
YS = to_q([10, 20, 30])
EMPTY = nil(IntT)
NESTED = to_q([[2, 1], [], [3]])
PAIRS = to_q([(2, "b"), (1, "a"), (2, "a")])


def check(q, catalog):
    return run_all_ways(q, catalog)


class TestMapFilter:
    def test_map(self, catalog):
        assert check(fmap(lambda x: x * 2 + 1, XS), catalog) == [7, 3, 9, 3, 11]

    def test_map_over_empty(self, catalog):
        assert check(fmap(lambda x: x * 2, EMPTY), catalog) == []

    def test_map_to_tuples(self, catalog):
        check(fmap(lambda x: tup(x, x % 2 == 0), XS), catalog)

    def test_map_to_nested_lists(self, catalog):
        check(fmap(lambda x: take(x, YS), XS), catalog)

    def test_filter(self, catalog):
        assert check(ffilter(lambda x: x > 2, XS), catalog) == [3, 4, 5]

    def test_filter_all_out(self, catalog):
        assert check(ffilter(lambda x: x > 99, XS), catalog) == []

    def test_filter_nested_elements(self, catalog):
        check(ffilter(lambda l: length(l) > 0, NESTED), catalog)

    def test_map_captures_outer_scope(self, catalog):
        q = fmap(lambda x: fmap(lambda y: x * 10 + y, YS), XS)
        check(q, catalog)


class TestConcat:
    def test_concat(self, catalog):
        assert check(concat(NESTED), catalog) == [2, 1, 3]

    def test_concat_map(self, catalog):
        q = concat_map(lambda x: to_q([0]).map(lambda z: x), XS)
        assert check(q, catalog) == [3, 1, 4, 1, 5]

    def test_concat_map_varying_lengths(self, catalog):
        check(concat_map(lambda x: take(x, YS), XS), catalog)


class TestOrderSensitive:
    def test_sort_with(self, catalog):
        assert check(sort_with(lambda x: x, XS), catalog) == [1, 1, 3, 4, 5]

    def test_sort_with_stability(self, catalog):
        check(sort_with(lambda p: p[0], PAIRS), catalog)

    def test_sort_with_desc(self, catalog):
        check(sort_with_desc(lambda p: p[0], PAIRS), catalog)

    def test_sort_with_tuple_key(self, catalog):
        check(sort_with(lambda p: tup(p[1], p[0]), PAIRS), catalog)

    def test_reverse(self, catalog):
        assert check(reverse(XS), catalog) == [5, 1, 4, 1, 3]

    def test_number(self, catalog):
        check(number(reverse(XS)), catalog)

    def test_nub(self, catalog):
        assert check(nub(XS), catalog) == [3, 1, 4, 5]

    def test_nub_on_tuples(self, catalog):
        check(nub(PAIRS), catalog)


class TestGrouping:
    def test_group_with(self, catalog):
        assert check(group_with(lambda x: x % 2, XS), catalog) == [
            [4], [3, 1, 1, 5]]

    def test_group_with_string_keys(self, catalog):
        check(group_with(lambda p: p[1], PAIRS), catalog)

    def test_group_then_aggregate(self, catalog):
        q = fmap(lambda g: tup(the(fmap(lambda p: p[1], g)),
                               fsum(fmap(lambda p: p[0], g))),
                 group_with(lambda p: p[1], PAIRS))
        assert check(q, catalog) == [("a", 3), ("b", 2)]


class TestElementAccess:
    def test_head_last_the(self, catalog):
        assert check(head(XS), catalog) == 3
        assert check(last(XS), catalog) == 5
        assert check(the(to_q([7, 7])), catalog) == 7

    def test_head_of_nested(self, catalog):
        assert check(head(NESTED), catalog) == [2, 1]
        assert check(last(NESTED), catalog) == [3]

    def test_index(self, catalog):
        assert check(index(XS, 2), catalog) == 4
        assert check(index(NESTED, to_q(2)), catalog) == [3]

    def test_tail_init(self, catalog):
        assert check(tail(XS), catalog) == [1, 4, 1, 5]
        assert check(init(XS), catalog) == [3, 1, 4, 1]

    def test_tail_of_nested(self, catalog):
        check(tail(NESTED), catalog)


class TestSlicing:
    def test_take_drop(self, catalog):
        assert check(take(2, XS), catalog) == [3, 1]
        assert check(drop(2, XS), catalog) == [4, 1, 5]

    def test_take_drop_clamp(self, catalog):
        assert check(take(99, XS), catalog) == [3, 1, 4, 1, 5]
        assert check(drop(99, XS), catalog) == []

    def test_take_computed_count(self, catalog):
        check(fmap(lambda x: take(x, YS), XS), catalog)

    def test_split_at(self, catalog):
        assert check(split_at(2, XS), catalog) == ([3, 1], [4, 1, 5])

    def test_take_while_drop_while(self, catalog):
        assert check(take_while(lambda x: x > 2, XS), catalog) == [3]
        assert check(drop_while(lambda x: x > 2, XS), catalog) == [1, 4, 1, 5]

    def test_span_break(self, catalog):
        check(span_q(lambda x: x % 2 == 1, XS), catalog)
        check(break_q(lambda x: x > 3, XS), catalog)


class TestZips:
    def test_zip(self, catalog):
        assert check(zip_q(XS, YS), catalog) == [(3, 10), (1, 20), (4, 30)]

    def test_zip_with(self, catalog):
        assert check(zip_with(lambda a, b: a + b, XS, YS), catalog) == [
            13, 21, 34]

    def test_zip3(self, catalog):
        check(zip3_q(XS, YS, reverse(XS)), catalog)

    def test_unzip(self, catalog):
        assert check(unzip_q(PAIRS), catalog) == ([2, 1, 2], ["b", "a", "a"])


class TestBuilding:
    def test_append(self, catalog):
        assert check(append(XS, YS), catalog) == [3, 1, 4, 1, 5, 10, 20, 30]

    def test_append_nested(self, catalog):
        check(append(NESTED, to_q([[9]])), catalog)

    def test_cons_snoc_singleton(self, catalog):
        assert check(cons(0, XS), catalog) == [0, 3, 1, 4, 1, 5]
        assert check(snoc(XS, 9), catalog) == [3, 1, 4, 1, 5, 9]
        assert check(singleton(7), catalog) == [7]

    def test_cons_nested_element(self, catalog):
        check(cons(to_q([8, 9]), NESTED), catalog)


class TestAggregates:
    def test_numeric(self, catalog):
        assert check(fsum(XS), catalog) == 14
        assert check(favg(to_q([1.0, 2.0])), catalog) == 1.5
        assert check(maximum_q(XS), catalog) == 5
        assert check(minimum_q(XS), catalog) == 1

    def test_double_sum(self, catalog):
        assert check(fsum(to_q([0.5, 0.25])), catalog) == 0.75

    def test_length_null(self, catalog):
        assert check(length(XS), catalog) == 5
        assert check(null(EMPTY), catalog) is True
        assert check(null(XS), catalog) is False

    def test_defaults_on_empty(self, catalog):
        assert check(fsum(EMPTY), catalog) == 0
        assert check(length(EMPTY), catalog) == 0
        assert check(and_q(fmap(lambda x: x > 0, EMPTY)), catalog) is True
        assert check(or_q(fmap(lambda x: x > 0, EMPTY)), catalog) is False

    def test_lifted_aggregates(self, catalog):
        # aggregates inside map: per-iteration groups, with defaults for
        # iterations whose list is empty
        q = fmap(lambda x: fsum(ffilter(lambda y: y > x, YS)), XS)
        check(q, catalog)

    def test_quantifiers(self, catalog):
        assert check(all_q(lambda x: x > 0, XS), catalog) is True
        assert check(any_q(lambda x: x > 4, XS), catalog) is True

    def test_membership(self, catalog):
        assert check(elem(4, XS), catalog) is True
        assert check(not_elem(9, XS), catalog) is True


class TestConditionals:
    def test_scalar_cond(self, catalog):
        q = fmap(lambda x: cond(x % 2 == 0, x * 10, -x), XS)
        assert check(q, catalog) == [-3, -1, 40, -1, -5]

    def test_list_cond(self, catalog):
        q = fmap(lambda x: cond(x > 2, take(2, YS), nil(IntT)), XS)
        check(q, catalog)

    def test_cond_with_nested_branches(self, catalog):
        q = cond(to_q(True), NESTED, to_q([[7]]))
        assert check(q, catalog) == [[2, 1], [], [3]]

    def test_scalar_arithmetic_binops(self, catalog):
        q = fmap(lambda x: (x + 1) * 2 - x % 3, XS)
        check(q, catalog)

    def test_min_max(self, catalog):
        check(fmap(lambda x: min_q(x, 3), XS), catalog)
        check(fmap(lambda x: max_q(x, 3), XS), catalog)


class TestTablesInQueries:
    def test_table_scan(self, catalog):
        from repro import table
        q = table("nums", {"n": int})
        assert check(q, catalog) == [0, 1, 2, 3, 4, 5]

    def test_correlated_filter_on_table(self, catalog):
        # exercises the decorrelation rule
        from repro import table
        nums = table("nums", {"n": int})
        q = fmap(lambda x: ffilter(lambda y: y == x % 3, nums), XS)
        check(q, catalog)

    def test_decorrelated_with_rest_conjuncts(self, catalog):
        from repro import table
        nums = table("nums", {"n": int})
        q = fmap(lambda x: ffilter(lambda y: (y % 3 == x % 3) & (y > 1),
                                   nums), XS)
        check(q, catalog)
