"""Regression corpus: hypothesis-style failures pinned as explicit examples.

Each case is a concrete query shape that a randomized differential run
has flagged (or plausibly would flag) at some point: empty lists flowing
through every operator, duplicate-heavy inputs into nub/group_with,
out-of-range take/drop, zips whose sides diverge in length, and nesting
that produces empty inner lists.  Unlike the hypothesis suites these run
deterministically in tier-1, so a reintroduced bug fails loudly on every
push with a readable name instead of depending on example generation.
"""

import pytest

from repro import (
    and_q,
    append,
    concat,
    cond,
    drop,
    drop_while,
    ffilter,
    fmap,
    fsum,
    group_with,
    length,
    nil,
    nub,
    number,
    reverse,
    singleton,
    sort_with,
    take,
    take_while,
    to_q,
    zip_q,
)
from repro.ftypes import IntT
from repro.runtime import Catalog

from ..conftest import run_all_ways

EMPTY = lambda: nil(IntT)  # noqa: E731 - corpus shorthand
DUPES = lambda: to_q([1, 1, 2, 1, 2, 2, 1])  # noqa: E731


#: name -> (query builder, expected value) -- expected values double-check
#: the oracle itself, not just backend agreement.
CORPUS = {
    "map_over_empty": (lambda: fmap(lambda x: x + 1, EMPTY()), []),
    "filter_everything_out": (
        lambda: ffilter(lambda x: x > 99, to_q([1, 2, 3])), []),
    "nub_of_empty": (lambda: nub(EMPTY()), []),
    "nub_keeps_first_occurrence_order": (
        lambda: nub(to_q([3, 1, 3, 2, 1])), [3, 1, 2]),
    "nub_after_sort_respects_new_order": (
        lambda: nub(sort_with(lambda x: x, DUPES())), [1, 2]),
    "nub_of_all_duplicates": (lambda: nub(to_q([5, 5, 5, 5])), [5]),
    "group_with_duplicate_heavy": (
        lambda: group_with(lambda x: x % 2, DUPES()),
        [[2, 2, 2], [1, 1, 1, 1]]),
    "group_with_of_empty": (
        lambda: group_with(lambda x: x % 2, EMPTY()), []),
    "concat_of_groups_is_stable_sort": (
        lambda: concat(group_with(lambda x: x % 3, to_q([5, 3, 4, 2, 1]))),
        [3, 4, 1, 5, 2]),
    "take_zero": (lambda: take(0, to_q([1, 2])), []),
    "take_negative": (lambda: take(-2, to_q([1, 2])), []),
    "take_beyond_length": (lambda: take(99, to_q([1, 2])), [1, 2]),
    "drop_negative": (lambda: drop(-1, to_q([1, 2])), [1, 2]),
    "drop_beyond_length": (lambda: drop(99, to_q([1, 2])), []),
    "take_while_never_true": (
        lambda: take_while(lambda x: x > 9, to_q([1, 2, 3])), []),
    "drop_while_always_true": (
        lambda: drop_while(lambda x: x < 9, to_q([1, 2, 3])), []),
    "zip_unequal_after_filter": (
        lambda: zip_q(ffilter(lambda x: x > 2, to_q([1, 2, 3, 4])),
                      to_q([10, 20, 30])),
        [(3, 10), (4, 20)]),
    "zip_with_empty_side": (
        lambda: fmap(lambda p: p[0] + p[1], zip_q(EMPTY(), to_q([1]))), []),
    "append_two_empties": (lambda: append(EMPTY(), EMPTY()), []),
    "append_empty_left": (lambda: append(EMPTY(), to_q([7])), [7]),
    # the row-bounds fold met a rewritten node whose facts were carried
    # while the literal below it had never been analysed (KeyError)
    "all_over_appended_empties": (
        lambda: and_q(fmap(lambda x: x > 0, append(EMPTY(), EMPTY()))),
        True),
    "reverse_of_singleton_groups": (
        lambda: reverse(fmap(lambda x: singleton(x), to_q([1, 2]))),
        [[2], [1]]),
    "nested_with_empty_inner_lists": (
        lambda: fmap(lambda x: ffilter(lambda y: y > x, to_q([1, 2])),
                     to_q([0, 2, 9])),
        [[1, 2], [], []]),
    "sum_of_empty_is_zero": (lambda: fsum(EMPTY()), 0),
    "length_after_dedup": (lambda: length(nub(DUPES())), 2),
    "cond_on_every_element": (
        lambda: fmap(lambda x: cond(x % 2 == 0, x, -x), to_q([1, 2, 3])),
        [-1, 2, -3]),
    "sort_with_duplicate_keys_is_stable": (
        lambda: sort_with(lambda x: x % 2, to_q([4, 3, 2, 1])),
        [4, 2, 3, 1]),
    # the property-driven rewrites (repro.analysis) each fire on one of
    # these; the corpus pins that elimination never changes the value
    "distinct_elim_group_of_deduped": (
        lambda: group_with(lambda x: x, nub(to_q([3, 1, 3, 2, 1]))),
        [[1], [2], [3]]),
    "select_true_constant_predicate": (
        lambda: ffilter(lambda x: to_q(True), to_q([1, 2, 3])), [1, 2, 3]),
    "rownum_dense_renumbering": (
        lambda: fmap(lambda p: p, number(number(to_q([7, 8])))),
        [((7, 1), 1), ((8, 2), 2)]),
    # one distinct value makes one group, whose rank is dense in a
    # one-row relation: unless inference knows it is the constant 1, a
    # rank rewrite loses the root key (F190, the compile failed)
    "filter_the_group_of_one_value": (
        lambda: fmap(lambda g: ffilter(lambda y: y < 100, g),
                     group_with(lambda x: cond(x > 5, x, x), to_q([1]))),
        [[1]]),
    "filter_the_group_of_one_repeated_value": (
        lambda: fmap(lambda g: ffilter(lambda y: y < 100, g),
                     group_with(lambda x: cond(x > 5, x, x), to_q([1, 1]))),
        [[1, 1]]),
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_regression_corpus(name):
    build, expected = CORPUS[name]
    value = run_all_ways(build(), Catalog())
    assert value == expected, (
        f"corpus case {name!r}: all engines agree but the common value "
        f"changed: expected {expected!r}, got {value!r}")
