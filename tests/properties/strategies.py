"""Hypothesis strategies for random embedded queries.

Generates well-typed, *total* query pipelines (no partial operations, no
division) so that differential runs across the oracle and all backends
must agree without exception handling.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro import (
    Q,
    all_q,
    and_q,
    any_q,
    append,
    concat,
    concat_map,
    cond,
    drop,
    drop_while,
    ffilter,
    fmap,
    fsum,
    group_with,
    length,
    maximum_q,
    nil,
    nub,
    null,
    number,
    or_q,
    reverse,
    singleton,
    sort_with,
    sort_with_desc,
    take,
    take_while,
    to_q,
    the,
    tup,
    zip_q,
)
from repro.ftypes import IntT

ints = st.integers(min_value=-20, max_value=20)
small = st.integers(min_value=-3, max_value=5)


#: Values drawn from a tiny pool, so generated lists are duplicate-heavy
#: (the interesting regime for nub / group_with / distinct-based plans).
dup_ints = st.integers(min_value=-2, max_value=2)


@st.composite
def base_int_list(draw) -> Q:
    """A literal Int-list: empty, duplicate-heavy, or general-purpose.

    Empty and duplicate-heavy shapes are generated explicitly (not left
    to chance) because they exercise the encodings hardest: empty inner
    lists must survive the surrogate join, and duplicates stress
    Distinct/RowRank plans.
    """
    mode = draw(st.integers(0, 5))
    if mode == 0:
        return nil(IntT)
    if mode <= 2:
        values = draw(st.lists(dup_ints, min_size=2, max_size=10))
    else:
        values = draw(st.lists(ints, max_size=7))
    return to_q(values, hint=None) if values else nil(IntT)


def _scalar_fn(draw):
    """A random total Int -> Int function (as a Python lambda over Q)."""
    k = draw(small)
    which = draw(st.integers(0, 4))
    if which == 0:
        return lambda x: x + k
    if which == 1:
        return lambda x: x * k
    if which == 2:
        return lambda x: x % 7  # constant divisor: total
    if which == 3:
        return lambda x: cond(x > k, x, k - x)
    return lambda x: -x


def _predicate(draw):
    k = draw(small)
    which = draw(st.integers(0, 3))
    if which == 0:
        return lambda x: x > k
    if which == 1:
        return lambda x: x % 2 == 0
    if which == 2:
        return lambda x: (x > k) | (x < -k)
    return lambda x: ~(x == k)


@st.composite
def int_list_query(draw, max_ops: int = 4) -> Q:
    """A pipeline of list operations over a literal Int list."""
    q = draw(base_int_list())
    for _ in range(draw(st.integers(0, max_ops))):
        op = draw(st.integers(0, 14))
        if op == 0:
            q = fmap(_scalar_fn(draw), q)
        elif op == 1:
            q = ffilter(_predicate(draw), q)
        elif op == 2:
            q = reverse(q)
        elif op == 3:
            q = sort_with(_scalar_fn(draw), q)
        elif op == 4:
            q = sort_with_desc(_scalar_fn(draw), q)
        elif op == 5:
            q = take(draw(small), q)
        elif op == 6:
            q = drop(draw(small), q)
        elif op == 7:
            q = nub(q)
        elif op == 8:
            q = append(q, draw(base_int_list()))
        elif op == 9:
            q = take_while(_predicate(draw), q)
        elif op == 10:
            q = drop_while(_predicate(draw), q)
        elif op == 11:
            q = fmap(lambda p: p[0] + p[1], zip_q(q, reverse(q)))
        elif op == 12:
            # group then flatten: [Int] -> [[Int]] -> [Int]
            q = concat(group_with(_scalar_fn(draw), q))
        elif op == 13:
            # zip against a sorted self, keep the larger component
            f = _scalar_fn(draw)
            q = fmap(lambda p: cond(p[0] > p[1], p[0], p[1]),
                     zip_q(q, sort_with(f, q)))
        else:
            # dedup after reordering (nub must respect *first* occurrence
            # in the sorted order, not the original)
            q = nub(sort_with(_scalar_fn(draw), q))
    return q


@st.composite
def nested_query(draw) -> Q:
    """A query of type [[Int]] built from pipelines."""
    inner = draw(int_list_query(max_ops=2))
    which = draw(st.integers(0, 4))
    if which == 0:
        k = draw(st.integers(1, 4))
        return group_with(lambda x: x % k, inner)
    if which == 1:
        return fmap(lambda x: take(x % 4, inner), inner)
    if which == 2:
        return fmap(lambda x: singleton(x), inner)
    if which == 3:
        # sort the groups by size: composition of group_with + sort_with
        k = draw(st.integers(1, 3))
        return sort_with(length, group_with(lambda x: x % k, inner))
    # groups of deduplicated elements, some possibly empty after filter
    p = _predicate(draw)
    return fmap(lambda g: ffilter(p, g),
                group_with(_scalar_fn(draw), nub(inner)))


@st.composite
def scalar_query(draw) -> Q:
    """A query of scalar type (aggregation over a pipeline)."""
    q = draw(int_list_query(max_ops=3))
    which = draw(st.integers(0, 6))
    if which == 0:
        return fsum(q)
    if which == 1:
        return length(q)
    if which == 2:
        return null(q)
    if which == 3:
        return and_q(fmap(_predicate(draw), q))
    if which == 4:
        return or_q(fmap(_predicate(draw), q))
    if which == 5:
        return all_q(_predicate(draw), q)
    return any_q(_predicate(draw), q)


@st.composite
def any_query(draw) -> Q:
    which = draw(st.integers(0, 3))
    if which == 0:
        return draw(int_list_query())
    if which == 1:
        return draw(nested_query())
    if which == 2:
        return draw(scalar_query())
    return tup(draw(scalar_query()), draw(int_list_query(max_ops=2)))


# ----------------------------------------------------------------------
# multi-generator comprehensions with scattered guard conjuncts
# ----------------------------------------------------------------------

_PAIR = st.tuples(st.integers(0, 3), st.integers(0, 3))
_CMP = {"eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
        "lt": lambda a, b: a < b, "le": lambda a, b: a <= b}


def _pair_table(rows) -> Q:
    return to_q(rows) if rows else nil(TupleT((IntT, IntT)))


@st.composite
def join_comprehension(draw) -> Q:
    """``[head | o <- [0..3], g0 <- t0, ..., gn <- tn, guards]`` over 2-4
    literal pair tables, as one query per value of ``o``.

    Each guard conjunct compares a generator field with another field,
    the enclosing variable ``o`` or a literal, and is written at a drawn
    position: on the source of the last generator it mentions or any
    later one, or as a filter around the binding stream after it --
    every place a front end may leave a guard.  The last generator's
    head is either the pair stream's (``qc``/``pyq``) or fused into its
    ``map`` (combinator style).
    """
    n = draw(st.integers(2, 4))
    tables = [_pair_table(draw(st.lists(_PAIR, max_size=4)))
              for _ in range(n)]
    field = st.tuples(st.just("gen"), st.integers(0, n - 1),
                      st.integers(0, 1))
    other = st.one_of(field, st.just(("outer",)),
                      st.tuples(st.just("lit"), st.integers(0, 3)))
    guards = []  # (generator index, "source" | "around", op, lhs, rhs)
    for _ in range(draw(st.integers(0, 5))):
        lhs, rhs = draw(field), draw(other)
        if draw(st.booleans()):
            lhs, rhs = rhs, lhs
        first = max(t[1] for t in (lhs, rhs) if t[0] == "gen")
        guards.append((draw(st.integers(first, n - 1)),
                       draw(st.sampled_from(("source", "around"))),
                       draw(st.sampled_from(sorted(_CMP))), lhs, rhs))
    fused_head = draw(st.booleans())

    def sited(k, site):
        return [g[2:] for g in guards if g[:2] == (k, site)]

    def unpack(k):
        """Generator values ``[g0..gk]`` of an element of stream ``k``
        (left-nested pairs; stream 0 is the first table itself)."""
        def gens(s):
            out = []
            for _ in range(k):
                out.append(s[1])
                s = s[0]
            return [s] + out[::-1]
        return gens

    def comprehension(o):
        def term(t, gens):
            if t[0] == "gen":
                return gens[t[1]][t[2]]
            return o if t[0] == "outer" else to_q(t[1])

        def guarded(k, site, xs, gens_of):
            conjs = sited(k, site)
            if not conjs:
                return xs

            def holds(e):
                gens = gens_of(e)
                conds = [_CMP[op](to_q(term(lhs, gens)), term(rhs, gens))
                         for op, lhs, rhs in conjs]
                out = conds[0]
                for c in conds[1:]:
                    out = out & c
                return out
            return ffilter(holds, xs)

        def head(gens):
            return tup(gens[0][0], gens[-1][1])

        stream = guarded(0, "around",
                         guarded(0, "source", tables[0], unpack(0)),
                         unpack(0))
        for k in range(1, n):
            fuse = fused_head and k == n - 1 and not sited(k, "around")

            def step(s, k=k, fuse=fuse):
                before = unpack(k - 1)(s)
                src = guarded(k, "source", tables[k],
                              lambda y: before + [y])
                if fuse:
                    return fmap(lambda y: head(before + [y]), src)
                return fmap(lambda y: tup(s, y), src)

            stream = concat_map(step, stream)
            if fuse:
                return stream
            stream = guarded(k, "around", stream, unpack(k))
        return fmap(lambda s: head(unpack(n - 1)(s)), stream)

    return fmap(comprehension, to_q([0, 1, 2, 3]))


# ----------------------------------------------------------------------
# nested-result programs: 2-4 bundle members over one shared spine
# ----------------------------------------------------------------------

def _key(r):
    return r[0]


def _val(r):
    return r[1]


def _lookup(u, k):
    """The ``v`` of every ``u`` row whose key is ``k`` (may be empty)."""
    return fmap(_val, ffilter(lambda w: w[0] == k, u))


#: name -> (bundle size, builder over two ``(k, v)`` pair tables).  Every
#: member of a bundle reads the same ``group_with`` / ``sort_with`` spine
#: over ``t``: the optimizer builds it once for all of them, so these are
#: the programs on which cross-query sharing is load-bearing.
SPINE_PROGRAMS = {
    "groups_with_items": (2, lambda t, u: fmap(
        lambda g: tup(the(fmap(_key, g)), fmap(_val, g)),
        group_with(_key, t))),
    "groups_two_views": (3, lambda t, u: fmap(
        lambda g: tup(fmap(_val, g), fmap(_val, sort_with_desc(_val, g))),
        group_with(_key, t))),
    "groups_three_views": (4, lambda t, u: fmap(
        lambda g: tup(fmap(_key, g), fmap(_val, g), nub(fmap(_val, g))),
        group_with(_key, t))),
    "groups_with_lookups": (3, lambda t, u: fmap(
        lambda g: fmap(lambda r: tup(r[1], _lookup(u, r[0])), g),
        group_with(_key, t))),
    "groups_of_groups": (3, lambda t, u: fmap(
        lambda g: fmap(lambda h: fmap(_val, h),
                       group_with(lambda r: r[1] % 2, g)),
        group_with(_key, t))),
    "groups_sum_and_items": (2, lambda t, u: fmap(
        lambda g: tup(the(fmap(_key, g)), fsum(fmap(_val, g)),
                      length(g), fmap(_val, g)),
        group_with(_key, t))),
    "groups_filtered_items": (2, lambda t, u: fmap(
        lambda g: ffilter(lambda v: v > 0, fmap(_val, g)),
        group_with(_key, t))),
    "sorted_with_lookups": (2, lambda t, u: fmap(
        lambda r: tup(r[0], _lookup(u, r[0])), sort_with(_val, t))),
    "sorted_then_grouped": (2, lambda t, u: fmap(
        lambda g: fmap(_key, g),
        group_with(lambda r: r[1] % 3, sort_with(_val, t)))),
    "sorted_two_lookups": (3, lambda t, u: fmap(
        lambda r: tup(_lookup(u, r[0]), _lookup(t, r[1])),
        sort_with_desc(_key, t))),
    "groups_zipped_views": (3, lambda t, u: fmap(
        lambda g: tup(fmap(_val, g),
                      fmap(lambda p: p[0] + p[1],
                           zip_q(fmap(_val, g), fmap(_key, reverse(g))))),
        group_with(_key, t))),
    "groups_items_and_lookups": (4, lambda t, u: fmap(
        lambda g: tup(fmap(_val, g),
                      fmap(lambda r: _lookup(u, r[1]), g)),
        group_with(_key, t))),
}

_KV = st.tuples(st.integers(0, 3), st.integers(-4, 4))


@st.composite
def pair_rows(draw) -> list:
    """Rows of a ``(k, v)`` table: none, duplicate-heavy keys (and whole
    duplicate rows), or a general handful."""
    mode = draw(st.integers(0, 3))
    if mode == 0:
        return []
    if mode == 1:
        k = draw(st.integers(0, 1))
        return [(k, v) for v in draw(st.lists(st.integers(-1, 1),
                                              min_size=2, max_size=8))]
    return draw(st.lists(_KV, max_size=8))


@st.composite
def shared_spine_program(draw):
    """``(name, rows of t, rows of u)``: a :data:`SPINE_PROGRAMS` entry
    and an instance for it."""
    return (draw(st.sampled_from(sorted(SPINE_PROGRAMS))),
            draw(pair_rows()), draw(pair_rows()))


# ----------------------------------------------------------------------
# arbitrary nested values, generated type-first so lists stay homogeneous
# ----------------------------------------------------------------------

import datetime  # noqa: E402

from repro.ftypes import (  # noqa: E402
    BoolT,
    DateT,
    DoubleT,
    ListT,
    StringT,
    TimeT,
    TupleT,
    Type,
)

_ATOM_STRATEGIES = {
    BoolT: st.booleans(),
    IntT: ints,
    DoubleT: st.floats(allow_nan=False, allow_infinity=False, width=32),
    # NUL is outside the database text domain (see ftypes.values)
    StringT: st.text(max_size=5).filter(lambda t: "\x00" not in t),
    DateT: st.dates(min_value=datetime.date(1990, 1, 1),
                    max_value=datetime.date(2030, 12, 31)),
    TimeT: st.times().map(lambda t: t.replace(microsecond=0)),
}

atom_types = st.sampled_from(list(_ATOM_STRATEGIES))

ferry_types = st.recursive(
    atom_types,
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
