"""One grammar of FERRY programs, rendered as combinators, ``qc`` and ``pyq``.

A term -- a combinator pipeline, a comprehension, a shared-spine program
-- is built with the combinator API, a comprehension in the desugarer's
stream encoding (``repro.frontend.comprehensions.desugar``: a generator
extends the stream by ``concat_map(\\t -> map(\\y -> (t, y), src))``, a
guard filters it, the head is mapped over it), and rendered as ``qc``
and ``pyq`` text, the combinators Python has no builtin for coming
through the environment.  :meth:`Program.query` asserts that the three
share one ``fingerprint()``.  Terms read like queries: the builders
(``fmap``, ...) take Python lambdas; operators on terms build terms.
"""

import functools
import itertools
import operator
from dataclasses import dataclass, make_dataclass
from typing import Any, Callable

from hypothesis import strategies as st

import repro
from repro import nil, pye, pyq, qc, qe, table, to_q
from repro.ftypes import IntT, TupleT


class Term:
    """A program term; operators on terms build terms, as on ``Q``."""

    __hash__ = object.__hash__

    def __getitem__(self, index: int) -> "Term":
        return Proj(self, index)

    def __neg__(self) -> "Term":
        return Un("-", self)

    def __invert__(self) -> "Term":
        return Un("not", self)


#: operator text -> what it builds on queries
OPS: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "//": operator.floordiv, "%": operator.mod,
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "and": operator.and_, "or": operator.or_,
}
for _op, _fn in OPS.items():
    _name = _fn.__name__.strip("_")
    setattr(Term, f"__{_name}__", lambda a, b, op=_op: Bin(op, a, lit(b)))
    if _name in ("add", "sub", "mul"):  # an int on the left
        setattr(Term, f"__r{_name}__",
                lambda a, b, op=_op: Bin(op, lit(b), a))

#: The constructors of terms.  A ``Lit`` holds a bool or an int >= 0
#: (``lit`` negates), ``Call`` names a ``repro`` combinator, a ``Gen``
#: binds a name or a tuple of names, and a ``Comp`` starts with a ``Gen``.
(Lit, Var, Proj, Bin, Un, If, Tup, Call, Lam, Gen, Guard, Comp) = (
    make_dataclass(name, fields, bases=(Term,), frozen=True, eq=False)
    for name, *fields in map(str.split, (
        "Lit value", "Var name", "Proj of index", "Bin op lhs rhs",
        "Un op of", "If cond then orelse", "Tup parts", "Call fn args",
        "Lam param body", "Gen pat src", "Guard cond", "Comp head quals")))
_names = (f"v{i}" for i in itertools.count())


def lit(x: Any) -> Term:
    return x if isinstance(x, Term) else Un("-", Lit(-x)) if x < 0 else Lit(x)


def lam(f: Callable[[Term], Any]) -> Term:
    """A Python function over terms as a lambda term."""
    param = next(_names)
    return Lam(param, lit(f(Var(param))))


def cond(c: Any, then: Any, orelse: Any) -> Term:
    return If(lit(c), lit(then), lit(orelse))


def tup(*parts: Any) -> Term:
    return Tup(tuple(map(lit, parts)))


#: combinator -> its ``qc`` name, where that is not its own
QC_NAMES = {"fmap": "map", "ffilter": "filter", "concat_map": "concatMap",
            "sort_with": "sortWith", "group_with": "groupWith",
            "take_while": "takeWhile", "drop_while": "dropWhile",
            "zip_q": "zip", "all_q": "all", "any_q": "any", "fsum": "sum",
            "maximum_q": "maximum", "minimum_q": "minimum"}
#: combinator -> the Python builtin ``pyq`` reads as it (``sort_with``
#: and ``sort_with_desc`` are ``sorted``)
PY_NAMES = {"length": "len", "fsum": "sum", "reverse": "reversed",
            "zip_q": "zip", "maximum_q": "max", "minimum_q": "min",
            "and_q": "all", "or_q": "any"}
#: the combinators a term calls, by name: the environment of both quoters
COMBINATORS = {name: getattr(repro, name) for name in (
    "fmap ffilter concat_map concat sort_with sort_with_desc group_with "
    "take_while drop_while zip_q all_q any_q and_q or_q fsum length null "
    "reverse maximum_q minimum_q append singleton take drop nub head last "
    "the tail init index").split()}


def _builder(fn: str) -> Callable[..., Term]:
    return lambda *args: Call(fn, tuple(
        lam(a) if callable(a) else lit(a) for a in args))


(fmap, ffilter, concat_map, concat, sort_with, sort_with_desc, group_with,
 take_while, drop_while, zip_q, all_q, any_q, and_q, or_q, fsum, length, null,
 reverse, maximum_q, minimum_q, append, singleton, take, drop, nub, head, last,
 the, tail, init, index) = map(_builder, COMBINATORS)


def build(t: Term, scope: dict) -> Any:
    """``t`` built with the combinator API; ``scope`` binds its names."""
    if isinstance(t, Lit):
        return to_q(t.value)
    if isinstance(t, Var):
        return scope[t.name]
    if isinstance(t, Proj):
        return build(t.of, scope)[t.index]
    if isinstance(t, Bin):
        return OPS[t.op](build(t.lhs, scope), build(t.rhs, scope))
    if isinstance(t, Un):
        of = build(t.of, scope)
        return ~of if t.op == "not" else -of
    if isinstance(t, If):
        return repro.cond(*(build(p, scope) for p in (t.cond, t.then,
                                                      t.orelse)))
    if isinstance(t, Tup):
        return repro.tup(*(build(p, scope) for p in t.parts))
    if isinstance(t, Call):
        return COMBINATORS[t.fn](*(build(a, scope) for a in t.args))
    if isinstance(t, Lam):
        return _over(t.body, {t.param: lambda x: x}, scope)
    stream, binders = None, {}
    for q in t.quals:
        if isinstance(q, Guard):
            stream = repro.ffilter(_over(q.cond, binders, scope), stream)
        elif stream is None:
            stream, binders = build(q.src, scope), _bind(q.pat, lambda x: x)
        else:
            src = _over(q.src, binders, scope)
            stream = repro.concat_map(lambda s, src=src: repro.fmap(
                lambda y: repro.tup(s, y), src(s)), stream)
            binders = {**{n: lambda s, ex=ex: ex(s[0])
                          for n, ex in binders.items()},
                       **_bind(q.pat, lambda s: s[1])}
    return repro.fmap(_over(t.head, binders, scope), stream)


def _bind(pat: "str | tuple", ex: Callable) -> dict:
    return {pat: ex} if isinstance(pat, str) else {
        name: lambda s, i=i: ex(s)[i] for i, name in enumerate(pat)}


def _over(body: Term, binders: dict, scope: dict) -> Callable:
    return lambda s: build(body, {**scope, **{
        name: ex(s) for name, ex in binders.items()}})


def text(t: Term, py: bool) -> str:
    """``t`` as ``pyq`` text, or else as ``qc`` text."""
    def r(u: Term) -> str:
        return text(u, py)

    def qual(q: Term) -> str:
        if isinstance(q, Guard):
            return f"if {r(q.cond)}" if py else r(q.cond)
        pat = q.pat if isinstance(q.pat, str) else f"({', '.join(q.pat)})"
        return f"for {pat} in {r(q.src)}" if py else f"{pat} <- {r(q.src)}"

    if isinstance(t, Lit):
        return str(t.value)
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Proj):
        of = r(t.of) if isinstance(t.of, Var) else f"({r(t.of)})"
        return f"{of}[{t.index}]" if py else f"{of}.{t.index}"
    if isinstance(t, Bin):
        return f"({r(t.lhs)} {t.op} {r(t.rhs)})"
    if isinstance(t, Un):
        return f"(not {r(t.of)})" if t.op == "not" else f"(-{r(t.of)})"
    if isinstance(t, If):
        if py:
            return f"({r(t.then)} if {r(t.cond)} else {r(t.orelse)})"
        return f"(if {r(t.cond)} then {r(t.then)} else {r(t.orelse)})"
    if isinstance(t, Tup):
        return f"({', '.join(map(r, t.parts))})"
    if isinstance(t, Call):
        args = [r(a) for a in t.args]
        if py and t.fn in ("sort_with", "sort_with_desc"):
            desc = ", reverse=True" if t.fn == "sort_with_desc" else ""
            return f"sorted({args[1]}, key={args[0]}{desc})"
        name = (PY_NAMES if py else QC_NAMES).get(t.fn, t.fn)
        return f"{name}({', '.join(args)})"
    if isinstance(t, Lam):
        return (f"(lambda {t.param}: {r(t.body)})" if py
                else f"(\\{t.param} -> {r(t.body)})")
    if py:
        return f"[{r(t.head)} {' '.join(map(qual, t.quals))}]"
    return f"[{r(t.head)} | {', '.join(map(qual, t.quals))}]"


@dataclass(frozen=True)
class Program:
    """A term and the data it names (literal lists, tables) as queries."""

    term: Term
    data: dict

    @functools.cached_property
    def query(self) -> repro.Q:
        """The term built as combinators, once its ``qc`` and ``pyq``
        renderings are known to be the same program."""
        q = build(self.term, self.data)
        quotes = (qc, pyq) if isinstance(self.term, Comp) else (qe, pye)
        env = {**COMBINATORS, **self.data}
        prints = {q.fingerprint()} | {
            quote(text(self.term, py), **env).fingerprint()
            for quote, py in zip(quotes, (False, True))}
        assert len(prints) == 1, f"the renderings differ: {self}"
        return q

    def __repr__(self) -> str:
        data = {name: q.exp for name, q in self.data.items()}
        return f"Program({text(self.term, False)!r}, {data})"


# ----------------------------------------------------------------------
# the grammar
# ----------------------------------------------------------------------

SMALL = st.integers(-3, 5)
PAIR = TupleT((IntT, IntT))
KV = [("k", int), ("v", int)]
#: the tables comprehensions draw from
TABLES = {"t1": [("a", int), ("b", int)], "t2": [("c", int), ("d", int)]}


class Grammar:
    """Draws terms; each literal list it makes up is named data."""

    def __init__(self, draw: Callable[[st.SearchStrategy], Any]):
        self.draw = draw
        self.data: dict = {}

    def between(self, lo: int, hi: int) -> int:
        return self.draw(st.integers(lo, hi))

    def pick(self, options: list) -> Any:
        return self.draw(st.sampled_from(options))

    def literal(self, q: repro.Q) -> Var:
        self.data[name := f"xs{len(self.data)}"] = q
        return Var(name)

    # -- combinator pipelines over literal Int lists ---------------------
    def int_list(self) -> Var:
        """Empty, duplicate-heavy (a pool of five values) or general, each
        drawn on purpose: empty inner lists must survive the surrogate
        join, and duplicates stress the Distinct / RowRank plans."""
        mode = self.between(0, 5)
        values = ([] if mode == 0 else self.draw(st.lists(
            st.integers(-2, 2), min_size=2, max_size=10)) if mode <= 2
            else self.draw(st.lists(st.integers(-20, 20), max_size=7)))
        return self.literal(to_q(values) if values else nil(IntT))

    def fn(self) -> Callable[[Term], Term]:
        """A total Int -> Int function (``%`` by a constant)."""
        k = self.draw(SMALL)
        return [lambda x: x + k, lambda x: x * k, lambda x: x % 7,
                lambda x: cond(x > k, x, k - x),
                lambda x: -x][self.between(0, 4)]

    def pred(self) -> Callable[[Term], Term]:
        k = self.draw(SMALL)
        return [lambda x: x > k, lambda x: x % 2 == 0,
                lambda x: (x > k) | (x < -k),
                lambda x: ~(x == k)][self.between(0, 3)]

    def pipeline(self, max_ops: int = 4) -> Term:
        steps = (
            lambda q: fmap(self.fn(), q),
            lambda q: ffilter(self.pred(), q),
            reverse,
            lambda q: sort_with(self.fn(), q),
            lambda q: sort_with_desc(self.fn(), q),
            lambda q: take(self.draw(SMALL), q),
            lambda q: drop(self.draw(SMALL), q),
            nub,
            lambda q: append(q, self.int_list()),
            lambda q: take_while(self.pred(), q),
            lambda q: drop_while(self.pred(), q),
            lambda q: fmap(lambda p: p[0] + p[1], zip_q(q, reverse(q))),
            # group, then flatten: [Int] -> [[Int]] -> [Int]
            lambda q: concat(group_with(self.fn(), q)),
            # zip against a sorted self, keep the larger component
            lambda q: fmap(lambda p: cond(p[0] > p[1], p[0], p[1]),
                           zip_q(q, sort_with(self.fn(), q))),
            # nub keeps the first occurrence in the *sorted* order
            lambda q: nub(sort_with(self.fn(), q)),
        )
        q: Term = self.int_list()
        for _ in range(self.between(0, max_ops)):
            q = steps[self.between(0, len(steps) - 1)](q)
        return q

    def nested(self) -> Term:
        """A program of type ``[[Int]]``."""
        inner = self.pipeline(max_ops=2)
        which = self.between(0, 4)
        if which in (0, 3):  # 3: sorted by size, group_with ∘ sort_with
            k = self.between(1, 4 if which == 0 else 3)
            groups = group_with(lambda x: x % k, inner)
            return sort_with(length, groups) if which else groups
        if which == 1:
            return fmap(lambda x: take(x % 4, inner), inner)
        if which == 2:
            return fmap(singleton, inner)
        p = self.pred()  # groups of deduplicated elements, some emptied
        return fmap(lambda g: ffilter(p, g), group_with(self.fn(), nub(inner)))

    def scalar(self) -> Term:
        """An aggregate over a pipeline."""
        q = self.pipeline(max_ops=3)
        which = self.between(0, 6)
        if which < 3:
            return (fsum, length, null)[which](q)
        if which < 5:
            return (and_q, or_q)[which - 3](fmap(self.pred(), q))
        return (all_q, any_q)[which - 5](self.pred(), q)

    def any(self) -> Term:
        return (self.pipeline, self.nested, self.scalar, lambda: tup(
            self.scalar(), self.pipeline(max_ops=2)))[self.between(0, 3)]()

    # -- join comprehensions over literal pair tables --------------------
    def join(self) -> Term:
        """``[(g0.0, gn.1) | g0 <- t0, ..., gn <- tn, guards]`` over 2-4
        literal pair tables, once per ``o <- [0..3]``: a comprehension
        (a generator binds a name or a pair), or the stream written out
        in combinators with the head fused into the last ``map``.  A guard
        conjunct compares a generator field with another, ``o`` or a
        literal, on the source of the last generator it mentions or a
        later one, or around the stream after it."""
        n = self.between(2, 4)
        tables = [self.literal(to_q(rows) if rows else nil(PAIR))
                  for rows in (self.draw(st.lists(st.tuples(
                      st.integers(0, 3), st.integers(0, 3)), max_size=4))
                      for _ in range(n))]
        field = st.tuples(st.just("gen"), st.integers(0, n - 1),
                          st.integers(0, 1))
        other = st.one_of(field, st.just(("outer",)),
                          st.tuples(st.just("lit"), st.integers(0, 3)))
        guards = []  # (generator index, "source" | "around", op, lhs, rhs)
        for _ in range(self.between(0, 5)):
            lhs, rhs = self.draw(field), self.draw(other)
            if self.draw(st.booleans()):
                lhs, rhs = rhs, lhs
            first = max(t[1] for t in (lhs, rhs) if t[0] == "gen")
            guards.append((self.between(first, n - 1),
                           self.pick(["source", "around"]),
                           self.pick(["==", "!=", "<", "<="]), lhs, rhs))
        fused = self.draw(st.booleans())
        pats = [(next(_names), next(_names)) if self.draw(st.booleans())
                else next(_names) for _ in range(n)]

        def sited(k: int, site: str) -> bool:
            return any(g[:2] == (k, site) for g in guards)

        def comprehension(o: Term) -> Term:
            def conj(k: int, site: str, gens: list) -> Term:
                def term(t: tuple) -> Term:
                    return (gens[t[1]][t[2]] if t[0] == "gen" else
                            o if t[0] == "outer" else Lit(t[1]))
                return functools.reduce(operator.and_, [
                    Bin(op, term(lhs), term(rhs))
                    for at, where, op, lhs, rhs in guards
                    if (at, where) == (k, site)])

            def guarded(k: int, site: str, xs: Term, fields: Callable
                        ) -> Term:  # fields: element -> generator fields
                return (ffilter(lambda e: conj(k, site, fields(e)), xs)
                        if sited(k, site) else xs)

            def source(k: int, before: list) -> Term:
                return guarded(k, "source", tables[k],
                               lambda y: before + [(y[0], y[1])])

            if not fused:  # as qc and pyq write it
                gens = [(Var(p[0]), Var(p[1])) if isinstance(p, tuple)
                        else (Var(p)[0], Var(p)[1]) for p in pats]
                quals: list = []
                for k in range(n):
                    quals.append(Gen(pats[k], source(k, gens[:k])))
                    if sited(k, "around"):
                        quals.append(Guard(conj(k, "around", gens)))
                return Comp(tup(gens[0][0], gens[-1][1]), tuple(quals))

            def unpack(s: Term, k: int) -> list:  # the generators of s
                gens = []
                for _ in range(k):
                    gens, s = [s[1]] + gens, s[0]
                return [(g[0], g[1]) for g in [s] + gens]

            def head(gens: list) -> Term:
                return tup(gens[0][0], gens[-1][1])

            stream = guarded(0, "around", source(0, []),
                             lambda s: unpack(s, 0))
            for k in range(1, n):
                fuse = k == n - 1 and not sited(k, "around")
                stream = concat_map(lambda s: fmap(
                    lambda y: head(unpack(s, k - 1) + [(y[0], y[1])])
                    if fuse else tup(s, y), source(k, unpack(s, k - 1))),
                    stream)
                if fuse:
                    return stream
                stream = guarded(k, "around", stream, lambda s: unpack(s, k))
            return fmap(lambda s: head(unpack(s, n - 1)), stream)

        return fmap(comprehension, self.literal(to_q([0, 1, 2, 3])))

    # -- comprehensions over tables, partial operations inside -----------
    def comprehension(self, scope: "dict | None" = None, depth: int = 2,
                      nest: bool = True) -> Comp:
        """1-3 generators (1-2 in an Int list) over :data:`TABLES` or on
        the names bound so far (``scope``: name -> "int" | "pair"), each
        with a guard or not; with ``nest`` the head may be a pair or a
        comprehension, else it is an Int."""
        scope = dict(scope or {})
        quals: list = []
        for i in range(self.between(1, 3 if nest else 2)):
            if i > 0 and depth > 0 and self.draw(st.booleans()):
                src, elt = self.comprehension(scope, depth - 1, False), "int"
                if self.draw(st.booleans()):  # partial per iteration
                    src = Call(self.pick(["tail", "init"]), (src,))
            else:
                src, elt = Var(self.pick(sorted(TABLES))), "pair"
            if elt == "pair" and self.draw(st.booleans()):
                pat: "str | tuple" = (next(_names), next(_names))
                scope.update(dict.fromkeys(pat, "int"))
            else:
                pat = next(_names)
                scope[pat] = elt
            quals.append(Gen(pat, src))
            if self.draw(st.booleans()):
                quals.append(Guard(self.bool_expr(scope, depth)))
        kind = self.pick(["int", "pair", "nested"] if nest else ["int"])
        if kind == "pair":
            head: Term = tup(self.int_expr(scope, depth),
                             self.int_expr(scope, depth))
        elif kind == "nested" and depth > 0:
            head = self.comprehension(scope, depth - 1, nest=False)
        else:
            head = self.int_expr(scope, depth)
        return Comp(head, tuple(quals))

    def int_expr(self, scope: dict, depth: int) -> Term:
        ints = sorted(v for v, t in scope.items() if t == "int")
        pairs = sorted(v for v, t in scope.items() if t == "pair")
        kinds = ["lit"] + ["var"] * bool(ints) + ["proj"] * bool(pairs)
        if depth > 0:
            kinds += ["arith", "arith", "neg", "if", "agg", "partial"]
        kind = self.pick(kinds)
        if kind == "lit":
            return Lit(self.between(0, 3))
        if kind == "var":
            return Var(self.pick(ints))
        if kind == "proj":
            return Var(self.pick(pairs))[self.between(0, 1)]
        if kind == "arith":
            return Bin(self.pick(["+", "-", "*", "//", "%"]),
                       self.int_expr(scope, depth - 1),
                       self.int_expr(scope, depth - 1))
        if kind == "neg":
            return -self.int_expr(scope, depth - 1)
        if kind == "if":
            return cond(self.bool_expr(scope, depth - 1),
                        self.int_expr(scope, depth - 1),
                        self.int_expr(scope, depth - 1))
        fn = self.pick(["fsum", "length", "maximum_q", "minimum_q"]
                       if kind == "agg" else
                       ["head", "last", "the", "index"])
        xs = self.comprehension(scope, depth - 1, nest=False)
        if fn == "index":
            return index(xs, self.int_expr(scope, depth - 1))
        return Call(fn, (xs,))

    def bool_expr(self, scope: dict, depth: int) -> Term:
        kind = self.pick(["cmp", "cmp"]
                         + (["and", "or", "not"] if depth > 0 else []))
        if kind == "cmp":
            return Bin(self.pick(["==", "!=", "<", "<="]),
                       self.int_expr(scope, depth),
                       self.int_expr(scope, depth))
        if kind == "not":
            return ~self.bool_expr(scope, depth - 1)
        return Bin(kind, self.bool_expr(scope, depth - 1),
                   self.bool_expr(scope, depth - 1))


@st.composite
def programs(draw: Callable, family: str) -> Program:
    """A program of one family -- ``pipeline``, ``nested``, ``scalar``,
    ``any``, ``join`` or ``comprehension``, which draws partial operations
    (so only for ``run_all_ways(..., lazy_partial=True)``)."""
    grammar = Grammar(draw)
    tables = {name: table(name, schema) for name, schema in TABLES.items()}
    term = getattr(grammar, family)()
    return Program(term, {**(tables if family == "comprehension" else {}),
                          **grammar.data})


# ----------------------------------------------------------------------
# nested-result programs: 2-4 bundle members over one shared spine
# ----------------------------------------------------------------------

_key, _val = operator.itemgetter(0), operator.itemgetter(1)


def _lookup(u: Term, k: Term) -> Term:
    """The ``v`` of every ``u`` row whose key is ``k`` (may be empty)."""
    return fmap(_val, ffilter(lambda w: w[0] == k, u))


T, U = Var("t"), Var("u")
#: the two ``(k, v)`` tables the fixed programs read
TABLE_DATA = {"t": table("t", KV), "u": table("u", KV)}


def _groups(f: Callable[[Term], Any]) -> Term:
    """``f`` over the groups of ``t`` by key, the spine most share."""
    return fmap(f, group_with(_key, T))


#: name -> (bundle size, program over ``t`` and ``u``); all members of a
#: bundle read one ``group_with``/``sort_with`` spine over ``t``, built once.
SPINE_PROGRAMS = {name: (size, Program(term, TABLE_DATA))
                  for name, (size, term) in {
    "groups_with_items": (2, _groups(
        lambda g: tup(the(fmap(_key, g)), fmap(_val, g)))),
    "groups_two_views": (3, _groups(
        lambda g: tup(fmap(_val, g), fmap(_val, sort_with_desc(_val, g))))),
    "groups_three_views": (4, _groups(
        lambda g: tup(fmap(_key, g), fmap(_val, g), nub(fmap(_val, g))))),
    "groups_with_lookups": (3, _groups(
        lambda g: fmap(lambda r: tup(r[1], _lookup(U, r[0])), g))),
    "groups_of_groups": (3, _groups(lambda g: fmap(
        lambda h: fmap(_val, h), group_with(lambda r: r[1] % 2, g)))),
    "groups_sum_and_items": (2, _groups(lambda g: tup(
        the(fmap(_key, g)), fsum(fmap(_val, g)), length(g), fmap(_val, g)))),
    "groups_filtered_items": (2, _groups(
        lambda g: ffilter(lambda v: v > 0, fmap(_val, g)))),
    "sorted_with_lookups": (2, fmap(
        lambda r: tup(r[0], _lookup(U, r[0])), sort_with(_val, T))),
    "sorted_then_grouped": (2, fmap(
        lambda g: fmap(_key, g),
        group_with(lambda r: r[1] % 3, sort_with(_val, T)))),
    "sorted_two_lookups": (3, fmap(
        lambda r: tup(_lookup(U, r[0]), _lookup(T, r[1])),
        sort_with_desc(_key, T))),
    "groups_zipped_views": (3, _groups(lambda g: tup(
        fmap(_val, g), fmap(lambda p: p[0] + p[1], zip_q(
            fmap(_val, g), fmap(_key, reverse(g))))))),
    "groups_items_and_lookups": (4, _groups(
        lambda g: tup(fmap(_val, g), fmap(lambda r: _lookup(U, r[1]), g)))),
}.items()}
