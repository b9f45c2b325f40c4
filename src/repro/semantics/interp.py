"""The reference interpreter: in-heap list-prelude semantics for ``Exp``.

This module defines *what embedded programs mean*: plain Haskell-98
list-prelude semantics executed on ordinary Python values.  It is the
oracle against which every compiled backend (the in-memory column
engine, generated SQL on SQLite) is differentially tested -- the
paper's correctness claim is exactly that loop-lifted relational plans
"faithfully preserve the DSH semantics on a relational back-end"
(Section 3.2).

The interpreter is deliberately naive (nested loops, no indexes); it is a
specification, not an execution engine.
"""

from __future__ import annotations

import operator
from typing import Any, Callable

from ..errors import PartialFunctionError, QTypeError
from ..expr import (
    AppE,
    BinOpE,
    Exp,
    IfE,
    LamE,
    ListE,
    LitE,
    TableE,
    TupleE,
    TupleElemE,
    UnOpE,
    VarE,
)
from ..ftypes import DoubleT
from ..runtime.catalog import Catalog

Env = dict[str, Any]


class Closure:
    """A reified ``LamE`` together with its defining environment."""

    __slots__ = ("lam", "env", "interp")

    def __init__(self, lam: LamE, env: Env, interp: "Interpreter"):
        self.lam = lam
        self.env = env
        self.interp = interp

    def __call__(self, arg: Any) -> Any:
        inner = dict(self.env)
        inner[self.lam.param] = arg
        return self.interp.eval(self.lam.body, inner)


class Interpreter:
    """Evaluate expressions against a :class:`Catalog`."""

    def __init__(self, catalog: Catalog | None = None):
        self.catalog = catalog or Catalog()

    def run(self, e: Exp) -> Any:
        """Evaluate a closed expression."""
        return self.eval(e, {})

    # ------------------------------------------------------------------
    def eval(self, e: Exp, env: Env) -> Any:
        if isinstance(e, LitE):
            return e.value
        if isinstance(e, VarE):
            try:
                return env[e.name]
            except KeyError:
                raise QTypeError(f"unbound variable {e.name!r}") from None
        if isinstance(e, TupleE):
            return tuple(self.eval(p, env) for p in e.parts)
        if isinstance(e, ListE):
            return [self.eval(x, env) for x in e.elems]
        if isinstance(e, TupleElemE):
            return self.eval(e.tup, env)[e.index]
        if isinstance(e, TableE):
            self.catalog.check_reference(e)
            rows = self.catalog.rows(e.name)
            if len(e.columns) == 1:
                return [r[0] for r in rows]
            return list(rows)
        if isinstance(e, LamE):
            return Closure(e, env, self)
        if isinstance(e, IfE):
            if self.eval(e.cond, env):
                return self.eval(e.then_, env)
            return self.eval(e.else_, env)
        if isinstance(e, BinOpE):
            return _binop(e.op, self.eval(e.lhs, env), self.eval(e.rhs, env))
        if isinstance(e, UnOpE):
            return _unop(e.op, self.eval(e.operand, env))
        if isinstance(e, AppE):
            args = [self.eval(a, env) for a in e.args]
            return _apply_builtin(e, args)
        raise QTypeError(f"cannot interpret node {e!r}")  # pragma: no cover


# ----------------------------------------------------------------------
# scalar operations
# ----------------------------------------------------------------------

def like_match(value: str, pattern: str) -> bool:
    """SQL LIKE semantics, case-sensitive: '%' matches any run, '_' any
    single character (shared by every backend so semantics agree)."""
    import re as _re
    regex = "".join(
        ".*" if ch == "%" else "." if ch == "_" else _re.escape(ch)
        for ch in pattern)
    return _re.fullmatch(regex, value) is not None


#: Scalar operators by name: the reference meaning of ``BinOpE``/``UnOpE``
#: (kept apart from the engine's kernels, which are tested against it).
_BINOPS: dict[str, Callable[[Any, Any], Any]] = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
    "idiv": operator.floordiv,
    "mod": operator.mod,
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
    "and": lambda x, y: x and y,
    "or": lambda x, y: x or y,
    "min": min,
    "max": max,
    "cat": operator.add,
    "like": like_match,
}

_UNOPS: dict[str, Callable[[Any], Any]] = {
    "not": operator.not_,
    "neg": operator.neg,
    "abs": abs,
    "to_double": float,
    "upper": lambda x: x.upper(),
    "lower": lambda x: x.lower(),
    "strlen": len,
    "year": lambda d: d.year,
    "month": lambda d: d.month,
    "day": lambda d: d.day,
    "hour": lambda t: t.hour,
    "minute": lambda t: t.minute,
    "second": lambda t: t.second,
}


def _binop(op: str, a: Any, b: Any) -> Any:
    if op in ("div", "idiv", "mod") and b == 0:
        raise PartialFunctionError("division by zero")
    return _BINOPS[op](a, b)


def _unop(op: str, a: Any) -> Any:
    return _UNOPS[op](a)


# ----------------------------------------------------------------------
# list-prelude builtins
# ----------------------------------------------------------------------

def _apply_builtin(e: AppE, args: list[Any]) -> Any:
    name = e.fun
    handler = _BUILTINS.get(name)
    if handler is None:
        raise QTypeError(f"unknown builtin {name!r}")  # pragma: no cover
    return handler(e, args)


def _nonempty(xs: list, who: str) -> list:
    if not xs:
        raise PartialFunctionError(f"{who}: empty list")
    return xs


def _b_map(e: AppE, args: list[Any]) -> Any:
    f, xs = args
    return [f(x) for x in xs]


def _b_filter(e: AppE, args: list[Any]) -> Any:
    p, xs = args
    return [x for x in xs if p(x)]


def _b_concat_map(e: AppE, args: list[Any]) -> Any:
    f, xs = args
    out: list = []
    for x in xs:
        out.extend(f(x))
    return out


def _b_concat(e: AppE, args: list[Any]) -> Any:
    out: list = []
    for xs in args[0]:
        out.extend(xs)
    return out


def _b_sort_with(e: AppE, args: list[Any]) -> Any:
    f, xs = args
    return sorted(xs, key=f)  # Python's sort is stable, like sortWith


def _b_sort_with_desc(e: AppE, args: list[Any]) -> Any:
    f, xs = args
    return sorted(xs, key=f, reverse=True)


def _b_group_with(e: AppE, args: list[Any]) -> Any:
    f, xs = args
    # GHC.Exts.groupWith: sort by key, then group runs of equal keys;
    # groups ordered by key, members in original relative order.
    keyed = sorted(((f(x), i, x) for i, x in enumerate(xs)),
                   key=lambda t: (t[0], t[1]))
    groups: list[list] = []
    current_key: Any = object()
    for key, _, x in keyed:
        if not groups or key != current_key:
            groups.append([])
            current_key = key
        groups[-1].append(x)
    return groups


def _b_all(e: AppE, args: list[Any]) -> Any:
    p, xs = args
    return all(bool(p(x)) for x in xs)


def _b_any(e: AppE, args: list[Any]) -> Any:
    p, xs = args
    return any(bool(p(x)) for x in xs)


def _b_take_while(e: AppE, args: list[Any]) -> Any:
    p, xs = args
    out: list = []
    for x in xs:
        if not p(x):
            break
        out.append(x)
    return out


def _b_drop_while(e: AppE, args: list[Any]) -> Any:
    p, xs = args
    i = 0
    while i < len(xs) and p(xs[i]):
        i += 1
    return xs[i:]


def _b_head(e: AppE, args: list[Any]) -> Any:
    return _nonempty(args[0], "head")[0]


def _b_last(e: AppE, args: list[Any]) -> Any:
    return _nonempty(args[0], "last")[-1]


def _b_the(e: AppE, args: list[Any]) -> Any:
    # Group-representative semantics: the first element (see frontend docs).
    return _nonempty(args[0], "the")[0]


def _b_tail(e: AppE, args: list[Any]) -> Any:
    return _nonempty(args[0], "tail")[1:]


def _b_init(e: AppE, args: list[Any]) -> Any:
    return _nonempty(args[0], "init")[:-1]


def _b_length(e: AppE, args: list[Any]) -> Any:
    return len(args[0])


def _b_null(e: AppE, args: list[Any]) -> Any:
    return not args[0]


def _b_reverse(e: AppE, args: list[Any]) -> Any:
    return list(reversed(args[0]))


def _b_append(e: AppE, args: list[Any]) -> Any:
    return args[0] + args[1]


def _b_cons(e: AppE, args: list[Any]) -> Any:
    x, xs = args
    return [x] + xs


def _b_index(e: AppE, args: list[Any]) -> Any:
    xs, i = args
    if i < 0 or i >= len(xs):
        raise PartialFunctionError(f"index {i} out of bounds for a list "
                                   f"of length {len(xs)}")
    return xs[i]


def _b_take(e: AppE, args: list[Any]) -> Any:
    n, xs = args
    return xs[:max(n, 0)]


def _b_drop(e: AppE, args: list[Any]) -> Any:
    n, xs = args
    return xs[max(n, 0):]


def _b_zip(e: AppE, args: list[Any]) -> Any:
    return [(x, y) for x, y in zip(args[0], args[1])]


def _b_nub(e: AppE, args: list[Any]) -> Any:
    seen: set = set()
    out: list = []
    for x in args[0]:
        if x not in seen:
            seen.add(x)
            out.append(x)
    return out


def _b_number(e: AppE, args: list[Any]) -> Any:
    return [(x, i + 1) for i, x in enumerate(args[0])]


def _b_sum(e: AppE, args: list[Any]) -> Any:
    zero = 0.0 if e.ty == DoubleT else 0
    total = zero
    for x in args[0]:
        total += x
    return total


def _b_avg(e: AppE, args: list[Any]) -> Any:
    xs = _nonempty(args[0], "avg")
    return float(sum(xs)) / len(xs)


def _extremum(fold: Callable[[list[Any]], Any], xs: list[Any]) -> Any:
    """``fold`` (``max``/``min``) as IEEE 754-2019 ``maximum``/``minimum``:
    a NaN in ``xs`` is the result, wherever it stands."""
    for x in xs:
        if x != x:
            return x
    return fold(xs)


def _b_maximum(e: AppE, args: list[Any]) -> Any:
    return _extremum(max, _nonempty(args[0], "maximum"))


def _b_minimum(e: AppE, args: list[Any]) -> Any:
    return _extremum(min, _nonempty(args[0], "minimum"))


def _b_and(e: AppE, args: list[Any]) -> Any:
    return all(args[0])


def _b_or(e: AppE, args: list[Any]) -> Any:
    return any(args[0])


_BUILTINS: dict[str, Callable[[AppE, list[Any]], Any]] = {
    "map": _b_map,
    "filter": _b_filter,
    "concat_map": _b_concat_map,
    "concat": _b_concat,
    "sort_with": _b_sort_with,
    "sort_with_desc": _b_sort_with_desc,
    "group_with": _b_group_with,
    "all": _b_all,
    "any": _b_any,
    "take_while": _b_take_while,
    "drop_while": _b_drop_while,
    "head": _b_head,
    "last": _b_last,
    "the": _b_the,
    "tail": _b_tail,
    "init": _b_init,
    "length": _b_length,
    "null": _b_null,
    "reverse": _b_reverse,
    "append": _b_append,
    "cons": _b_cons,
    "index": _b_index,
    "take": _b_take,
    "drop": _b_drop,
    "zip": _b_zip,
    "nub": _b_nub,
    "number": _b_number,
    "sum": _b_sum,
    "avg": _b_avg,
    "maximum": _b_maximum,
    "minimum": _b_minimum,
    "and": _b_and,
    "or": _b_or,
}

#: Builtin names understood by the interpreter (and, symmetrically, by the
#: loop-lifting compiler -- tests assert the two sets coincide).
BUILTIN_NAMES = frozenset(_BUILTINS)
