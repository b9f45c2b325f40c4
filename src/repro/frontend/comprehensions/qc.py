"""``qc`` -- the comprehension quasi-quoter (public entry point).

The paper embeds comprehensions via Haskell quasi-quoting::

    [qc| mean | (feat, mean) <- table "meanings", ... |]

In Python the equivalent is a function taking the comprehension source as
a string plus the environment as keyword arguments::

    qc('[mean | (feat, mean) <- meanings, (fac, feat2) <- features,'
       ' feat == feat2 and fac == f]',
       meanings=table("meanings", ...), features=table("features", ...),
       f=f)

Environment values may be queries (``Q``), plain Python values (embedded
via ``toQ``), or callables mapping queries to queries (user-defined query
functions such as the running example's ``descrFacility``).  The full
surface syntax supports generators with (nested) tuple patterns, guards,
``let``, the SQL-inspired ``then group by`` / ``then sortWith by`` /
``order by ... [desc]`` clauses [16], ``if/then/else``, lambdas
``\\x -> e``, nested comprehensions, and the whole combinator library by
name.
"""

from __future__ import annotations

from typing import Any, Callable

from .. import combinators as C
from ..q import Q, cond, max_q, min_q, to_q
from .desugar import desugar
from .parser import parse_comprehension, parse_expression

#: Builtins callable by name inside a comprehension, with Haskell-style
#: aliases alongside the snake_case names.
BUILTINS: dict[str, Callable[..., Any]] = {
    "map": C.fmap, "filter": C.ffilter,
    "concatMap": C.concat_map, "concat_map": C.concat_map,
    "concat": C.concat,
    "sortWith": C.sort_with, "sort_with": C.sort_with,
    "groupWith": C.group_with, "group_with": C.group_with,
    "takeWhile": C.take_while, "take_while": C.take_while,
    "dropWhile": C.drop_while, "drop_while": C.drop_while,
    "zipWith": C.zip_with, "zip_with": C.zip_with,
    "all": C.all_q, "any": C.any_q,
    "and": C.and_q, "or": C.or_q,
    "head": C.head, "last": C.last, "the": C.the,
    "tail": C.tail, "init": C.init,
    "length": C.length, "null": C.null, "reverse": C.reverse,
    "append": C.append, "cons": C.cons, "snoc": C.snoc,
    "singleton": C.singleton,
    "index": C.index, "take": C.take, "drop": C.drop,
    "splitAt": C.split_at, "split_at": C.split_at,
    "zip": C.zip_q, "zip3": C.zip3_q, "unzip": C.unzip_q,
    "nub": C.nub, "number": C.number,
    "elem": C.elem, "notElem": C.not_elem, "not_elem": C.not_elem,
    "sum": C.fsum, "avg": C.favg,
    "maximum": C.maximum_q, "minimum": C.minimum_q,
    "min": min_q, "max": max_q,
    "fst": lambda q: q[0], "snd": lambda q: q[1],
    "abs": lambda q: abs(to_q(q)),
    "toDouble": lambda q: to_q(q).to_double(),
    "to_double": lambda q: to_q(q).to_double(),
    "cond": cond,
    "span": C.span_q, "break": C.break_q,
    "foldr": C.foldr, "foldl": C.foldl,
}


def qc(source: str, **env: Any) -> Q:
    """Quasi-quote a list comprehension; returns a query of list type."""
    return desugar(parse_comprehension(source), env, BUILTINS)


def qe(source: str, **env: Any) -> Q:
    """Quasi-quote a bare expression in the same surface syntax.

    Handy for scalar queries: ``qe('sum([x | (x, y) <- t, y > 0])', t=t)``.
    """
    return desugar(parse_expression(source), env, BUILTINS)
