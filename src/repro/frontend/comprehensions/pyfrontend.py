"""``pyq`` -- Python comprehension syntax, lowered onto the ``qc`` AST.

``pyq`` accepts a *Python* list comprehension as source text::

    pyq('[m for (f, m) in meanings for (fac, f2) in features'
        ' if f == f2 and fac == x]',
        meanings=..., features=..., x=...)

This module lowers, it does not desugar: it parses the source with
Python's ``ast`` module and rewrites the tree onto the ``qc`` surface AST
(:mod:`.parser`), which the one desugarer (:mod:`.desugar`) turns into a
query.  Python-only syntax becomes existing nodes (a chained comparison a
conjunction, ``not in`` a negated ``elem``, ``&``/``|`` the connectives,
``x[i]`` a projection or list index, ``lambda a, b:`` a tuple pattern);
Python's builtin names mean what :data:`BUILTINS` says.  There is no
``group by``: use ``group_with`` or ``qc``.
"""

from __future__ import annotations

import ast
import functools
from typing import Any, Callable

from ...errors import ComprehensionSyntaxError
from ...expr import LitE
from ...ftypes import BoolT
from .. import combinators as C
from ..q import Q, max_q, min_q, to_q, tup
from . import parser as P
from .desugar import desugar


def pyq(source: str, **env: Any) -> Q:
    """Translate a Python comprehension string into a query."""
    body = _parse(source)
    if not isinstance(body, (ast.ListComp, ast.GeneratorExp)):
        raise ComprehensionSyntaxError(
            "pyq expects a list comprehension or generator expression")
    return desugar(_lower(body), env, BUILTINS)


def pye(source: str, **env: Any) -> Q:
    """Translate a bare Python expression string into a query."""
    return desugar(_lower(_parse(source)), env, BUILTINS)


def _parse(source: str) -> ast.expr:
    try:
        return ast.parse(source.strip(), mode="eval").body
    except (SyntaxError, ValueError) as err:
        raise ComprehensionSyntaxError(f"invalid Python syntax: {err}") from None


# ----------------------------------------------------------------------
# lowering: Python ast -> qc surface AST
# ----------------------------------------------------------------------

_BIN_OPS: dict[type[ast.AST], str] = {
    ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div",
    ast.FloorDiv: "idiv", ast.Mod: "mod", ast.BitAnd: "and", ast.BitOr: "or"}
_CMP_OPS: dict[type[ast.AST], str] = {
    ast.Eq: "eq", ast.NotEq: "ne", ast.Lt: "lt", ast.LtE: "le",
    ast.Gt: "gt", ast.GtE: "ge", ast.In: "elem"}
_UN_OPS: dict[type[ast.AST], str] = {ast.Not: "not", ast.USub: "neg"}


def _lower(node: ast.expr) -> P.PExpr:
    if isinstance(node, ast.Constant):
        return P.PLit(node.value)
    if isinstance(node, ast.Name):
        return P.PVar(node.id)
    if isinstance(node, ast.Tuple):
        return P.PTuple(tuple(map(_lower, node.elts)))
    if isinstance(node, ast.List):
        return P.PList(tuple(map(_lower, node.elts)))
    if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
        return _comprehension(node)
    if isinstance(node, ast.Compare):
        operands = [_lower(n) for n in (node.left, *node.comparators)]
        return _fold("and", [_comparison(op, lhs, rhs) for op, lhs, rhs
                             in zip(node.ops, operands, operands[1:])])
    if isinstance(node, ast.BoolOp):
        return _fold("and" if isinstance(node.op, ast.And) else "or",
                     [_lower(n) for n in node.values])
    if isinstance(node, ast.BinOp):
        return P.PBin(_op(_BIN_OPS, node.op, "operator"),
                      _lower(node.left), _lower(node.right))
    if isinstance(node, ast.UnaryOp):
        return P.PUn(_op(_UN_OPS, node.op, "unary operator"),
                     _lower(node.operand))
    if isinstance(node, ast.IfExp):
        return P.PIf(_lower(node.test), _lower(node.body),
                     _lower(node.orelse))
    if isinstance(node, ast.Subscript):
        idx = node.slice
        if isinstance(idx, ast.Constant) and isinstance(idx.value, int):
            return P.PProj(_lower(node.value), idx.value)
        return P.PBin("index", _lower(node.value), _lower(idx))
    if isinstance(node, ast.Attribute):
        return P.PProj(_lower(node.value), node.attr)
    if isinstance(node, ast.Call):
        return _call(node)
    if isinstance(node, ast.Lambda):
        return _lambda(node)
    if isinstance(node, ast.Starred):
        raise ComprehensionSyntaxError("starred expressions are not queries")
    raise ComprehensionSyntaxError(
        f"unsupported Python construct {type(node).__name__}")


def _op(table: dict[type[ast.AST], str], op: ast.AST, what: str) -> str:
    if type(op) not in table:
        raise ComprehensionSyntaxError(
            f"unsupported {what} {type(op).__name__}")
    return table[type(op)]


def _comprehension(node: ast.ListComp | ast.GeneratorExp) -> P.PComp:
    quals: list[P.PQual] = []
    for gen in node.generators:
        if gen.is_async:
            raise ComprehensionSyntaxError("async comprehensions are not queries")
        quals.append(P.PGen(_target(gen.target), _lower(gen.iter)))
        quals.extend(P.PGuard(_lower(guard)) for guard in gen.ifs)
    return P.PComp(_lower(node.elt), tuple(quals))


def _target(node: ast.expr) -> P.PPat:
    if isinstance(node, ast.Name):
        return P.PVarPat(node.id)
    if isinstance(node, ast.Tuple):
        return P.PTuplePat(tuple(_target(t) for t in node.elts))
    raise ComprehensionSyntaxError(
        f"unsupported comprehension target {ast.dump(node)}")


def _comparison(op: ast.cmpop, lhs: P.PExpr, rhs: P.PExpr) -> P.PExpr:
    if isinstance(op, ast.NotIn):
        return P.PUn("not", P.PBin("elem", lhs, rhs))
    return P.PBin(_op(_CMP_OPS, op, "comparison"), lhs, rhs)


def _fold(op: str, operands: list[P.PExpr]) -> P.PExpr:
    return functools.reduce(lambda a, b: P.PBin(op, a, b), operands)


def _lambda(node: ast.Lambda) -> P.PLam:
    args = node.args
    if (args.posonlyargs or args.vararg or args.kwarg or args.kwonlyargs
            or args.defaults):
        raise ComprehensionSyntaxError(
            "query lambdas take plain positional parameters only")
    params = tuple(P.PVarPat(a.arg) for a in args.args)
    return P.PLam(params[0] if len(params) == 1 else P.PTuplePat(params),
                  _lower(node.body))


def _call(node: ast.Call) -> P.PCall:
    if node.keywords and not (isinstance(node.func, ast.Name)
                              and node.func.id == "sorted"):
        raise ComprehensionSyntaxError("keyword arguments are only supported "
                                       "on sorted(xs, key=...)")
    kwargs: list[tuple[str, P.PExpr]] = []
    for kw in node.keywords:
        if kw.arg is None or kw.arg not in ("key", "reverse"):
            raise ComprehensionSyntaxError(f"sorted: unknown keyword {kw.arg!r}")
        if kw.arg == "reverse" and not (isinstance(kw.value, ast.Constant)
                                        and isinstance(kw.value.value, bool)):
            raise ComprehensionSyntaxError(
                "sorted(..., reverse=) must be a literal bool")
        kwargs.append((kw.arg, _lower(kw.value)))
    return P.PCall(_lower(node.func), tuple(map(_lower, node.args)),
                   tuple(kwargs))


# ----------------------------------------------------------------------
# Python's builtin names
# ----------------------------------------------------------------------

def _sorted(xs: Any, *, key: Callable[..., Any] = lambda x: x,
            reverse: Q | None = None) -> Q:
    # the lowering lets only a literal bool through as ``reverse``
    desc = reverse is not None and reverse.exp == LitE(True, BoolT)
    return (C.sort_with_desc if desc else C.sort_with)(key, xs)


#: What Python's builtin names mean inside ``pyq``/``pye``.
BUILTINS: dict[str, Callable[..., Any]] = {
    "len": C.length, "sum": C.fsum,
    "abs": lambda x: abs(to_q(x)),
    "float": lambda x: to_q(x).to_double(),
    "any": C.or_q, "all": C.and_q,
    "reversed": C.reverse, "list": lambda xs: to_q(xs),
    "zip": lambda xs, ys, zs=None: (C.zip_q(xs, ys) if zs is None
                                    else C.zip3_q(xs, ys, zs)),
    "max": lambda xs, y=None: C.maximum_q(xs) if y is None else max_q(xs, y),
    "min": lambda xs, y=None: C.minimum_q(xs) if y is None else min_q(xs, y),
    "sorted": _sorted,
    # Python counts from 0; number pairs each element with its 1-based pos
    "enumerate": lambda xs: C.fmap(lambda p: tup(p[1] - 1, p[0]),
                                   C.number(xs)),
}
