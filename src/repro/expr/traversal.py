"""Generic traversals over the expression AST."""

from __future__ import annotations

from typing import Callable, Iterator, Mapping

from .exp import (
    AppE,
    BinOpE,
    Exp,
    IfE,
    LamE,
    ListE,
    TableE,
    TupleE,
    TupleElemE,
    UnOpE,
    VarE,
)


def walk(e: Exp) -> Iterator[Exp]:
    """Yield ``e`` and every sub-expression, pre-order."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children())


def free_vars(e: Exp) -> frozenset[str]:
    """Names of variables occurring free in ``e``."""

    def go(node: Exp, bound: frozenset[str]) -> frozenset[str]:
        if isinstance(node, VarE):
            return frozenset() if node.name in bound else frozenset({node.name})
        if isinstance(node, LamE):
            return go(node.body, bound | {node.param})
        acc: frozenset[str] = frozenset()
        for child in node.children():
            acc |= go(child, bound)
        return acc

    return go(e, frozenset())


def tables_referenced(e: Exp) -> dict[str, TableE]:
    """All database tables the expression mentions, keyed by name."""
    out: dict[str, TableE] = {}
    for node in walk(e):
        if isinstance(node, TableE):
            out[node.name] = node
    return out


def count_nodes(e: Exp) -> int:
    """Size of the AST (used by tests and plan-size ablations)."""
    return sum(1 for _ in walk(e))


def fold(e: Exp, f: Callable[[Exp, tuple], object]) -> object:
    """Bottom-up fold: ``f`` receives each node and its folded children."""
    return f(e, tuple(fold(c, f) for c in e.children()))


def conjuncts(e: Exp) -> list[Exp]:
    """The top-level ``and`` conjuncts of a predicate, left to right."""
    if isinstance(e, BinOpE) and e.op == "and":
        return conjuncts(e.lhs) + conjuncts(e.rhs)
    return [e]


def map_children(e: Exp, f: Callable[[Exp], Exp]) -> Exp:
    """Rebuild ``e`` with ``f`` applied to each direct sub-expression;
    returns ``e`` itself when ``f`` returns every child unchanged."""
    old = tuple(e.children())
    new = tuple(f(c) for c in old)
    if all(n is o for n, o in zip(new, old)):
        return e
    if isinstance(e, TupleE):
        return TupleE(new)
    if isinstance(e, ListE):
        return ListE(new, e.ty)
    if isinstance(e, LamE):
        return LamE(e.param, e.param_ty, new[0])
    if isinstance(e, AppE):
        return AppE(e.fun, new, e.ty)
    if isinstance(e, TupleElemE):
        return TupleElemE(new[0], e.index)
    if isinstance(e, IfE):
        return IfE(*new)
    if isinstance(e, BinOpE):
        return BinOpE(e.op, new[0], new[1], e.ty)
    if isinstance(e, UnOpE):
        return UnOpE(e.op, new[0], e.ty)
    raise TypeError(f"unknown Exp node {e!r}")  # pragma: no cover


def substitute(e: Exp, env: Mapping[str, Exp]) -> Exp:
    """Replace free occurrences of the variables named in ``env``,
    reducing ``(a, b).i`` projections the replacement exposes.  The
    replacements' own free variables must not be bound inside ``e``
    (the front ends draw every binder from one name supply)."""
    if isinstance(e, VarE):
        return env.get(e.name, e)
    if isinstance(e, LamE) and e.param in env:
        env = {k: v for k, v in env.items() if k != e.param}
    out = map_children(e, lambda c: substitute(c, env))
    if isinstance(out, TupleElemE) and isinstance(out.tup, TupleE):
        return out.tup.parts[out.index]
    return out
