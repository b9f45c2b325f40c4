"""DAG utilities for algebra plans: traversal, statistics, validation."""

from __future__ import annotations

from dataclasses import fields
from operator import attrgetter
from typing import Any, Callable, Iterator, TypeVar

from .ops import BinApp, Const, Node

T = TypeVar("T")


def fill(root: Node, memo: dict[Node, T], compute: Callable[[Node], T]) -> T:
    """``memo[n] = compute(n)`` for every node of ``root``'s plan the
    memo does not hold yet, children before parents (iterative -- plans
    can be thousands of operators deep).  The walk never descends below
    a node already in ``memo``."""
    stack = [root]
    while stack:
        node = stack[-1]
        if node in memo:
            stack.pop()
            continue
        ready = True
        for child in node.children:
            if child not in memo:
                stack.append(child)
                ready = False
        if ready:
            memo[node] = compute(node)
            stack.pop()
    return memo[root]


def postorder(*roots: Node) -> Iterator[Node]:
    """Yield every node reachable from ``roots`` (one plan, or the plans
    of a bundle) exactly once, children before parents."""
    seen: dict[Node, Node] = {}
    for root in roots:  # :func:`fill` with ``node -> node``, inlined
        stack = [root]
        while stack:
            node = stack[-1]
            if node in seen:
                stack.pop()
                continue
            ready = True
            for child in node.children:
                if child not in seen:
                    stack.append(child)
                    ready = False
            if ready:
                seen[node] = node
                stack.pop()
    return iter(seen)


def node_count(root: Node) -> int:
    """Number of distinct operator nodes in the plan DAG (shared subplans
    counted once) -- the plan-size metric of the optimizer ablation."""
    seen = {root}
    stack = [root]
    while stack:
        for child in stack.pop().children:
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return len(seen)


def operator_histogram(root: Node) -> dict[str, int]:
    """How many nodes of each operator kind the plan contains."""
    hist: dict[str, int] = {}
    for node in postorder(root):
        hist[node.label] = hist.get(node.label, 0) + 1
    return dict(sorted(hist.items()))


def contains(root: Node, predicate: Callable[[Node], bool]) -> bool:
    """Does any node of the plan satisfy ``predicate``?  (Used by the
    Fig. 6 structural-correspondence tests.)"""
    return any(predicate(node) for node in postorder(root))


def rewrite_dag(root: Node, visit: Callable[[Node, tuple[Node, ...]], Node],
                memo: dict[Node, Node] | None = None) -> Node:
    """Rebuild a DAG bottom-up.

    ``visit`` receives each node together with its (already rewritten)
    children and returns the replacement node (possibly the input,
    reconstructed over the new children).  Sharing is preserved: each
    distinct node is visited once -- once per ``memo`` (see
    :func:`fill`), when the caller carries one across calls.
    """
    results: dict[Node, Node] = {} if memo is None else memo
    return fill(root, results, lambda node: visit(
        node, tuple(results[c] for c in node.children)))


def _params_getter(cls: type) -> Callable[[Any], tuple[Any, ...]]:
    names = [f.name for f in fields(cls)
             if f.name not in ("child", "left", "right")]
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(*names)
        return lambda node: (get(node),)
    return lambda node: ()


#: Per operator class: node -> the tuple of its non-child fields (every
#: operator declares its children first).
_PARAMS = {cls: _params_getter(cls) for cls in Node.__subclasses__()}


def node_key(node: Node) -> tuple[Any, ...]:
    """Structural identity of ``node`` *given* the identity of its
    children: two nodes with equal keys compute the same relation.  The
    hash-consing key of the optimizer's plan store."""
    cls = type(node)
    params = _PARAMS[cls](node)
    if cls is BinApp:  # spell ``Const`` operands out structurally
        params = tuple((Const, p.value, p.ty) if type(p) is Const else p
                       for p in params)
    return (cls, params, *node.children)


def replace_children(node: Node, children: tuple[Node, ...]) -> Node:
    """``node`` over ``children``: itself when they are its own, else a
    copy."""
    if children == node.children:
        return node
    return type(node)(*children, *_PARAMS[type(node)](node))
