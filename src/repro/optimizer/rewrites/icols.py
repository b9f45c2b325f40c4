"""icols: needed-columns analysis and pruning.

Pathfinder's classic cleanup pass: the loop-lifting rules conservatively
carry every column along; most are never consumed.  A top-down demand
analysis computes, per DAG node, the set of columns any consumer actually
reads; a bottom-up rebuild then narrows literal tables, scans and
projections, and deletes attachments, scalar applications and row
numbering whose output column is dead.

Care is taken with operators whose *cardinality* depends on column
content:

* ``Distinct`` demands its full input (projecting first would merge rows);
* group-by columns of ``GroupAggr`` always stay (they define the groups);
* pruning never leaves a relation with zero columns (cardinality must
  survive), and ``UnionAll`` children are re-projected onto the identical
  narrowed schema.
"""

from __future__ import annotations

from typing import Iterable

from ...algebra import (
    AntiJoin,
    Attach,
    BinApp,
    Const,
    Cross,
    Distinct,
    EqJoin,
    GroupAggr,
    LitTable,
    Node,
    Project,
    RowNum,
    RowRank,
    Select,
    SemiJoin,
    TableScan,
    UnApp,
    UnionAll,
    Schema,
    postorder,
)
from ...analysis import PlanStore


def prune_unneeded_columns(root: Node,
                           store: "PlanStore | None" = None) -> Node:
    """Remove columns (and the operators that only compute them) that no
    consumer reads.  The root's full output is demanded.

    Demand is a property of the whole plan (a shared node serves the
    union of its consumers), so unlike the bottom-up families the result
    is memoized per *root* only; below it, a node whose every column is
    demanded and whose children stand is not rebuilt."""
    store = store or PlanStore()
    root = store.intern(root)
    pruned = store.rewritten.setdefault("icols", {})
    if id(root) in pruned:
        return pruned[id(root)]
    needed: dict[int, set[str]] = {id(root): set(store.schema(root))}
    schemas = store.schemas  # now holds every node of the plan
    order = list(postorder(root))
    # Parents precede children in reversed postorder.
    for node in reversed(order):
        _demand(node, needed, schemas)

    rebuilt: dict[int, Node] = {}
    for node in order:
        children = tuple(rebuilt[id(c)] for c in node.children)
        n = needed[id(node)]
        if (children == node.children and len(n) == len(schemas[id(node)])
                and not isinstance(node, UnionAll)):
            rebuilt[id(node)] = node
        else:
            store.visits["icols"] += 1
            rebuilt[id(node)] = _narrow(node, children, n, store)
    pruned[id(root)] = rebuilt[id(root)]
    return rebuilt[id(root)]


# ----------------------------------------------------------------------
# demand propagation (top-down)
# ----------------------------------------------------------------------

def _demand(node: Node, needed: dict[int, set[str]],
            schemas: dict[int, Schema]) -> None:
    n = needed[id(node)]

    def want(child: Node, cols: Iterable[str]) -> None:
        needed.setdefault(id(child), set()).update(cols)

    if isinstance(node, Project):
        want(node.child, {old for new, old in node.cols if new in n})
    elif isinstance(node, Attach):
        want(node.child, n - {node.col})
    elif isinstance(node, Select):
        want(node.child, n | {node.col})
    elif isinstance(node, Distinct):
        want(node.child, schemas[id(node.child)])
    elif isinstance(node, RowNum):
        want(node.child, (n - {node.col}) | {c for c, _ in node.order}
             | set(node.part))
    elif isinstance(node, RowRank):
        want(node.child, (n - {node.col}) | {c for c, _ in node.order})
    elif isinstance(node, Cross):
        lsch = set(schemas[id(node.left)])
        want(node.left, n & lsch)
        want(node.right, n - lsch)
    elif isinstance(node, EqJoin):
        lsch = set(schemas[id(node.left)])
        want(node.left, (n & lsch) | {l for l, _ in node.pairs})
        want(node.right, (n - lsch) | {r for _, r in node.pairs})
    elif isinstance(node, (SemiJoin, AntiJoin)):
        want(node.left, n | {l for l, _ in node.pairs})
        want(node.right, {r for _, r in node.pairs})
    elif isinstance(node, UnionAll):
        want(node.left, n)
        want(node.right, n)
    elif isinstance(node, GroupAggr):
        ins = {in_col for _f, in_col, out in node.aggs
               if in_col is not None and out in n}
        # Aggregates with dead outputs are dropped, but the grouping
        # columns always stay -- they define the groups.
        want(node.child, set(node.group) | ins)
    elif isinstance(node, BinApp):
        cols = {c for c in (node.lhs, node.rhs) if not isinstance(c, Const)}
        want(node.child, (n - {node.out}) | cols)
    elif isinstance(node, UnApp):
        want(node.child, (n - {node.out}) | {node.col})
    # LitTable / TableScan have no children.


# ----------------------------------------------------------------------
# pruning rebuild (bottom-up)
# ----------------------------------------------------------------------

def _narrow(node: Node, children: tuple[Node, ...], n: set[str],
            store: PlanStore) -> Node:
    intern = store.add
    if isinstance(node, LitTable):
        keep = [i for i, (name, _) in enumerate(node.schema) if name in n]
        if not keep:  # keep cardinality
            keep = [0]
        if len(keep) == len(node.schema):
            return node
        schema = tuple(node.schema[i] for i in keep)
        rows = tuple(tuple(row[i] for i in keep) for row in node.rows)
        return intern(LitTable(rows, schema))

    if isinstance(node, TableScan):
        keep = [c for c in node.columns if c[0] in n] or [node.columns[0]]
        if len(keep) == len(node.columns):
            return node
        return intern(TableScan(node.table, tuple(keep)))

    if isinstance(node, Project):
        cols = tuple((new, old) for new, old in node.cols if new in n)
        if not cols:
            # Nothing demanded: keep cardinality through any one column
            # that survived in the narrowed child.
            child_col = next(iter(store.schema(children[0])))
            cols = ((child_col, child_col),)
        return intern(Project(children[0], cols))

    if (isinstance(node, (Attach, RowNum, RowRank)) and node.col not in n
            or isinstance(node, (BinApp, UnApp)) and node.out not in n):
        return children[0]

    if isinstance(node, GroupAggr):
        aggs = tuple(a for a in node.aggs if a[2] in n)
        return intern(GroupAggr(children[0], node.group, aggs))

    if isinstance(node, UnionAll) and n:  # (a root always demands columns)
        # Children were narrowed independently; realign them on the
        # demanded schema (sorted for determinism).
        cols = tuple((c, c) for c in sorted(n))
        left, right = (
            c if isinstance(c, Project) and c.cols == cols  # aligned
            else intern(Project(c, cols)) for c in children)
        return intern(UnionAll(left, right))

    return store.rebuild(node, children)
