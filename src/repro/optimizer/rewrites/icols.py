"""icols: needed-columns analysis and pruning, over a whole bundle.

Pathfinder's classic cleanup pass: the loop-lifting rules conservatively
carry every column along; most are never consumed.  One top-down demand
analysis over *all* roots of the bundle computes, per DAG node, the
columns any consumer reads -- a node shared by several queries serves
the union of their demands, and so stays one node -- and a bottom-up
rebuild narrows literal tables, scans (the position column a scan hands
out goes like any other when nobody asks for it) and projections
(merging the projections it rebuilds), and deletes attachments, scalar
applications and numberings whose output column is dead, together with
the demand they alone put on their inputs.  Before the demand pass, the
projections of a shared node that a simplify rule widened for one of
its readers (``PlanStore.wider``) are pointed at the wider twin, so the
node is widened for all of them and stays one node.

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
)
from ...algebra.dag import postorder
from ...analysis import PlanStore
from .projmerge import merge_projection


#: ``PlanStore.visits`` key counting projections icols merged past the
#: projection below them.  A pass that merged none leaves every node
#: read by the readers it was narrowed for, so a second pass would
#: change nothing; one that did may have narrowed a projection that
#: other readers keep for a reader that no longer reads it.
MERGES = "icols merges"


def demanded(roots: "list[Node]", store: PlanStore
             ) -> "tuple[list[Node], dict[Node, set[str]]]":
    """The nodes of the bundle's DAG, children before parents, and per
    node the columns some consumer reads.  A root's full output is
    demanded; a node shared by several queries serves the union of their
    demands (and therefore stays one node)."""
    needed: dict[Node, set[str]] = {}
    for root in roots:
        needed.setdefault(root, set()).update(store.schema(root))
    order = list(postorder(*roots))
    schemas = store.schemas  # now holds every node of the bundle
    # Parents precede children in reversed postorder.
    for node in reversed(order):
        _demand(node, needed, schemas)
    return order, needed


def prune_unneeded_columns(roots: "list[Node]",
                           store: "PlanStore | None" = None) -> "list[Node]":
    """Remove columns (and the operators that only compute them) that no
    consumer in the bundle reads: one top-down demand pass over all
    ``roots``, then a bottom-up rebuild of what narrows -- a node whose
    every column is demanded and whose children stand is not rebuilt."""
    store = store or PlanStore()
    roots = _twinned([store.intern(root) for root in roots], store)
    order, needed = demanded(roots, store)
    schemas = store.schemas
    rebuilt: dict[Node, Node] = {}
    for node in order:
        children = tuple([rebuilt[c] for c in node.children])
        n = needed[node]
        if children == node.children and len(n) == len(schemas[node]):
            rebuilt[node] = node
        else:
            store.visits["icols"] += 1
            rebuilt[node] = _narrow(node, children, n, store)
            store.carry(node, rebuilt[node])  # same rows, fewer columns
    return [rebuilt[root] for root in roots]


def _twinned(roots: "list[Node]", store: PlanStore) -> "list[Node]":
    """``roots`` with every projection of a node a rule widened for one
    of its readers (``PlanStore.wider``) reading the wider twin instead:
    the same rows, and the columns the projection picks among more, so
    that a shared node stays one node, however wide its readers need
    it."""
    wider = store.wider
    if not wider:
        return roots
    wider = dict(wider)
    store.wider.clear()  # pointed at once; the twins then stand alone

    def inputs(node: Node) -> "tuple[Node, ...]":
        if not isinstance(node, Project):
            return node.children
        child = node.child
        while child in wider:
            child = wider[child]
        return (child,)

    out: dict[Node, Node] = {}
    stack = list(roots)
    while stack:
        node = stack[-1]
        if node in out:
            stack.pop()
            continue
        kids = inputs(node)
        todo = [c for c in kids if c not in out]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        out[node] = new = store.rebuild(
            node, tuple(out[c] for c in kids))
        if new is not node:
            store.carry(node, new)
    return [out[root] for root in roots]


# ----------------------------------------------------------------------
# demand propagation (top-down)
# ----------------------------------------------------------------------

def _demand(node: Node, needed: dict[Node, set[str]],
            schemas: dict[Node, Schema]) -> None:
    n = needed[node]

    def want(child: Node, cols: Iterable[str]) -> None:
        needed.setdefault(child, set()).update(cols)

    made = _computes(node)
    if made is not None:
        col, reads = made  # a dead one puts no demand on what it reads
        want(node.child, (n - {col}) | reads if col in n else n)
    elif isinstance(node, Project):
        want(node.child, {old for new, old in node.cols if new in n})
    elif isinstance(node, Select):
        want(node.child, n | {node.col})
    elif isinstance(node, Distinct):
        want(node.child, schemas[node.child])
    elif isinstance(node, Cross):
        lsch = set(schemas[node.left])
        want(node.left, n & lsch)
        want(node.right, n - lsch)
    elif isinstance(node, EqJoin):
        lsch = set(schemas[node.left])
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
    # LitTable / TableScan have no children.


def _computes(node: Node) -> "tuple[str, set[str]] | None":
    """For the operators that only add a column to their input: that
    column, and the columns read to compute it."""
    if isinstance(node, Attach):
        return node.col, set()
    if isinstance(node, (RowNum, RowRank)):
        return node.col, ({c for c, _ in node.order}
                          | set(getattr(node, "part", ())))
    if isinstance(node, BinApp):
        return node.out, {c for c in (node.lhs, node.rhs)
                          if not isinstance(c, Const)}
    if isinstance(node, UnApp):
        return node.out, {node.col}
    return None


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
        pos = node.pos if node.pos and node.pos[0] in n else None
        keep = [c for c in node.columns if c[0] in n]
        if not keep and pos is None:  # keep cardinality
            if node.columns:
                keep = [node.columns[0]]
            else:  # an earlier sweep left only the position
                pos = node.pos
        if len(keep) == len(node.columns) and pos == node.pos:
            return node
        return intern(TableScan(node.table, tuple(keep), pos))

    if isinstance(node, Project):
        if isinstance(children[0], Project):
            # merged past a projection that other readers may keep: what
            # it was narrowed to served this one too (see ``MERGES``)
            store.visits[MERGES] += 1
        cols = tuple((new, old) for new, old in node.cols if new in n)
        if not cols:
            # Nothing demanded: keep cardinality through any one column
            # that survived in the narrowed child.
            child_col = next(iter(store.schema(children[0])))
            cols = ((child_col, child_col),)
        return merge_projection(intern(Project(children[0], cols)), store)

    made = _computes(node)
    if made is not None and made[0] not in n:
        return children[0]

    if isinstance(node, GroupAggr):
        aggs = tuple(a for a in node.aggs if a[2] in n)
        return intern(GroupAggr(children[0], node.group, aggs))

    if isinstance(node, UnionAll) and n:  # (a root always demands columns)
        # Children were narrowed independently; realign them on the
        # demanded schema (sorted for determinism).  An arm that has it
        # already stands: an identity projection would only be folded
        # away again.
        names = sorted(n)
        cols = tuple((c, c) for c in names)
        left, right = (
            c if list(store.schema(c)) == names
            else intern(Project(c, cols)) for c in children)
        return intern(UnionAll(left, right))

    return store.rebuild(node, children)
