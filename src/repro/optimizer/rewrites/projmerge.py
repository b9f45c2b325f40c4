"""Projection merging and identity elimination.

Adjacent projections compose into one; a projection that renames nothing
and keeps its child's full schema in order disappears.  Run after icols,
which leaves chains of narrowed projections behind.
"""

from __future__ import annotations

from ...algebra import Node, Project
from ...analysis import PlanStore


def merge_projections(root: Node, store: "PlanStore | None" = None) -> Node:
    store = store or PlanStore()

    def visit(node: Node, children: tuple[Node, ...]) -> Node:
        if not isinstance(node, Project):
            node = store.rebuild(node, children)
        else:
            child = children[0]
            cols = node.cols
            # Project over Project: compose the rename maps.
            while isinstance(child, Project):
                inner = dict(child.cols)
                cols = tuple((new, inner[old]) for new, old in cols)
                child = child.child
            # Identity projection: same names, same order, no duplication.
            if cols == tuple((c, c) for c in store.schema(child)):
                node = child
            elif child is not node.child:
                node = store.add(Project(child, cols))
        return node

    return store.rewrite("projmerge", root, visit, idempotent=True)
