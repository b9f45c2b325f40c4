"""Projection merging and identity elimination.

Adjacent projections compose into one; a projection that renames nothing
and keeps its child's full schema in order disappears.
"""

from __future__ import annotations

from ...algebra import Node, Project
from ...analysis import PlanStore


def merge_projection(node: Project, store: PlanStore) -> Node:
    """``node`` composed with the projections directly below it; its
    child when what is left is the identity."""
    child, cols = node.child, node.cols
    while isinstance(child, Project):
        inner = dict(child.cols)
        cols = tuple((new, inner[old]) for new, old in cols)
        child = child.child
    # Identity projection: same names, same order, no duplication.
    schema = store.schema(child)
    if len(cols) == len(schema) and cols == tuple(zip(schema, schema)):
        return child
    return node if child is node.child else store.add(Project(child, cols))
