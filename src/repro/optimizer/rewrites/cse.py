"""Common subexpression elimination (hash-consing plan DAGs).

The loop-lifting compiler freely re-projects and re-derives the same
subplans (environment lifting duplicates joins per variable), within a
query and across the queries of a bundle.  Sharing structurally
identical nodes shrinks plans and lets the engine's per-node memoization
(and SQL's WITH bindings) evaluate shared work once.  It is not a pass:
interning a plan into the compile's :class:`~repro.analysis.PlanStore`
*is* the elimination, and every node a later rewrite builds goes through
the same table.
"""

from __future__ import annotations

from ...algebra import Node
from ...analysis import PlanStore


def eliminate_common_subexpressions(root: Node,
                                    store: "PlanStore | None" = None) -> Node:
    """Share structurally identical subplans.  Interning several plans
    into the same ``store`` shares them *across* those plans too."""
    return (store or PlanStore()).intern(root)
