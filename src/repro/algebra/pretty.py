"""Rendering algebra plans for humans: indented text and Graphviz DOT."""

from __future__ import annotations

from .ops import (
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
)
from .dag import postorder


def describe(node: Node) -> str:
    """One-line description of a single operator."""
    if isinstance(node, LitTable):
        cols = ", ".join(f"{n}:{t.show()}" for n, t in node.schema)
        return f"LitTable[{len(node.rows)} rows]({cols})"
    if isinstance(node, TableScan):
        cols = ", ".join(f"{new}<={src}" for new, src, _ in node.columns)
        pos = f" pos {node.pos[0]}" if node.pos else ""
        return f'TableScan "{node.table}" ({cols}){pos}'
    if isinstance(node, Attach):
        return f"Attach {node.col} := {node.value!r}"
    if isinstance(node, Project):
        cols = ", ".join(new if new == old else f"{new}<={old}"
                         for new, old in node.cols)
        return f"Project [{cols}]"
    if isinstance(node, Select):
        return f"Select {node.col}"
    if isinstance(node, Distinct):
        return "Distinct"
    if isinstance(node, RowNum):
        order = ", ".join(f"{c} {d}" for c, d in node.order)
        part = f" partition by {', '.join(node.part)}" if node.part else ""
        return f"RowNum {node.col} := row_number(order by {order}{part})"
    if isinstance(node, RowRank):
        order = ", ".join(f"{c} {d}" for c, d in node.order)
        return f"RowRank {node.col} := dense_rank(order by {order})"
    if isinstance(node, Cross):
        return "Cross"
    if isinstance(node, (EqJoin, SemiJoin, AntiJoin)):
        pairs = " and ".join(f"{l} = {r}" for l, r in node.pairs)
        return f"{node.label} on {pairs}"
    if isinstance(node, UnionAll):
        return "UnionAll"
    if isinstance(node, GroupAggr):
        aggs = ", ".join(f"{out} := {fn}({col or '*'})"
                         for fn, col, out in node.aggs)
        by = ", ".join(node.group) or "()"
        return f"GroupAggr [{aggs}] by {by}"
    if isinstance(node, BinApp):
        return (f"BinApp {node.out} := {_operand(node.lhs)} "
                f"{node.op} {_operand(node.rhs)}")
    if isinstance(node, UnApp):
        return f"UnApp {node.out} := {node.op}({node.col})"
    return node.label  # pragma: no cover


def _operand(op) -> str:
    return repr(op.value) if isinstance(op, Const) else op


def plan_text(root: Node, annotations: "dict[int, str] | None" = None,
              earlier: "dict[Node, str] | None" = None,
              label: str = "") -> str:
    """Indented tree rendering; shared subplans are printed once and then
    referenced by number.

    ``annotations`` optionally maps a node's postorder reference (the
    ``@n`` number) to a suffix appended to its line -- EXPLAIN ANALYZE
    uses this to tag operators with time%, cardinalities, and cumulative
    cost without touching the tree layout.  ``earlier`` carries the
    sharing across the plans of a bundle: it maps the nodes already
    printed to where (``"Q1 @8"``), a plan refers to those instead of
    printing them again, and records its own under ``label``.
    """
    ids: dict[Node, int] = {}
    for i, node in enumerate(postorder(root)):
        ids[node] = i
    lines: list[str] = []
    printed: set[Node] = set()
    stack = [(root, 0)]  # preorder, first child on top
    while stack:
        node, depth = stack.pop()
        ref = ids[node]
        indent = "  " * depth
        if node in printed:
            lines.append(f"{indent}@{ref} (shared, see above)")
            continue
        printed.add(node)
        if earlier is not None and node in earlier:
            lines.append(f"{indent}@{ref} (shared with {earlier[node]})")
            continue
        suffix = ""
        if annotations is not None and ref in annotations:
            suffix = f"  {annotations[ref]}"
        lines.append(f"{indent}@{ref} {describe(node)}{suffix}")
        stack.extend((child, depth + 1) for child in reversed(node.children))
    if earlier is not None:
        earlier.update((node, f"{label} @{ids[node]}") for node in printed
                       if node not in earlier)
    return "\n".join(lines)


def bundle_text(bundle) -> str:
    """Render every query of a :class:`~repro.core.bundle.Bundle` with
    its ``-- Qn`` header (the classic ``explain`` text layout); a subplan
    an earlier query printed is referred to, not repeated."""
    chunks = []
    earlier: dict[Node, str] = {}
    for i, query in enumerate(bundle.queries, start=1):
        chunks.append(f"-- Q{i} (iter={query.iter_col}, "
                      f"pos={query.pos_col}, "
                      f"items={', '.join(query.item_cols)})")
        chunks.append(plan_text(query.plan, earlier=earlier, label=f"Q{i}"))
    return "\n".join(chunks)


def plan_dot(root: Node, name: str = "plan") -> str:
    """Graphviz DOT rendering of the plan DAG."""
    ids: dict[Node, int] = {}
    lines = [f"digraph {name} {{", "  node [shape=box, fontsize=10];"]
    for i, node in enumerate(postorder(root)):
        ids[node] = i
        text = describe(node).replace('"', r"\"")
        lines.append(f'  n{i} [label="{text}"];')
        for child in node.children:
            lines.append(f"  n{i} -> n{ids[child]};")
    lines.append("}")
    return "\n".join(lines)
