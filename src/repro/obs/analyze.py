"""EXPLAIN ANALYZE: execution-time profiles of compiled bundles.

``conn.explain(q, analyze=True)`` actually *runs* the bundle (like
PostgreSQL's ``EXPLAIN ANALYZE``) and attaches an :class:`AnalyzeReport`
to the :class:`~repro.obs.ExplainReport`.  Granularity follows what each
backend can observe:

* the in-memory **engine** interprets the algebra DAG node by node, so it
  records one :class:`OpProfile` per operator -- exclusive wall time,
  input/output cardinalities, and output width -- keyed by the same
  ``@n`` postorder reference the pretty-printer uses;
* **SQLite** executes each bundle member as one opaque statement, but
  builds every plan node shared inside the bundle as a temporary table
  first; it records per-query wall time and row counts plus one
  :class:`OpProfile` per temporary-table step, under the shared node's
  ``@n`` -- the time to build the table (the node and the unshared
  operators below it) and the rows it holds;
* the **MIL** VM executes each bundle member as one opaque program, so
  it records per-query wall time and row counts only (one
  :class:`QueryProfile` each).

The annotated plan rendering (op -> time%, rows, cumulative time) is the
profiling image of the paper's Figure 3(b) bundles: a fixed number of
queries whose per-operator cost, not count, varies with the data.

Every execution returns one :class:`QueryProfile` per bundle query
(``Backend.execute_bundle`` times each once); ``per_op=True`` -- what
``explain(analyze=True)`` asks for -- adds the operator/step profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence


@dataclass
class OpProfile:
    """One algebra operator's execution profile: every operator on the
    engine, the temporary-table steps on SQL hosts."""

    #: Postorder index of the node in its plan DAG -- matches the ``@n``
    #: references of :func:`repro.algebra.plan_text`.
    ref: int
    #: One-line operator description (``repro.algebra.describe``).
    op: str
    #: Wall-clock seconds spent evaluating this operator, exclusive of
    #: every other profiled operator.
    time: float
    #: Total input rows (sum over the operator's children); ``None``
    #: where the host does not expose them (SQL steps).
    rows_in: "int | None"
    #: Output rows produced.
    rows_out: int
    #: Output width (number of columns) -- peak intermediate width is the
    #: max of these over a query.
    width: int

    def to_dict(self) -> dict[str, Any]:
        return {"ref": self.ref, "op": self.op, "time": self.time,
                "rows_in": self.rows_in, "rows_out": self.rows_out,
                "width": self.width}


@dataclass
class QueryProfile:
    """Execution profile of one bundle member."""

    #: 1-based position in the bundle (Q1 is the outermost list).
    index: int
    #: Wall-clock seconds for the whole query (codegen excluded).
    time: float = 0.0
    #: Result rows delivered.
    rows: int = 0
    #: Per-operator profiles (engine: all operators; sqlite: the
    #: temporary-table steps this query built; empty on MIL).
    ops: list[OpProfile] = field(default_factory=list)

    @property
    def peak_width(self) -> "int | None":
        """Widest intermediate relation, or ``None`` without per-op data."""
        return max((op.width for op in self.ops), default=None)

    @property
    def peak_rows(self) -> "int | None":
        """Largest intermediate relation (operator or step output), or
        ``None`` without per-op data -- what the plan's shape costs."""
        return max((op.rows_out for op in self.ops), default=None)

    def to_dict(self) -> dict[str, Any]:
        return {"index": self.index, "time": self.time, "rows": self.rows,
                "peak_width": self.peak_width, "peak_rows": self.peak_rows,
                "ops": [op.to_dict() for op in self.ops]}


@dataclass
class AnalyzeReport:
    """Everything ``explain(analyze=True)`` measured while executing."""

    backend: str
    #: Wall-clock seconds for the whole bundle execution.
    total_time: float
    queries: list[QueryProfile] = field(default_factory=list)
    #: Annotated plan renderings, one per query: the ``-- Qn`` header
    #: tagged with rows/time/share, then (where operators were profiled)
    #: the plan tree with per-operator time%, rows, and cumulative time.
    annotated: list[str] = field(default_factory=list)

    @property
    def total_rows(self) -> int:
        return sum(q.rows for q in self.queries)

    def to_dict(self) -> dict[str, Any]:
        return {"backend": self.backend, "total_time": self.total_time,
                "total_rows": self.total_rows,
                "queries": [q.to_dict() for q in self.queries]}

    def render(self) -> str:
        lines = [f"== analyze (backend={self.backend}, "
                 f"total={self.total_time * 1e3:.3f} ms, "
                 f"rows={self.total_rows}) =="]
        lines.extend(self.annotated)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _subtree_time(root, times: dict[int, float]) -> float:
    """Inclusive time of ``root``'s subtree, counting shared DAG nodes
    once (they are evaluated once -- the engine memoizes per node)."""
    seen: set[int] = set()

    def go(node) -> float:
        if id(node) in seen:
            return 0.0
        seen.add(id(node))
        return (times.get(id(node), 0.0)
                + sum(go(child) for child in node.children))

    return go(root)


def build_analyze(bundle, queries: "Sequence[QueryProfile]", backend: str,
                  total_time: float,
                  table_rows: "dict[str, int] | None" = None
                  ) -> AnalyzeReport:
    """Assemble an :class:`AnalyzeReport` (with annotated plans) from
    the per-query profiles ``Backend.execute_bundle`` returned.

    ``table_rows`` (exact catalog statistics) seeds the static
    ``bound=lo..hi`` annotations next to the measured actuals -- the
    side-by-side view the row-bounds lint (``D500``) automates.
    """
    from ..algebra import plan_text, postorder
    from ..analysis.cost import RowBounds

    bounds = RowBounds(table_rows)
    total = total_time or sum(q.time for q in queries) or 1.0
    annotated: list[str] = []
    earlier: dict[int, str] = {}  # nodes an earlier query printed
    for profile, query in zip(queries, bundle.queries):
        share = 100.0 * profile.time / total if total else 0.0
        bound = bounds.of(query.plan).show()
        peak = ("" if profile.peak_rows is None
                else f"peak_rows={profile.peak_rows} ")
        header = (f"-- Q{profile.index} (iter={query.iter_col}, "
                  f"pos={query.pos_col}, "
                  f"items={', '.join(query.item_cols)})"
                  f"  [rows={profile.rows} bound={bound} {peak}"
                  f"time={profile.time * 1e3:.3f} ms "
                  f"({share:.1f}% of bundle)]")
        chunk = [header]
        if profile.ops:
            nodes = list(postorder(query.plan))
            times = {id(nodes[op.ref]): op.time for op in profile.ops}
            ops_by_ref = {op.ref: op for op in profile.ops}
            qtime = profile.time or sum(op.time for op in profile.ops) or 1.0
            annotations = {}
            for i, node in enumerate(nodes):
                op = ops_by_ref.get(i)
                if op is None:
                    continue
                cum = _subtree_time(node, times)
                bound = bounds.memo[id(node)].show()
                rows_in = "" if op.rows_in is None else f"in={op.rows_in} "
                annotations[i] = (
                    f"[{op.time * 1e3:.3f} ms {100.0 * op.time / qtime:.1f}% "
                    f"| {rows_in}out={op.rows_out} "
                    f"bound={bound} w={op.width} "
                    f"cum={cum * 1e3:.3f} ms]")
            chunk.append(plan_text(query.plan, annotations, earlier,
                                   f"Q{profile.index}"))
        annotated.append("\n".join(chunk))
    return AnalyzeReport(backend=backend, total_time=total_time,
                         queries=list(queries),
                         annotated=annotated)
