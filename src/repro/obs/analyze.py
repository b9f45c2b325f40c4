"""EXPLAIN ANALYZE: execution-time profiles of compiled bundles.

``conn.explain(q, analyze=True)`` actually *runs* the bundle (like
PostgreSQL's ``EXPLAIN ANALYZE``) and keeps that run's
:class:`~repro.obs.ExecutionRecord` as the
:class:`~repro.obs.ExplainReport`'s ``analyze``.  Its profiles follow
what each backend can observe:

* the in-memory **engine** interprets the algebra DAG node by node, so it
  records one :class:`OpProfile` per operator -- exclusive wall time,
  input/output cardinalities, and output width -- keyed by the same
  ``@n`` postorder reference the pretty-printer uses;
* **SQLite** executes each bundle member as one opaque statement, but
  builds every plan node shared inside the bundle as a temporary table
  first; it records per-query wall time and row counts plus one
  :class:`OpProfile` per temporary-table step, under the shared node's
  ``@n`` -- the time to build the table (the node and the unshared
  operators below it) and the rows it holds.

The annotated plan rendering (op -> time%, rows, bounds, cumulative
time; built by :func:`repro.obs.explain.build_report`) is the profiling
image of the paper's Figure 3(b) bundles: a fixed number of queries
whose per-operator cost, not count, varies with the data.

Every execution returns one :class:`QueryProfile` per bundle query
(``Backend.execute_bundle`` times each once); ``per_op=True`` -- what
``explain(analyze=True)`` asks for -- adds the operator/step profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


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
    #: temporary-table steps this query built; empty unless ``per_op``).
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
