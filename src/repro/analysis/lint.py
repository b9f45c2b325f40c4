"""The row-bounds lint: does a measured row count leave its bounds?

:mod:`repro.analysis.cost` bounds the rows of every plan node for the
catalog instance at hand.  The bounds are *sound*: no execution may
produce a row count outside them.  This lint diffs them against the
measured EXPLAIN ANALYZE actuals and reports the one finding that
cannot be noise (a :class:`~repro.analysis.Diagnostic`, stage
``"bounds"``):

==========  =========================================================
``D500``    a measured row count lies outside the static bounds: a
            query's result (every backend), an operator's or
            temporary-table step's output, or a query's peak
            intermediate (where the backend profiles operators)
==========  =========================================================

A finding is a soundness bug in property inference (or a catalog
statistic that is not the table's size), never a tuning matter, and it
holds at every instance size.

``conn.explain(q, analyze=True)`` attaches the findings to its report.
"""

from __future__ import annotations

from typing import Any, Mapping

from .cost import RowBounds
from .properties import Card
from .verifier import Diagnostic


def lint_report(bundle: Any, analyze: Any,
                table_rows: "Mapping[str, int] | None" = None
                ) -> "list[Diagnostic]":
    """The ``D500`` findings of one EXPLAIN ANALYZE run: ``bundle`` is
    the compiled bundle, ``analyze`` the
    :class:`~repro.obs.AnalyzeReport` measured for it."""
    from ..algebra.dag import postorder
    bounds = RowBounds(table_rows)
    out: list[Diagnostic] = []

    def check(what: str, rows: int, bound: Any, **where: Any) -> None:
        if not bound.contains(rows):
            out.append(Diagnostic(
                "D500", "bounds", f"{what} measured {rows} rows, outside "
                f"the static bounds {bound.show()}", **where))

    for profile, query in zip(analyze.queries, bundle.queries):
        qi = profile.index - 1
        check("the query", profile.rows, bounds.of(query.plan), query=qi)
        if not profile.ops:
            continue
        nodes = [bounds.memo[id(node)] for node in postorder(query.plan)]
        for op in profile.ops:
            check(op.op, op.rows_out, nodes[op.ref], query=qi,
                  node_ref=op.ref)
        his = [b.hi for b in nodes]
        if None not in his:
            check("the peak intermediate", profile.peak_rows,
                  Card(0, max(his)), query=qi)
    return out
