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

Surfaces: ``conn.explain(q, analyze=True)`` attaches the findings to
its report, and ``python -m repro.analysis.lint`` runs the lint over
the golden workload as a CI gate (exit 1 on any finding;
``--assume-rows table=N`` lies about a table's size to prove the gate
trips).
"""

from __future__ import annotations

import argparse
import json
import sys
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


# ----------------------------------------------------------------------
# the CLI gate: python -m repro.analysis.lint
# ----------------------------------------------------------------------

def _parse_assume(pairs: "list[str]") -> dict[str, int]:
    assumed: dict[str, int] = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if not name or not value:
            raise SystemExit(
                f"--assume-rows expects table=N, got {pair!r}")
        assumed[name] = int(value)
    return assumed


def _golden_workload(backend: str) -> "list[tuple[str, Any, Any]]":
    """(name, connection, query) triples of the golden workload: the
    paper's running example on Figure 1 and on the Table 1 instance at
    100 and at 800 categories (bounds hold at every size), plus a
    nested-orders report."""
    from ..bench.table1 import running_example_query
    from ..bench.workloads import (
        avalanche_dataset,
        orders_dataset,
        paper_dataset,
    )
    from ..frontend import fmap, pyq, tup
    from ..runtime.connection import Connection

    runs: list[tuple[str, Any, Any]] = []
    for name, catalog in (("running_example", paper_dataset()),
                          ("table1_100", avalanche_dataset(100)),
                          ("table1_800", avalanche_dataset(800))):
        db = Connection(backend=backend, catalog=catalog)
        runs.append((name, db, running_example_query(db)))
    orders = Connection(backend=backend,
                        catalog=orders_dataset(n_customers=25))
    customers = orders.table("customers")
    otable = orders.table("orders")
    nested = fmap(
        lambda c: tup(c[1], pyq(
            "[oid for (cid2, month, oid) in otable if cid2 == cid]",
            otable=otable, cid=c[0])),
        customers)
    runs.append(("nested_orders", orders, nested))
    return runs


def main(argv: "list[str] | None" = None) -> int:
    """Run the row-bounds lint over the golden workload.

    Exit 0 when every measured row count lies inside its static bounds,
    1 otherwise -- usable as a CI gate.  ``--assume-rows table=N``
    overrides the catalog statistics the bounds are seeded with (a size
    smaller than the table is a deliberate D500 that proves the gate
    trips).
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="row-bounds lint over the golden workload")
    parser.add_argument("--backend", default="engine",
                        choices=("engine", "sqlite", "mil"))
    parser.add_argument("--assume-rows", action="append", default=[],
                        metavar="TABLE=N",
                        help="override a table's row statistic "
                             "(repeatable; seeds unsound bounds)")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON")
    args = parser.parse_args(argv)
    assumed = _parse_assume(args.assume_rows)

    findings: list[tuple[str, Diagnostic]] = []
    for name, conn, query in _golden_workload(args.backend):
        report = conn.explain(query, analyze=True)
        table_rows = {**conn._table_stats(), **assumed}
        findings.extend((name, diag) for diag in lint_report(
            conn.compile(query).bundle, report.analyze, table_rows))
    if args.json:
        print(json.dumps([{"workload": name, **diag.to_dict()}
                          for name, diag in findings], indent=2))
    elif findings:
        for name, diag in findings:
            print(f"{name}: {diag}")
        print(f"{len(findings)} bounds finding(s)")
    else:
        print(f"row-bounds lint clean on backend {args.backend!r}")
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
