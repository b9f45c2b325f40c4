"""Estimate-drift lint: do the static cost estimates match reality?

The cost model (:mod:`repro.analysis.cost`) drives rewrite gating, so a
silently rotten estimate degrades plans without failing a single test.
This lint closes the loop by diffing static estimates against
*measured* EXPLAIN ANALYZE actuals and the per-fingerprint row
aggregates of :mod:`repro.obs.stats`, reporting
stable ``D5xx`` codes (:class:`~repro.analysis.Diagnostic` records,
stage ``"drift"``):

==========  =========================================================
``D500``    rows misestimate: a point estimate differs from the
            measured row count beyond the ratio budget (default
            :data:`DEFAULT_RATIO_BUDGET` x) and the absolute slack
            (tiny relations never alarm), or a query's measured peak
            intermediate exceeds the model's sound upper bound
``D501``    cost inversion: the model ranked one bundle query far
            cheaper than a sibling, but the sibling measured far
            faster (both above the noise floor)
``D502``    stale calibration: estimating against a backend with no
            calibration table, a table from another
            ``CALIBRATION_VERSION``, or missing per-operator constants
==========  =========================================================

Surfaces: ``conn.explain(q, analyze=True)`` attaches the findings to
its report, ``/statements`` carries per-fingerprint ``est_rows`` next
to measured rows, and ``python -m repro.analysis.lint`` runs the lint
over the golden workload as a CI gate (exit 1 on any finding;
``--assume-rows table=N`` seeds deliberate misestimates for testing
the gate itself).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Mapping

from .cost import CALIBRATION_VERSION, CostModel, constants_for
from .properties import PlanStore
from .verifier import Diagnostic

#: Largest tolerated est/actual ratio before D500 fires.
DEFAULT_RATIO_BUDGET = 8.0
#: Absolute row slack: differences at most this large never alarm.
ROW_SLACK = 16.0
#: Minimum measured per-query time (seconds) for D501 comparisons;
#: below it wall-clock noise dominates and inversion is meaningless.
D501_MIN_TIME = 0.005
#: Minimum est-cost/time ratio between siblings for D501: the model
#: must claim one query is this many times cheaper while it measured
#: this many times slower.
D501_FACTOR = 4.0

D_CODES = ("D500", "D501", "D502")


def _misestimate(est: float, actual: float, budget: float) -> bool:
    """Outside both the absolute slack and the ratio budget?"""
    if abs(est - actual) <= ROW_SLACK:
        return False
    lo, hi = sorted((est, actual))
    return hi > budget * max(lo, 1.0)


def lint_calibration(backend: str, plans: "list[Any] | None" = None
                     ) -> "list[Diagnostic]":
    """The ``D502`` stale-calibration checks for ``backend`` (and, when
    ``plans`` are given, for every operator label they use)."""
    from ..algebra.dag import postorder
    out: list[Diagnostic] = []
    table, calibrated = constants_for(backend)
    if not calibrated:
        out.append(Diagnostic(
            "D502", "drift",
            f"backend {backend!r} has no calibration table; estimates "
            f"use the engine fallback constants", query=None))
        return out
    version = int(table.get("__version__", 0))
    if version != CALIBRATION_VERSION:
        out.append(Diagnostic(
            "D502", "drift",
            f"calibration table for {backend!r} is version {version}, "
            f"current is {CALIBRATION_VERSION}; re-calibrate against "
            f"benchmarks/test_engine_kernels.py", query=None))
    if plans:
        missing: set[str] = set()
        for plan in plans:
            for node in postorder(plan):
                if node.label not in table:
                    missing.add(node.label)
        for label in sorted(missing):
            out.append(Diagnostic(
                "D502", "drift",
                f"no calibrated constant for operator {label!r} on "
                f"backend {backend!r}", query=None))
    return out


def lint_report(bundle: Any, analyze: Any, backend: str,
                table_rows: "Mapping[str, int] | None" = None,
                ratio_budget: float = DEFAULT_RATIO_BUDGET,
                cache: "PlanStore | None" = None) -> "list[Diagnostic]":
    """Diff static estimates against one EXPLAIN ANALYZE run.

    ``bundle`` is the compiled bundle, ``analyze`` the
    :class:`~repro.obs.AnalyzeReport` measured for it.  Emits ``D500``
    per query (all backends) and per operator (engine profiles),
    ``D501`` for sibling cost inversions, and the ``D502`` calibration
    checks.
    """
    from ..algebra.dag import postorder
    model = CostModel(backend, table_rows=table_rows, cache=cache)
    out = lint_calibration(backend, [q.plan for q in bundle.queries])
    costs: list[float] = []
    for profile, query in zip(analyze.queries, bundle.queries):
        qi = profile.index - 1
        est = model.estimate(query.plan)
        costs.append(model.plan_cost(query.plan))
        if _misestimate(est.rows, profile.rows, ratio_budget):
            out.append(Diagnostic(
                "D500", "drift",
                f"estimated {est.rows:g} rows but measured "
                f"{profile.rows} (budget {ratio_budget:g}x)", query=qi))
        if profile.ops:
            nodes = list(postorder(query.plan))
            bounds = [est.rows_hi for est in
                      (model.memo[id(node)] for node in nodes)
                      if est.rows_hi is not None]
            if (len(bounds) == len(nodes)
                    and profile.peak_rows > max(bounds)):
                out.append(Diagnostic(
                    "D500", "drift",
                    f"peak intermediate of {profile.peak_rows} rows "
                    f"exceeds the model's upper bound {max(bounds):g}",
                    query=qi))
            for op in profile.ops:
                node_est = model.memo[id(nodes[op.ref])]
                if _misestimate(node_est.rows, op.rows_out, ratio_budget):
                    out.append(Diagnostic(
                        "D500", "drift",
                        f"{op.op}: estimated {node_est.rows:g} rows "
                        f"but measured {op.rows_out} "
                        f"(budget {ratio_budget:g}x)",
                        query=qi, node_ref=op.ref))
    # D501: cost ordering vs measured ordering, between bundle siblings.
    profiles = list(analyze.queries)
    for i in range(len(profiles)):
        for j in range(len(profiles)):
            if i == j:
                continue
            ti, tj = profiles[i].time, profiles[j].time
            if ti < D501_MIN_TIME or tj < D501_MIN_TIME:
                continue
            # Model: i is far cheaper.  Clock: i is far slower.
            if (costs[j] > D501_FACTOR * costs[i]
                    and ti > D501_FACTOR * tj):
                out.append(Diagnostic(
                    "D501", "drift",
                    f"model ranks Q{profiles[i].index} "
                    f"{costs[j] / max(costs[i], 1.0):.1f}x cheaper than "
                    f"Q{profiles[j].index} but it measured "
                    f"{ti / max(tj, 1e-9):.1f}x slower",
                    query=profiles[i].index - 1))
    return out


def lint_statements(stats_snapshot: "Mapping[str, Any]",
                    ratio_budget: float = DEFAULT_RATIO_BUDGET
                    ) -> "list[Diagnostic]":
    """Diff per-fingerprint mean measured rows against the recorded
    static estimate (``repro.obs.stats`` snapshots carry ``est_rows``).
    Pure-aggregate D500s: no bundle or plan needed."""
    out: list[Diagnostic] = []
    for entry in stats_snapshot.get("statements", []):
        est = entry.get("est_rows")
        calls = entry.get("calls", 0)
        if est is None or not calls:
            continue
        mean_rows = entry["rows"] / calls
        if _misestimate(est, mean_rows, ratio_budget):
            fp = entry.get("fingerprint", "?")
            out.append(Diagnostic(
                "D500", "drift",
                f"statement {fp[:16]}…: estimated {est:g} rows but "
                f"measured {mean_rows:g} mean rows over {calls} call(s) "
                f"(budget {ratio_budget:g}x)", query=None))
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
    100 categories (where a data-sized intermediate shows), plus a
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
                          ("table1_100", avalanche_dataset(100))):
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
    """Run the estimate-drift lint over the golden workload.

    Exit 0 when every estimate lands inside the budget, 1 otherwise --
    usable as a CI gate.  ``--assume-rows table=N`` overrides the
    catalog statistics fed to the estimator (seeding a deliberate D500
    to prove the gate trips).
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="estimate-drift lint over the golden workload")
    parser.add_argument("--backend", default="engine",
                        choices=("engine", "sqlite", "mil"))
    parser.add_argument("--ratio-budget", type=float,
                        default=DEFAULT_RATIO_BUDGET,
                        help="largest tolerated est/actual ratio "
                             f"(default {DEFAULT_RATIO_BUDGET:g})")
    parser.add_argument("--assume-rows", action="append", default=[],
                        metavar="TABLE=N",
                        help="override a table's row statistic "
                             "(repeatable; seeds misestimates)")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON")
    args = parser.parse_args(argv)
    assumed = _parse_assume(args.assume_rows)

    findings: list[tuple[str, Diagnostic]] = []
    for name, conn, query in _golden_workload(args.backend):
        report = conn.explain(query, analyze=True)
        table_rows = dict(conn._table_stats())
        table_rows.update(assumed)
        for diag in lint_report(report_bundle(conn, query), report.analyze,
                                conn.backend.name, table_rows=table_rows,
                                ratio_budget=args.ratio_budget):
            findings.append((name, diag))
        if conn.stats is not None:
            for diag in lint_statements(conn.statement_stats(),
                                        ratio_budget=args.ratio_budget):
                findings.append((name, diag))
    if args.json:
        print(json.dumps([{"workload": name, **diag.to_dict()}
                          for name, diag in findings], indent=2))
    elif findings:
        for name, diag in findings:
            print(f"{name}: {diag}")
        print(f"{len(findings)} drift finding(s)")
    else:
        print(f"estimate-drift lint clean on backend "
              f"{args.backend!r} (budget {args.ratio_budget:g}x)")
    return 1 if findings else 0


def report_bundle(conn: Any, query: Any) -> Any:
    """The compiled bundle behind an explain (cache hit: free)."""
    return conn.compile(query).bundle


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
