#!/usr/bin/env python3
"""Workload intelligence end to end: stats, dashboard, and the gate.

Runs a small mixed workload (the paper's running example on the default
engine backend plus a nested query on SQLite), serves the
observability endpoints, and shows where each piece lives:

* ``/metrics``     -- OpenMetrics text with trace-id exemplars
* ``/metrics.json``-- the same registry as JSON
* ``/statements``  -- per-fingerprint workload aggregates (the
  ``pg_stat_statements`` view)
* ``/dashboard``   -- zero-dependency live HTML dashboard

Usage:
    python examples/workload_dashboard.py                 # serve + open
    python examples/workload_dashboard.py --check         # CI self-test
    python examples/workload_dashboard.py --write-baseline PATH

``--check`` exercises every endpoint over HTTP, validates the exemplar
linkage (every exemplar's trace id must resolve in a connection's
flight recorder), and gates the live workload against the checked-in
golden baseline via ``repro.obs.report --fail-on-regress`` -- exit 0
means the whole loop works.  ``--write-baseline`` regenerates that
golden file: latency budgets are deliberately inflated (25x measured,
floored at 50ms) so cross-machine variance never trips the gate, while
row counts stay exact (the workload is deterministic).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

from repro import Connection, fmap, serve_metrics
from repro.bench.table1 import running_example_query
from repro.bench.workloads import paper_dataset
from repro.obs import parse_openmetrics, statements_json
from repro.obs import report as report_cli

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden" / \
    "data" / "workload_baseline.json"

#: Latency budgets in the golden baseline are measured-time * this
#: factor (floored at 50ms): regressions must be gross to fire R200,
#: cross-machine noise never does.
INFLATE = 25.0
FLOOR = 0.05


def nested_probe(db):
    """Each facility with its features: a 2-query nested bundle."""
    features = db.table("features")
    return fmap(
        lambda f: features.filter(lambda g: g[0] == f[0]).map(
            lambda g: g[1]),
        db.table("facilities"))


def run_workload(runs: int = 5) -> list[Connection]:
    """A deterministic mixed workload over two connections."""
    engine = Connection(catalog=paper_dataset())
    sqlite = Connection(backend="sqlite", catalog=paper_dataset())
    example = running_example_query(engine)
    nested = nested_probe(sqlite)
    for _ in range(runs):
        engine.run(example)
        sqlite.run(nested)
    return [engine, sqlite]


def fetch(url: str) -> tuple[str, str]:
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.read().decode("utf-8"), resp.headers["Content-Type"]


def check() -> int:
    """Exercise every endpoint and the baseline gate; 0 on success."""
    conns = run_workload()
    failures: list[str] = []

    def expect(cond: bool, what: str) -> None:
        print(f"  {'ok' if cond else 'FAIL'}  {what}")
        if not cond:
            failures.append(what)

    with serve_metrics(connections=conns) as server:
        base = server.url[: -len("/metrics")]

        print("endpoints:")
        text, ctype = fetch(base + "/metrics")
        expect("openmetrics" in ctype, "/metrics content type")
        families = parse_openmetrics(text)
        expect("ferry_conn_executions" in families, "/metrics parses")

        doc, _ = fetch(base + "/metrics.json")
        expect("metrics" in json.loads(doc), "/metrics.json parses")

        stmts, ctype = fetch(base + "/statements")
        stmts = json.loads(stmts)
        expect(stmts["totals"]["calls"] == 10,
               "/statements reconciles (10 calls)")

        html, ctype = fetch(base + "/dashboard")
        expect("text/html" in ctype and "FERRY workload" in html,
               "/dashboard serves HTML")

        print("exemplar linkage:")
        exemplared = {name: fam for name, fam in families.items()
                      if fam["exemplars"]}
        expect(bool(exemplared), "exemplars present in /metrics")
        trace_ids = {labels["trace_id"]
                     for fam in exemplared.values()
                     for labels, _, _ in fam["exemplars"].values()
                     if "trace_id" in labels}
        expect(bool(trace_ids), "exemplars carry trace ids")
        resolved = sum(
            1 for tid in trace_ids
            if any(c.query_log.find_trace(tid) is not None
                   for c in conns))
        expect(resolved > 0,
               f"exemplar trace ids resolve in the flight recorder "
               f"({resolved}/{len(trace_ids)})")

    print("baseline gate:")
    if not GOLDEN.exists():
        print(f"  FAIL  golden baseline missing: {GOLDEN}")
        return 1
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as fh:
        json.dump(statements_json(conns), fh, default=str)
        snap = fh.name
    rc = report_cli.main([snap, "--baseline", str(GOLDEN),
                          "--fail-on-regress", "--min-time", "0.02"])
    expect(rc == 0, f"report --fail-on-regress exit code ({rc})")

    if failures:
        print(f"\n{len(failures)} check(s) failed")
        return 1
    print("\nall checks passed")
    return 0


def write_baseline(path: Path) -> int:
    """Regenerate the golden baseline with inflated latency budgets."""
    conns = run_workload()
    doc = statements_json(conns)
    for stmt in doc["statements"]:
        for key in ("p50", "p95", "p99", "min_time", "max_time",
                    "mean_time"):
            if stmt.get(key) is not None:
                stmt[key] = max(stmt[key] * INFLATE, FLOOR)
        stmt["total_time"] = max(stmt["total_time"] * INFLATE, FLOOR)
        # Histograms and exemplars are run-specific, not baseline
        # material; rows/calls stay exact.
        stmt.pop("by_backend", None)
        stmt["worst_trace_id"] = None
        stmt["first_seen"] = stmt["last_seen"] = 0.0
    doc["generated_at"] = 0.0
    doc["connections"] = []
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    print(f"wrote {path} ({len(doc['statements'])} statements)")
    return 0


def serve() -> int:
    conns = run_workload()
    with serve_metrics(connections=conns) as server:
        base = server.url[: -len("/metrics")]
        print(f"dashboard:  {base}/dashboard")
        print(f"statements: {base}/statements")
        print(f"metrics:    {server.url}")
        print("Ctrl-C to stop")
        try:
            while True:
                time.sleep(1)
        except KeyboardInterrupt:
            pass
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="self-test every endpoint and the baseline "
                           "gate; exit nonzero on any failure")
    mode.add_argument("--write-baseline", metavar="PATH", nargs="?",
                      const=str(GOLDEN),
                      help=f"regenerate the golden baseline "
                           f"(default {GOLDEN})")
    args = parser.parse_args()
    if args.check:
        return check()
    if args.write_baseline:
        return write_baseline(Path(args.write_baseline))
    return serve()


if __name__ == "__main__":
    sys.exit(main())
