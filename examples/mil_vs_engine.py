#!/usr/bin/env python3
"""MIL VM vs in-memory engine on the e2e benchmark's generators.

Both backends execute the same optimized plans; this script times warm
``Connection.run`` passes (plan cache hot) on each and prints the
MIL/engine ratio -- the number EXPERIMENTS.md's "one set of column
kernels" row records.  Inputs and programs come from
``benchmarks/e2e/workloads.py`` (running example, nested orders,
``paper_mix``'s 24 programs); results are asserted equal before any
timing is reported.

Usage::

    PYTHONPATH=src python examples/mil_vs_engine.py            # full
    PYTHONPATH=src python examples/mil_vs_engine.py --quick    # smoke

To measure another checkout (e.g. the parent commit), point
``PYTHONPATH`` at its ``src``; the generators are read from this file's
own repository either way.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"))

import workloads as w  # noqa: E402  (the benchmark's own generators)

from repro import Connection  # noqa: E402

CASES = (
    ("running example", w.avalanche_tables, (w.RUNNING_EXAMPLE,),
     "categories", (800, 3200)),
    ("nested orders", w.orders_tables, (w.NESTED_ORDERS,),
     "customers", (800,)),
    ("paper_mix (24 programs)", w.paper_mix_tables, w.CORPUS,
     "copies", (1, 4)),
)
QUICK_SIZES = {"categories": (50,), "customers": (50,), "copies": (1,)}


def one_pass(conn, queries):
    t0 = time.perf_counter()
    values = [conn.run(q) for q in queries]
    return time.perf_counter() - t0, values


def best_of(conn, queries, repeats):
    return min(one_pass(conn, queries)[0] for _ in range(repeats))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--best-of", type=int, default=7)
    parser.add_argument("--repetitions", type=int, default=3)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, one repetition")
    args = parser.parse_args()
    if args.quick:
        args.best_of, args.repetitions = 2, 1

    print(f"{'workload':<26}{'size':>16}  rep  {'engine ms':>10}"
          f"{'mil ms':>10}{'mil/engine':>12}")
    for label, make_tables, programs, unit, sizes in CASES:
        for size in QUICK_SIZES[unit] if args.quick else sizes:
            catalog = w.make_catalog(make_tables(size, args.seed))
            conns = {b: Connection(backend=b, catalog=catalog)
                     for b in ("engine", "mil")}
            queries = {b: [p.build(c) for p in programs]
                       for b, c in conns.items()}
            # warm-up pass: cold compile, and the differential check
            results = {b: one_pass(conns[b], queries[b])[1] for b in conns}
            assert results["mil"] == results["engine"], label
            for rep in range(1, args.repetitions + 1):
                ms = {b: best_of(conns[b], queries[b], args.best_of) * 1e3
                      for b in conns}
                print(f"{label:<26}{size:>8} {unit:<8}{rep:>4}  "
                      f"{ms['engine']:>10.2f}{ms['mil']:>10.2f}"
                      f"{ms['mil'] / ms['engine']:>11.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
