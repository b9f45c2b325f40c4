#!/usr/bin/env python3
"""Regenerate Table 1: query avalanches, HaskellDB vs. Ferry/DSH.

For each category count, the Section 2 program runs (a) HaskellDB-style
-- one declarative query per category, Figure 4 -- and (b) through the
full Ferry stack, which always emits exactly two queries.  The paper
reports 1k/10k/100k categories with HaskellDB taking 11.7s/291s/DNF and
DSH 0.6s/6.4s/74.7s on PostgreSQL; our laptop-scaled defaults show the
same shape: a constant-size bundle vs. an avalanche whose per-statement
table scans make it blow up super-linearly.

Usage:
    python examples/avalanche_table1.py                  # scaled default
    python examples/avalanche_table1.py -n 100 1000 4000 # pick your scale
    python examples/avalanche_table1.py --backend mil --runs 5
"""

import argparse

from workloads import format_table1, run_table1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", "--categories", type=int, nargs="+",
                        default=[100, 500, 2000],
                        help="distinct-category counts (the paper used "
                             "1000 10000 100000)")
    parser.add_argument("--runs", type=int, default=3,
                        help="measurement repetitions (the paper used 10)")
    parser.add_argument("--backend", default="engine",
                        choices=("engine", "mil", "sqlite"),
                        help="DSH execution backend")
    args = parser.parse_args()

    rows = run_table1(tuple(args.categories), runs=args.runs,
                      backend=args.backend)
    print(f"\nTable 1 (DSH backend: {args.backend}; mean of {args.runs} "
          f"runs with bootstrap 95% CI):\n")
    print(format_table1(rows))
    print("\nHaskellDB issues 1 + #categories statements; the Ferry "
          "bundle is always 2.")


if __name__ == "__main__":
    main()
