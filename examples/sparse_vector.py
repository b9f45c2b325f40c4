#!/usr/bin/env python3
"""Figures 5 and 6: sparse-vector multiplication, DPH vs. DSH.

Runs the paper's ``dotp`` example three ways -- scalar reference,
vectorised Data-Parallel-Haskell style, and as a loop-lifted database
query -- and prints the structural correspondence table of Figure 6:
``bpermuteP`` becomes a relational equi-join over ``pos``, ``*^`` a
column-wise multiplication, ``sumP`` a grouped aggregation.
"""

import argparse

from repro import Connection
from repro.algebra import BinApp, EqJoin, GroupAggr, postorder
from workloads import measure, sparse_vector
from repro.dph import (
    FIG6_SV,
    FIG6_V,
    dotp_comprehension,
    dotp_query,
    dotp_vectorised,
    from_list,
)


def correspondence(plan) -> dict[str, int]:
    counts = {"equi-joins (bpermuteP)": 0,
              "column multiplications (*^)": 0,
              "sum aggregations (sumP)": 0}
    for node in postorder(plan):
        if isinstance(node, EqJoin):
            counts["equi-joins (bpermuteP)"] += 1
        elif isinstance(node, BinApp) and node.op == "mul":
            counts["column multiplications (*^)"] += 1
        elif isinstance(node, GroupAggr) and any(
                f == "sum" for f, _, _ in node.aggs):
            counts["sum aggregations (sumP)"] += 1
    return counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=2048,
                        help="dense vector length for the timed run")
    args = parser.parse_args()

    print("Figure 6's concrete arrays:")
    print(f"  sv = {FIG6_SV}")
    print(f"  v  = {FIG6_V}")
    db = Connection()
    print(f"  scalar loop : {dotp_comprehension(FIG6_SV, FIG6_V)}")
    print(f"  DPH         : "
          f"{dotp_vectorised(from_list(FIG6_SV), from_list(FIG6_V))}")
    print(f"  DSH query   : {db.run(dotp_query(FIG6_SV, FIG6_V))}")

    compiled = db.compile(dotp_query(FIG6_SV, FIG6_V))
    print(f"\nDSH bundle: {compiled.query_count} query (scalar result)")
    print("structural correspondence (Figure 6):")
    for name, count in correspondence(compiled.bundle.queries[0].plan).items():
        print(f"  {name:32s} x{count}")

    sv, v = sparse_vector(args.size, density=0.2)
    print(f"\ntimings at n={args.size} (density 0.2, criterion-style "
          f"mean with 95% CI):")
    sv_arr, v_arr = from_list(sv), from_list(v)
    q = dotp_query(sv, v)
    subjects = {
        "scalar loop": lambda: dotp_comprehension(sv, v),
        "DPH vectorised": lambda: dotp_vectorised(sv_arr, v_arr),
        "DSH on engine": lambda: db.run(q),
    }
    for name, subject in subjects.items():
        print(f"  {name:16s} {measure(subject, runs=5).show()}")


if __name__ == "__main__":
    main()
