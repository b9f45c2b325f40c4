#!/usr/bin/env python3
"""Quickstart: the paper's Section 2 running example, end to end.

Loads the Figure 1 tables (facilities / features / meanings), asks the
paper's question -- *what features are characteristic for the various
query facility categories?* -- in comprehension syntax, and executes it
entirely on the database coprocessor as a bundle of exactly two
relational queries.

Usage:
    python examples/quickstart.py             # run and print the result
    python examples/quickstart.py --show-sql  # also print the SQL bundle
    python examples/quickstart.py --explain   # also print algebra plans
"""

import argparse
import pprint

from repro import Connection, qc
from workloads import paper_dataset


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--show-sql", action="store_true",
                        help="print the generated SQL:1999 bundle "
                             "(compare the paper's appendix)")
    parser.add_argument("--explain", action="store_true",
                        help="print the optimized table-algebra plans")
    parser.add_argument("--backend", default="engine",
                        choices=("engine", "sqlite", "mil"))
    args = parser.parse_args()

    db = Connection(backend=args.backend, catalog=paper_dataset())
    facilities = db.table("facilities")
    features = db.table("features")
    meanings = db.table("meanings")

    # descrFacility :: Q String -> Q [String]
    def descr_facility(f):
        return qc("[mean | (feat, mean) <- meanings,"
                  " (fac, feat2) <- features,"
                  " feat == feat2 and fac == f]",
                  meanings=meanings, features=features, f=f)

    # query :: Q [(String, [String])]
    query = qc("[(the(cat), nub(concatMap(descrFacility, fac)))"
               " | (cat, fac) <- facilities, then group by cat]",
               facilities=facilities, descrFacility=descr_facility)

    compiled = db.compile(query)
    print(f"result type     : {query.ty.show()}")
    print(f"bundle size     : {compiled.query_count} queries "
          f"(avalanche safety: one per [.] in the type)\n")

    if args.explain:
        print(db.explain(query))
        print()

    if args.show_sql:
        from repro.backends.sql import SQLiteBackend
        backend = SQLiteBackend()
        script = backend.describe_prepared(
            backend.prepare_bundle(compiled.bundle))
        for i, part in enumerate(script, start=1):
            print(f"-- SQL for Q{i} " + "-" * 50)
            print(part)
            print()

    result = db.run(query)
    print("result:")
    pprint.pprint(result)


if __name__ == "__main__":
    main()
