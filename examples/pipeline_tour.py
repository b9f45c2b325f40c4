#!/usr/bin/env python3
"""A tour of the Figure 2 pipeline, one stage at a time.

For a small query this script prints every artefact the compiler
produces: the comprehension source, the desugared combinator AST (step
1), the loop-lifted table-algebra plan before and after optimization
(steps 2-3), the generated SQL:1999 and the engine's column-at-a-time
schedule, the tabular results with their iter/pos/item columns (Figure 3
encodings, step 4-5), and the final stitched Python value (step 6).
"""

from repro import Connection, qc
from repro.algebra import node_count, operator_histogram, plan_text
from repro.backends.engine import EngineBackend
from repro.backends.sql import SQLiteBackend
from repro.expr import pretty
from workloads import raw_bundle


def stage(title: str) -> None:
    print("\n" + "=" * 66)
    print(title)
    print("=" * 66)


def main() -> None:
    db = Connection()
    db.create_table("employees", [("name", str), ("dept", str),
                                  ("salary", int)],
                    [("alice", "eng", 120), ("bob", "ops", 80),
                     ("carol", "eng", 140), ("dan", "ops", 95)])

    source = ("[(the(dept), sum(salary)) | (dept, name, salary)"
              " <- employees, then group by dept]")
    stage("source comprehension")
    print(source)

    employees = db.table("employees")
    query = qc(source, employees=employees)

    stage("step 1: desugared combinator AST (deep embedding)")
    print(pretty(query.exp))
    print(f"\nresult type: {query.ty.show()}")

    raw = raw_bundle(query)
    compiled = db.compile(query)

    stage("step 2: loop-lifted table algebra (unoptimized)")
    for i, q in enumerate(raw.queries, start=1):
        print(f"Q{i}: {node_count(q.plan)} operators, "
              f"{operator_histogram(q.plan)}")

    stage("step 3: after the rewrite pipeline (CSE, const-fold, icols, "
          "projection merging)")
    for i, q in enumerate(compiled.bundle.queries, start=1):
        print(f"Q{i}: {node_count(q.plan)} operators")
        print(plan_text(q.plan))

    stage("generated SQL:1999 (the PostgreSQL/SQLite target)")
    sql_backend = SQLiteBackend()
    script = sql_backend.describe_prepared(
        sql_backend.prepare_bundle(compiled.bundle))
    for i, part in enumerate(script, start=1):
        print(f"-- Q{i}")
        print(part)
        print()

    stage("engine schedule (the MonetDB/MIL-style column-at-a-time target)")
    engine = EngineBackend()
    program = engine.prepare_bundle(compiled.bundle)
    print(f"one program of {len(program.steps)} steps, one per distinct "
          f"operator of the bundle")
    for i, listing in enumerate(engine.describe_prepared(program), start=1):
        print(f"-- Q{i}: {len(listing.splitlines())} column operators")
        print(listing)
        print()

    stage("steps 4-5: tabular results (iter | pos | item..., Figure 3)")
    result = engine.execute_bundle(compiled.bundle, db.catalog, program)
    for i, rows in enumerate(result.rows, start=1):
        print(f"Q{i} rows:")
        for row in rows:
            print(f"   {row}")

    stage("step 6: the stitched Python value")
    print(db.run(query))


if __name__ == "__main__":
    main()
