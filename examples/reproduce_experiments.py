#!/usr/bin/env python3
"""Regenerate every number in EXPERIMENTS.md in one run.

Covers Table 1 (DSH on the engine), the optimizer / backend / nesting /
order ablations, and the Figure 5/6 dot-product timings.  Takes a few
minutes at the default scales; see EXPERIMENTS.md for the recorded
reference output.
"""

from repro import Connection, ffilter, fmap, fsum, group_with, reverse, sort_with
from repro.algebra import node_count
from comparisons import (
    LinqSession,
    dotp_comprehension,
    dotp_vectorised,
    from_list,
    sum_s,
)
from workloads import (
    avalanche_dataset,
    dotp_query,
    format_table1,
    measure,
    numbers_dataset,
    raw_bundle,
    run_raw,
    run_table1,
    running_example_query,
    sparse_vector,
)


def main() -> None:
    print("=== TABLE 1 (DSH on the in-memory engine) ===", flush=True)
    print(format_table1(run_table1((100, 1000, 4000), runs=3,
                                   backend="engine")), flush=True)

    print("\n=== OPTIMIZER ABLATION (running example, n=150) ===",
          flush=True)
    catalog = avalanche_dataset(150)
    q = running_example_query(Connection(catalog=catalog))
    for optimize in (False, True):
        sizes = [node_count(s.plan)
                 for s in raw_bundle(q, optimize).queries]
        m = measure(lambda: run_raw(q, catalog, optimize), runs=3)
        print(f"optimize={optimize!s:5}: plan sizes {sizes}, "
              f"runtime {m.show()}", flush=True)

    print("\n=== BACKEND ABLATION (running example) ===", flush=True)
    for backend, n in (("engine", 150), ("sqlite", 25)):
        db = Connection(backend=backend, catalog=avalanche_dataset(n))
        q = running_example_query(db)
        db.run(q)  # warm-up (loads SQLite)
        m = measure(lambda: db.run(q), runs=3)
        print(f"{backend:7} (n={n}): {m.show()}", flush=True)

    print("\n=== FIGURE 5/6: dotp at n=2048, density 0.2 ===", flush=True)
    sv, v = sparse_vector(2048, density=0.2)
    sva, va = from_list(sv), from_list(v)
    db = Connection()
    q = dotp_query(sv, v)
    print("scalar loop    :",
          measure(lambda: dotp_comprehension(sv, v), runs=5).show(),
          flush=True)
    print("DPH vectorised :",
          measure(lambda: dotp_vectorised(sva, va), runs=5).show(),
          flush=True)
    print("DSH engine     :",
          measure(lambda: db.run(q), runs=3).show(), flush=True)

    print("\n=== NESTING REPRESENTATION ABLATION (N=3000, 60 segments) ===",
          flush=True)
    n_total, groups = 3000, 60
    db = Connection(catalog=numbers_dataset(n_total))
    nested = fmap(fsum, group_with(lambda x: x % groups, db.table("nums")))
    segments = [[v for v in range(n_total) if v % groups == g]
                for g in range(groups)]
    arr = from_list(segments)
    flat = [v for seg in segments for v in seg]
    bounds, offset = [], 0
    for seg in segments:
        bounds.append((offset, len(seg)))
        offset += len(seg)

    def between():
        return [sum(v for p, v in enumerate(flat) if off <= p < off + ln)
                for off, ln in bounds]

    print("surrogate joins (DSH) :",
          measure(lambda: db.run(nested), runs=3).show(), flush=True)
    print("descriptors (DPH)     :",
          measure(lambda: sum_s(arr), runs=5).show(), flush=True)
    print("BETWEEN range scans   :", measure(between, runs=3).show(),
          flush=True)

    print("\n=== ORDER ENCODING ABLATION (n=4000) ===", flush=True)
    catalog = numbers_dataset(4000)
    db = Connection(catalog=catalog)
    nums = db.table("nums")
    heavy = reverse(sort_with(lambda x: x % 97,
                              fmap(lambda x: x * 3,
                                   ffilter(lambda x: x % 2 == 0, nums))))
    light = fmap(lambda x: x * 3, ffilter(lambda x: x % 2 == 0, nums))
    print("order-heavy (4 pos renumberings):",
          measure(lambda: db.run(heavy), runs=3).show(), flush=True)
    print("order-light (filter+map only)   :",
          measure(lambda: db.run(light), runs=3).show(), flush=True)
    session = LinqSession(catalog)
    print("LINQ baseline (no order at all) :",
          measure(lambda: [r["n"] * 3 for r in session.table("nums")
                           if r["n"] % 2 == 0], runs=3).show(), flush=True)


if __name__ == "__main__":
    main()
