#!/usr/bin/env python3
"""The repo's benchmark: four workloads through ``Connection.run``.

    python3 benchmarks/e2e/run.py                  every workload, untraced
                                                   then traced, one child
                                                   process each
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
                                                   one run, in this process
                                                   (what the driver calls)
    python3 benchmarks/e2e/run.py --smoke          smallest sizes, checks only
    python3 benchmarks/e2e/run.py --repeat K --agree
                                                   K sets, spread vs. bound
    python3 benchmarks/e2e/run.py --selftest       the checker catches a wrong
                                                   reference and query count

A single-workload run prints every metric by name and unit and, as its
last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  See README.md beside this file for what the names mean.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sqlite3
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} not found: the benchmark measures "
             f"the checkout it sits in")
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
from workloads import WORKLOADS, workload_by_name  # noqa: E402


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def environment(seed: int) -> dict:
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"commit": commit or "unknown", "python": platform.python_version(),
            "sqlite": sqlite3.sqlite_version, "nproc": os.cpu_count(),
            "cpu": cpu, "seed": seed}


def warn_if_loaded() -> None:
    load, cores = harness.loadavg(), os.cpu_count() or 1
    if load > cores / 2:
        print(f"warning: 1-minute load average {load:.2f} exceeds half of "
              f"{cores} cores; timings will be noisy", file=sys.stderr)


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------

def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    workload = workload_by_name(name)
    declared = spec()["per_layer" if traced else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    warn_if_loaded()
    started = time.perf_counter()
    if traced:
        trace_file = OUT / f"trace-{name}.jsonl"
        outcome = harness.trace(workload, seed, seconds, str(trace_file))
        outcome.info["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        outcome = harness.measure(workload, seed, seconds)
    checker = outcome.checker
    outcome.info["wall_s"] = time.perf_counter() - started
    names = [m["name"] for m in declared]
    if set(names) != set(outcome.metrics):
        print(f"error: BENCHMARK.json declares {sorted(names)}, this run "
              f"reports {sorted(outcome.metrics)}", file=sys.stderr)
        return 2

    print(f"== {name} (seed {seed}, {'traced' if traced else 'untraced'}, "
          f"{outcome.info['reported_at']} {outcome.info['size_unit']}) ==")
    for m in declared:
        print(f"{m['name']:34s} {outcome.metrics[m['name']]:14.4f} "
              f"{m['unit']}")
    for key, value in outcome.info.items():
        if key != "unreconciled":
            print(f"  {key}: {value}")
    for line in outcome.info.get("unreconciled", ()):
        print(f"unreconciled: {line}")
    for line in checker.failures:
        print(f"FAILED {line}")

    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": outcome.metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }
    with open(OUT / f"result-{name}-trace{int(traced)}.json", "w") as f:
        json.dump({**result, "workload": name, "info": outcome.info,
                   "environment": environment(seed)}, f, indent=1)
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# every workload, one child process each
# ----------------------------------------------------------------------

def run_child(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """One workload in a process of its own (so ``peak_rss_mb`` is its
    own); children run one after another, never in parallel."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(traced))],
        stdout=subprocess.PIPE, text=True, timeout=600)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        raise SystemExit(f"{name}: child exited with {proc.returncode}")
    with open(OUT / f"result-{name}-trace{int(traced)}.json") as f:
        return json.load(f)


#: Compile-layer counts that must not depend on the backend.
BACKEND_FREE_COUNTS = ("core.lift_nodes", "optimizer.nodes_after",
                       "optimizer.rounds", "optimizer.rewrites_fired")


def run_set(names: list[str], seed: int, seconds: float,
            traced: bool) -> dict:
    """One full set: every named workload untraced, then (optionally)
    traced; returns ``{workload: {"end_to_end": .., "per_layer": ..}}``."""
    results: dict[str, dict] = {}
    for name in names:
        results[name] = {"end_to_end": run_child(name, seed, seconds, False)}
        if traced:
            results[name]["per_layer"] = run_child(name, seed, seconds, True)
    return results


def reconcile(results: dict) -> list[str]:
    """Cross-workload reconciliation of a traced set."""
    problems = []
    for name, result in results.items():
        for line in result["per_layer"]["info"]["unreconciled"]:
            problems.append(f"{name}: {line}")
    pair = [results.get(n, {}).get("per_layer")
            for n in ("table1_engine", "table1_sqlite")]
    if all(pair):
        for count in BACKEND_FREE_COUNTS:
            a, b = (p["metrics"][count]["value"] for p in pair)
            if a != b:
                problems.append(
                    f"{count}: table1_engine {a} != table1_sqlite {b} "
                    f"(same program, the compile layers must agree)")
    return problems


def failed_total(results: dict) -> int:
    return sum(run["failed"] for result in results.values()
               for run in result.values())


def run_all(names: list[str], seed: int, seconds: float) -> int:
    results = run_set(names, seed, seconds, traced=True)
    problems = reconcile(results)
    print("\n== summary ==")
    for name, result in results.items():
        for kind, run in result.items():
            for metric, cell in run["metrics"].items():
                print(f"{name:18s} {metric:34s} "
                      f"{cell['value']:14.4f} {cell['unit']}")
    for line in problems:
        print(f"unreconciled: {line}")
    with open(OUT / "results.json", "w") as f:
        json.dump({"environment": environment(seed), "seconds": seconds,
                   "unreconciled": problems, "workloads": results}, f,
                  indent=1)
    print(f"wrote {OUT / 'results.json'}; span files are {OUT}/trace-*.jsonl")
    failed = failed_total(results)
    if failed:
        print(f"{failed} calls failed their checks", file=sys.stderr)
    return 1 if failed or problems else 0


# ----------------------------------------------------------------------
# --repeat K --agree
# ----------------------------------------------------------------------

def spread(values: list[float]) -> float:
    """Run-to-run spread as a share of the median: the interquartile
    distance (the driver's rule) from four sets on, the range below."""
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        width = q3 - q1
    else:
        width = max(values) - min(values)
    return width / statistics.median(values)


def run_repeat(names: list[str], seed: int, seconds: float, k: int,
               agree: bool) -> int:
    """K sets back to back, each with the next seed (as the driver does);
    prints every metric's spread against its bound."""
    sets = [run_set(names, seed + i, seconds, traced=False)
            for i in range(k)]
    failed = sum(failed_total(results) for results in sets)
    exceeded = 0
    report = {}
    print(f"\n== spread over {k} sets (seeds {seed}..{seed + k - 1}) ==")
    for metric in spec()["end_to_end"]:
        for name in names:
            values = [results[name]["end_to_end"]["metrics"][metric["name"]]
                      ["value"] for results in sets]
            share = spread(values)
            over = share > metric["bound"]
            exceeded += over
            report.setdefault(name, {})[metric["name"]] = {
                "median": statistics.median(values), "spread": share}
            print(f"{name:18s} {metric['name']:16s} median "
                  f"{statistics.median(values):12.4f} {metric['unit']:3s} "
                  f"spread {share:7.2%} bound {metric['bound']:4.0%}"
                  f"{'  EXCEEDED' if over else ''}")
    with open(OUT / "spread.json", "w") as f:
        json.dump({"environment": environment(seed), "sets": k,
                   "seconds": seconds, "spread": report}, f, indent=1)
    if failed:
        print(f"{failed} calls failed their checks", file=sys.stderr)
    return 1 if failed or (agree and exceeded) else 0


# ----------------------------------------------------------------------
# --smoke and --selftest
# ----------------------------------------------------------------------

def run_smoke(names: list[str], seed: int) -> int:
    """Smallest size of every workload, one sample: results against the
    references and the avalanche check, no timing."""
    status = 0
    for name in names:
        workload = workload_by_name(name)
        checker = harness.Checker()
        inputs = harness.prepare_inputs(workload, seed, workload.sizes[:1],
                                        checker)
        _, (inst,) = harness.set_up(inputs, checker)
        harness.prepare_cold(inst, inputs.order, workload.backend, checker)
        harness.run_pass(inst, checker, "smoke")
        print(f"{name:18s} {checker.attempted - checker.failed}/"
              f"{checker.attempted} calls correct at "
              f"{inst.size} {workload.size_unit}")
        for line in checker.failures:
            print(f"FAILED {line}")
            status = 1
    return status


def run_selftest() -> int:
    """Feed the checker a deliberately wrong reference and a wrong query
    count; both must be counted as failures, and the right ones not."""
    workload = workload_by_name("table1_engine")
    size = workload.sizes[0]
    truth = harness.Checker()
    inputs = harness.prepare_inputs(workload, 42, (size,), truth)
    _, (inst,) = harness.set_up(inputs, truth)
    harness.run_pass(inst, truth, "truth")
    ok = truth.failed == 0 and truth.attempted >= 3

    program = workload.programs[0]
    wrong_ref = harness.Checker()
    broken = list(inst.references[program.name])
    broken[0], broken[1] = broken[1], broken[0]     # same rows, wrong order
    harness.run_pass(replace(inst, references={program.name: broken}),
                     wrong_ref, "wrong-reference")
    ok &= wrong_ref.failed == wrong_ref.attempted == 1

    wrong_count = harness.Checker()
    three = replace(program, result_type="[(String, [[String]])]")
    harness.run_pass(replace(inst, queries=[(three, inst.queries[0][1])]),
                     wrong_count, "wrong-query-count")
    harness.prepare_cold(inst, [three], workload.backend, wrong_count)
    ok &= wrong_count.failed == wrong_count.attempted == 2

    for checker in (truth, wrong_ref, wrong_count):
        for line in checker.failures:
            print(f"  counted: {line}")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS],
                        help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="with --workload: 0 end-to-end metrics, "
                             "1 per-layer metrics from the decomposed run")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--repeat", type=int, default=1, metavar="K")
    parser.add_argument("--agree", action="store_true",
                        help="with --repeat: exit 1 when a spread exceeds "
                             "its bound")
    args = parser.parse_args()
    seconds = (args.seconds if args.seconds is not None
               else spec()["run_seconds"])
    names = ([args.workload] if args.workload
             else [w.name for w in WORKLOADS])
    if args.selftest:
        return run_selftest()
    if args.smoke:
        return run_smoke(names, args.seed)
    if args.repeat > 1:
        OUT.mkdir(exist_ok=True)
        return run_repeat(names, args.seed, seconds, args.repeat, args.agree)
    if args.workload and args.trace is not None:
        return run_one(args.workload, args.seed, seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    warn_if_loaded()
    return run_all(names, args.seed, seconds)


if __name__ == "__main__":
    sys.exit(main())
