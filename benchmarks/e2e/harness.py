"""Measuring one workload: the untraced end-to-end run, the traced
decomposed run, the result checker and the span recorder.

End-to-end numbers come from :func:`measure` only -- ``Connection`` at
its default configuration, called exactly as a user would.  Per-layer
numbers come from :func:`trace` only -- the same program pushed through
each layer's public functions by hand, every call wrapped in a span of
this file's own recorder.  Nothing under ``src/`` is instrumented.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import Connection
from repro.algebra import node_count
from repro.analysis import estimate_bundle, verify_bundle
from repro.backends.engine import EngineBackend
from repro.backends.sql import SQLiteBackend
from repro.backends.sql.dbapi import SQLiteAdapter, load_catalog
from repro.core.bundle import compile_exp
from repro.expr import exp_fingerprint, tables_referenced
from repro.frontend.q import to_q
from repro.optimizer import PassStats, optimize_bundle
from repro.runtime.stitch import stitch

from workloads import (
    Program,
    Workload,
    interpreter_reference,
    make_catalog,
    program_order,
)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Fewest round-robin rounds over the ladder, whatever ``--seconds`` says.
MIN_ROUNDS = 5
#: Share of the untraced measuring loop spent on cold ``prepare`` samples.
COLD_SHARE = 0.2
#: Fewest decomposed passes in a traced run.
MIN_TRACED_PASSES = 5


# ----------------------------------------------------------------------
# checking
# ----------------------------------------------------------------------

def same_value(got: Any, want: Any) -> bool:
    """Structural equality with exact list order; floats compared with
    ``math.isclose(rel_tol=1e-9)`` (SQL sums add in another order)."""
    if isinstance(want, float) and isinstance(got, float):
        return math.isclose(got, want, rel_tol=1e-9)
    if isinstance(want, (list, tuple)):
        return (type(got) is type(want) and len(got) == len(want)
                and all(same_value(g, w) for g, w in zip(got, want)))
    return type(got) is type(want) and got == want


@dataclass
class Checker:
    """Counts ``prepare``/``run`` calls and the ones that failed: raised,
    returned something other than the reference, or issued another number
    of queries than the result type dictates."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def _verdict(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {'; '.join(problems)}")

    def run(self, what: str, error: "Exception | None", value: Any,
            reference: Any, queries: int, expected_queries: int) -> None:
        problems = []
        if error is not None:
            problems.append(f"raised {error!r}")
        else:
            if not same_value(value, reference):
                problems.append("result differs from the reference")
            if queries != expected_queries:
                problems.append(f"issued {queries} queries, result type "
                                f"dictates {expected_queries}")
        self._verdict(what, problems)

    def prepare(self, what: str, error: "Exception | None",
                prepared: Any, expected_queries: int) -> None:
        problems = []
        if error is not None:
            problems.append(f"raised {error!r}")
        elif prepared.query_count != expected_queries:
            problems.append(f"bundle of {prepared.query_count} queries, "
                            f"result type dictates {expected_queries}")
        self._verdict(what, problems)

    def reference(self, what: str, reference: Any, oracle: Any) -> None:
        self._verdict(what, [] if same_value(reference, oracle) else
                      ["hand-written reference differs from the interpreter"])


def timed(fn: Callable[[], Any]) -> tuple[float, Any, "Exception | None"]:
    """Wall time of one call; a raising call is a counted failure, not
    the end of the benchmark."""
    t0 = time.perf_counter()
    try:
        value, error = fn(), None
    except Exception as err:
        value, error = None, err
    return time.perf_counter() - t0, value, error


# ----------------------------------------------------------------------
# calibrated time
# ----------------------------------------------------------------------

#: What :func:`_kernel` takes on the box the benchmark was defined on,
#: in that box's fast state.  Only fixes the scale of calibrated time.
KERNEL_NOMINAL_S = 0.0016


def _kernel() -> str:
    """A fixed piece of interpreter work (dict, sort, loop, str): of the
    kernels tried it followed the workloads' slow-downs most closely."""
    d = {}
    for i in range(12000):
        d[i] = (i * 7) % 13
    total = 0
    for x in sorted(d.values()):
        total += x
    return "".join(str(total) for _ in range(200))


class SpeedGauge:
    """Turns wall time into calibrated time.

    The boxes this runs on switch, in stretches of 10-60 s, between CPU
    speeds up to 40% apart (a busy SMT sibling or host frequency; steal
    time stays at zero) -- longer than a run can average over, so raw
    medians of two runs of the same code differ by 10-40%.  Every sample
    is therefore bracketed by readings of a fixed kernel and scaled to
    what it would take on a machine where the kernel takes
    ``KERNEL_NOMINAL_S``.  Readings are reused for ``MAX_AGE_S`` so that
    short samples are not drowned in calibration.
    """

    MAX_AGE_S = 0.05

    def __init__(self) -> None:
        self._at = float("-inf")
        self._reading = 0.0
        self.readings: list[float] = []

    def read(self) -> float:
        if time.perf_counter() - self._at > self.MAX_AGE_S:
            self._reading = min(timed(_kernel)[0] for _ in range(3))
            self._at = time.perf_counter()
            self.readings.append(self._reading)
        return self._reading

    def calibrate(self, raw: float, before: float) -> float:
        """``raw`` seconds that started at reading ``before`` and end
        now, in calibrated seconds."""
        return raw * 2.0 * KERNEL_NOMINAL_S / (before + self.read())

    def sample(self, fn: Callable[[], float]) -> float:
        """One sample: collect garbage, then time ``fn`` (which returns
        its own raw seconds) between two readings."""
        gc.collect()
        before = self.read()
        return self.calibrate(fn(), before)

    @property
    def kernel_ratio(self) -> float:
        """Median reading over nominal: >1 means a slower machine."""
        return statistics.median(self.readings) / KERNEL_NOMINAL_S


# ----------------------------------------------------------------------
# inputs and set-up
# ----------------------------------------------------------------------

@dataclass
class Inputs:
    """What the harness makes from the seed before the program runs."""

    workload: Workload
    seed: int
    sizes: tuple[int, ...]
    order: list[Program]
    tables: dict[int, dict]
    #: size -> program name -> expected value
    references: dict[int, dict[str, Any]]
    generate_s: float
    reference_s: float


def prepare_inputs(workload: Workload, seed: int, sizes: tuple[int, ...],
                   checker: Checker) -> Inputs:
    def interpreted(tables: dict) -> dict[str, Any]:
        catalog = make_catalog(tables)
        return {p.name: interpreter_reference(p, catalog)
                for p in workload.programs}

    def expected(tables: dict) -> dict[str, Any]:
        if workload.reference is None:
            return interpreted(tables)
        value = workload.reference(tables)
        return {p.name: value for p in workload.programs}

    t0 = time.perf_counter()
    tables = {size: workload.make_tables(size, seed) for size in sizes}
    t1 = time.perf_counter()
    references = {size: expected(tables[size]) for size in sizes}
    t2 = time.perf_counter()
    if workload.reference is not None:
        # The hand-written reference is only as good as its agreement
        # with the list-prelude semantics, checked where the
        # interpreter's nested loops are still affordable.
        small = workload.make_tables(workload.crosscheck_size, seed)
        for name, oracle in interpreted(small).items():
            checker.reference(f"{name}@{workload.crosscheck_size} reference",
                              expected(small)[name], oracle)
    return Inputs(workload, seed, sizes, program_order(workload, seed),
                  tables, references, t1 - t0, t2 - t1)


@dataclass
class Instance:
    """One ladder size, set up: catalog, connection, built programs."""

    size: int
    catalog: Any
    conn: Connection
    queries: list[tuple[Program, Any]]
    references: dict[str, Any]


def run_pass(inst: Instance, checker: Checker, label: str) -> float:
    """One sample: every program of the instance once through
    ``Connection.run``; returns the summed wall time.  Results are
    compared after the clock stopped."""
    conn = inst.conn
    total = 0.0
    pending = []
    for program, q in inst.queries:
        before = conn.queries_issued
        seconds, value, error = timed(lambda: conn.run(q))
        total += seconds
        pending.append((program, error, value, conn.queries_issued - before))
    for program, error, value, queries in pending:
        checker.run(f"{label} {program.name}@{inst.size}", error, value,
                    inst.references[program.name], queries,
                    program.expected_queries)
    return total


def open_instance(size: int, catalog: Any, order: list[Program],
                  references: dict[str, Any], **connection: Any) -> Instance:
    conn = Connection(catalog=catalog, **connection)
    return Instance(size, catalog, conn, [(p, p.build(conn)) for p in order],
                    references)


def set_up(inputs: Inputs, checker: Checker) -> tuple[float, list[Instance]]:
    """Everything the program does before the first timed sample: load
    every size's tables, open the connections, build the programs, and
    run each once (the backend's lazy catalog load and the cold compile).
    Returns the seconds that took, result checks left out."""
    t0 = time.perf_counter()
    instances = [
        open_instance(size, make_catalog(inputs.tables[size]), inputs.order,
                      inputs.references[size], backend=inputs.workload.backend)
        for size in inputs.sizes]
    elapsed = time.perf_counter() - t0
    elapsed += sum(run_pass(inst, checker, "setup") for inst in instances)
    return elapsed, instances


def prepare_cold(inst: Instance, order: list[Program], backend: str,
                 checker: Checker) -> float:
    """One cold-compile sample: on a fresh connection (empty plan cache),
    build every program through the front end and ``prepare`` it."""
    conn = Connection(backend=backend, catalog=inst.catalog)
    total = 0.0
    pending = []
    for program in order:
        seconds, prepared, error = timed(
            lambda: conn.prepare(program.build(conn)))
        total += seconds
        pending.append((program, error, prepared))
    for program, error, prepared in pending:
        checker.prepare(f"prepare {program.name}@{inst.size}", error,
                        prepared, program.expected_queries)
    return total


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def loadavg() -> float:
    try:
        with open("/proc/loadavg") as f:
            return float(f.read().split()[0])
    except OSError:
        return 0.0


def scaling_exponent(sizes: tuple[int, ...], medians: list[float]) -> float:
    """Least-squares slope of log(median warm time) on log(size)."""
    slope, _ = statistics.linear_regression(
        [math.log(s) for s in sizes], [math.log(m) for m in medians])
    return slope


def ms(seconds: float) -> float:
    return seconds * 1000.0


# ----------------------------------------------------------------------
# the untraced run: end-to-end metrics
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    #: name -> value; BENCHMARK.json declares the units.
    metrics: dict[str, float]
    checker: Checker
    #: Sample counts, sizes, notes: printed and recorded, never gated.
    info: dict[str, Any]


def measure(workload: Workload, seed: int, seconds: float) -> Outcome:
    checker = Checker()
    gauge = SpeedGauge()
    load = loadavg()
    inputs = prepare_inputs(workload, seed, workload.sizes, checker)
    deadline = time.perf_counter() + seconds

    setups = []
    instances: list[Instance] = []
    for _ in range(SETUP_REPS):
        instances.clear()
        gc.collect()
        before = gauge.read()
        elapsed, instances = set_up(inputs, checker)
        setups.append(gauge.calibrate(elapsed, before))
    largest = instances[-1]

    # Second untimed run at every size (the set-up's was the first).
    for inst in instances:
        run_pass(inst, checker, "warm-up")
    warm: dict[int, list[float]] = {size: [] for size in inputs.sizes}
    cold: list[float] = []
    rounds, cold_spent, loop_start = 0, 0.0, time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        # Round-robin over the sizes, so drift hits all of them alike.
        for inst in instances:
            warm[inst.size].append(
                gauge.sample(lambda: run_pass(inst, checker, "warm")))
        rounds += 1
        # Cold compiles get their share of every round rather than a
        # block of their own: a noisy second cannot hit them all.
        while cold_spent < COLD_SHARE * (time.perf_counter() - loop_start):
            t0 = time.perf_counter()
            cold.append(gauge.sample(lambda: prepare_cold(
                largest, inputs.order, workload.backend, checker)))
            cold_spent += time.perf_counter() - t0
    rss = peak_rss_mb()

    medians = [statistics.median(warm[size]) for size in inputs.sizes]
    exponent = scaling_exponent(inputs.sizes, medians)
    metrics = {
        "setup_s": statistics.median(setups),
        "prepare_cold_ms": ms(statistics.median(cold)),
        "run_warm_ms": ms(medians[-1]),
        "scaling_x2": 2.0 ** exponent,
        "peak_rss_mb": rss,
    }
    info = {
        "sizes": list(inputs.sizes), "size_unit": workload.size_unit,
        "reported_at": inputs.sizes[-1],
        "samples": {"setup": SETUP_REPS, "prepare_cold": len(cold),
                    "run_warm_per_size": rounds},
        "run_warm_ms_by_size": {str(s): ms(m)
                                for s, m in zip(inputs.sizes, medians)},
        "scaling_exp": exponent,
        "bundle_queries": sum(p.expected_queries for p in workload.programs),
        "failed_share": checker.failed / checker.attempted,
        "harness.kernel_ratio": gauge.kernel_ratio,
        "harness.generate_s": inputs.generate_s,
        "harness.reference_s": inputs.reference_s,
        "harness.loadavg_start": load,
    }
    return Outcome(metrics, checker, info)


# ----------------------------------------------------------------------
# the traced run: per-layer metrics
# ----------------------------------------------------------------------

class SpanRecorder:
    """In-memory spans: name, start, end, the span that caused it, and
    the trace id (workload/size/pass) shared by one pass's spans."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, trace: "str | None" = None, **attrs: Any):
        parent = self._stack[-1] if self._stack else None
        if trace is None and parent is not None:
            trace = self.spans[parent]["trace"]
        record = {"id": len(self.spans), "parent": parent, "trace": trace,
                  "name": name, **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for record in self.spans:
                f.write(json.dumps(record) + "\n")


#: Layer spans on the blocking path of a cold compile plus a run; each
#: gives the per-layer metric ``<name>_ms``.
BLOCKING = ("frontend.build", "runtime.check", "expr.fingerprint",
            "core.lift", "optimizer.optimize", "backends.engine.codegen",
            "backends.engine.execute", "backends.sql.codegen",
            "backends.sql.execute", "runtime.stitch")
#: Spans that re-measure, standalone, a part of what another span
#: already contains.  Per-layer metrics too, but the cover ratio leaves
#: them out.
STANDALONE = ("analysis.verify", "analysis.cost", "backends.sql.execute_q1",
              "backends.sql.execute_q2", "backends.sql.execute_q3")
#: Per-layer counts, summed over a pass; must repeat exactly.
COUNTS = ("core.lift_nodes", "optimizer.nodes_after", "optimizer.rounds",
          "optimizer.rewrites_fired", "optimizer.rewrites_gated",
          "backends.engine.rows_out", "backends.sql.rows_out",
          "backends.sql.sql_bytes", "backends.sql.cte_count",
          "backends.sql.window_fn_count", "backends.sql.statements",
          "runtime.stitch_rows", "runtime.bundle_queries")


def traced_pass(rec: SpanRecorder, inst: Instance, backend: Any,
                order: list[Program], trace_id: str,
                checker: Checker) -> dict[str, float]:
    """One decomposed pass: every program through each layer's public
    entry point, one span per call.  Returns the pass's counts."""
    layer = "sql" if backend.name == "sqlite" else backend.name
    catalog = inst.catalog
    table_rows = {name: len(catalog.rows(name))
                  for name in catalog.table_names()}
    counts = dict.fromkeys(COUNTS + ("est_rows",), 0)
    pending = []
    with rec.span("pass", trace=trace_id):
        for program in order:
            with rec.span("program", program=program.name):
                value = error = None
                try:
                    value = _decomposed(rec, program, inst, backend, layer,
                                        table_rows, counts)
                except Exception as err:
                    error = err
            pending.append((program, error, value))
    for program, error, value in pending:
        checker.run(f"traced {program.name}@{inst.size}", error, value,
                    inst.references[program.name],
                    program.expected_queries, program.expected_queries)
    return counts


def _decomposed(rec: SpanRecorder, program: Program, inst: Instance,
                backend: Any, layer: str, table_rows: dict,
                counts: dict) -> Any:
    catalog = inst.catalog
    with rec.span("frontend.build"):
        q = program.build(inst.conn)
    with rec.span("runtime.check"):
        qq = to_q(q)
        for ref in tables_referenced(qq.exp).values():
            catalog.check_reference(ref)
    with rec.span("expr.fingerprint"):
        exp_fingerprint(qq.exp)
    with rec.span("core.lift"):
        raw = compile_exp(qq.exp)
    counts["core.lift_nodes"] += sum(node_count(query.plan)
                                     for query in raw.queries)
    with rec.span("optimizer.optimize"):
        stats = PassStats()
        bundle = optimize_bundle(raw, stats, table_rows=table_rows,
                                 backend=backend.name)
    counts["optimizer.nodes_after"] += stats.nodes_after
    counts["optimizer.rounds"] += stats.rounds
    counts["optimizer.rewrites_fired"] += sum(stats.rewrites_fired.values())
    counts["optimizer.rewrites_gated"] += sum(stats.rewrites_gated.values())
    with rec.span("analysis.verify"):
        verify_bundle(bundle, mark=False)
    with rec.span("analysis.cost"):
        estimate_bundle(bundle, backend.name, table_rows)
    with rec.span(f"backends.{layer}.codegen"):
        code = backend.prepare_bundle(bundle)
    with rec.span(f"backends.{layer}.execute"):
        result = backend.execute_bundle(bundle, catalog, prepared=code)
    if layer == "sql":
        for i, (gen, query) in enumerate(zip(code, bundle.queries), start=1):
            with rec.span(f"backends.sql.execute_q{i}"):
                backend.run_sql(gen, query)
            text = gen.text.upper()
            counts["backends.sql.sql_bytes"] += len(gen.text.encode())
            counts["backends.sql.cte_count"] += text.count(" AS (")
            counts["backends.sql.window_fn_count"] += text.count(" OVER (")
            counts["backends.sql.statements"] += 1
    with rec.span("runtime.stitch"):
        value = stitch(bundle, result.rows)
    rows = sum(len(r) for r in result.rows)
    counts[f"backends.{layer}.rows_out"] += rows
    counts["runtime.stitch_rows"] += rows
    counts["est_rows"] += bundle.cost.est_rows
    counts["runtime.bundle_queries"] += result.queries_issued
    return value


def trace(workload: Workload, seed: int, seconds: float,
          trace_path: str) -> Outcome:
    """Per-layer metrics at the largest size.

    Each round takes, back to back, one untraced cold ``prepare`` sample,
    untraced warm ``Connection.run`` samples (default connection paired
    with one that has ``repro.obs`` off), and one decomposed pass under
    the span recorder -- interleaved, so that a noisy stretch of the
    machine hits the spans and the numbers they are reconciled against
    alike.
    """
    checker = Checker()
    gauge = SpeedGauge()
    load = loadavg()
    size = workload.sizes[-1]
    inputs = prepare_inputs(workload, seed, (size,), checker)
    deadline = time.perf_counter() + seconds
    _, (inst,) = set_up(inputs, checker)
    layer = "sql" if workload.backend == "sqlite" else workload.backend
    unreconciled: list[str] = []

    # The same programs on a connection with tracing and statement
    # statistics off: what repro.obs costs on the warm path.
    bare = open_instance(size, inst.catalog, inputs.order, inst.references,
                         backend=workload.backend, trace=False,
                         statement_stats=False)
    run_pass(bare, checker, "warm-up bare")

    backend = SQLiteBackend() if layer == "sql" else EngineBackend()
    load_ms = 0.0
    if layer == "sql":
        adapter = SQLiteAdapter()
        loads = []
        for _ in range(5):
            conn = adapter.connect()
            loads.append(gauge.sample(lambda: timed(lambda: load_catalog(
                conn, inst.catalog, adapter.dialect))[0]))
            conn.close()
        load_ms = ms(statistics.median(loads))

    # Unrecorded warm-ups (the backend loads the catalog lazily); their
    # times balance the rounds: as long on untraced pairs as on the pass.
    pair_s = run_pass(inst, checker, "warm-up") * 2
    t0 = time.perf_counter()
    traced_pass(SpanRecorder(), inst, backend, inputs.order, "warm-up",
                checker)
    pairs_per_round = max(1, round((time.perf_counter() - t0) / pair_s))

    rec = SpanRecorder()
    stats = inst.conn.cache_stats
    hits, lookups = stats.hits, stats.lookups
    cold, warm, ratios, passes = [], [], [], []
    #: trace id -> calibrated seconds per raw second during that pass
    scale: dict[str, float] = {}
    while len(passes) < MIN_TRACED_PASSES or time.perf_counter() < deadline:
        cold.append(gauge.sample(lambda: prepare_cold(
            inst, inputs.order, workload.backend, checker)))
        for _ in range(pairs_per_round):
            pair = (inst, bare) if len(ratios) % 2 == 0 else (bare, inst)
            times = {id(side): gauge.sample(
                lambda: run_pass(side, checker, "warm")) for side in pair}
            warm.append(times[id(inst)])
            ratios.append(times[id(inst)] / times[id(bare)])
        trace_id = f"{workload.name}/{size}/{len(passes)}"
        gc.collect()
        before = gauge.read()
        passes.append(traced_pass(rec, inst, backend, inputs.order, trace_id,
                                  checker))
        scale[trace_id] = gauge.calibrate(1.0, before)
    hit_ratio = (stats.hits - hits) / (stats.lookups - lookups)
    cold_ms, warm_ms = ms(statistics.median(cold)), ms(statistics.median(warm))
    rec.write(trace_path)

    counts = passes[-1]
    if any(p != counts for p in passes):
        unreconciled.append("per-layer counts differ between passes")

    # Per pass: each layer's calibrated time summed over the pass, and
    # the pass's root span (the span file keeps raw clock readings).
    per_pass: dict[str, dict[str, float]] = {t: {} for t in scale}
    roots: dict[str, float] = {}
    for record in rec.spans:
        calibrated = (record["end"] - record["start"]) * scale[record["trace"]]
        if record["name"] == "pass":
            roots[record["trace"]] = calibrated
        elif record["name"] != "program":
            sums = per_pass[record["trace"]]
            sums[record["name"]] = sums.get(record["name"], 0.0) + calibrated

    def layer_ms(name: str) -> float:
        return ms(statistics.median(p.get(name, 0.0)
                                    for p in per_pass.values()))

    def standalone(sums: dict[str, float]) -> float:
        return sum(sums.get(name, 0.0) for name in STANDALONE)

    untraced_ms = cold_ms + warm_ms
    cover = ms(statistics.median(
        sum(p.values()) - standalone(p) for p in per_pass.values())
    ) / untraced_ms
    traced_ms = ms(statistics.median(
        roots[t] - standalone(p) for t, p in per_pass.items()))
    if not 0.85 <= cover <= 1.15:
        unreconciled.append(
            f"harness.layers_cover_ratio {cover:.3f} outside 0.85-1.15: the "
            f"decomposition does not measure what Connection.run does")
    warm_layers = sum(layer_ms(name) for name in (
        "runtime.check", "expr.fingerprint", f"backends.{layer}.execute",
        "runtime.stitch"))
    p90 = (statistics.quantiles(warm, n=10)[-1] if len(warm) >= 10
           else max(warm))

    metrics = {f"{name}_ms": layer_ms(name) for name in BLOCKING + STANDALONE}
    metrics.update({name: counts[name] for name in COUNTS})
    metrics.update({
        "analysis.est_over_actual_rows":
            counts["est_rows"] / counts["runtime.stitch_rows"],
        "backends.sql.load_catalog_ms": load_ms,
        "runtime.plancache_hit_ratio": hit_ratio,
        "runtime.connection_self_ms": warm_ms - warm_layers,
        "runtime.run_warm_p90_ms": ms(p90),
        "obs.overhead_ratio": statistics.median(ratios),
        "harness.layers_cover_ratio": cover,
        "harness.trace_overhead_ratio": traced_ms / untraced_ms,
        "harness.generate_s": inputs.generate_s,
        "harness.reference_s": inputs.reference_s,
        "harness.loadavg_start": load,
        "harness.kernel_ratio": gauge.kernel_ratio,
    })
    info = {
        "reported_at": size, "size_unit": workload.size_unit,
        "samples": {"prepare_cold": len(cold), "run_warm": len(warm),
                    "traced_passes": len(passes)},
        "untraced_prepare_cold_ms": cold_ms, "untraced_run_warm_ms": warm_ms,
        "unreconciled": unreconciled, "spans": len(rec.spans),
    }
    return Outcome(metrics, checker, info)
