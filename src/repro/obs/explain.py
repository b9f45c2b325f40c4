"""Structured EXPLAIN: what a compiled bundle is, and why it is safe.

:meth:`Connection.explain` produces an :class:`ExplainReport` instead of
opaque text: the program's fingerprint and plan-cache status, the bundle
size checked *at run time* against the number of ``[·]`` constructors in
the static result type (the paper's Section 3.2 avalanche invariant),
the pretty-printed algebra DAG of every bundle member, and the backend's
generated artifact (SQL text or engine schedule).  The
report is JSON-able via :meth:`ExplainReport.to_dict` and renders to the
familiar ``-- Q1 ...`` text via ``str()``.

:func:`build_report` is the one builder, a view over one
:class:`~repro.analysis.PlanStore`: the staged verifier, the sound row
bounds (:class:`~repro.analysis.RowBounds`), the property notes and the
EXPLAIN ANALYZE annotations all read the facts it inferred once.  An
analyze run prints every measured row count beside its bounds and, in
the same walk, reports the one finding that cannot be noise (a
:class:`~repro.analysis.Diagnostic`, stage ``"bounds"``):

==========  =========================================================
``D500``    a measured row count lies outside the static bounds: a
            query's result (every backend), an operator's or
            temporary-table step's output, or a query's peak
            intermediate (where the backend profiles operators)
==========  =========================================================

A finding is a soundness bug in property inference (or a catalog
statistic that is not the table's size), never a tuning matter, and it
holds at every instance size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from .analyze import QueryProfile
from .record import ExecutionRecord


@dataclass
class QueryExplain:
    """One bundle member, fully described."""

    #: 1-based position in the bundle (Q1 is the outermost list).
    index: int
    iter_col: str
    pos_col: str
    item_cols: tuple[str, ...]
    item_types: tuple[str, ...]
    #: Indented algebra-DAG rendering (``repro.algebra.plan_text``).
    plan: str
    #: Operator label -> node count for the plan DAG.
    operators: dict[str, int]
    #: Backend-generated artifact (SQL text / engine schedule), or
    #: ``None`` if the backend produced nothing.
    artifact: str | None = None
    #: Were inferred plan properties baked into ``plan``?
    #: (``conn.explain(q, properties=True)``.)
    properties: bool = False

    @property
    def header(self) -> str:
        return (f"-- Q{self.index} (iter={self.iter_col}, "
                f"pos={self.pos_col}, "
                f"items={', '.join(self.item_cols)})")


@dataclass
class ExplainReport:
    """Everything :meth:`Connection.explain` knows about a query."""

    backend: str
    result_type: str
    fingerprint: str | None
    cache_hit: bool
    #: Number of relational queries in the bundle.
    bundle_size: int
    #: Number of ``[·]`` constructors in the static result type.
    list_constructors: int
    #: Bundle size the avalanche-safety theorem predicts from the type.
    expected_bundle_size: int
    queries: list[QueryExplain] = field(default_factory=list)
    #: Wall-clock seconds per compile phase (from the compilation that
    #: produced this report; empty keys mean the plan cache served it).
    timings: dict[str, float] = field(default_factory=dict)
    #: Optimizer pass statistics (``None`` on cache hits).
    pass_stats: Any = None
    #: The :class:`~repro.obs.ExecutionRecord` of the analyze run
    #: (``conn.explain(q, analyze=True)`` only): its ``queries`` carry
    #: per-operator profiles on the engine backend, per-query and
    #: per-step ones on SQL.
    analyze: "ExecutionRecord | None" = None
    #: Annotated plan renderings of the analyze run, one per query: the
    #: ``-- Qn`` header tagged with rows/time/share, then (where
    #: operators were profiled) the plan tree with per-operator time%,
    #: rows, bounds and cumulative time.
    annotated: list[str] = field(default_factory=list)
    #: Staged-verifier verdict over the compiled bundle
    #: (a :class:`repro.analysis.VerifyReport`), or ``None``.
    verify: Any = None
    #: Row-bounds findings (``D500`` :class:`repro.analysis.Diagnostic`
    #: records: a measured row count outside its static bounds; only
    #: populated by ``conn.explain(q, analyze=True)``), or ``None``.
    lint: Any = None

    @property
    def avalanche_ok(self) -> bool:
        """Does the bundle size match the statically predicted size?
        (The paper's headline guarantee, checked on the live artifact.)"""
        return self.bundle_size == self.expected_bundle_size

    def to_dict(self) -> dict[str, Any]:
        """JSON-able view of the report."""
        return {
            "backend": self.backend,
            "result_type": self.result_type,
            "fingerprint": self.fingerprint,
            "cache_hit": self.cache_hit,
            "bundle_size": self.bundle_size,
            "list_constructors": self.list_constructors,
            "expected_bundle_size": self.expected_bundle_size,
            "avalanche_ok": self.avalanche_ok,
            "timings": dict(self.timings),
            "queries": [{
                "index": q.index,
                "iter": q.iter_col,
                "pos": q.pos_col,
                "items": list(q.item_cols),
                "item_types": list(q.item_types),
                "operators": dict(q.operators),
                "plan": q.plan,
                "artifact": q.artifact,
            } for q in self.queries],
            "analyze": None if self.analyze is None else {
                "backend": self.analyze.backend,
                "duration": self.analyze.duration,
                "rows": self.analyze.rows,
                "queries": [q.to_dict() for q in self.analyze.queries],
            },
            "verify": (self.verify.to_dict()
                       if self.verify is not None else None),
            "lint": ([d.to_dict() for d in self.lint]
                     if self.lint is not None else None),
        }

    def render(self, plans: bool = True, artifacts: bool = True) -> str:
        """Human-readable report (what ``print(conn.explain(q))`` shows)."""
        fp = self.fingerprint[:16] + "…" if self.fingerprint else "?"
        invariant = "OK" if self.avalanche_ok else "VIOLATED"
        lines = [
            f"== explain (backend={self.backend}) ==",
            f"result type   : {self.result_type}",
            f"fingerprint   : {fp}",
            f"plan cache    : {'hit' if self.cache_hit else 'miss'}",
            f"bundle size   : {self.bundle_size} "
            f"(result type has {self.list_constructors} [.] constructors; "
            f"expected {self.expected_bundle_size} -- "
            f"avalanche invariant {invariant})",
        ]
        if self.verify is not None:
            if self.verify.ok:
                lines.append(f"verifier      : ok "
                             f"({', '.join(self.verify.stages)})")
            else:
                lines.append(f"verifier      : "
                             f"{len(self.verify.diagnostics)} diagnostic(s)")
                lines.extend(f"  {d}" for d in self.verify.diagnostics)
        if self.lint is not None:
            verdict = (f"{len(self.lint)} finding(s)" if self.lint
                       else "clean")
            lines.append(f"bounds lint   : {verdict}")
            lines.extend(f"  {d}" for d in self.lint)
        for q in self.queries:
            lines.append(q.header)
            if plans:
                lines.append(q.plan)
            if artifacts and q.artifact is not None:
                lines.append(f"-- {self.backend} artifact for Q{q.index}")
                lines.append(q.artifact)
        if self.analyze is not None:
            lines.append(self.render_analyze())
        return "\n".join(lines)

    def render_analyze(self) -> str:
        """The EXPLAIN ANALYZE section: the run's totals, then the
        annotated plans."""
        a = self.analyze
        return "\n".join([f"== analyze (backend={a.backend}, "
                          f"total={a.duration * 1e3:.3f} ms, "
                          f"rows={a.rows}) ==", *self.annotated])

    def __str__(self) -> str:
        return self.render()


def inclusive_times(nodes: "list[Any]", times: "list[float]"
                    ) -> list[float]:
    """Per node of a plan's postorder ``nodes``, the summed ``times`` of
    its subplan, a node several paths reach counted once (the engine
    evaluates it once): one bottom-up pass.  Each node carries the set
    of postorder slots at and below it as the bits of an ``int``; a
    node's sum is its own time plus its children's, less the times of
    the slots two children share -- which only a DAG's joins have."""
    slot = {n: i for i, n in enumerate(nodes)}
    below: list[int] = []
    cums: list[float] = []
    for i, node in enumerate(nodes):
        bits, cum = 1 << i, times[i]
        for child in node.children:
            j = slot[child]
            shared = bits & below[j]
            cum += cums[j]
            while shared:  # subtract what is counted already
                low = shared & -shared
                cum -= times[low.bit_length() - 1]
                shared ^= low
            bits |= below[j]
        below.append(bits)
        cums.append(cum)
    return cums


def build_report(compiled: Any, backend: Any, artifacts: list[str | None],
                 table_rows: "Mapping[str, int] | None" = None,
                 record: "ExecutionRecord | None" = None,
                 properties: bool = False) -> ExplainReport:
    """The one EXPLAIN builder: an :class:`ExplainReport` for a
    ``CompiledQuery`` on ``backend``, with the backend's per-query
    ``artifacts``.

    One :class:`~repro.analysis.PlanStore` serves the whole report: the
    staged verifier, the row bounds (seeded with the ``table_rows``
    catalog statistics) and the property notes read the same inferred
    facts, so every plan node is analysed once.  ``record`` is the
    :class:`~repro.obs.ExecutionRecord` of an ``analyze=True`` run: one
    walk per query then prints each measured count beside its bounds
    and collects the ``D500`` findings.  ``properties=True`` appends to
    every node its :class:`~repro.analysis.Props` and its
    ``[rows lo..hi w=N]`` bounds, next to the ``@n`` refs.
    """
    from ..algebra import operator_histogram, plan_text, postorder
    from ..analysis import (
        Card,
        Diagnostic,
        PlanStore,
        RowBounds,
        verify_bundle,
    )
    from ..ftypes import count_list_constructors

    bundle = compiled.bundle
    store = PlanStore()
    verify = verify_bundle(bundle, label="explain", raise_on_error=False,
                           mark=False, cache=store)
    bounds = RowBounds(table_rows, store)
    lint = None
    annotated: list[str] = []
    if record is not None:
        lint = []
        total = (record.duration
                 or sum(q.time for q in record.queries) or 1.0)
    measured: dict[Any, str] = {}  # nodes an earlier analyze plan printed

    def measure(header: str, profile: QueryProfile, plan: Any,
                nodes: "list[Any]") -> str:
        """One query's EXPLAIN ANALYZE text -- ``header`` tagged with
        the measured rows, time and share, then (where operators were
        profiled) the plan with every operator's ``time% | in/out |
        bound= | w= | cum=`` -- and, into ``lint``, its findings."""
        qi = profile.index - 1

        def check(what: str, rows: int, bound: Any, **where: Any) -> None:
            if not bound.contains(rows):
                lint.append(Diagnostic(
                    "D500", "bounds", f"{what} measured {rows} rows, "
                    f"outside the static bounds {bound.show()}",
                    query=qi, **where))

        root = bounds.memo[plan]
        check("the query", profile.rows, root)
        peak = ("" if profile.peak_rows is None
                else f"peak_rows={profile.peak_rows} ")
        header = (f"{header}  [rows={profile.rows} bound={root.show()} "
                  f"{peak}time={profile.time * 1e3:.3f} ms "
                  f"({100.0 * profile.time / total:.1f}% of bundle)]")
        if not profile.ops:
            return header
        times = [0.0] * len(nodes)
        for op in profile.ops:
            times[op.ref] = op.time
        cums = inclusive_times(nodes, times)
        qtime = profile.time or sum(op.time for op in profile.ops) or 1.0
        annotations = {}
        for op in profile.ops:
            node = nodes[op.ref]
            bound = bounds.memo[node]
            check(op.op, op.rows_out, bound, node_ref=op.ref)
            cum = cums[op.ref]
            rows_in = "" if op.rows_in is None else f"in={op.rows_in} "
            annotations[op.ref] = (
                f"[{op.time * 1e3:.3f} ms {100.0 * op.time / qtime:.1f}% "
                f"| {rows_in}out={op.rows_out} "
                f"bound={bound.show()} w={op.width} "
                f"cum={cum * 1e3:.3f} ms]")
        his = [bounds.memo[n].hi for n in nodes]
        if None not in his:
            check("the peak intermediate", profile.peak_rows,
                  Card(0, max(his)))
        return "\n".join([header, plan_text(plan, annotations, measured,
                                            f"Q{profile.index}")])

    queries: list[QueryExplain] = []
    earlier: dict[Any, str] = {}  # nodes an earlier query printed
    for i, query in enumerate(bundle.queries):
        nodes = list(postorder(query.plan))
        bounds.of(query.plan)
        notes = None
        if properties:
            notes = {}
            for ref, node in enumerate(nodes):
                b = bounds.memo[node]
                notes[ref] = (f"{store.infer(node).show()} "
                              f"[rows {b.show()} w={b.width}]")
        explained = QueryExplain(
            index=i + 1,
            iter_col=query.iter_col,
            pos_col=query.pos_col,
            item_cols=query.item_cols,
            item_types=tuple(t.show() for t in query.item_types),
            plan=plan_text(query.plan, notes, earlier, f"Q{i + 1}"),
            operators=operator_histogram(query.plan),
            artifact=artifacts[i] if i < len(artifacts) else None,
            properties=properties,
        )
        queries.append(explained)
        if record is not None and i < len(record.queries):
            annotated.append(measure(
                explained.header, record.queries[i], query.plan, nodes))
    return ExplainReport(
        backend=backend.name,
        result_type=bundle.result_ty.show(),
        fingerprint=compiled.fingerprint,
        cache_hit=compiled.cache_hit,
        bundle_size=bundle.size,
        list_constructors=count_list_constructors(bundle.result_ty),
        expected_bundle_size=bundle.expected_size,
        queries=queries,
        timings=dict(compiled.timings),
        pass_stats=compiled.pass_stats,
        analyze=record,
        annotated=annotated,
        verify=verify,
        lint=lint,
    )
