"""Structured EXPLAIN: what a compiled bundle is, and why it is safe.

:meth:`Connection.explain` produces an :class:`ExplainReport` instead of
opaque text: the program's fingerprint and plan-cache status, the bundle
size checked *at run time* against the number of ``[·]`` constructors in
the static result type (the paper's Section 3.2 avalanche invariant),
the pretty-printed algebra DAG of every bundle member, and the backend's
generated artifact (SQL text or engine schedule).  The
report is JSON-able via :meth:`ExplainReport.to_dict` and renders to the
familiar ``-- Q1 ...`` text via ``str()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


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
    #: Execution-time profile (``conn.explain(q, analyze=True)`` only):
    #: an :class:`~repro.obs.analyze.AnalyzeReport` with per-operator
    #: stats on the engine backend, per-query and per-step stats on SQL.
    analyze: Any = None
    #: Staged-verifier verdict over the compiled bundle
    #: (a :class:`repro.analysis.VerifyReport`), or ``None``.
    verify: Any = None
    #: Row-bounds lint findings (``D500``
    #: :class:`repro.analysis.Diagnostic` records: a measured row count
    #: outside its static bounds; only populated by
    #: ``conn.explain(q, analyze=True)``), or ``None``.
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
            "analyze": (self.analyze.to_dict()
                        if self.analyze is not None else None),
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
            lines.append(self.analyze.render())
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def build_report(compiled: Any, backend: Any, artifacts: list[str | None],
                 analyze: Any = None, properties: bool = False,
                 verify: Any = None,
                 table_rows: "dict[str, int] | None" = None,
                 lint: Any = None) -> ExplainReport:
    """Assemble an :class:`ExplainReport` from a ``CompiledQuery``, its
    backend, the backend's per-query artifact renderings, and (for
    ``analyze=True`` explains) the execution profile.

    ``properties=True`` renders each plan with per-node property *and*
    row-bounds annotations (``repro.analysis.annotate_plan`` +
    ``repro.analysis.annotate_bounds``, the latter seeded with the
    ``table_rows`` catalog statistics) next to the ``@n`` refs;
    ``verify`` attaches the staged verifier's report, ``lint`` the
    row-bounds lint's findings.
    """
    from ..algebra import operator_histogram, plan_text
    from ..ftypes import count_list_constructors

    bundle = compiled.bundle
    queries = []
    earlier: dict[int, str] = {}  # nodes an earlier query printed
    if properties:
        from ..analysis import (
            PlanStore,
            RowBounds,
            annotate_bounds,
            annotate_plan,
        )
        store = PlanStore()  # annotate_plan and the bounds share a walk
        bounds = RowBounds(table_rows, store)
    for i, query in enumerate(bundle.queries):
        artifact = artifacts[i] if i < len(artifacts) else None
        annotations = None
        if properties:
            annotations = annotate_plan(query.plan, store.props,
                                        store.schemas)
            for ref, note in annotate_bounds(query.plan, bounds).items():
                annotations[ref] = f"{annotations[ref]} {note}"
        queries.append(QueryExplain(
            index=i + 1,
            iter_col=query.iter_col,
            pos_col=query.pos_col,
            item_cols=query.item_cols,
            item_types=tuple(t.show() for t in query.item_types),
            plan=plan_text(query.plan, annotations, earlier, f"Q{i + 1}"),
            operators=operator_histogram(query.plan),
            artifact=artifact,
            properties=properties,
        ))
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
        analyze=analyze,
        verify=verify,
        lint=lint,
    )
