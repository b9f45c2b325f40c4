"""The span tree: a read-only view of one :class:`~repro.obs.ExecutionRecord`.

Avalanche safety fixes the shape of an execution from the static type --
the pipeline's phases and one query per ``[.]`` constructor -- and the
record already holds exactly those numbers.  A :class:`Trace` renders
them as the tree

    run
    ├─ check
    ├─ cache-lookup   (attrs: hit)
    ├─ lift
    ├─ optimize
    ├─ codegen        (attrs: backend, cached)
    ├─ execute        (one per bundle query; attrs: query, backend, rows)
    └─ stitch         (attrs: rows)

(``check`` to ``codegen`` only when this call compiled the plan) with
the record's own numbers: every span's duration *is* the record field
it shows.  Nothing is measured twice and nothing is allocated while the
call runs; the view is built on first access (``rec.trace``,
``conn.last_trace``) and cached on the record.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:
    from .record import ExecutionRecord


class Span:
    """One step of the view; a node of the trace tree."""

    __slots__ = ("name", "attrs", "duration", "children")

    def __init__(self, name: str, duration: float,
                 children: "list[Span] | None" = None, **attrs: Any):
        self.name = name
        self.attrs = attrs
        self.duration = duration
        self.children = children or []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, {self.duration * 1e3:.3f}ms, "
                f"attrs={self.attrs}, children={len(self.children)})")


def _spans(rec: "ExecutionRecord") -> "list[Span]":
    """The root's children: the phases that ran, from the record."""
    phases = rec.phases
    spans = []
    if "check" in phases:  # the plan was compiled in this call
        spans += [Span("check", phases["check"]),
                  Span("cache-lookup", phases["lookup"], hit=rec.cache_hit)]
        spans += [Span(name, phases[name]) for name in ("lift", "optimize")
                  if name in phases]
        # A plan-cache entry that already holds this backend's code
        # hands it over without generating: no codegen time.
        spans.append(Span("codegen", phases.get("codegen", 0.0),
                          backend=rec.backend,
                          cached="codegen" not in phases))
    spans += [Span("execute", q.time, query=q.index, backend=rec.backend,
                   rows=q.rows) for q in rec.queries]
    if "stitch" in phases:
        spans.append(Span("stitch", phases["stitch"], rows=rec.rows))
    return spans


class Trace:
    """The span tree of one finished execution (see the module
    docstring)."""

    __slots__ = ("root", "started_at", "trace_id")

    def __init__(self, rec: "ExecutionRecord"):
        attrs: dict[str, Any] = {"backend": rec.backend}
        if rec.fingerprint is not None:  # the call got its plan
            attrs["fingerprint"] = rec.fingerprint
            if "check" in rec.phases:
                attrs["cache_hit"] = rec.cache_hit
            attrs["bundle_size"] = rec.bundle_size
        self.root = Span(rec.kind, rec.duration, _spans(rec), **attrs)
        #: Wall-clock (epoch seconds) when the execution started.
        self.started_at = rec.started_at
        #: Process-unique id correlating this execution end-to-end: the
        #: same id appears on the flight recorder entry and a statement's
        #: ``worst_trace_id``.
        self.trace_id = rec.trace_id

    @property
    def duration(self) -> float:
        return self.root.duration

    def iter_spans(self) -> Iterator[tuple[Span, "Span | None"]]:
        """Yield ``(span, parent)`` pairs in depth-first order."""
        def walk(span: Span, parent: "Span | None"):
            yield span, parent
            for child in span.children:
                yield from walk(child, span)
        yield from walk(self.root, None)

    def find(self, name: str) -> "Span | None":
        """The first span called ``name`` (depth-first), or ``None``."""
        for span, _ in self.iter_spans():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> list[Span]:
        """Every span called ``name``, in depth-first order."""
        return [s for s, _ in self.iter_spans() if s.name == name]

    def render(self) -> str:
        """Human-readable indented tree with millisecond timings."""
        lines: list[str] = []

        def go(span: Span, depth: int) -> None:
            attrs = "".join(f" {k}={v!r}" for k, v in span.attrs.items())
            lines.append(f"{'  ' * depth}{span.name}  "
                         f"[{span.duration * 1e3:.3f} ms]{attrs}")
            for child in span.children:
                go(child, depth + 1)

        go(self.root, 0)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


_TRACE_IDS = itertools.count(1)


def new_trace_id() -> str:
    """A process-unique trace id (stable, monotone, cheap)."""
    return f"{next(_TRACE_IDS):08x}"
