"""Trace spans: a lightweight per-execution tree of timed pipeline steps.

Every ``Connection.run`` / ``PreparedQuery.execute`` records a span tree

    run
    ├─ check
    ├─ cache-lookup
    ├─ lift
    ├─ optimize
    │   ├─ cse / constfold / icols / projmerge   (per rewrite-pass call)
    ├─ codegen            (per backend, attrs: backend, cached)
    ├─ execute            (one per bundle query, attrs: query, rows)
    └─ stitch

retrievable afterwards via ``conn.last_trace``.  Spans carry wall-clock
time plus free-form attributes, so the avalanche claim — a fixed number
of ``execute`` spans regardless of data size — is directly visible in
any trace.

Overhead is kept near zero: spans are ``__slots__`` objects, entering
one costs two clock reads, and a :data:`NULL_TRACER` singleton turns the
whole machinery into no-ops when tracing is disabled.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Any, Iterator


class Span:
    """One timed step; a node of the trace tree."""

    __slots__ = ("name", "attrs", "start", "duration", "children")

    def __init__(self, name: str, attrs: dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self.children: list[Span] = []
        self.start = time.perf_counter()
        self.duration = 0.0

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes on the live span."""
        self.attrs.update(attrs)

    def _finish(self) -> None:
        wall = time.perf_counter() - self.start
        # Children are strictly nested and sequential (stack discipline),
        # so their total can only exceed the parent's own reading through
        # clock granularity.  Clamp the parent up to the children's sum so
        # the containment invariant holds exactly, bottom-up.
        if self.children:
            wall = max(wall, math.fsum(c.duration for c in self.children))
        self.duration = wall

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, {self.duration * 1e3:.3f}ms, "
                f"attrs={self.attrs}, children={len(self.children)})")


class _SpanHandle:
    """Context manager that closes a span and pops the tracer stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc) -> None:
        self._span._finish()
        self._tracer._stack.pop()


class Trace:
    """A finished span tree (the result of one traced execution)."""

    __slots__ = ("root", "started_at", "trace_id")

    def __init__(self, root: Span, started_at: float,
                 trace_id: "str | None" = None):
        self.root = root
        #: Wall-clock (epoch seconds) when the root span opened.
        self.started_at = started_at
        #: Process-unique id correlating this execution end-to-end: the
        #: same id appears on the flight recorder entry and a statement's
        #: ``worst_trace_id``.
        self.trace_id = trace_id

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


class Tracer:
    """Builds one :class:`Trace`: a stack of open spans.

    Every tracer owns a stable :attr:`trace_id` from birth, so code that
    runs *during* the execution (backends, the execution record) can
    reference the id the finished trace will carry."""

    __slots__ = ("root", "trace_id", "_stack", "_started_at")

    def __init__(self, name: str, **attrs: Any):
        self._started_at = time.time()
        self.trace_id = new_trace_id()
        self.root = Span(name, attrs)
        self._stack = [self.root]

    def span(self, name: str, **attrs: Any) -> _SpanHandle:
        """Open a child span of the innermost open span."""
        span = Span(name, attrs)
        self._stack[-1].children.append(span)
        self._stack.append(span)
        return _SpanHandle(self, span)

    def finish(self) -> Trace:
        """Close the root span and return the finished trace."""
        self.root._finish()
        return Trace(self.root, self._started_at, self.trace_id)


class _NullSpan:
    """Absorbs attribute writes when tracing is off."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def _finish(self) -> None:
        pass


NULL_SPAN = _NullSpan()


class NullTracer:
    """A tracer whose every operation is a no-op (tracing disabled)."""

    __slots__ = ()

    #: Attribute writes on the (absent) root are absorbed too.
    root = NULL_SPAN
    #: No execution id when tracing is off (callers read this uniformly).
    trace_id = None

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def finish(self) -> None:
        return None
#: Shared do-nothing tracer; the default for every ``tracer=`` parameter.
NULL_TRACER = NullTracer()


class phase:
    """One timed pipeline phase, measured once: ``with phase(tracer,
    into, key)`` opens the span ``span_name`` (default: ``key``) and, on
    exit, stores the phase's seconds in ``into[key]``.  Traced, that
    number *is* the span's duration; untraced, one clock pair stands in
    for the absent span -- so a phase's timing entry, its span and its
    histogram observation can never disagree."""

    __slots__ = ("_handle", "_into", "_key", "_t0")

    def __init__(self, tracer: "Tracer | NullTracer", into: Any, key: Any,
                 span_name: "str | None" = None, **attrs: Any):
        self._handle = tracer.span(span_name or key, **attrs)
        self._into = into
        self._key = key

    def __enter__(self) -> "Span | _NullSpan":
        if self._handle is NULL_SPAN:
            self._t0 = time.perf_counter()
            return NULL_SPAN
        return self._handle.__enter__()

    def __exit__(self, *exc) -> None:
        handle = self._handle
        if handle is NULL_SPAN:
            self._into[self._key] = time.perf_counter() - self._t0
        else:
            handle.__exit__(*exc)
            self._into[self._key] = handle._span.duration
