"""The execution record: one account of one ``Connection`` call.

``Connection`` builds exactly one frozen :class:`ExecutionRecord` per
``run`` / ``PreparedQuery.execute`` / ``explain(analyze=True)`` (and one
of kind ``"prepare"`` per compile-only call) in a single finish step and
publishes it.  Everything else in :mod:`repro.obs` is a view of it: the
flight recorder stores the record itself, :class:`StatementStats` folds
it into its fingerprint's aggregate and :attr:`ExecutionRecord.trace`
renders it as a span tree -- so the views agree by construction.
The flight recorder also keeps the connection's one running account, a
:class:`Totals` fold of every record it is handed; the connection's
counters and the statement totals read that fold.

The unit of the record is the bundle query, whose count loop-lifting
fixes from the result type alone: a record is small and bounded whatever
the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping, Sequence

from .analyze import QueryProfile
from .trace import Trace

#: Phases that belong to executing, not compiling.
_EXECUTION_PHASES = ("execute", "stitch")


@dataclass(frozen=True)
class ExecutionRecord:
    """What one ``Connection`` call did."""

    #: ``"run"``, ``"execute-prepared"``, ``"explain-analyze"``, or
    #: ``"prepare"`` (compile only: counts no call).
    kind: str
    backend: str
    #: Epoch seconds when the call started.
    started_at: float
    #: End-to-end wall-clock seconds (compile + execute + stitch).
    duration: float
    #: Structural fingerprint of the program (``None`` if the call
    #: failed before fingerprinting).
    fingerprint: "str | None" = None
    #: Was the plan served without compiling -- by the plan cache, or by
    #: a prepared handle?
    cache_hit: bool = False
    bundle_size: int = 0
    #: Wall-clock seconds per pipeline phase that ran in this call:
    #: ``check`` / ``lookup`` / ``lift`` / ``optimize`` / ``codegen`` /
    #: ``execute`` / ``stitch``.
    phases: Mapping[str, float] = field(default_factory=dict)
    #: One profile per bundle query (rows, seconds, and -- for
    #: ``explain-analyze`` -- operator/step profiles).
    queries: Sequence[QueryProfile] = ()
    #: Result rows handed to the stitcher, or ``None`` when the call
    #: failed before the bundle finished executing.
    rows: "int | None" = None
    #: Relational queries issued (the Table 1 avalanche metric).
    queries_issued: int = 0
    #: ``repr`` of the raised exception, for failed calls.
    error: "str | None" = None
    #: The error's stable diagnostic code (``F101``, ``F201``, ...) when
    #: the exception carried one.
    error_code: "str | None" = None
    #: Id correlating this record with its span tree (``None``
    #: untraced).
    trace_id: "str | None" = None

    @cached_property
    def trace(self) -> "Trace | None":
        """The span tree of this call, a view built on first access
        (``None`` untraced)."""
        return None if self.trace_id is None else Trace(self)

    @property
    def executed(self) -> bool:
        """Did this call execute a bundle (everything but ``prepare``)?"""
        return self.kind != "prepare"

    @property
    def compile_time(self) -> float:
        return sum(seconds for name, seconds in self.phases.items()
                   if name not in _EXECUTION_PHASES)

    @property
    def execute_time(self) -> float:
        return self.phases.get("execute", 0.0)

    @property
    def peak_intermediate_rows(self) -> "int | None":
        """Largest operator/step output of any bundle query, or ``None``
        when no query carries per-op profiles."""
        return max((q.peak_rows for q in self.queries
                    if q.peak_rows is not None), default=None)

    def summary(self) -> dict[str, Any]:
        """JSON-able digest (the span tree reduced to a flag)."""
        return {
            "fingerprint": self.fingerprint,
            "backend": self.backend,
            "kind": self.kind,
            "started_at": self.started_at,
            "duration": self.duration,
            "cache_hit": self.cache_hit,
            "bundle_size": self.bundle_size,
            "rows": self.rows,
            "error": self.error,
            "code": self.error_code,
            "trace_id": self.trace_id,
            "traced": self.trace_id is not None,
        }


class Totals:
    """The additive fold of execution records: the one running account
    of a workload.  A ``prepare`` record adds its compile time and cache
    hit; an executed one also counts a call (or an error, by code), its
    rows, its queries and its execute and total seconds.  Sums only:
    folding a record costs a few additions."""

    __slots__ = ("calls", "errors", "error_codes", "cache_hits", "rows",
                 "queries", "compile_time", "execute_time", "total_time")

    def __init__(self) -> None:
        self.calls = 0
        self.errors = 0
        #: Errors per stable diagnostic code (``F101``, ``F201``, ...).
        self.error_codes: dict[str, int] = {}
        self.cache_hits = 0
        self.rows = 0
        #: Relational queries issued (the Table 1 avalanche metric).
        self.queries = 0
        self.compile_time = 0.0
        self.execute_time = 0.0
        self.total_time = 0.0

    def add(self, rec: ExecutionRecord) -> None:
        self.compile_time += rec.compile_time
        if rec.cache_hit:
            self.cache_hits += 1
        if not rec.executed:
            return  # a prepare: compile cost and cache traffic, no call
        if rec.error is not None:
            self.errors += 1
            if rec.error_code:
                self.error_codes[rec.error_code] = \
                    self.error_codes.get(rec.error_code, 0) + 1
        else:
            self.calls += 1
        if rec.rows:
            self.rows += rec.rows
        self.queries += rec.queries_issued
        self.execute_time += rec.execute_time
        self.total_time += rec.duration

    @property
    def attempts(self) -> int:
        """Executed calls, completed or failed."""
        return self.calls + self.errors

    def snapshot(self) -> dict[str, Any]:
        return {"calls": self.calls, "errors": self.errors,
                "error_codes": dict(self.error_codes),
                "cache_hits": self.cache_hits, "rows": self.rows,
                "queries": self.queries,
                "compile_time": self.compile_time,
                "execute_time": self.execute_time,
                "total_time": self.total_time}
