"""The execution record: one account of one ``Connection`` call.

``Connection`` builds exactly one frozen :class:`ExecutionRecord` per
``run`` / ``PreparedQuery.execute`` / ``explain(analyze=True)`` (and one
of kind ``"prepare"`` per compile-only call) in a single finish step and
publishes it.  Everything else in :mod:`repro.obs` is a view of it: the
flight recorder stores the record itself and :class:`StatementStats`
folds it into its fingerprint's aggregate -- so the views agree by
construction.

The unit of the record is the bundle query, whose count loop-lifting
fixes from the result type alone: a record is small and bounded whatever
the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    #: The error's stable diagnostic code (``F101``, ``F302``, ...) when
    #: the exception carried one.
    error_code: "str | None" = None
    #: Id correlating this record with its span tree (``None``
    #: untraced).
    trace_id: "str | None" = None
    #: The span tree, when the connection traces.
    trace: "Trace | None" = field(default=None, repr=False)

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
            "traced": self.trace is not None,
        }

