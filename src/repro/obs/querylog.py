"""The flight recorder: a bounded in-memory log of executions.

Every :class:`~repro.runtime.connection.Connection` owns a
:class:`QueryLog` that retains the N *most recent* and the N *slowest*
executions it has seen: the :class:`~repro.obs.record.ExecutionRecord`
itself -- fingerprint, duration, cache hit/miss, phases, per-query
profiles, and (when retained by the sampling policy) the full span
tree.  Executions slower than the connection's ``slow_query_threshold``
are flagged ``slow`` and carry an annotated
:class:`~repro.obs.analyze.AnalyzeReport`, so a production incident
leaves behind *profiles*, not just a latency number.

Memory is strictly bounded: the recent side is a ``deque(maxlen=N)``,
the slow side a size-N min-heap keyed on duration, so a long-running
service never grows the log past ``2N`` entries regardless of traffic.
All mutation happens under one lock; reads return snapshots.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import deque
from typing import Any

from .record import ExecutionRecord


class QueryLog:
    """Bounded dual-view execution log (N most recent + N slowest)."""

    def __init__(self, recent: int = 32, slowest: int = 32):
        if recent < 1 or slowest < 1:
            raise ValueError("query log bounds must be >= 1, "
                             f"got recent={recent}, slowest={slowest}")
        self._lock = threading.Lock()
        self._recent: deque[ExecutionRecord] = deque(maxlen=recent)
        self._slow_bound = slowest
        #: min-heap of ``(duration, seq, entry)``; the root is the
        #: fastest of the retained slowest, evicted first.
        self._slow_heap: list[tuple[float, int, ExecutionRecord]] = []
        self._seq = itertools.count()
        #: Total executions ever recorded (not bounded by the buffers).
        self.recorded = 0
        #: Executions that tripped the slow-query threshold.
        self.slow_count = 0
        #: Executions that raised.
        self.error_count = 0
        #: Failed executions per stable diagnostic code (cumulative,
        #: unbounded in *count* but keyed on the small fixed code set).
        self.error_codes: dict[str, int] = {}

    def record(self, entry: ExecutionRecord) -> None:
        with self._lock:
            self.recorded += 1
            if entry.slow:
                self.slow_count += 1
            if entry.error is not None:
                self.error_count += 1
                if entry.error_code is not None:
                    self.error_codes[entry.error_code] = \
                        self.error_codes.get(entry.error_code, 0) + 1
            self._recent.append(entry)
            item = (entry.duration, next(self._seq), entry)
            if len(self._slow_heap) < self._slow_bound:
                heapq.heappush(self._slow_heap, item)
            elif item[0] > self._slow_heap[0][0]:
                heapq.heapreplace(self._slow_heap, item)

    @property
    def recent(self) -> list[ExecutionRecord]:
        """Retained executions, most recent first."""
        with self._lock:
            return list(reversed(self._recent))

    @property
    def slowest(self) -> list[ExecutionRecord]:
        """Retained executions, slowest first."""
        with self._lock:
            items = sorted(self._slow_heap,
                           key=lambda t: (-t[0], -t[1]))
        return [entry for _, _, entry in items]

    def find_trace(self, trace_id: str) -> "ExecutionRecord | None":
        """The retained entry recorded under ``trace_id``, or ``None``.

        This is the exemplar back-link: an OpenMetrics exemplar names a
        trace id, and this lookup resolves it to the flight-recorder
        entry (span tree, profile, fingerprint) -- as long as the entry
        is still inside one of the two bounded views."""
        with self._lock:
            for entry in reversed(self._recent):
                if entry.trace_id == trace_id:
                    return entry
            for _, _, entry in self._slow_heap:
                if entry.trace_id == trace_id:
                    return entry
        return None

    def clear(self) -> None:
        """Drop every retained entry (cumulative counts are kept)."""
        with self._lock:
            self._recent.clear()
            self._slow_heap.clear()

    def snapshot(self) -> dict[str, Any]:
        """JSON-able summary: counts plus both retained views."""
        with self._lock:
            recent = [e.summary() for e in reversed(self._recent)]
            slowest = [entry.summary() for _, _, entry in
                       sorted(self._slow_heap,
                              key=lambda t: (-t[0], -t[1]))]
            return {
                "recorded": self.recorded,
                "slow": self.slow_count,
                "errors": self.error_count,
                "error_codes": dict(self.error_codes),
                "recent": recent,
                "slowest": slowest,
            }


# ----------------------------------------------------------------------
# trace sampling policies
# ----------------------------------------------------------------------

class SamplingPolicy:
    """Decides which executions get span trees recorded and retained.

    ``sample()`` is the *head* decision, taken before the run: ``False``
    routes the whole execution through ``NULL_TRACER`` (zero recording
    cost).  ``keep(slow)`` is the *tail* decision, taken after the run
    with the slow-query verdict in hand: ``False`` drops the finished
    trace instead of exposing it via ``last_trace``/sinks.
    """

    name = "abstract"

    def sample(self) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def keep(self, slow: bool) -> bool:
        return True

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class AlwaysSample(SamplingPolicy):
    """Trace and retain every execution (the default)."""

    name = "always"

    def sample(self) -> bool:
        return True


class RatioSample(SamplingPolicy):
    """Trace roughly ``rate`` of executions (head sampling).

    Deterministic low-discrepancy skipping (a running accumulator rather
    than a PRNG): exactly ``ceil(rate * n)`` of any ``n`` consecutive
    executions are traced, so tests and rate math stay exact.
    """

    name = "ratio"

    def __init__(self, rate: float):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sampling ratio must be in [0, 1], got {rate}")
        self.rate = rate
        self._acc = 0.0
        self._lock = threading.Lock()

    def sample(self) -> bool:
        with self._lock:
            self._acc += self.rate
            if self._acc >= 1.0 - 1e-12:
                self._acc -= 1.0
                return True
            return False

    def __repr__(self) -> str:
        return f"RatioSample({self.rate})"


class SlowOnlySample(SamplingPolicy):
    """Record spans for every execution but *retain* only slow ones.

    Tail-based sampling: whether an execution is slow is only known
    after it finishes, so spans are recorded (cheap, sink-free) and the
    finished trace is kept -- exposed via ``last_trace``, emitted to
    sinks, attached to the query log -- only when the slow-query
    threshold tripped.
    """

    name = "slow-only"

    def sample(self) -> bool:
        return True

    def keep(self, slow: bool) -> bool:
        return slow


def resolve_sampling(policy: "str | float | SamplingPolicy"
                     ) -> SamplingPolicy:
    """Coerce a user-facing spec (``"always"``, ``"slow-only"``, a float
    ratio, or a policy instance) into a :class:`SamplingPolicy`."""
    if isinstance(policy, SamplingPolicy):
        return policy
    if isinstance(policy, (int, float)) and not isinstance(policy, bool):
        return RatioSample(float(policy))
    if policy == "always":
        return AlwaysSample()
    if policy == "slow-only":
        return SlowOnlySample()
    raise ValueError(f"unknown sampling policy {policy!r}; expected "
                     f"'always', 'slow-only', a ratio in [0, 1], or a "
                     f"SamplingPolicy instance")
