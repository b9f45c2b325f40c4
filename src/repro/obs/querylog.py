"""The flight recorder: a bounded in-memory log of executions.

Every :class:`~repro.runtime.connection.Connection` owns a
:class:`QueryLog` that retains the N *most recent* and the N *slowest*
executions it has seen: the :class:`~repro.obs.record.ExecutionRecord`
itself -- fingerprint, duration, cache hit/miss, phases, per-query
rows and times, and (on a traced connection) the full span tree.

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
        #: Executions that raised.
        self.error_count = 0
        #: Failed executions per stable diagnostic code (cumulative,
        #: unbounded in *count* but keyed on the small fixed code set).
        self.error_codes: dict[str, int] = {}

    def record(self, entry: ExecutionRecord) -> None:
        with self._lock:
            self.recorded += 1
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

        A statement's ``worst_trace_id`` names a trace id, and this
        lookup resolves it to the flight-recorder entry (span tree,
        per-query profiles, fingerprint) -- as long as the entry is
        still inside one of the two bounded views."""
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
                "errors": self.error_count,
                "error_codes": dict(self.error_codes),
                "recent": recent,
                "slowest": slowest,
            }

