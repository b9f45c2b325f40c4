"""The flight recorder: a bounded in-memory log of executions.

Every :class:`~repro.runtime.connection.Connection` owns a
:class:`QueryLog` that retains the N *most recent* and the N *slowest*
executions it has seen: the :class:`~repro.obs.record.ExecutionRecord`
itself -- fingerprint, duration, cache hit/miss, phases, per-query
rows and times, and (on a traced connection) the full span tree.

Memory is strictly bounded: the recent side is a ``deque(maxlen=N)``,
the slow side a size-N min-heap keyed on duration, so a long-running
service never grows the log past ``2N`` entries regardless of traffic.

:meth:`QueryLog.record` is also the connection's one running account:
it folds every record it is handed (``prepare`` records included, which
it does not retain) into :attr:`QueryLog.totals`.  ``recorded``,
``error_count`` and ``error_codes`` here, ``Connection.executions`` and
``queries_issued`` and the statement totals are fields of that fold.
All mutation happens under one lock; reads return snapshots.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import deque
from typing import Any

from .record import ExecutionRecord, Totals


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
        #: Every record ever handed in, folded (not bounded by the
        #: buffers).  Read-only outside :meth:`record`.
        self.totals = Totals()

    def record(self, entry: ExecutionRecord) -> None:
        """Fold ``entry`` into :attr:`totals`; retain it if it executed."""
        with self._lock:
            self.totals.add(entry)
            if not entry.executed:
                return
            self._recent.append(entry)
            item = (entry.duration, next(self._seq), entry)
            if len(self._slow_heap) < self._slow_bound:
                heapq.heappush(self._slow_heap, item)
            elif item[0] > self._slow_heap[0][0]:
                heapq.heapreplace(self._slow_heap, item)

    @property
    def recorded(self) -> int:
        """Executions ever recorded, completed or failed."""
        return self.totals.attempts

    @property
    def error_count(self) -> int:
        """Executions that raised."""
        return self.totals.errors

    @property
    def error_codes(self) -> dict[str, int]:
        """Failed executions per stable diagnostic code (cumulative)."""
        with self._lock:
            return dict(self.totals.error_codes)

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

    def totals_snapshot(self) -> dict[str, Any]:
        """JSON-able copy of :attr:`totals`, taken under the lock."""
        with self._lock:
            return self.totals.snapshot()

    def clear(self) -> None:
        """Drop every retained entry (the totals are kept)."""
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
                "recorded": self.totals.attempts,
                "errors": self.totals.errors,
                "error_codes": dict(self.totals.error_codes),
                "recent": recent,
                "slowest": slowest,
            }

