"""Per-statement workload statistics: a ``pg_stat_statements`` for FERRY.

FERRY's operational unit is the *compiled query fingerprint*: whole
program fragments become a bounded bundle of queries (the avalanche
guarantee), and the plan cache already content-addresses every program.
:class:`StatementStats` aggregates execution telemetry on exactly that
key, so a long-running service can answer "which statement is hot, slow,
erroring, or regressing?" without retaining per-run records:

* **calls / errors / cache hits / rows / queries issued** -- exact,
  monotone counts per fingerprint;
* **compile vs. execute time** -- per-phase second totals, so a
  cache-miss storm and a data regression look different;
* **latency** -- min / max / mean plus a bounded reservoir of recent
  durations for p50/p95/p99;
* **error codes** -- counts per stable ``F`` diagnostic code;
* **worst call** -- the ``trace_id`` of the slowest call, one hop
  (``QueryLog.find_trace``) from the flight recorder's span tree.

Memory is strictly bounded: at most ``capacity`` fingerprints are
tracked (LRU on last call); an evicted fingerprint is dropped and
counted in ``evicted_statements``.  The workload totals are not summed
here: they are the connection's one running account, the flight
recorder's :class:`~repro.obs.record.Totals` fold, which evicts nothing.

All mutation happens under one lock; reads return plain-dict snapshots.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from typing import Any

from .record import ExecutionRecord, Totals

#: Fingerprint bucket for executions that failed before fingerprinting.
UNFINGERPRINTED = "<unfingerprinted>"


def _quantile(sorted_values: "list[float]", q: float) -> "float | None":
    """Nearest-rank quantile of an already-sorted sample (None if empty)."""
    if not sorted_values:
        return None
    idx = round(q * (len(sorted_values) - 1))
    return sorted_values[idx]


class StatementEntry(Totals):
    """Aggregate telemetry for one fingerprint (internal; snapshot to
    read): the additive :class:`Totals` fold of its records plus its
    latency extremes, reservoir and worst call."""

    __slots__ = ("fingerprint", "min_time", "max_time", "durations",
                 "first_seen", "last_seen", "worst_trace_id")

    def __init__(self, fingerprint: str, reservoir: int):
        super().__init__()
        self.fingerprint = fingerprint
        self.min_time = float("inf")
        self.max_time = 0.0
        #: Recent durations (bounded) backing the p50/p95/p99 estimates.
        self.durations: deque[float] = deque(maxlen=reservoir)
        self.first_seen = 0.0
        self.last_seen = 0.0
        #: ``trace_id`` of the slowest call seen.
        self.worst_trace_id: "str | None" = None

    def record(self, rec: ExecutionRecord) -> None:
        self.add(rec)
        if not rec.executed:
            return
        duration = rec.duration
        if duration < self.min_time:
            self.min_time = duration
        if duration >= self.max_time:
            self.max_time = duration
            if rec.trace_id is not None:
                self.worst_trace_id = rec.trace_id
        self.durations.append(duration)
        if not self.first_seen:
            self.first_seen = rec.started_at
        self.last_seen = rec.started_at

    def snapshot(self) -> dict[str, Any]:
        sample = sorted(self.durations)
        attempts = self.attempts
        return {
            "fingerprint": self.fingerprint,
            **super().snapshot(),
            "mean_time": self.total_time / attempts if attempts else 0.0,
            "min_time": self.min_time if attempts else None,
            "max_time": self.max_time if attempts else None,
            "p50": _quantile(sample, 0.50),
            "p95": _quantile(sample, 0.95),
            "p99": _quantile(sample, 0.99),
            "first_seen": self.first_seen,
            "last_seen": self.last_seen,
            "worst_trace_id": self.worst_trace_id,
        }


class StatementStats:
    """Thread-safe, bounded per-fingerprint aggregator.

    ``capacity`` bounds the number of *tracked* fingerprints: when a new
    one would exceed it, the least-recently-called entry is dropped and
    counted in :attr:`evicted_statements`.  ``reservoir`` bounds the
    per-entry duration sample backing the quantile estimates (the sums
    are never sampled).
    """

    def __init__(self, capacity: int = 512, reservoir: int = 128):
        if capacity < 1:
            raise ValueError(f"stats capacity must be >= 1, got {capacity}")
        if reservoir < 1:
            raise ValueError(f"stats reservoir must be >= 1, "
                             f"got {reservoir}")
        self.capacity = capacity
        self.reservoir = reservoir
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, StatementEntry]" = OrderedDict()
        #: Fingerprints dropped to keep within ``capacity``.
        self.evicted_statements = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    def record(self, rec: ExecutionRecord) -> None:
        """Fold one execution record into its fingerprint's aggregate (a
        record of kind ``prepare`` adds its compile time and cache
        traffic without counting a call)."""
        key = (rec.fingerprint if rec.fingerprint is not None
               else UNFINGERPRINTED)
        with self._lock:
            self._touch(key).record(rec)

    def _touch(self, key: str) -> StatementEntry:
        """Get-or-create ``key``'s entry, maintaining LRU order and the
        capacity bound.  Callers hold the lock."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry
        entry = StatementEntry(key, self.reservoir)
        self._entries[key] = entry
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evicted_statements += 1
        return entry

    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> "dict[str, Any] | None":
        """Snapshot of one fingerprint's aggregate (``None`` if not
        tracked, or evicted)."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            return entry.snapshot() if entry is not None else None

    def snapshot(self) -> dict[str, Any]:
        """JSON-able view: per-statement aggregates, busiest first by
        total time."""
        with self._lock:
            entries = [entry.snapshot()
                       for entry in self._entries.values()]
            evicted_statements = self.evicted_statements
        entries.sort(key=lambda e: -e["total_time"])
        return {
            "capacity": self.capacity,
            "tracked": len(entries),
            "evicted_statements": evicted_statements,
            "statements": entries,
        }

    def reset(self) -> None:
        """Drop every per-statement aggregate (capacity/reservoir are
        kept; the workload totals live in the flight recorder)."""
        with self._lock:
            self._entries.clear()
            self.evicted_statements = 0
