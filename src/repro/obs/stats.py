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
tracked (LRU on last call), and evicted entries *fold into an overflow
bucket* instead of vanishing -- the totals across ``statements`` plus
``evicted`` reconcile exactly with the connection's own counters
(``executions``, ``queries_issued``) no matter how hostile the
workload's fingerprint cardinality is.

All mutation happens under one lock; reads return plain-dict snapshots.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from typing import Any

from .record import ExecutionRecord

#: Fingerprint bucket for executions that failed before fingerprinting.
UNFINGERPRINTED = "<unfingerprinted>"
#: Synthetic fingerprint naming the eviction overflow bucket.
EVICTED = "<evicted>"


def _quantile(sorted_values: "list[float]", q: float) -> "float | None":
    """Nearest-rank quantile of an already-sorted sample (None if empty)."""
    if not sorted_values:
        return None
    idx = round(q * (len(sorted_values) - 1))
    return sorted_values[idx]


class StatementEntry:
    """Aggregate telemetry for one fingerprint (internal; snapshot to
    read)."""

    __slots__ = (
        "fingerprint", "calls", "errors", "cache_hits", "rows", "queries",
        "compile_time", "execute_time", "total_time", "min_time",
        "max_time", "error_codes", "durations",
        "first_seen", "last_seen", "worst_trace_id", "folded",
    )

    def __init__(self, fingerprint: str, reservoir: int):
        self.fingerprint = fingerprint
        self.calls = 0
        self.errors = 0
        self.cache_hits = 0
        self.rows = 0
        self.queries = 0
        self.compile_time = 0.0
        self.execute_time = 0.0
        self.total_time = 0.0
        self.min_time = float("inf")
        self.max_time = 0.0
        #: Errors per stable diagnostic code (``F101``, ``F302``, ...).
        self.error_codes: dict[str, int] = {}
        #: Recent durations (bounded) backing the p50/p95/p99 estimates.
        self.durations: deque[float] = deque(maxlen=reservoir)
        self.first_seen = 0.0
        self.last_seen = 0.0
        #: ``trace_id`` of the slowest call seen.
        self.worst_trace_id: "str | None" = None
        #: Distinct fingerprints folded into this entry (overflow bucket).
        self.folded = 0

    # ------------------------------------------------------------------
    def record(self, rec: ExecutionRecord) -> None:
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
        duration = rec.duration
        self.total_time += duration
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

    def fold(self, other: "StatementEntry") -> None:
        """Absorb an evicted entry's *exact* totals (identity is lost,
        arithmetic is not)."""
        self.calls += other.calls
        self.errors += other.errors
        self.cache_hits += other.cache_hits
        self.rows += other.rows
        self.queries += other.queries
        self.compile_time += other.compile_time
        self.execute_time += other.execute_time
        self.total_time += other.total_time
        self.min_time = min(self.min_time, other.min_time)
        if other.max_time >= self.max_time:
            self.max_time = other.max_time
            self.worst_trace_id = other.worst_trace_id or \
                self.worst_trace_id
        for code, n in other.error_codes.items():
            self.error_codes[code] = self.error_codes.get(code, 0) + n
        if not self.first_seen or (other.first_seen and
                                   other.first_seen < self.first_seen):
            self.first_seen = other.first_seen
        self.last_seen = max(self.last_seen, other.last_seen)
        self.folded += 1 + other.folded

    # ------------------------------------------------------------------
    @property
    def attempts(self) -> int:
        return self.calls + self.errors

    def snapshot(self) -> dict[str, Any]:
        sample = sorted(self.durations)
        mean = self.total_time / self.attempts if self.attempts else 0.0
        return {
            "fingerprint": self.fingerprint,
            "calls": self.calls,
            "errors": self.errors,
            "cache_hits": self.cache_hits,
            "rows": self.rows,
            "queries": self.queries,
            "compile_time": self.compile_time,
            "execute_time": self.execute_time,
            "total_time": self.total_time,
            "mean_time": mean,
            "min_time": self.min_time if self.attempts else None,
            "max_time": self.max_time if self.attempts else None,
            "p50": _quantile(sample, 0.50),
            "p95": _quantile(sample, 0.95),
            "p99": _quantile(sample, 0.99),
            "error_codes": dict(self.error_codes),
            "first_seen": self.first_seen,
            "last_seen": self.last_seen,
            "worst_trace_id": self.worst_trace_id,
            "folded": self.folded,
        }


class StatementStats:
    """Thread-safe, bounded per-fingerprint aggregator.

    ``capacity`` bounds the number of *tracked* fingerprints: when a new
    one would exceed it, the least-recently-called entry folds into the
    :data:`EVICTED` overflow bucket, keeping workload-wide totals exact.
    ``reservoir`` bounds the per-entry duration sample backing the
    quantile estimates (totals are never sampled).
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
        self._evicted: "StatementEntry | None" = None
        #: Distinct fingerprints ever folded into the overflow bucket.
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
        eviction-into-overflow invariant.  Callers hold the lock."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry
        entry = StatementEntry(key, self.reservoir)
        self._entries[key] = entry
        if len(self._entries) > self.capacity:
            _, victim = self._entries.popitem(last=False)
            if self._evicted is None:
                self._evicted = StatementEntry(EVICTED, self.reservoir)
            self._evicted.fold(victim)
            self.evicted_statements += 1
        return entry

    # ------------------------------------------------------------------
    def get(self, fingerprint: str) -> "dict[str, Any] | None":
        """Snapshot of one fingerprint's aggregate (``None`` if not
        tracked; it may have been folded into the overflow bucket)."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            return entry.snapshot() if entry is not None else None

    def snapshot(self) -> dict[str, Any]:
        """JSON-able view: per-statement aggregates (busiest first by
        total time), the eviction overflow bucket, and exact workload
        totals across both."""
        with self._lock:
            entries = [entry.snapshot()
                       for entry in self._entries.values()]
            evicted = (self._evicted.snapshot()
                       if self._evicted is not None else None)
            evicted_statements = self.evicted_statements
        entries.sort(key=lambda e: -e["total_time"])
        pool = entries + ([evicted] if evicted else [])
        totals = {
            key: sum(e[key] for e in pool)
            for key in ("calls", "errors", "cache_hits", "rows",
                        "queries", "compile_time", "execute_time",
                        "total_time")
        }
        return {
            "capacity": self.capacity,
            "tracked": len(entries),
            "evicted_statements": evicted_statements,
            "statements": entries,
            "evicted": evicted,
            "totals": totals,
        }

    def reset(self) -> None:
        """Drop every aggregate (capacity/reservoir are kept)."""
        with self._lock:
            self._entries.clear()
            self._evicted = None
            self.evicted_statements = 0
