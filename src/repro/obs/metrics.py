"""Process-wide metrics: named counters and latency histograms.

A :class:`MetricsRegistry` is a flat namespace of instruments.  The
runtime ships one process-wide default registry (:data:`METRICS`); the
``connection.*``, ``phase.*`` and ``backend.*`` instruments are written
by :func:`repro.obs.record.publish_metrics` from each published
:class:`~repro.obs.record.ExecutionRecord`, the ``plancache.*`` ones by
the plan cache, so a long-running service can answer "how many bundles
ran, at what hit rate, with what per-phase latency?" from a single
:meth:`MetricsRegistry.snapshot` call.

Instrument names are dotted strings grouped by subsystem:

========================== ===========================================
``connection.compiles``     compiles (cold or cached) by run/prepare
``connection.executions``   ``run()``/``PreparedQuery.execute()`` calls
``connection.queries``      relational queries issued (Table 1 metric)
``connection.rows_stitched`` rows transferred back into Python values
``plancache.hits`` / ``.misses`` / ``.evictions`` / ``.inserts``
``backend.<name>.queries``  per-backend queries executed
``backend.<name>.rows``     per-backend result rows fetched
``phase.<phase>``           latency histogram per pipeline phase
========================== ===========================================

Everything is thread-safe; instruments are cheap enough to update on the
hot path (one lock acquisition and a few float ops).
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from typing import Any


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    @property
    def value(self) -> int:
        return self._value

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self._value})"


#: Log-spaced latency bucket upper bounds, in seconds (+inf is implicit).
LATENCY_BOUNDS = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)


class Histogram:
    """A fixed-bucket histogram tracking count/sum/min/max of samples.

    Buckets default to :data:`LATENCY_BOUNDS` (seconds); the registry
    uses one histogram per pipeline phase.

    ``observe`` optionally takes an **exemplar** -- a small dict of
    labels (canonically ``{"trace_id": ...}``) identifying the concrete
    execution behind the observation.  Each bucket retains the exemplar
    of its *worst* (largest) observation so far, so the OpenMetrics
    exposition can link a latency bucket straight to the flight-recorder
    entry and span tree that produced its worst case.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "total",
                 "min", "max", "exemplars", "_lock")

    def __init__(self, name: str, bounds: tuple[float, ...] = LATENCY_BOUNDS):
        self.name = name
        self.bounds = bounds
        self._lock = threading.Lock()
        self._zero()

    def _zero(self) -> None:
        self.buckets = [0] * (len(self.bounds) + 1)
        #: Per-bucket ``(labels, value, unix_ts)`` of the worst
        #: observation that carried an exemplar (``None`` when none did).
        self.exemplars: list[tuple[dict[str, str], float, float] | None] = \
            [None] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float,
                exemplar: "dict[str, str] | None" = None) -> None:
        with self._lock:
            # bisect_left gives inclusive-upper (``le``) semantics: an
            # observation exactly at a bound lands in that bound's
            # bucket, matching the ``<=`` labels and OpenMetrics ``le``.
            idx = bisect_left(self.bounds, value)
            self.buckets[idx] += 1
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            if exemplar is not None:
                worst = self.exemplars[idx]
                if worst is None or value >= worst[1]:
                    self.exemplars[idx] = (dict(exemplar), value,
                                           time.time())

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        with self._lock:
            self._zero()

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "count": self.count,
                "sum": self.total,
                "mean": self.mean,
                "min": self.min if self.count else None,
                "max": self.max if self.count else None,
                "buckets": dict(zip(
                    [f"<={b:g}" for b in self.bounds] + ["+inf"],
                    list(self.buckets))),
                "exemplars": [
                    None if ex is None
                    else {"labels": dict(ex[0]), "value": ex[1],
                          "timestamp": ex[2]}
                    for ex in self.exemplars],
            }


class MetricsRegistry:
    """A named collection of counters and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """Get (or lazily create) the counter called ``name``."""
        c = self._counters.get(name)  # registered: one atomic dict read
        if c is not None:
            return c
        with self._lock:
            if name in self._histograms:
                raise ValueError(f"{name!r} is already a histogram")
            c = self._counters.get(name)
            if c is None:
                c = self._counters[name] = Counter(name)
            return c

    def histogram(self, name: str,
                  bounds: tuple[float, ...] = LATENCY_BOUNDS) -> Histogram:
        """Get (or lazily create) the histogram called ``name``."""
        h = self._histograms.get(name)  # registered: one atomic dict read
        if h is not None:
            return h
        with self._lock:
            if name in self._counters:
                raise ValueError(f"{name!r} is already a counter")
            h = self._histograms.get(name)
            if h is None:
                h = self._histograms[name] = Histogram(name, bounds)
            return h

    def counters(self) -> "list[Counter]":
        """Every registered counter, sorted by name (export order)."""
        with self._lock:
            return sorted(self._counters.values(), key=lambda c: c.name)

    def histograms(self) -> "list[Histogram]":
        """Every registered histogram, sorted by name (export order)."""
        with self._lock:
            return sorted(self._histograms.values(), key=lambda h: h.name)

    def snapshot(self) -> dict[str, Any]:
        """A JSON-able view of every instrument: counters map to their
        integer value, histograms to a count/sum/mean/min/max/buckets
        dict."""
        with self._lock:
            counters = list(self._counters.values())
            histograms = list(self._histograms.values())
        out: dict[str, Any] = {c.name: c.value for c in counters}
        out.update({h.name: h.snapshot() for h in histograms})
        return dict(sorted(out.items()))

    def reset(self) -> None:
        """Zero every instrument (registrations are kept)."""
        with self._lock:
            instruments = (list(self._counters.values())
                           + list(self._histograms.values()))
        for instrument in instruments:
            instrument.reset()


#: The process-wide default registry the runtime writes into.
METRICS = MetricsRegistry()
