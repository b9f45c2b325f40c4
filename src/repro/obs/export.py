"""Metric exposition: OpenMetrics/Prometheus text, JSON, and HTTP.

Three export surfaces over the same data -- the process-wide
:data:`~repro.obs.metrics.METRICS` registry plus, per connection, its
plan-cache stats and flight-recorder summary:

* :func:`render_openmetrics` -- OpenMetrics 1.0 text (the Prometheus
  pull format): counters as ``<name>_total``, histograms as cumulative
  ``_bucket{le=...}``/``_count``/``_sum`` families, per-connection
  gauges labelled by backend, terminated by ``# EOF``;
* :func:`snapshot_json` / ``dump_metrics(fmt="json")`` -- one JSON
  document for ad-hoc scraping;
* :func:`statements_json` -- the workload-intelligence document: every
  connection's per-fingerprint :class:`~repro.obs.stats.StatementStats`
  snapshot, merged across connections and sorted busiest-first;
* :class:`MetricsServer` -- an opt-in, stdlib-only
  (``http.server.ThreadingHTTPServer``) exposition endpoint serving
  ``/metrics`` (OpenMetrics), ``/metrics.json``, ``/statements``
  (workload JSON), and ``/dashboard`` (a zero-dependency live HTML
  view over ``/statements``).

:func:`parse_openmetrics` is a small validating parser for the subset
this module emits; the test suite and CI round-trip every exposition
through it, so a scrape endpoint that Prometheus would reject fails the
build instead of the deployment.
"""

from __future__ import annotations

import http.server
import json
import re
import threading
import time
from typing import Any, Iterable

from .metrics import METRICS, MetricsRegistry

#: Content type mandated by the OpenMetrics 1.0 spec for text exposition.
OPENMETRICS_CONTENT_TYPE = ("application/openmetrics-text; "
                            "version=1.0.0; charset=utf-8")

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _metric_name(name: str) -> str:
    """Registry names are dotted (``plancache.hits``); OpenMetrics names
    are underscore-separated with a namespace prefix."""
    return "ferry_" + re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def _fmt(value: float) -> str:
    """Canonical sample value: integers without a trailing ``.0``."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    """OpenMetrics label-value escaping: backslash, double quote, and
    line feed must be escaped (ABNF ``escaped-string``); everything else
    passes through verbatim."""
    return (value.replace("\\", r"\\")
                 .replace('"', r"\"")
                 .replace("\n", r"\n"))


def _unescape_label(value: str) -> str:
    out: list[str] = []
    it = iter(value)
    for ch in it:
        if ch != "\\":
            out.append(ch)
            continue
        nxt = next(it, "")
        out.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, "\\" + nxt))
    return "".join(out)


def _labels(pairs: dict[str, str]) -> str:
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_escape_label(str(v))}"'
                    for k, v in sorted(pairs.items()))
    return "{" + body + "}"


def _exemplar(ex: dict[str, Any]) -> str:
    """Render one exemplar (OpenMetrics 1.0: `` # {labels} value ts``)."""
    out = f" # {_labels(ex['labels']) or '{}'} {_fmt(ex['value'])}"
    ts = ex.get("timestamp")
    if ts is not None:
        out += f" {_fmt(float(ts))}"
    return out


def render_openmetrics(registry: MetricsRegistry | None = None,
                       connections: Iterable[Any] = ()) -> str:
    """The OpenMetrics text exposition of ``registry`` (default: the
    process-wide :data:`METRICS`) plus plan-cache and query-log gauges
    for each connection in ``connections``."""
    registry = METRICS if registry is None else registry
    lines: list[str] = []

    for counter in registry.counters():
        name = _metric_name(counter.name)
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name}_total {_fmt(float(counter.value))}")

    for hist in registry.histograms():
        name = _metric_name(hist.name)
        snap = hist.snapshot()
        lines.append(f"# TYPE {name} histogram")
        cumulative = 0
        bucket_counts = list(snap["buckets"].values())
        exemplars = snap.get("exemplars") or [None] * len(bucket_counts)
        for i, (bound, count) in enumerate(zip(hist.bounds, bucket_counts)):
            cumulative += count
            line = f'{name}_bucket{{le="{bound:g}"}} {cumulative}'
            if exemplars[i] is not None:
                # Exemplar: the bucket's worst observation, naming the
                # trace id that produced it (one hop from /metrics to
                # the flight recorder's span tree).
                line += _exemplar(exemplars[i])
            lines.append(line)
        cumulative += bucket_counts[-1]
        line = f'{name}_bucket{{le="+Inf"}} {cumulative}'
        if exemplars[-1] is not None:
            line += _exemplar(exemplars[-1])
        lines.append(line)
        lines.append(f"{name}_count {snap['count']}")
        lines.append(f"{name}_sum {_fmt(snap['sum'])}")

    gauges: dict[str, list[tuple[dict[str, str], float]]] = {}
    for i, conn in enumerate(connections):
        labels = {"connection": str(i), "backend": conn.backend.name}
        stats = conn.cache_stats
        log = conn.query_log.snapshot()
        for gauge, value in (
                ("plancache_entries", len(conn.plan_cache)),
                ("plancache_capacity", conn.plan_cache.capacity),
                ("plancache_hits", stats.hits),
                ("plancache_misses", stats.misses),
                ("plancache_evictions", stats.evictions),
                ("querylog_recorded", log["recorded"]),
                ("querylog_slow", log["slow"]),
                ("querylog_errors", log["errors"]),
                ("queries_issued", conn.queries_issued),
                ("executions", conn.executions)):
            gauges.setdefault(gauge, []).append((labels, float(value)))
    for gauge, samples in gauges.items():
        # ferry_conn_, not ferry_connection_: the registry's global
        # connection.* counters already own that prefix.
        name = f"ferry_conn_{gauge}"
        lines.append(f"# TYPE {name} gauge")
        for labels, value in samples:
            lines.append(f"{name}{_labels(labels)} {_fmt(value)}")

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def snapshot_json(registry: MetricsRegistry | None = None,
                  connections: Iterable[Any] = ()) -> dict[str, Any]:
    """One JSON-able document: registry snapshot + per-connection
    plan-cache stats and query-log summaries."""
    registry = METRICS if registry is None else registry
    conns = []
    for conn in connections:
        stats = conn.cache_stats
        conns.append({
            "backend": conn.backend.name,
            "executions": conn.executions,
            "queries_issued": conn.queries_issued,
            "plan_cache": {
                "entries": len(conn.plan_cache),
                "capacity": conn.plan_cache.capacity,
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "hit_rate": stats.hit_rate,
            },
            "query_log": conn.query_log.snapshot(),
        })
    return {
        "generated_at": time.time(),
        "metrics": registry.snapshot(),
        "connections": conns,
    }


def statements_json(connections: Iterable[Any] = ()) -> dict[str, Any]:
    """The ``/statements`` document: per-connection workload statistics
    plus a cross-connection merge.

    Each connection contributes its :class:`~repro.obs.stats.StatementStats`
    snapshot (when statement stats are enabled) and the flight recorder's
    error-code counts.  The ``statements`` list merges aggregates for the
    same fingerprint across connections (sums are exact; quantiles and
    worst-case exemplars take the slower side), sorted busiest-first by
    total time -- the shape :mod:`repro.obs.report` and the dashboard
    consume."""
    conns = []
    merged: dict[str, dict[str, Any]] = {}
    totals = {key: 0 for key in ("calls", "errors", "cache_hits", "rows",
                                 "queries")}
    time_totals = {key: 0.0 for key in ("compile_time", "execute_time",
                                        "total_time")}
    for conn in connections:
        stats = getattr(conn, "stats", None)
        snap = stats.snapshot() if stats is not None else None
        log = conn.query_log.snapshot()
        conns.append({
            "backend": conn.backend.name,
            "statement_stats": snap,
            "error_codes": log["error_codes"],
            "recorded": log["recorded"],
        })
        if snap is None:
            continue
        for key, value in snap["totals"].items():
            if key in totals:
                totals[key] += value
            else:
                time_totals[key] += value
        pool = snap["statements"] + \
            ([snap["evicted"]] if snap["evicted"] else [])
        for entry in pool:
            seen = merged.get(entry["fingerprint"])
            if seen is None:
                merged[entry["fingerprint"]] = {
                    **entry, "error_codes": dict(entry["error_codes"])}
                continue
            for key in ("calls", "errors", "cache_hits", "rows",
                        "queries", "compile_time", "execute_time",
                        "total_time", "folded"):
                seen[key] += entry[key]
            for code, n in entry["error_codes"].items():
                seen["error_codes"][code] = \
                    seen["error_codes"].get(code, 0) + n
            attempts = seen["calls"] + seen["errors"]
            seen["mean_time"] = (seen["total_time"] / attempts
                                 if attempts else 0.0)
            for key, pick in (("min_time", min), ("max_time", max),
                              ("p50", max), ("p95", max), ("p99", max)):
                a, b = seen.get(key), entry.get(key)
                seen[key] = (pick(a, b) if a is not None and b is not None
                             else (a if a is not None else b))
            if entry.get("max_time") is not None and \
                    entry["max_time"] == seen["max_time"]:
                seen["worst_trace_id"] = entry["worst_trace_id"] or \
                    seen["worst_trace_id"]
            seen["first_seen"] = min(seen["first_seen"],
                                     entry["first_seen"])
            seen["last_seen"] = max(seen["last_seen"], entry["last_seen"])
            # Per-connection breakdowns don't merge meaningfully.
            seen.pop("by_backend", None)
    statements = sorted(merged.values(), key=lambda e: -e["total_time"])
    attempts = totals["calls"] + totals["errors"]
    return {
        "generated_at": time.time(),
        "connections": conns,
        "statements": statements,
        "totals": {**totals, **time_totals},
        "cache_hit_rate": (totals["cache_hits"] / attempts
                           if attempts else None),
    }


def dump_metrics(fmt: str = "openmetrics",
                 registry: MetricsRegistry | None = None,
                 connections: Iterable[Any] = ()) -> str:
    """The one-call export entry point.

    ``fmt="openmetrics"`` returns the Prometheus text exposition,
    ``fmt="json"`` the JSON snapshot (pretty-printed).
    """
    connections = list(connections)
    if fmt == "openmetrics":
        return render_openmetrics(registry, connections)
    if fmt == "json":
        return json.dumps(snapshot_json(registry, connections),
                          indent=2, sort_keys=True, default=str)
    raise ValueError(f"unknown metrics format {fmt!r}; "
                     f"expected 'openmetrics' or 'json'")


# ----------------------------------------------------------------------
# parsing (validation for tests / CI)
# ----------------------------------------------------------------------

# One label: ``name="value"`` where the value is an escaped string --
# backslash escapes pass through, so quotes/newlines/backslashes (and
# even ``}`` or ``,``) inside values cannot break the tokenization.
_LABEL_ITEM = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*"'
_LABELS_BODY = rf"(?:{_LABEL_ITEM}(?:,{_LABEL_ITEM})*)?"
_SAMPLE = re.compile(
    rf"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    rf"(?:\{{(?P<labels>{_LABELS_BODY})\}})?"
    rf" (?P<value>[^ ]+)"
    rf"(?: # \{{(?P<exlabels>{_LABELS_BODY})\}}"
    rf" (?P<exvalue>[^ ]+)(?: (?P<exts>[^ ]+))?)?$")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\.)*)"')


def _parse_labels(body: "str | None") -> dict[str, str]:
    labels: dict[str, str] = {}
    if not body:
        return labels
    for m in _LABEL.finditer(body):
        labels[m.group(1)] = _unescape_label(m.group(2))
    return labels


def parse_openmetrics(text: str) -> dict[str, dict[str, Any]]:
    """Parse (and validate) the exposition subset :func:`render_openmetrics`
    emits.

    Returns ``{family: {"type": ..., "samples": [(name, labels, value)],
    "exemplars": {sample_index: (labels, value, ts | None)}}}``.
    Raises :class:`ValueError` on structural violations: missing ``# EOF``
    terminator, samples before any ``# TYPE``, counter samples not ending
    in ``_total``, non-cumulative histogram buckets, a histogram whose
    ``+Inf`` bucket disagrees with its ``_count``, or an exemplar on a
    sample that may not carry one / outside its bucket's range.
    """
    lines = text.splitlines()
    if not lines or lines[-1] != "# EOF":
        raise ValueError("exposition must end with '# EOF'")
    families: dict[str, dict[str, Any]] = {}
    current: str | None = None
    for line in lines[:-1]:
        if not line:
            raise ValueError("blank lines are not allowed")
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            if not _NAME_OK.match(name):
                raise ValueError(f"bad metric name {name!r}")
            if kind not in ("counter", "gauge", "histogram", "summary",
                            "unknown"):
                raise ValueError(f"bad metric type {kind!r}")
            if name in families:
                raise ValueError(f"duplicate family {name!r}")
            families[name] = {"type": kind, "samples": [], "exemplars": {}}
            current = name
            continue
        if line.startswith("#"):
            continue  # HELP/UNIT comments
        m = _SAMPLE.match(line)
        if m is None:
            raise ValueError(f"malformed sample line {line!r}")
        name = m.group("name")
        if current is None or not name.startswith(current):
            raise ValueError(f"sample {name!r} outside its family")
        labels = _parse_labels(m.group("labels"))
        try:
            value = float(m.group("value"))
        except ValueError:
            raise ValueError(f"malformed value in {line!r}") from None
        if m.group("exvalue") is not None:
            # Exemplars are legal only on counter ``_total`` and
            # histogram ``_bucket`` samples (OpenMetrics 1.0).
            if not (name.endswith("_bucket") or name.endswith("_total")):
                raise ValueError(f"exemplar on non-bucket/total sample "
                                 f"{name!r}")
            ex_labels = _parse_labels(m.group("exlabels"))
            runes = sum(len(k) + len(v) for k, v in ex_labels.items())
            if runes > 128:
                raise ValueError(f"exemplar label set on {name!r} exceeds "
                                 f"128 characters")
            try:
                ex_value = float(m.group("exvalue"))
                ex_ts = (float(m.group("exts"))
                         if m.group("exts") is not None else None)
            except ValueError:
                raise ValueError(f"malformed exemplar in {line!r}") from None
            le = labels.get("le")
            if name.endswith("_bucket") and le not in (None, "+Inf") \
                    and ex_value > float(le):
                raise ValueError(f"exemplar value {ex_value} outside its "
                                 f"le={le} bucket on {name!r}")
            families[current]["exemplars"][
                len(families[current]["samples"])] = \
                (ex_labels, ex_value, ex_ts)
        families[current]["samples"].append((name, labels, value))

    for family, data in families.items():
        kind, samples = data["type"], data["samples"]
        if kind == "counter":
            for name, _, value in samples:
                if not (name == family + "_total"
                        or name.startswith(family + "_created")):
                    raise ValueError(
                        f"counter sample {name!r} must end in '_total'")
                if value < 0:
                    raise ValueError(f"negative counter {name!r}")
        if kind == "histogram":
            buckets = [(labels.get("le"), value) for name, labels, value
                       in samples if name == family + "_bucket"]
            counts = [v for _, v in buckets]
            if counts != sorted(counts):
                raise ValueError(f"histogram {family!r} buckets must be "
                                 f"cumulative")
            if not buckets or buckets[-1][0] != "+Inf":
                raise ValueError(f"histogram {family!r} lacks an "
                                 f"le=\"+Inf\" bucket")
            total = [v for name, _, v in samples
                     if name == family + "_count"]
            if total and buckets[-1][1] != total[0]:
                raise ValueError(f"histogram {family!r} +Inf bucket "
                                 f"disagrees with _count")
    return families


# ----------------------------------------------------------------------
# HTTP exposition (opt-in, stdlib-only)
# ----------------------------------------------------------------------

class MetricsServer:
    """A background thread serving the exposition over HTTP.

    ``port=0`` (the default) picks a free port -- read it back from
    :attr:`port`.  The server is a daemon thread and never blocks
    interpreter exit; call :meth:`close` (or use the instance as a
    context manager) for a deterministic shutdown.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 registry: MetricsRegistry | None = None,
                 connections: Iterable[Any] = ()):
        self._registry = registry
        self._connections = list(connections)
        server = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 - http.server API
                if self.path in ("/", "/metrics"):
                    body = render_openmetrics(
                        server._registry, server._connections
                    ).encode("utf-8")
                    ctype = OPENMETRICS_CONTENT_TYPE
                elif self.path == "/metrics.json":
                    body = dump_metrics(
                        "json", server._registry, server._connections
                    ).encode("utf-8")
                    ctype = "application/json; charset=utf-8"
                elif self.path == "/statements":
                    body = json.dumps(
                        statements_json(server._connections),
                        indent=2, sort_keys=True, default=str
                    ).encode("utf-8")
                    ctype = "application/json; charset=utf-8"
                elif self.path == "/dashboard":
                    from .dashboard import DASHBOARD_HTML
                    body = DASHBOARD_HTML.encode("utf-8")
                    ctype = "text/html; charset=utf-8"
                else:
                    self.send_error(404, "try /metrics, /metrics.json, "
                                         "/statements, or /dashboard")
                    return
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # silence per-request stderr
                pass

        self._httpd = http.server.ThreadingHTTPServer((host, port), Handler)
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="ferry-metrics",
                                        daemon=True)
        self._thread.start()

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}/metrics"

    def add_connection(self, conn: Any) -> None:
        """Expose another connection's cache/query-log gauges."""
        self._connections.append(conn)

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve_metrics(host: str = "127.0.0.1", port: int = 0,
                  registry: MetricsRegistry | None = None,
                  connections: Iterable[Any] = ()) -> MetricsServer:
    """Start (and return) a :class:`MetricsServer`; purely opt-in."""
    return MetricsServer(host, port, registry, connections)
