"""Trace spans: the run/execute span tree, sinks, and JSONL export."""

import io
import json

import pytest

from repro import CollectingSink, Connection, JsonLinesSink, ObservabilityError, to_q
from repro.bench.table1 import running_example_query
from repro.obs.trace import NULL_TRACER, Tracer

#: Spans the acceptance criteria require on a cold ``run``.
COLD_PHASES = {"check", "cache-lookup", "lift", "optimize", "codegen",
               "execute", "stitch"}


def span_names(trace):
    return [span.name for span, _ in trace.iter_spans()]


class TestRunSpanTree:
    def test_cold_run_covers_every_phase(self, paper_db):
        paper_db.run(running_example_query(paper_db))
        trace = paper_db.last_trace
        assert trace is not None
        assert trace.root.name == "run"
        assert COLD_PHASES <= set(span_names(trace))

    def test_one_execute_span_per_bundle_query(self, any_backend_db):
        q = running_example_query(any_backend_db)
        compiled = any_backend_db.compile(q)
        any_backend_db.run(q)
        executes = any_backend_db.last_trace.find_all("execute")
        assert len(executes) == compiled.bundle.size == 2
        for i, span in enumerate(executes, start=1):
            assert span.attrs["query"] == i
            assert span.attrs["backend"] == any_backend_db.backend.name
            assert span.attrs["rows"] >= 0

    def test_optimize_has_per_pass_children(self, paper_db):
        paper_db.run(running_example_query(paper_db))
        optimize = paper_db.last_trace.find("optimize")
        passes = {child.name for child in optimize.children}
        assert {"cse", "icols", "simplify"} == passes
        for child in optimize.children:
            assert "round" in child.attrs and "removed" in child.attrs

    def test_warm_run_skips_lift_and_optimize(self, paper_db):
        q = running_example_query(paper_db)
        paper_db.run(q)
        paper_db.run(q)
        names = set(span_names(paper_db.last_trace))
        assert "lift" not in names and "optimize" not in names
        assert {"check", "cache-lookup", "execute", "stitch"} <= names
        assert paper_db.last_trace.root.attrs["cache_hit"] is True

    def test_root_attrs_record_bundle_size(self, paper_db):
        paper_db.run(running_example_query(paper_db))
        root = paper_db.last_trace.root
        assert root.attrs["bundle_size"] == 2
        assert root.attrs["backend"] == "engine"
        assert root.attrs["cache_hit"] is False

    def test_durations_are_positive_and_nested(self, paper_db):
        paper_db.run(running_example_query(paper_db))
        trace = paper_db.last_trace
        for span, parent in trace.iter_spans():
            assert span.duration >= 0.0
            if parent is not None:
                assert span.duration <= parent.duration * 1.5 + 1e-6

    def test_trace_disabled_raises_on_last_trace(self, paper_catalog):
        db = Connection(catalog=paper_catalog, trace=False)
        assert db.run(to_q([1, 2])) == [1, 2]
        with pytest.raises(ObservabilityError, match="trace=True"):
            db.last_trace
        # the flight recorder still works without tracing
        assert db.query_log.recorded == 1


class TestPreparedTrace:
    def test_prepared_execute_records_trace(self, paper_db):
        handle = paper_db.prepare(running_example_query(paper_db))
        handle.execute()
        trace = paper_db.last_trace
        assert trace.root.name == "execute-prepared"
        assert len(trace.find_all("execute")) == 2
        assert trace.find("stitch") is not None
        # compilation happened at prepare() time, not here
        assert trace.find("lift") is None

    def test_reprepare_after_ddl_is_traced(self, paper_db):
        handle = paper_db.prepare(running_example_query(paper_db))
        paper_db.create_table("extra", [("n", int)], [(1,)])
        handle.execute()
        names = set(span_names(paper_db.last_trace))
        # the transparent re-prepare shows up as compile spans
        assert "lift" in names and "codegen" in names


class TestSinks:
    def test_collecting_sink_receives_every_trace(self, paper_db):
        sink = paper_db.add_sink(CollectingSink())
        q = running_example_query(paper_db)
        paper_db.run(q)
        paper_db.run(q)
        assert len(sink.traces) == 2
        assert sink.traces[-1] is paper_db.last_trace

    def test_remove_sink(self, paper_db):
        sink = paper_db.add_sink(CollectingSink())
        paper_db.remove_sink(sink)
        paper_db.run(to_q([1]))
        assert sink.traces == []

    def test_jsonl_sink_emits_one_record_per_span(self, paper_db):
        buf = io.StringIO()
        paper_db.add_sink(JsonLinesSink(buf))
        paper_db.run(running_example_query(paper_db))
        lines = [json.loads(line) for line in
                 buf.getvalue().strip().splitlines()]
        trace = paper_db.last_trace
        assert len(lines) == len(list(trace.iter_spans()))
        names = {rec["name"] for rec in lines}
        assert COLD_PHASES <= names
        assert len([r for r in lines if r["name"] == "execute"]) == 2
        # one shared trace id, root has no parent, children point back
        assert len({rec["trace"] for rec in lines}) == 1
        roots = [rec for rec in lines if rec["parent"] is None]
        assert len(roots) == 1 and roots[0]["name"] == "run"
        ids = {rec["span"] for rec in lines}
        assert all(rec["parent"] in ids for rec in lines
                   if rec["parent"] is not None)
        for rec in lines:
            assert rec["duration"] >= 0.0
            assert rec["cpu"] >= 0.0
            assert rec["offset"] >= 0.0

    def test_jsonl_sink_is_safe_under_concurrent_writers(self):
        """Many threads emitting into one sink never interleave lines
        mid-record: every line stays parseable, and each trace's records
        share one trace id and arrive contiguously."""
        import threading

        buf = io.StringIO()
        sink = JsonLinesSink(buf)
        spans_per_trace = 4
        traces_per_thread = 25
        n_threads = 8

        def writer():
            for _ in range(traces_per_thread):
                tracer = Tracer("run")
                for i in range(spans_per_trace - 1):
                    with tracer.span(f"step{i}"):
                        pass
                sink.emit(tracer.finish())

        threads = [threading.Thread(target=writer)
                   for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        lines = buf.getvalue().strip().splitlines()
        records = [json.loads(line) for line in lines]  # must all parse
        assert len(records) == n_threads * traces_per_thread * spans_per_trace
        by_trace: dict[int, list] = {}
        for rec in records:
            by_trace.setdefault(rec["trace"], []).append(rec)
        assert len(by_trace) == n_threads * traces_per_thread
        for recs in by_trace.values():
            assert len(recs) == spans_per_trace
            assert [r["span"] for r in recs] == list(range(spans_per_trace))
        # emits are atomic blocks: each trace's lines are contiguous
        seen_done: set[int] = set()
        last = None
        for rec in records:
            if rec["trace"] != last:
                assert rec["trace"] not in seen_done, "interleaved emit"
                if last is not None:
                    seen_done.add(last)
                last = rec["trace"]

    def test_jsonl_sink_to_file(self, paper_db, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonLinesSink(str(path)) as sink:
            paper_db.add_sink(sink)
            paper_db.run(to_q([1, 2, 3]))
        lines = path.read_text().strip().splitlines()
        assert lines and all(json.loads(line)["trace"] for line in lines)


class TestTracerPrimitives:
    def test_nested_span_tree_shape(self):
        tracer = Tracer("root", kind="test")
        with tracer.span("a"):
            with tracer.span("a1"):
                pass
        with tracer.span("b") as sp:
            sp.set(rows=7)
        trace = tracer.finish()
        assert [s.name for s, _ in trace.iter_spans()] == \
            ["root", "a", "a1", "b"]
        assert trace.find("b").attrs == {"rows": 7}
        parents = {s.name: (p.name if p else None)
                   for s, p in trace.iter_spans()}
        assert parents == {"root": None, "a": "root", "a1": "a", "b": "root"}

    def test_render_mentions_names_and_attrs(self):
        tracer = Tracer("run", backend="engine")
        with tracer.span("execute", query=1):
            pass
        text = tracer.finish().render()
        assert "run" in text and "execute" in text and "query=1" in text

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("anything", x=1) as sp:
            sp.set(y=2)
        NULL_TRACER.root.set(z=3)
        assert NULL_TRACER.finish() is None

    def test_child_totals_clamped_to_parent(self):
        """Regression: coarse clocks (process_time ticks of ~1-10ms on
        some platforms) could make the children's summed CPU/wall time
        exceed their parent's own reading.  ``Span._finish`` clamps the
        parent up to the children's sum, so the containment invariant
        holds exactly at every level."""
        tracer = Tracer("root")
        with tracer.span("outer"):
            with tracer.span("inner-1") as sp:
                # forge a coarse-clock artifact: the child claims more
                # time than the parent's clocks will have seen
                sp._cpu_start -= 5.0
                sp.start -= 2.0
            with tracer.span("inner-2"):
                pass
        trace = tracer.finish()
        for span, _ in trace.iter_spans():
            if span.children:
                assert sum(c.duration for c in span.children) \
                    <= span.duration
                assert sum(c.cpu_time for c in span.children) \
                    <= span.cpu_time
        # the forged values really were extreme enough to need the clamp
        assert trace.find("outer").cpu_time >= 5.0
        assert trace.root.duration >= 2.0

    def test_real_trace_respects_containment(self, paper_db):
        """On a live trace the invariant must hold without tolerance
        (the old test allowed a 1.5x fudge factor)."""
        paper_db.run(running_example_query(paper_db))
        for span, _ in paper_db.last_trace.iter_spans():
            if span.children:
                assert sum(c.duration for c in span.children) \
                    <= span.duration
                assert sum(c.cpu_time for c in span.children) \
                    <= span.cpu_time

    def test_exception_still_closes_spans(self):
        tracer = Tracer("root")
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        trace = tracer.finish()
        assert trace.find("boom").duration >= 0.0
        # the stack unwound: a later span is a sibling, not a child
        tracer2 = Tracer("root")
        try:
            with tracer2.span("first"):
                raise ValueError
        except ValueError:
            pass
        with tracer2.span("second"):
            pass
        trace2 = tracer2.finish()
        assert [s.name for s in trace2.root.children] == ["first", "second"]


class TestTraceIds:
    def test_tracer_owns_a_stable_id_from_birth(self):
        tracer = Tracer("run")
        tid = tracer.trace_id
        assert isinstance(tid, str) and tid
        with tracer.span("a"):
            pass
        assert tracer.trace_id == tid
        assert tracer.finish().trace_id == tid

    def test_trace_ids_are_unique_per_tracer(self):
        ids = {Tracer("run").trace_id for _ in range(100)}
        assert len(ids) == 100

    def test_null_tracer_has_no_id(self):
        assert NULL_TRACER.trace_id is None

    def test_entry_trace_id_matches_the_retained_trace(self, paper_db):
        paper_db.run(running_example_query(paper_db))
        [rec] = paper_db.query_log.recent
        assert rec.trace is not None
        assert rec.trace_id == rec.trace.trace_id
