"""Trace spans: the run/execute span tree and the tracer primitives."""

import pytest

from repro import Connection, ObservabilityError, to_q
from examples.workloads import running_example_query
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
        """Regression: clock granularity could make the children's summed
        wall time exceed their parent's own reading.  ``Span._finish``
        clamps the parent up to the children's sum, so the containment
        invariant holds exactly at every level."""
        tracer = Tracer("root")
        with tracer.span("outer"):
            with tracer.span("inner-1") as sp:
                # forge a coarse-clock artifact: the child claims more
                # time than the parent's clocks will have seen
                sp.start -= 2.0
            with tracer.span("inner-2"):
                pass
        trace = tracer.finish()
        for span, _ in trace.iter_spans():
            if span.children:
                assert sum(c.duration for c in span.children) \
                    <= span.duration
        # the forged value really was extreme enough to need the clamp
        assert trace.find("outer").duration >= 2.0
        assert trace.root.duration >= 2.0

    def test_real_trace_respects_containment(self, paper_db):
        """On a live trace the invariant must hold without tolerance
        (the old test allowed a 1.5x fudge factor)."""
        paper_db.run(running_example_query(paper_db))
        for span, _ in paper_db.last_trace.iter_spans():
            if span.children:
                assert sum(c.duration for c in span.children) \
                    <= span.duration

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
