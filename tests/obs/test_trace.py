"""The span tree: a read-only view of the execution record."""

import pytest

from repro import Connection, FerryError, ObservabilityError, to_q
from examples.workloads import running_example_query
from repro.obs import trace as trace_module

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
    """``Span`` and ``Trace`` as the view builds them from a record."""

    def test_nested_span_tree_shape(self, paper_db):
        paper_db.run(running_example_query(paper_db))
        trace = paper_db.last_trace
        assert [s.name for s, _ in trace.iter_spans()] == [
            "run", "check", "cache-lookup", "lift", "optimize", "codegen",
            "execute", "execute", "stitch"]
        parents = {s.name: (p.name if p else None)
                   for s, p in trace.iter_spans()}
        assert parents.pop("run") is None
        assert set(parents.values()) == {"run"}
        assert trace.find("execute") is trace.find_all("execute")[0]
        assert trace.find("verify") is None

    def test_render_mentions_names_and_attrs(self, paper_db):
        paper_db.run(running_example_query(paper_db))
        text = paper_db.last_trace.render()
        assert text == str(paper_db.last_trace)
        assert text.splitlines()[0].startswith("run  [")
        assert "backend='engine'" in text and "query=1" in text
        assert len(text.splitlines()) == 9

    def test_real_trace_respects_containment(self, paper_db):
        """On a live trace the invariant must hold without tolerance
        (the old test allowed a 1.5x fudge factor)."""
        paper_db.run(running_example_query(paper_db))
        for span, _ in paper_db.last_trace.iter_spans():
            if span.children:
                assert sum(c.duration for c in span.children) \
                    <= span.duration

    def test_exception_still_closes_spans(self, paper_db):
        """A failed run keeps a trace of what it finished: the root, and
        no phase it did not complete; the next run's trace is its own."""
        with pytest.raises(FerryError):
            paper_db.run(to_q([1]).map(lambda x: x // 0))
        failed = paper_db.last_trace
        assert failed.root.attrs["cache_hit"] is False
        assert failed.find("execute") is None
        assert failed.find("stitch") is None
        assert failed.duration >= sum(s.duration for s in
                                      failed.root.children)
        paper_db.run(to_q([1, 2]))
        assert paper_db.last_trace is not failed
        assert paper_db.last_trace.find("stitch").attrs["rows"] == 2


class TestViewFidelity:
    """The tree shows the record's numbers: nothing is measured twice."""

    @staticmethod
    def fields(rec):
        """Span name -> the record fields its spans show, in order."""
        shown = {name: [rec.phases[key]] for name, key in (
            ("check", "check"), ("cache-lookup", "lookup"),
            ("lift", "lift"), ("optimize", "optimize"),
            ("codegen", "codegen"), ("stitch", "stitch"))
            if key in rec.phases}
        shown["execute"] = [q.time for q in rec.queries]
        return shown

    def check(self, db):
        rec = db.query_log.recent[0]
        trace = db.last_trace
        assert trace is rec.trace and trace.trace_id == rec.trace_id
        assert trace.root.name == rec.kind
        assert trace.duration == rec.duration
        assert trace.started_at == rec.started_at
        shown = self.fields(rec)
        for name, values in shown.items():
            assert [s.duration for s in trace.find_all(name)] == values
        assert [s.attrs["rows"] for s in trace.find_all("execute")] == \
            [q.rows for q in rec.queries]
        assert trace.find("stitch").attrs["rows"] == rec.rows
        return trace

    def test_every_span_duration_is_its_record_field(self, any_backend_db):
        db = any_backend_db
        q = running_example_query(db)
        db.run(q)
        self.check(db)
        db.run(q)
        warm = self.check(db)
        # a cached plan's code is handed over, not generated: the span
        # shows no time
        assert warm.find("codegen").attrs["cached"] is True
        assert warm.find("codegen").duration == 0.0
        db.prepare(q).execute()
        self.check(db)

    def test_a_warm_run_builds_no_span(self, paper_db, monkeypatch):
        built = []
        init = trace_module.Span.__init__

        def counted(self, name, *args, **attrs):
            built.append(name)
            init(self, name, *args, **attrs)

        monkeypatch.setattr(trace_module.Span, "__init__", counted)
        q = running_example_query(paper_db)
        for _ in range(3):
            paper_db.run(q)
        assert built == []
        trace = paper_db.last_trace  # the root and its 6 children
        assert built == ["check", "cache-lookup", "codegen", "execute",
                         "execute", "stitch", "run"]
        # built once, then cached
        assert paper_db.last_trace is trace and len(built) == 7

    def test_untraced_records_carry_no_trace(self, paper_catalog):
        db = Connection(catalog=paper_catalog, trace=False)
        db.run(to_q([1, 2]))
        [rec] = db.query_log.recent
        assert rec.trace_id is None and rec.trace is None
        assert rec.summary()["traced"] is False

    def test_explain_analyze_records_carry_no_trace(self, paper_db):
        q = running_example_query(paper_db)
        paper_db.run(q)
        traced = paper_db.last_trace
        paper_db.explain(q, analyze=True)
        rec = paper_db.query_log.recent[0]
        assert rec.kind == "explain-analyze" and rec.trace is None
        assert paper_db.last_trace is traced


class TestTraceIds:
    def test_trace_ids_are_unique_per_execution(self, paper_db):
        q = to_q([1, 2])
        for _ in range(100):
            paper_db.run(q)
        ids = {rec.trace_id for rec in paper_db.query_log.recent}
        assert len(ids) == len(paper_db.query_log.recent)
        assert all(isinstance(tid, str) and tid for tid in ids)

    def test_entry_trace_id_matches_the_retained_trace(self, paper_db):
        paper_db.run(running_example_query(paper_db))
        [rec] = paper_db.query_log.recent
        assert rec.trace is not None
        assert rec.trace_id == rec.trace.trace_id
