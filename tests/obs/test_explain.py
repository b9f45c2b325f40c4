"""``Connection.explain``: the structured report and its render."""

import json

from repro import Connection, ExplainReport, fsum, to_q, tup
from examples.workloads import running_example_query


class TestExplainReport:
    def test_structured_fields(self, paper_db):
        report = paper_db.explain(running_example_query(paper_db))
        assert isinstance(report, ExplainReport)
        assert report.backend == "engine"
        assert report.result_type == "[(String, [String])]"
        assert report.bundle_size == 2
        assert report.list_constructors == 2
        assert report.expected_bundle_size == 2
        assert report.avalanche_ok
        assert report.fingerprint and len(report.fingerprint) == 64

    def test_cache_status_flips_on_second_explain(self, paper_catalog):
        db = Connection(catalog=paper_catalog)
        q = running_example_query(db)
        assert db.explain(q).cache_hit is False
        assert db.explain(q).cache_hit is True

    def test_queries_carry_plans_and_operator_counts(self, paper_db):
        report = paper_db.explain(running_example_query(paper_db))
        assert len(report.queries) == 2
        for q in report.queries:
            assert q.plan.startswith("@")
            assert sum(q.operators.values()) > 0
            assert q.iter_col and q.pos_col and q.item_cols

    def test_engine_artifact_is_a_schedule(self, paper_db):
        report = paper_db.explain(running_example_query(paper_db))
        for q in report.queries:
            assert "TableScan" in q.artifact

    def test_sqlite_artifact_is_sql(self, paper_catalog):
        db = Connection(backend="sqlite", catalog=paper_catalog)
        report = db.explain(running_example_query(db))
        assert report.backend == "sqlite"
        for q in report.queries:
            assert "SELECT" in q.artifact

    def test_mil_artifact_is_a_program(self, paper_catalog):
        db = Connection(backend="mil", catalog=paper_catalog)
        report = db.explain(running_example_query(db))
        assert report.backend == "mil"
        for q in report.queries:
            assert ":=" in q.artifact and q.artifact.splitlines()[-1].startswith("return")

    def test_scalar_query_expected_size(self):
        db = Connection()
        report = db.explain(fsum(to_q([1, 2, 3])))
        # scalar results need one carrier query beyond the [.] count
        assert report.list_constructors == 0
        assert report.expected_bundle_size == 1 == report.bundle_size
        assert report.avalanche_ok

    def test_tuple_of_lists_expected_size(self):
        db = Connection()
        report = db.explain(tup(to_q([1]), to_q([True, False])))
        assert report.list_constructors == 2
        assert report.expected_bundle_size == 3 == report.bundle_size

    def test_render_and_str(self, paper_db):
        report = paper_db.explain(running_example_query(paper_db))
        text = str(report)
        assert "== explain (backend=engine) ==" in text
        assert "avalanche invariant OK" in text
        assert "-- Q1" in text and "-- Q2" in text
        assert "-- engine artifact for Q1" in text
        bare = report.render(plans=False, artifacts=False)
        assert "-- Q1" in bare and "TableScan" not in bare

    def test_to_dict_round_trips_through_json(self, paper_db):
        report = paper_db.explain(running_example_query(paper_db))
        data = json.loads(json.dumps(report.to_dict()))
        assert data["avalanche_ok"] is True
        assert data["bundle_size"] == 2
        assert [q["index"] for q in data["queries"]] == [1, 2]
        assert "timings" in data
