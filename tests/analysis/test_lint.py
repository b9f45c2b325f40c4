"""The row-bounds findings of EXPLAIN ANALYZE (``D500``).

``repro.obs.build_report`` checks every measured row count against its
static bounds.  ``D500`` -- a count outside them -- gets a dedicated
trigger per place it can fire (query, operator, peak) on forged
execution records, and the builder runs over the golden workload on
every backend: clean on it (Table 1 at 100 *and* 800 categories), and
D500 when the table statistics claim a table is smaller than it is.
"""

import functools

import pytest

from repro import Connection, fmap, pyq, tup
from repro.algebra import LitTable, Select, TableScan
from repro.core.bundle import Bundle, SerializedQuery
from repro.ftypes import BoolT, IntT, ListT
from repro.obs import ExecutionRecord, OpProfile, QueryProfile, build_report
from repro.runtime.connection import CompiledQuery
from examples.workloads import (
    avalanche_dataset,
    orders_dataset,
    paper_dataset,
    running_example_query,
)

from ..conftest import BACKENDS


def lit(n, *cols):
    cols = cols or (("i", IntT), ("v", IntT))
    return LitTable(tuple((r,) * len(cols) for r in range(n)), tuple(cols))


def forged_findings(plan, *profiles, table_rows=None):
    """The findings of an EXPLAIN ANALYZE of a one-query bundle over
    ``plan`` whose (forged) run measured ``profiles``."""
    bundle = Bundle(ListT(IntT), [SerializedQuery(plan, "iter", "pos",
                                                  (), ())],
                    root_ref=None, root_is_list=True)
    record = ExecutionRecord("explain-analyze", "engine", 0.0,
                             sum(p.time for p in profiles),
                             queries=profiles)
    return build_report(CompiledQuery(bundle), Connection().backend, [],
                        table_rows, record).lint


class TestD500:
    def test_per_query_rows_misestimate(self):
        (out,) = forged_findings(
            lit(2), QueryProfile(index=1, time=0.0, rows=5000))
        assert (out.code, out.stage) == ("D500", "bounds")
        assert out.query == 0 and out.node_ref is None
        assert "5000" in out.message and "2..2" in out.message

    def test_rows_below_the_lower_bound_are_a_finding_too(self):
        (out,) = forged_findings(
            lit(2), QueryProfile(index=1, time=0.0, rows=1))
        assert out.code == "D500" and "2..2" in out.message

    def test_accurate_estimate_is_clean(self):
        assert forged_findings(
            lit(2), QueryProfile(index=1, time=0.0, rows=2)) == []

    def test_any_count_inside_the_bounds_is_clean(self):
        # No ratio budget, no slack: 0..3 admits 0 and 3 alike ...
        rows = LitTable(((1, True), (2, False), (3, True)),
                        (("i", IntT), ("b", BoolT)))
        for n in (0, 2, 3):
            assert forged_findings(Select(rows, "b"), QueryProfile(
                index=1, time=0.0, rows=n)) == []
        # ... and 4 not, however close
        assert len(forged_findings(Select(rows, "b"), QueryProfile(
            index=1, time=0.0, rows=4))) == 1

    def test_open_bounds_never_alarm(self):
        scan = TableScan("t", (("c1", "a", IntT),))
        op = OpProfile(ref=0, op="TableScan", time=0.0, rows_in=0,
                       rows_out=10 ** 9, width=1)
        profile = QueryProfile(index=1, time=0.0, rows=10 ** 9, ops=[op])
        assert forged_findings(scan, profile) == []
        # the catalog statistic closes them
        assert len(forged_findings(scan, profile, table_rows={"t": 5})) == 3

    def test_per_operator_misestimate_carries_the_node_ref(self):
        plan = lit(2)
        op = OpProfile(ref=0, op="LitTable 2x2", time=0.0,
                       rows_in=0, rows_out=4000, width=2)
        findings = forged_findings(
            plan, QueryProfile(index=1, time=0.0, rows=2, ops=[op]))
        assert {d.code for d in findings} == {"D500"}
        (at_op,) = [d for d in findings if d.node_ref is not None]
        assert at_op.node_ref == 0 and "LitTable 2x2" in at_op.message
        # the same profile's peak (4000 rows) is past the plan's sound
        # upper bound (a 2-row literal): one more, query-level finding
        (peak,) = [d for d in findings if "peak" in d.message]
        assert peak.query == 0 and peak.node_ref is None

    def test_peak_inside_the_upper_bound_is_clean(self):
        plan = lit(2)
        op = OpProfile(ref=0, op="LitTable 2x2", time=0.0,
                       rows_in=0, rows_out=2, width=2)
        assert forged_findings(
            plan, QueryProfile(index=1, time=0.0, rows=2, ops=[op])) == []


class TestExplain:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_the_running_example_at_800_categories_is_clean(self, backend):
        db = Connection(backend=backend, catalog=avalanche_dataset(800))
        report = db.explain(running_example_query(db), analyze=True)
        assert report.lint == []
        assert "bounds lint   : clean" in report.render(plans=False)
        assert report.to_dict()["lint"] == []
        # every measured count is printed beside its bounds
        assert "rows=1600 bound=0.." in report.annotated[1]

    def test_plain_explain_does_not_lint(self):
        db = Connection(catalog=avalanche_dataset(10))
        report = db.explain(running_example_query(db))
        assert report.lint is None and "bounds lint" not in str(report)


@functools.cache
def golden_workload(backend):
    """``(connection, compiled, record)`` per program of the golden
    workload on ``backend`` -- ``record`` is the ``ExecutionRecord`` of
    its EXPLAIN ANALYZE: the running example on Figure 1 and on the
    Table 1 instance at 100 and at 800 categories (the bounds hold at
    every size), plus a nested-orders report."""
    dbs = [Connection(backend=backend, catalog=catalog) for catalog in (
        paper_dataset(), avalanche_dataset(100), avalanche_dataset(800),
        orders_dataset(n_customers=25))]
    queries = [running_example_query(db) for db in dbs[:3]]
    orders = dbs[3].table("orders")
    queries.append(fmap(lambda c: tup(c[1], pyq(
        "[oid for (cid2, month, oid) in orders if cid2 == cid]",
        orders=orders, cid=c[0])), dbs[3].table("customers")))
    out = []
    for db, q in zip(dbs, queries):
        db.explain(q, analyze=True)
        out.append((db, db.compile(q), db.query_log.recent[0]))
    return out


def findings(backend, **assumed):
    """The findings over the golden workload's measured runs, with the
    table statistics overridden by ``assumed``."""
    return [diag for db, compiled, record in golden_workload(backend)
            for diag in build_report(
                compiled, db.backend, [],
                {**db._table_stats(), **assumed}, record).lint]


class TestGoldenWorkload:
    def test_golden_workload_is_clean(self):
        for backend in BACKENDS:
            assert findings(backend) == [], backend

    def test_seeded_misestimate_trips_the_gate(self):
        # Claiming a table is *smaller* than it is makes the bounds
        # unsound, which must produce D500 findings on every backend.
        for backend in BACKENDS:
            out = findings(backend, facilities=1)
            assert out and {d.code for d in out} == {"D500"}, backend

    def test_a_larger_assumed_size_trips_only_the_lower_bounds(self):
        # 100000 assumed rows: the scan's bounds are 100000..100000, so
        # the engine's operator profile (9 rows) falls below them; the
        # queries' own bounds start at 0 and stay satisfied.
        out = findings("engine", facilities=100000)
        assert out and all(d.node_ref is not None for d in out)
        assert any("TableScan" in d.message for d in out)
