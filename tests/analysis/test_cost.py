"""Unit tests of the cardinality-aware cost model (``repro.analysis.cost``).

Pins: per-operator row estimation on hand-built plans, the calibration
table lookup (including the uncalibrated fallback), and bundle
estimation.
"""

import pytest

from repro.algebra import (
    Cross,
    Distinct,
    EqJoin,
    GroupAggr,
    LitTable,
    Project,
    Select,
    SemiJoin,
    TableScan,
    UnionAll,
)
from repro.analysis.cost import (
    CALIBRATION,
    CALIBRATION_VERSION,
    DEFAULT_TABLE_ROWS,
    CostModel,
    constants_for,
    estimate_bundle,
)
from repro.ftypes import BoolT, IntT
from repro.runtime import Catalog, Connection


def lit(n, *cols):
    cols = cols or (("i", IntT), ("v", IntT))
    return LitTable(tuple((r,) * len(cols) for r in range(n)), tuple(cols))


class TestCalibration:
    def test_every_backend_is_versioned(self):
        for name, table in CALIBRATION.items():
            assert table["__version__"] == CALIBRATION_VERSION, name
            assert table["__base__"] > 0 and table["__cell__"] > 0, name

    def test_unknown_backend_falls_back_uncalibrated(self):
        table, calibrated = constants_for("postgres")
        assert not calibrated and table is CALIBRATION["engine"]


class TestRowEstimates:
    def test_littable_is_exact(self):
        est = CostModel().estimate(lit(7))
        assert (est.rows, est.rows_lo, est.rows_hi) == (7.0, 7.0, 7.0)

    def test_tablescan_without_stats_is_unbounded(self):
        est = CostModel().estimate(
            TableScan("t", (("c1", "a", IntT),)))
        assert est.rows == DEFAULT_TABLE_ROWS
        assert est.rows_lo == 0.0 and est.rows_hi is None

    def test_tablescan_with_stats_is_exact(self):
        est = CostModel(table_rows={"t": 42}).estimate(
            TableScan("t", (("c1", "a", IntT),)))
        assert (est.rows, est.rows_lo, est.rows_hi) == (42.0, 42.0, 42.0)

    def test_cross_multiplies(self):
        est = CostModel().estimate(Cross(lit(3), lit(5, ("w", IntT))))
        assert est.rows == 15.0 and est.rows_hi == 15.0

    def test_key_join_does_not_multiply(self):
        # right side {0..4} is key on i: each left row matches <= once
        right = LitTable(tuple((r, r) for r in range(5)),
                         (("j", IntT), ("w", IntT)))
        est = CostModel().estimate(
            EqJoin(lit(3), right, (("i", "j"),)))
        assert est.rows == 3.0 and est.rows_hi == 3.0

    def test_select_halves_and_union_adds(self):
        sel = Select(
            LitTable(((1, True), (2, False)),
                     (("i", IntT), ("b", BoolT))), "b")
        est = CostModel().estimate(sel)
        assert est.rows == 1.0 and est.rows_lo == 0.0
        est = CostModel().estimate(UnionAll(lit(3), lit(4)))
        assert est.rows == 7.0

    def test_semijoin_never_exceeds_left(self):
        est = CostModel().estimate(
            SemiJoin(lit(6), lit(2, ("j", IntT)), (("i", "j"),)))
        assert est.rows <= 6.0 and est.rows_hi == 6.0

    def test_global_aggregate_is_one_row(self):
        agg = GroupAggr(lit(9), (), (("count", None, "n"),))
        est = CostModel().estimate(agg)
        assert (est.rows, est.rows_hi) == (1.0, 1.0)

    def test_distinct_bounded_by_child(self):
        est = CostModel().estimate(Distinct(lit(10)))
        assert est.rows <= 10.0 and est.rows_hi == 10.0

    def test_width_follows_schema(self):
        est = CostModel().estimate(
            Project(lit(4), (("a", "i"),)))
        assert est.width == 1

    def test_plan_cost_counts_shared_nodes_once(self):
        base = lit(8)
        model = CostModel()
        pa, pb = Project(base, (("a", "i"),)), Project(base, (("b", "v"),))
        shared = Cross(pa, pb)
        model.estimate(shared)
        distinct_sum = sum(model.memo[id(n)].self_cost
                           for n in (base, pa, pb, shared))
        assert model.plan_cost(shared) == pytest.approx(distinct_sum)


class TestBundleCost:
    def test_estimate_bundle_sums_queries(self):
        db = Connection(catalog=Catalog())
        db.create_table("t", [("a", int)], [(1,), (2,)])
        q = db.table("t")
        bundle = db.compile(q).bundle
        cost = estimate_bundle(bundle, backend="engine",
                               table_rows={"t": 2})
        assert cost.backend == "engine" and cost.calibrated
        assert cost.calibration_version == CALIBRATION_VERSION
        assert cost.total_cost == pytest.approx(
            sum(qc.total_cost for qc in cost.queries))
        assert cost.to_dict()["queries"]

    def test_compile_stamps_bundle_cost(self):
        db = Connection(catalog=Catalog())
        db.create_table("t", [("a", int)], [(1,), (2,)])
        compiled = db.compile(db.table("t"))
        assert compiled.bundle.cost is not None
        assert compiled.bundle.cost.total_cost > 0

