"""Cardinality-aware cost estimation over compiled plans.

PR 5 gave every plan node an inferred :class:`~repro.analysis.Props`
record -- keys, constants, ``Card(lo, hi)`` bounds, density facts.  This
module turns that property lattice into the *decision layer*: a
memoized, per-operator estimator that assigns every node

``est_rows``
    a point estimate of its output cardinality, always clamped into
    *sound* bounds ``rows_lo..rows_hi``.  The bounds refine ``Card`` by
    propagating exact table sizes (the catalog is immutable per schema
    generation, so compile-time row counts are exact for the instance)
    through the same sound combinators property inference uses; the
    point estimate additionally applies textbook selectivities
    (join-key uniqueness from the inferred keys, default filter
    selectivity, group-count ratios).
``est_width``
    the output column count, straight from the inferred schema.
``self_cost`` / plan cost
    abstract work units (~ns on the calibration machine): a per-operator
    per-input-row constant plus a per-output-cell constant, calibrated
    once per backend against the measured kernel throughputs of
    ``benchmarks/test_engine_kernels.py`` (see :data:`CALIBRATION` and
    DESIGN.md, "The cost lattice").  A plan's cost sums ``self_cost``
    over the *distinct* DAG nodes -- shared subplans are counted once,
    matching the engine's per-node memoization and SQL's WITH reuse.

Two consumers:

* the optimizer's property-driven rewrites are **cost-gated** -- a
  candidate replacement must *strictly* lower the estimated plan cost
  (``repro.optimizer.rewrites.properties``);
* the estimate-drift lint (:mod:`repro.analysis.lint`) diffs these
  static estimates against EXPLAIN ANALYZE actuals (``D5xx`` codes).

Estimates are *advisory*; the bounds are the sound part (the hypothesis
suite asserts they contain every engine-materialized row count).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Mapping

from ..algebra.dag import fill, postorder
from ..algebra.ops import (
    AntiJoin,
    Attach,
    BinApp,
    Cross,
    Distinct,
    EqJoin,
    GroupAggr,
    LitTable,
    Node,
    Project,
    RowNum,
    RowRank,
    Select,
    SemiJoin,
    TableScan,
    UnApp,
    UnionAll,
)
from .properties import PlanStore, Props

#: Version stamp of the calibration tables below.  Bumped whenever the
#: constants are re-derived from ``benchmarks/test_engine_kernels.py``;
#: the drift lint's ``D502`` flags estimates produced under another
#: version (stale calibration).
CALIBRATION_VERSION = 1

#: Assumed row count of a table scan when no catalog statistics are
#: available.
DEFAULT_TABLE_ROWS = 1000

#: Fraction of rows assumed to survive an opaque filter.
SELECT_SELECTIVITY = 0.5
#: Fraction of left rows assumed to survive an anti-join.
ANTI_SELECTIVITY = 0.5
#: Assumed groups-per-row ratio of a grouped aggregation.
GROUP_RATIO = 0.5

#: Per-backend, per-operator cost constants: abstract work units
#: (~nanoseconds on the calibration machine) *per input row*.
#: Calibrated once against the measured kernel throughputs of
#: ``benchmarks/test_engine_kernels.py`` (30k-row fact/dim workloads:
#: the column-kernel engine moves ~2-4M rows/s through joins and
#: grouping, ~10M rows/s through projections; SQLite's C engine is
#: roughly 3x faster per row on the same statements, the MIL VM sits
#: between).  ``__cell__`` is the cost per *output cell*
#: (rows x width) -- materializing wide intermediates is what the
#: semi-join-reduction rewrite wins on; ``__base__`` the fixed
#: per-operator dispatch cost.
CALIBRATION: dict[str, dict[str, float]] = {
    "engine": {
        "__version__": CALIBRATION_VERSION,
        "__base__": 2_000.0,
        "__cell__": 40.0,
        "LitTable": 10.0,
        "TableScan": 60.0,
        "Attach": 80.0,
        "Project": 90.0,
        "Select": 110.0,
        "Distinct": 260.0,
        "RowNum": 420.0,
        "RowRank": 420.0,
        "Cross": 160.0,
        "EqJoin": 310.0,
        "SemiJoin": 200.0,
        "AntiJoin": 200.0,
        "UnionAll": 60.0,
        "GroupAggr": 340.0,
        "BinApp": 130.0,
        "UnApp": 130.0,
    },
    "sqlite": {
        "__version__": CALIBRATION_VERSION,
        "__base__": 9_000.0,
        "__cell__": 15.0,
        "LitTable": 5.0,
        "TableScan": 25.0,
        "Attach": 30.0,
        "Project": 30.0,
        "Select": 40.0,
        "Distinct": 90.0,
        "RowNum": 150.0,
        "RowRank": 150.0,
        "Cross": 60.0,
        "EqJoin": 110.0,
        "SemiJoin": 70.0,
        "AntiJoin": 70.0,
        "UnionAll": 20.0,
        "GroupAggr": 120.0,
        "BinApp": 45.0,
        "UnApp": 45.0,
    },
    "mil": {
        "__version__": CALIBRATION_VERSION,
        "__base__": 4_000.0,
        "__cell__": 25.0,
        "LitTable": 8.0,
        "TableScan": 40.0,
        "Attach": 50.0,
        "Project": 55.0,
        "Select": 70.0,
        "Distinct": 160.0,
        "RowNum": 260.0,
        "RowRank": 260.0,
        "Cross": 100.0,
        "EqJoin": 190.0,
        "SemiJoin": 120.0,
        "AntiJoin": 120.0,
        "UnionAll": 40.0,
        "GroupAggr": 210.0,
        "BinApp": 80.0,
        "UnApp": 80.0,
    },
}


def constants_for(backend: str) -> tuple[dict[str, float], bool]:
    """The calibration table for ``backend`` and whether it is a real
    (calibrated) entry.  Unknown backends fall back to the engine table
    uncalibrated -- the drift lint reports that as ``D502``."""
    table = CALIBRATION.get(backend)
    if table is None:
        return CALIBRATION["engine"], False
    return table, True


@dataclass(frozen=True)
class Est:
    """Cost-estimate record of one plan node."""

    #: Point estimate of the output row count (clamped into the bounds).
    rows: float
    #: Sound lower bound on the output row count.
    rows_lo: float
    #: Sound upper bound (``None`` = unbounded).
    rows_hi: "float | None"
    #: Output width (column count, from the inferred schema).
    width: int
    #: Estimated work of this operator alone, in cost units.
    self_cost: float

    def contains(self, n: int) -> bool:
        """Do the sound bounds contain an observed row count?"""
        return self.rows_lo <= n and (self.rows_hi is None
                                      or n <= self.rows_hi)

    def show(self) -> str:
        hi = "*" if self.rows_hi is None else f"{self.rows_hi:g}"
        return (f"est {self.rows:g} rows ({self.rows_lo:g}..{hi}) "
                f"w={self.width} cost={self.self_cost:g}")


@dataclass(frozen=True)
class QueryCost:
    """Whole-plan estimate of one bundle member."""

    #: Root-node row estimate (the rows the query is expected to emit).
    est_rows: float
    rows_lo: float
    rows_hi: "float | None"
    width: int
    #: Total estimated work: ``self_cost`` summed over the distinct DAG
    #: nodes (shared subplans once).
    total_cost: float

    def to_dict(self) -> dict[str, object]:
        return {"est_rows": self.est_rows, "rows_lo": self.rows_lo,
                "rows_hi": self.rows_hi, "width": self.width,
                "total_cost": self.total_cost}


@dataclass
class BundleCost:
    """Compile-time cost stamp of a whole bundle (``bundle.cost``)."""

    backend: str
    calibrated: bool
    calibration_version: int
    queries: list[QueryCost] = field(default_factory=list)

    @property
    def total_cost(self) -> float:
        return sum(q.total_cost for q in self.queries)

    @property
    def est_rows(self) -> float:
        return sum(q.est_rows for q in self.queries)

    def to_dict(self) -> dict[str, object]:
        return {"backend": self.backend, "calibrated": self.calibrated,
                "calibration_version": self.calibration_version,
                "total_cost": self.total_cost,
                "queries": [q.to_dict() for q in self.queries]}


class CostModel:
    """Memoized per-node cost estimator over a shared plan DAG.

    ``cache`` is the compile's :class:`~repro.analysis.PlanStore` --
    estimation piggybacks on the property inference the pipeline
    already paid for, and the store keeps the memo's nodes alive.
    ``table_rows`` maps table names to exact row counts (compile-time
    catalog statistics); without it scans assume
    :data:`DEFAULT_TABLE_ROWS` and the bounds stay as wide as ``Card``.
    """

    __slots__ = ("constants", "calibrated", "backend", "table_rows",
                 "cache", "memo", "height")

    def __init__(self, backend: str = "engine",
                 table_rows: "Mapping[str, int] | None" = None,
                 cache: "PlanStore | None" = None):
        self.backend = backend
        self.constants, self.calibrated = constants_for(backend)
        self.table_rows = table_rows
        self.cache = cache if cache is not None else PlanStore()
        self.memo: dict[int, Est] = {}
        #: longest path to a leaf, per estimated node (orders `delta`)
        self.height: dict[int, int] = {}

    # ------------------------------------------------------------------
    def estimate(self, node: Node) -> Est:
        """The :class:`Est` of ``node``, memoized over the DAG."""
        cached = self.memo.get(id(node))
        if cached is not None:
            return cached
        self.cache.infer(node)  # pins + analyzes the whole subtree
        return fill(node, self.memo, self._estimate)

    def plan_cost(self, root: Node) -> float:
        """Total estimated work of ``root``'s plan: ``self_cost`` summed
        over distinct reachable nodes (shared subplans once)."""
        self.estimate(root)
        return sum(self.memo[id(node)].self_cost
                   for node in postorder(root))

    def delta(self, new: Node, old: Node) -> float:
        """``plan_cost(new) - plan_cost(old)`` over only the nodes the
        two plans do not share (the rewrite gate: candidate and original
        differ in a few operators on top of a common subplan, which is
        never walked).  Both are walked top-down by decreasing height,
        so every ancestor of a node is popped before it and the sides
        that reach it (1 = new, 2 = old) are final by then; the walk
        ends once no unpopped node is reached from one side only."""
        if new is old:
            return 0.0
        self.estimate(new)
        self.estimate(old)
        height = self.height
        side = {id(new): 1, id(old): 2}
        heap = [(-height[id(n)], id(n), n) for n in (new, old)]
        heapq.heapify(heap)
        one_sided = 2  # unpopped nodes reached from one side only
        total = 0.0
        while one_sided:
            _, nid, node = heapq.heappop(heap)
            reach = side[nid]
            if reach != 3:
                one_sided -= 1
                cost = self.memo[nid].self_cost
                total += cost if reach == 1 else -cost
            for child in node.children:
                seen = side.get(id(child), 0)
                if not seen:
                    heapq.heappush(
                        heap, (-height[id(child)], id(child), child))
                side[id(child)] = seen | reach
                one_sided += (seen | reach != 3) - (seen in (1, 2))
        return total

    def query_cost(self, root: Node) -> QueryCost:
        est = self.estimate(root)
        return QueryCost(est_rows=est.rows, rows_lo=est.rows_lo,
                         rows_hi=est.rows_hi, width=est.width,
                         total_cost=self.plan_cost(root))

    # ------------------------------------------------------------------
    def _props(self, node: Node) -> Props:
        return self.cache.props[id(node)]

    def _estimate(self, node: Node) -> Est:
        props = self._props(node)
        width = len(props.schema)
        rows, lo, hi = self._rows(node, props)
        # Intersect the propagated bounds with the (independently sound)
        # inferred Card; clamp the point estimate into the result.
        lo = max(lo, float(props.card.lo))
        if props.card.hi is not None:
            hi = (float(props.card.hi) if hi is None
                  else min(hi, float(props.card.hi)))
        if hi is not None:
            hi = max(hi, lo)
            rows = min(rows, hi)
        rows = max(rows, lo)
        rows_in = sum(self.memo[id(c)].rows for c in node.children)
        self.height[id(node)] = 1 + max(
            (self.height[id(c)] for c in node.children), default=0)
        self.cache.estimates += 1
        c = self.constants
        per_row = c.get(node.label, c["Project"])
        self_cost = (c["__base__"] + per_row * rows_in
                     + c["__cell__"] * rows * width)
        return Est(rows=rows, rows_lo=lo, rows_hi=hi, width=width,
                   self_cost=self_cost)

    def _rows(self, node: Node, props: Props
              ) -> tuple[float, float, "float | None"]:
        """``(point, lo, hi)`` of the output rows, from the children's
        estimates via the same sound combinators ``Card`` uses, with
        textbook selectivities sharpening the point."""
        if isinstance(node, LitTable):
            n = float(len(node.rows))
            return n, n, n
        if isinstance(node, TableScan):
            if self.table_rows is not None and node.table in self.table_rows:
                # Exact for this catalog instance: tables are immutable
                # per schema generation, and the plan cache keys on it.
                n = float(self.table_rows[node.table])
                return n, n, n
            return float(DEFAULT_TABLE_ROWS), 0.0, None
        if isinstance(node, (Attach, BinApp, UnApp, RowNum, RowRank)):
            e = self.memo[id(node.child)]  # type: ignore[attr-defined]
            return e.rows, e.rows_lo, e.rows_hi
        if isinstance(node, Project):
            e = self.memo[id(node.child)]
            return e.rows, e.rows_lo, e.rows_hi
        if isinstance(node, Select):
            e = self.memo[id(node.child)]
            cp = self._props(node.child)
            if cp.constants.get(node.col) is True:
                return e.rows, e.rows_lo, e.rows_hi
            return e.rows * SELECT_SELECTIVITY, 0.0, e.rows_hi
        if isinstance(node, Distinct):
            e = self.memo[id(node.child)]
            cp = self._props(node.child)
            rows = e.rows if cp.keys else e.rows * 0.9
            return rows, min(e.rows_lo, 1.0), e.rows_hi
        if isinstance(node, Cross):
            le = self.memo[id(node.left)]
            re_ = self.memo[id(node.right)]
            hi = (None if le.rows_hi is None or re_.rows_hi is None
                  else le.rows_hi * re_.rows_hi)
            return le.rows * re_.rows, le.rows_lo * re_.rows_lo, hi
        if isinstance(node, EqJoin):
            le = self.memo[id(node.left)]
            re_ = self.memo[id(node.right)]
            lp = self._props(node.left)
            rp = self._props(node.right)
            lcols = frozenset(l for l, _ in node.pairs)
            rcols = frozenset(r for _, r in node.pairs)
            if rp.has_key(rcols):
                # Each left row matches at most one right row; the
                # compiler's surrogate joins match every row.
                return le.rows, 0.0, le.rows_hi
            if lp.has_key(lcols):
                return re_.rows, 0.0, re_.rows_hi
            hi = (None if le.rows_hi is None or re_.rows_hi is None
                  else le.rows_hi * re_.rows_hi)
            # No distinct-value statistics: assume the join key is near
            # unique on the larger side (|L||R| / max(|L|, |R|)).
            return min(le.rows, re_.rows), 0.0, hi
        if isinstance(node, SemiJoin):
            e = self.memo[id(node.left)]
            return e.rows, 0.0, e.rows_hi
        if isinstance(node, AntiJoin):
            e = self.memo[id(node.left)]
            return e.rows * ANTI_SELECTIVITY, 0.0, e.rows_hi
        if isinstance(node, UnionAll):
            le = self.memo[id(node.left)]
            re_ = self.memo[id(node.right)]
            hi = (None if le.rows_hi is None or re_.rows_hi is None
                  else le.rows_hi + re_.rows_hi)
            return le.rows + re_.rows, le.rows_lo + re_.rows_lo, hi
        if isinstance(node, GroupAggr):
            e = self.memo[id(node.child)]
            lo = 0.0 if e.rows_lo == 0 else 1.0
            if not node.group:
                return (0.0 if e.rows == 0 else 1.0), lo, 1.0
            cp = self._props(node.child)
            rows = e.rows if cp.has_key(node.group) else e.rows * GROUP_RATIO
            return rows, lo, e.rows_hi
        # Unknown operator: schema inference would have raised earlier.
        return 1.0, 0.0, None  # pragma: no cover


# ----------------------------------------------------------------------
# bundle stamping + EXPLAIN annotations
# ----------------------------------------------------------------------

def estimate_bundle(bundle: object, backend: str = "engine",
                    table_rows: "Mapping[str, int] | None" = None,
                    cache: "PlanStore | None" = None) -> BundleCost:
    """Per-query :class:`QueryCost` for a whole bundle (the compile
    pipeline stamps the result on ``bundle.cost``)."""
    model = CostModel(backend, table_rows=table_rows, cache=cache)
    queries = [model.query_cost(q.plan)
               for q in bundle.queries]  # type: ignore[attr-defined]
    return BundleCost(backend=backend, calibrated=model.calibrated,
                      calibration_version=int(
                          model.constants.get("__version__", 0)),
                      queries=queries)


def annotate_costs(root: Node, model: CostModel) -> dict[int, str]:
    """Per-node estimate annotations keyed by the pretty-printer's
    postorder ``@n`` refs (merged into the EXPLAIN property view)."""
    model.estimate(root)
    return {i: "[" + model.memo[id(node)].show() + "]"
            for i, node in enumerate(postorder(root))}

