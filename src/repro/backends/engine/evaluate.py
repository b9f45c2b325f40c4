"""The in-memory algebra engine: bottom-up evaluation of plan DAGs.

This is the laptop-scale stand-in for the paper's database back-end: it
executes exactly the table-algebra plans the loop-lifting compiler emits,
column at a time.  Each operator is a few calls into the whole-column
kernels of :mod:`repro.backends.kernels` over the parallel column lists
of :class:`~repro.backends.engine.relation.Relation`, plus the assembly
of the result relation -- mirroring the MonetDB/MIL execution model (and
the fused bag-semantics kernels of Dong & Kjolstad).

Shared subplans are evaluated once: within a query through the schedule
(postorder visits each DAG node once), and *across* the queries of a
bundle through one memo, a plain ``dict`` from ``id(node)`` to its
:class:`Relation` that every query of the bundle fills, so the outer
query's spine feeding each inner query materializes once per bundle
rather than once per query -- the engine-level image of the ``WITH``
bindings in the generated SQL.  Bundles run serially and each
``execute_bundle`` call owns its memo, so nothing is shared between
threads.
"""

from __future__ import annotations

import time
from itertools import repeat

from ...algebra import (
    AntiJoin,
    Attach,
    BinApp,
    Const,
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
    describe,
    postorder,
)
from ...errors import ExecutionError
from ...runtime.catalog import Catalog
from .. import kernels
from .relation import Relation


def compile_schedule(root: Node) -> tuple[Node, ...]:
    """The engine's "generated code" for a plan: its evaluation order.

    Flattening the DAG into an instruction-like postorder sequence is
    data-independent, so prepared queries compute it once and replay it
    on every execution.
    """
    return tuple(postorder(root))


class Engine:
    """Evaluates algebra plans against a :class:`Catalog`."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    def execute(self, root: Node,
                schedule: "tuple[Node, ...] | None" = None,
                profile: "list | None" = None,
                values: "dict[int, Relation] | None" = None) -> Relation:
        """Evaluate the plan DAG rooted at ``root``.

        ``schedule`` is an optional precomputed evaluation order (the
        DAG's postorder, as produced by :func:`compile_schedule`); passing
        it skips the traversal, which prepared queries cache.

        ``profile``, when given, receives one
        :class:`~repro.obs.analyze.OpProfile` per schedule slot --
        exclusive wall time, input/output cardinalities, and output
        width -- the data behind EXPLAIN ANALYZE's annotated plan.  The
        profiling loop is kept separate so unprofiled execution pays
        zero clock reads.

        ``values`` is the bundle's memo, ``id(node)`` -> relation (by
        default a fresh dict, sharing nothing): nodes an earlier query
        of the bundle evaluated are read from it, and nodes this query
        evaluates are added to it.  Cardinalities and widths reported
        to ``profile`` are unaffected -- a hit reports the same
        relation, only with (near-)zero exclusive time.
        """
        if schedule is None:
            schedule = compile_schedule(root)
        if values is None:
            values = {}
        if profile is None:
            for node in schedule:
                if id(node) not in values:
                    values[id(node)] = self._eval(node, values)
            return values[id(root)]

        from ...obs.analyze import OpProfile
        for ref, node in enumerate(schedule):
            rows_in = sum(values[id(c)].nrows for c in node.children)
            t0 = time.perf_counter()
            rel = values.get(id(node))
            if rel is None:
                rel = values[id(node)] = self._eval(node, values)
            elapsed = time.perf_counter() - t0
            profile.append(OpProfile(ref=ref, op=describe(node),
                                     time=elapsed, rows_in=rows_in,
                                     rows_out=rel.nrows,
                                     width=len(rel.cols)))
        return values[id(root)]

    # ------------------------------------------------------------------
    # one operator = column kernels + Relation assembly
    # ------------------------------------------------------------------
    def _eval(self, node: Node, memo: dict[int, Relation]) -> Relation:
        children = [memo[id(c)] for c in node.children]

        if isinstance(node, LitTable):
            names = [name for name, _ in node.schema]
            return Relation(names, kernels.transpose(node.rows, len(names)),
                            len(node.rows))

        if isinstance(node, TableScan):
            return Relation([out for out, _, _ in node.outputs],
                            kernels.table_columns(
                                self.catalog, node.table,
                                [src for _, src, _ in node.outputs]))

        if isinstance(node, Attach):
            (rel,) = children
            return rel.extended(node.col, [node.value] * rel.nrows)

        if isinstance(node, Project):
            (rel,) = children
            # Pure column aliasing: no per-row work at all.
            return Relation([new for new, _ in node.cols],
                            [rel.column(old) for _, old in node.cols],
                            rel.nrows)

        if isinstance(node, Select):
            (rel,) = children
            return rel.filtered(rel.column(node.col))

        if isinstance(node, Distinct):
            (rel,) = children
            return rel.gathered(kernels.distinct_index(rel.columns))

        if isinstance(node, RowNum):
            (rel,) = children
            part = [rel.column(c) for c in node.part]
            keys = [(col, False) for col in part]
            keys += [(rel.column(c), d == "desc") for c, d in node.order]
            perm = kernels.sort_perm(keys, rel.nrows)
            return rel.extended(node.col, kernels.row_number(perm, part))

        if isinstance(node, RowRank):
            (rel,) = children
            keys = [(rel.column(c), d == "desc") for c, d in node.order]
            perm = kernels.sort_perm(keys, rel.nrows)
            return rel.extended(node.col, kernels.dense_rank(
                perm, [col for col, _ in keys]))

        if isinstance(node, Cross):
            left, right = children
            li, ri = kernels.cross_index(left.nrows, right.nrows)
            return left.gathered(li).beside(right.gathered(ri))

        if isinstance(node, EqJoin):
            left, right = children
            li, ri = kernels.join_index(
                kernels.key_column([left.column(l) for l, _ in node.pairs]),
                kernels.key_column([right.column(r) for _, r in node.pairs]))
            return left.gathered(li).beside(right.gathered(ri))

        if isinstance(node, (SemiJoin, AntiJoin)):
            left, right = children
            return left.filtered(kernels.semi_mask(
                kernels.key_column([left.column(l) for l, _ in node.pairs]),
                kernels.key_column([right.column(r) for _, r in node.pairs]),
                anti=isinstance(node, AntiJoin)))

        if isinstance(node, UnionAll):
            left, right = children
            # right's columns in left's column order
            return Relation(left.cols,
                            [list(left.column(c)) + list(right.column(c))
                             for c in left.cols],
                            left.nrows + right.nrows)

        if isinstance(node, GroupAggr):
            (rel,) = children
            columns, members = kernels.group_members(
                [rel.column(c) for c in node.group], rel.nrows)
            for func, col, _ in node.aggs:
                columns.append(kernels.aggregate(
                    func, rel.column(col) if col else (), members))
            return Relation(
                tuple(node.group) + tuple(out for _, _, out in node.aggs),
                columns, len(members))

        if isinstance(node, BinApp):
            (rel,) = children
            # Constants repeat exactly nrows times, so two constant
            # operands cannot stall ``map``.
            lhs, rhs = (repeat(o.value, rel.nrows) if isinstance(o, Const)
                        else rel.column(o) for o in (node.lhs, node.rhs))
            return rel.extended(
                node.out, list(map(kernels.BIN[node.op], lhs, rhs)))

        if isinstance(node, UnApp):
            (rel,) = children
            return rel.extended(
                node.out, list(map(kernels.UN[node.op], rel.column(node.col))))

        raise ExecutionError(f"engine cannot evaluate {node.label}")
