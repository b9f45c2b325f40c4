"""The in-memory algebra engine: a bundle as one column program.

This is the laptop-scale stand-in for the paper's database back-end: it
executes exactly the table-algebra plans the loop-lifting compiler emits,
column at a time, the way the paper runs a bundle as MIL -- whole-column
primitives, planned once and then replayed.

:func:`lower` turns every distinct node of a bundle's plans into one
*step*, once, at prepare time, in one postorder over all the query
roots: a closure, made by the lowering function of the node's operator,
that calls the whole-column kernels of :mod:`repro.backends.kernels`.
Every column name is resolved to a position there, from the children's
column tuples, so a step reads its inputs by index.  At run time a
relation is a plain ``(columns, nrows)`` pair in a *slot* list indexed
by step number (one list per execution): a step reads its children's
slots and returns its own.  A node shared between the queries of a
bundle (the outer query's spine feeding each inner query) is one step,
run once per execution -- the engine-level image of the ``WITH``
bindings in the generated SQL.
"""

from __future__ import annotations

import time
from itertools import compress, repeat
from operator import itemgetter
from typing import Any, Callable, Iterable, Sequence

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
from ...core.bundle import Bundle
from ...errors import ExecutionError
from ...runtime.catalog import Catalog
from .. import kernels
from .relation import Relation

#: A relation at run time: its columns, positionally, and its row count.
Slot = tuple[list, int]
#: One lowered node: its children's slots (and the catalog) -> its own.
Step = Callable[[list, Catalog], Slot]
Cols = tuple[str, ...]


def lower(roots: Iterable[Node]
          ) -> tuple[dict[Node, int], list[Step], list[Cols]]:
    """Every distinct node reachable from ``roots``, children before
    parents, as one step each -- with each node's step number (in step
    order) and, by step number, its column names."""
    index: dict[Node, int] = {}
    steps: list[Step] = []
    cols: list[Cols] = []
    for node in postorder(*roots):
        ins = [index[child] for child in node.children]
        lowering = _LOWER.get(type(node))
        if lowering is None:
            raise ExecutionError(f"engine cannot evaluate {node.label}")
        out, step = lowering(node, ins, [cols[i] for i in ins])
        index[node] = len(steps)
        steps.append(step)
        cols.append(out)
    return index, steps, cols


class BundleProgram:
    """A bundle lowered once: the engine's prepared artifact.

    ``steps[k]`` computes node ``nodes[k]``, whose ``index`` is ``k``;
    query ``i``'s plan is ``nodes[roots[i]]``, and the query is the
    first to need the steps
    ``ends[i - 1]`` up to ``ends[i]`` (the queries run in bundle order).
    ``outputs[i]`` reads the ``(iter, pos, item...)`` columns of its root
    slot.
    """

    __slots__ = ("index", "nodes", "steps", "ends", "roots", "outputs")

    def __init__(self, bundle: Bundle):
        plans = [query.plan for query in bundle.queries]
        self.index, self.steps, cols = lower(plans)
        self.nodes = list(self.index)
        self.roots = tuple(map(self.index.__getitem__, plans))
        ends, end = [], 0
        for root in self.roots:
            end = max(end, root + 1)
            ends.append(end)
        self.ends = tuple(ends)
        self.outputs = tuple(
            itemgetter(*(cols[root].index(c) for c in
                         (query.iter_col, query.pos_col, *query.item_cols)))
            for root, query in zip(self.roots, bundle.queries))

    def run(self, qi: int, slots: list, catalog: Catalog,
            profile: "list | None" = None) -> list[tuple]:
        """Rows of bundle query ``qi``, sorted by ``(iter, pos)``, filling
        ``slots`` (every query before it in the bundle has run on them).

        ``profile``, when given, receives one
        :class:`~repro.obs.analyze.OpProfile` per node of the query's
        plan, in the plan's own postorder (the ``@n`` of its listing) --
        exclusive wall time, input/output cardinalities and output width,
        the data behind EXPLAIN ANALYZE; a step an earlier query ran is a
        hit with (near-)zero time.  Only that loop reads the clock.
        """
        if profile is None:
            steps = self.steps
            for k in range(self.ends[qi - 1] if qi else 0, self.ends[qi]):
                slots[k] = steps[k](slots, catalog)
        else:
            self._profiled(qi, slots, catalog, profile)
        columns, _ = slots[self.roots[qi]]
        # (iter, pos) is a key of every query, so sorting the zipped
        # row tuples orders by it without a per-row key function.
        return sorted(zip(*self.outputs[qi](columns)))

    def _profiled(self, qi: int, slots: list, catalog: Catalog,
                  profile: list) -> None:
        from ...obs.analyze import OpProfile
        steps, index = self.steps, self.index
        for ref, node in enumerate(postorder(self.nodes[self.roots[qi]])):
            rows_in = sum(slots[index[c]][1] for c in node.children)
            k = index[node]
            t0 = time.perf_counter()
            if slots[k] is None:
                slots[k] = steps[k](slots, catalog)
            elapsed = time.perf_counter() - t0
            columns, nrows = slots[k]
            profile.append(OpProfile(ref=ref, op=describe(node),
                                     time=elapsed, rows_in=rows_in,
                                     rows_out=nrows, width=len(columns)))

    def listing(self) -> list[str]:
        """Each query's plan, in its postorder, as a numbered instruction
        listing."""
        return ["\n".join(f"{ref:3d}: {describe(node)}" for ref, node
                          in enumerate(postorder(self.nodes[root])))
                for root in self.roots]


class Engine:
    """Evaluates one algebra plan against a :class:`Catalog`: a one-plan
    program, lowered and run (tests and audits; bundles run through
    :class:`~repro.backends.engine.EngineBackend`)."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    def execute(self, root: Node,
                values: "dict[Node, Relation] | None" = None) -> Relation:
        """The relation of the plan rooted at ``root``; ``values``, when
        given, receives ``node`` -> relation for every node of it."""
        nodes, steps, cols = lower([root])
        slots: list = []
        for step in steps:
            slots.append(step(slots, self.catalog))
        if values is not None:
            for node, names, slot in zip(nodes, cols, slots):
                values[node] = Relation(names, *slot)
        return Relation(cols[-1], *slots[-1])


# ----------------------------------------------------------------------
# lowering: one function per operator, run once per node at prepare
# time; each returns the node's column names and its step
# ----------------------------------------------------------------------

Lowering = Callable[[Any, list[int], list[Cols]], tuple[Cols, Step]]


def _positions(cols: Cols, names: Iterable[str]) -> tuple[int, ...]:
    return tuple(map(cols.index, names))


def _lit_table(node: LitTable, ins, cols) -> tuple[Cols, Step]:
    names = tuple(name for name, _ in node.schema)
    slot = (kernels.transpose(node.rows, len(names)), len(node.rows))
    return names, lambda slots, catalog: slot


def _table_scan(node: TableScan, ins, cols) -> tuple[Cols, Step]:
    table = node.table
    sources = [src for _, src, _ in node.outputs]

    def step(slots, catalog):
        columns = kernels.table_columns(catalog, table, sources)
        return columns, len(columns[0]) if columns else 0
    return tuple(out for out, _, _ in node.outputs), step


def _attach(node: Attach, ins, cols) -> tuple[Cols, Step]:
    (src,), value = ins, node.value

    def step(slots, catalog):
        columns, n = slots[src]
        return columns + [[value] * n], n
    return cols[0] + (node.col,), step


def _project(node: Project, ins, cols) -> tuple[Cols, Step]:
    # Pure column aliasing: no per-row work at all.
    (src,) = ins
    pick = _positions(cols[0], (old for _, old in node.cols))

    def step(slots, catalog):
        columns, n = slots[src]
        return [columns[i] for i in pick], n
    return tuple(new for new, _ in node.cols), step


def _select(node: Select, ins, cols) -> tuple[Cols, Step]:
    (src,), at = ins, cols[0].index(node.col)

    def step(slots, catalog):
        columns, _ = slots[src]
        mask = columns[at]
        out = [list(compress(col, mask)) for col in columns]
        return out, len(out[at])
    return cols[0], step


def _distinct(node: Distinct, ins, cols) -> tuple[Cols, Step]:
    (src,) = ins

    def step(slots, catalog):
        columns, _ = slots[src]
        keep = kernels.distinct_index(columns)
        return kernels.gather(columns, keep), len(keep)
    return cols[0], step


def _order(cols: Cols, order: Sequence[tuple[str, str]]
           ) -> tuple[tuple[int, bool], ...]:
    return tuple((cols.index(c), d == "desc") for c, d in order)


def _row_num(node: RowNum, ins, cols) -> tuple[Cols, Step]:
    (src,) = ins
    part = _positions(cols[0], node.part)
    order = tuple((i, False) for i in part) + _order(cols[0], node.order)

    def step(slots, catalog):
        columns, n = slots[src]
        perm = kernels.sort_perm([(columns[i], d) for i, d in order], n)
        numbers = kernels.row_number(perm, [columns[i] for i in part])
        return columns + [numbers], n
    return cols[0] + (node.col,), step


def _row_rank(node: RowRank, ins, cols) -> tuple[Cols, Step]:
    (src,), order = ins, _order(cols[0], node.order)

    def step(slots, catalog):
        columns, n = slots[src]
        keys = [(columns[i], d) for i, d in order]
        perm = kernels.sort_perm(keys, n)
        ranks = kernels.dense_rank(perm, [col for col, _ in keys])
        return columns + [ranks], n
    return cols[0] + (node.col,), step


def _gathered(left: list, li, right: list, ri) -> Slot:
    """Both sides' columns at the aligned indices, left first."""
    return (kernels.gather(left, li)
            + kernels.gather(right, ri), len(li))


def _cross(node: Cross, ins, cols) -> tuple[Cols, Step]:
    lsrc, rsrc = ins

    def step(slots, catalog):
        (left, nl), (right, nr) = slots[lsrc], slots[rsrc]
        li, ri = kernels.cross_index(nl, nr)
        return _gathered(left, li, right, ri)
    return cols[0] + cols[1], step


def _keys(node: "EqJoin | SemiJoin | AntiJoin", cols: list[Cols]
          ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return (_positions(cols[0], (l for l, _ in node.pairs)),
            _positions(cols[1], (r for _, r in node.pairs)))


def _eq_join(node: EqJoin, ins, cols) -> tuple[Cols, Step]:
    (lsrc, rsrc), (lk, rk) = ins, _keys(node, cols)

    def step(slots, catalog):
        left, right = slots[lsrc][0], slots[rsrc][0]
        li, ri = kernels.join_index(
            kernels.key_column([left[i] for i in lk]),
            kernels.key_column([right[i] for i in rk]))
        return _gathered(left, li, right, ri)
    return cols[0] + cols[1], step


def _semi_join(node: "SemiJoin | AntiJoin", ins, cols) -> tuple[Cols, Step]:
    (lsrc, rsrc), (lk, rk) = ins, _keys(node, cols)
    anti = isinstance(node, AntiJoin)

    def step(slots, catalog):
        left, right = slots[lsrc][0], slots[rsrc][0]
        mask = kernels.semi_mask(
            kernels.key_column([left[i] for i in lk]),
            kernels.key_column([right[i] for i in rk]), anti)
        out = [list(compress(col, mask)) for col in left]
        return out, sum(mask)
    return cols[0], step


def _union_all(node: UnionAll, ins, cols) -> tuple[Cols, Step]:
    lsrc, rsrc = ins
    # right's columns in left's column order
    pick = _positions(cols[1], cols[0])

    def step(slots, catalog):
        (left, nl), (right, nr) = slots[lsrc], slots[rsrc]
        return ([list(col) + list(right[i]) for col, i in zip(left, pick)],
                nl + nr)
    return cols[0], step


def _group_aggr(node: GroupAggr, ins, cols) -> tuple[Cols, Step]:
    (src,), group = ins, _positions(cols[0], node.group)
    aggs = tuple((func, None if col is None else cols[0].index(col))
                 for func, col, _ in node.aggs)

    def step(slots, catalog):
        columns, n = slots[src]
        return kernels.group_aggregate(
            [columns[i] for i in group], n,
            [(func, () if i is None else columns[i]) for func, i in aggs])
    return node.group + tuple(out for _, _, out in node.aggs), step


def _bin_app(node: BinApp, ins, cols) -> tuple[Cols, Step]:
    (src,), fn = ins, kernels.BIN[node.op]
    # A column operand as its position, a constant as ``(value,)``.
    lhs, rhs = ((o.value,) if isinstance(o, Const) else cols[0].index(o)
                for o in (node.lhs, node.rhs))

    def step(slots, catalog):
        columns, n = slots[src]
        # Constants repeat exactly n times, so two constant operands
        # cannot stall ``map``.
        a = repeat(lhs[0], n) if type(lhs) is tuple else columns[lhs]
        b = repeat(rhs[0], n) if type(rhs) is tuple else columns[rhs]
        return columns + [list(map(fn, a, b))], n
    return cols[0] + (node.out,), step


def _un_app(node: UnApp, ins, cols) -> tuple[Cols, Step]:
    (src,), fn, at = ins, kernels.UN[node.op], cols[0].index(node.col)

    def step(slots, catalog):
        columns, n = slots[src]
        return columns + [list(map(fn, columns[at]))], n
    return cols[0] + (node.out,), step


#: Operator class -> its lowering (dispatch on ``type(node)``).
_LOWER: dict[type, Lowering] = {
    LitTable: _lit_table, TableScan: _table_scan, Attach: _attach,
    Project: _project, Select: _select, Distinct: _distinct,
    RowNum: _row_num, RowRank: _row_rank, Cross: _cross, EqJoin: _eq_join,
    SemiJoin: _semi_join, AntiJoin: _semi_join, UnionAll: _union_all,
    GroupAggr: _group_aggr, BinApp: _bin_app, UnApp: _un_app,
}
