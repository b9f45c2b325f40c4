"""Lowering algebra plans to MIL column programs.

The MIL code generator (the second Pathfinder back-end the paper
mentions): every algebra operator becomes a short sequence of
column-at-a-time instructions.  A node's output relation is represented
as one VM variable per schema column; row alignment across a node's
columns is positional, exactly like MonetDB's BATs.
"""

from __future__ import annotations

import itertools
from contextlib import nullcontext

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
    postorder,
    schema_of,
)
from ...analysis import ensure_verified
from ...core.bundle import Bundle
from ...errors import ExecutionError
from ...runtime.catalog import Catalog
from ..base import Backend
from . import program as mil


class MILGenerator:
    """Compile one algebra plan into a :class:`MILProgram`."""

    def __init__(self) -> None:
        self._counter = itertools.count()
        self.instructions: list[mil.Instr] = []

    def fresh(self, prefix: str = "b") -> str:
        return f"{prefix}{next(self._counter)}"

    def emit(self, instr: mil.Instr) -> None:
        self.instructions.append(instr)

    # ------------------------------------------------------------------
    def generate(self, root: Node, out_cols: tuple[str, ...]) -> mil.MILProgram:
        memo: dict = {}
        colmap: dict[int, dict[str, str]] = {}
        for node in postorder(root):
            colmap[id(node)] = self._lower(node, colmap, memo)
        root_cols = colmap[id(root)]
        return mil.MILProgram(self.instructions,
                              tuple(root_cols[c] for c in out_cols))

    # ------------------------------------------------------------------
    def _lower(self, node: Node, colmap, memo) -> dict[str, str]:
        kids = [colmap[id(c)] for c in node.children]

        if isinstance(node, LitTable):
            out = {}
            for i, (name, _ty) in enumerate(node.schema):
                var = self.fresh()
                self.emit(mil.LitCol(var, tuple(r[i] for r in node.rows)))
                out[name] = var
            return out

        if isinstance(node, TableScan):
            out = {}
            for new, src, _ty in node.outputs:
                var = self.fresh()
                self.emit(mil.LoadCol(var, node.table, src))
                out[new] = var
            return out

        if isinstance(node, Attach):
            (child,) = kids
            var = self.fresh()
            self.emit(mil.ConstCol(var, node.value,
                                   next(iter(child.values()))))
            return {**child, node.col: var}

        if isinstance(node, Project):
            (child,) = kids
            return {new: child[old] for new, old in node.cols}

        if isinstance(node, Select):
            (child,) = kids
            idx = self.fresh("i")
            self.emit(mil.MaskIndex(idx, child[node.col]))
            return self._gather(child, idx)

        if isinstance(node, Distinct):
            (child,) = kids
            schema = schema_of(node, memo)
            idx = self.fresh("i")
            self.emit(mil.DistinctIndex(
                idx, tuple(child[c] for c in schema)))
            return self._gather(child, idx)

        if isinstance(node, RowNum):
            (child,) = kids
            perm = self.fresh("p")
            keys = tuple((child[c], "asc") for c in node.part)
            keys += tuple((child[c], d) for c, d in node.order)
            self.emit(mil.SortPerm(perm, keys))
            var = self.fresh()
            self.emit(mil.RowNumber(var, perm,
                                    tuple(child[c] for c in node.part)))
            return {**child, node.col: var}

        if isinstance(node, RowRank):
            (child,) = kids
            perm = self.fresh("p")
            keys = tuple((child[c], d) for c, d in node.order)
            self.emit(mil.SortPerm(perm, keys))
            var = self.fresh()
            self.emit(mil.DenseRank(var, perm,
                                    tuple(child[c] for c, _ in node.order)))
            return {**child, node.col: var}

        if isinstance(node, Cross):
            left, right = kids
            li, ri = self.fresh("i"), self.fresh("i")
            self.emit(mil.CrossIndex(li, ri, next(iter(left.values())),
                                     next(iter(right.values()))))
            return {**self._gather(left, li), **self._gather(right, ri)}

        if isinstance(node, EqJoin):
            left, right = kids
            li, ri = self.fresh("i"), self.fresh("i")
            self.emit(mil.HashJoinIndex(
                li, ri,
                tuple(left[l] for l, _ in node.pairs),
                tuple(right[r] for _, r in node.pairs)))
            return {**self._gather(left, li), **self._gather(right, ri)}

        if isinstance(node, (SemiJoin, AntiJoin)):
            left, right = kids
            idx = self.fresh("i")
            self.emit(mil.SemiIndex(
                idx,
                tuple(left[l] for l, _ in node.pairs),
                tuple(right[r] for _, r in node.pairs),
                anti=isinstance(node, AntiJoin)))
            return self._gather(left, idx)

        if isinstance(node, UnionAll):
            left, right = kids
            out = {}
            for col in schema_of(node, memo):
                var = self.fresh()
                self.emit(mil.Concat(var, left[col], right[col]))
                out[col] = var
            return out

        if isinstance(node, GroupAggr):
            (child,) = kids
            group_out = tuple(self.fresh() for _ in node.group)
            agg_specs = []
            out = {}
            for func, in_col, out_col in node.aggs:
                var = self.fresh()
                agg_specs.append(
                    (func, child[in_col] if in_col else None, var))
                out[out_col] = var
            self.emit(mil.GroupAggregate(
                tuple(child[c] for c in node.group),
                tuple(agg_specs), group_out,
                like=next(iter(child.values()))))
            for name, var in zip(node.group, group_out):
                out[name] = var
            return out

        if isinstance(node, BinApp):
            (child,) = kids
            var = self.fresh()
            lc = isinstance(node.lhs, Const)
            rc = isinstance(node.rhs, Const)
            if lc and rc:
                raise ExecutionError("BinApp over two constants should have "
                                     "been folded")
            if lc:
                self.emit(mil.Map2Const(var, node.op, child[node.rhs],
                                        node.lhs.value, const_left=True))
            elif rc:
                self.emit(mil.Map2Const(var, node.op, child[node.lhs],
                                        node.rhs.value))
            else:
                self.emit(mil.Map2(var, node.op, child[node.lhs],
                                   child[node.rhs]))
            return {**child, node.out: var}

        if isinstance(node, UnApp):
            (child,) = kids
            var = self.fresh()
            self.emit(mil.Map1(var, node.op, child[node.col]))
            return {**child, node.out: var}

        raise ExecutionError(f"cannot lower {node.label} to MIL")

    def _gather(self, cols: dict[str, str], idx: str) -> dict[str, str]:
        out = {}
        for name, var in cols.items():
            new = self.fresh()
            self.emit(mil.Take(new, var, idx))
            out[name] = new
        return out


class MILBackend(Backend):
    """Generates MIL column programs and runs them on the mini VM."""

    name = "mil"

    def prepare_bundle(self, bundle: Bundle) -> list[mil.MILProgram]:
        """Lower every bundle member to a MIL program (no execution)."""
        ensure_verified(bundle, "backend:mil")
        programs = []
        for query in bundle.queries:
            gen = MILGenerator()
            out_cols = (query.iter_col, query.pos_col) + query.item_cols
            programs.append(gen.generate(query.plan, out_cols))
        return programs

    def describe_prepared(self, prepared: "list[mil.MILProgram]") -> list[str]:
        """The MIL instruction listings."""
        return [program.show() for program in prepared]

    def open_bundle(self, bundle: Bundle, catalog: Catalog,
                    prepared: "list[mil.MILProgram]"):
        # Bind what the programs read -- the (table, column) pairs of
        # their LoadCol instructions -- to the catalog's own columns.
        vm = mil.MILVM({
            f"@{instr.table}.{instr.column}":
                catalog.columns(instr.table)[instr.column]
            for program in prepared for instr in program.instructions
            if isinstance(instr, mil.LoadCol)})

        def run_query(qi, ops):
            # The VM runs a whole column program per query: no
            # per-operator profiles at this granularity.
            columns = vm.run(prepared[qi])
            # (iter, pos) is a key, so sorting full rows orders by it.
            return sorted(zip(*columns)) if columns[0] else []

        return nullcontext(run_query)  # nothing to tear down
