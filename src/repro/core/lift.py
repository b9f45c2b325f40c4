"""Loop-lifting: compiling expressions into table-algebra vectors.

This is the paper's primary contribution (Sections 3, 3.2 and [13]): a
syntax-directed, *compositional* translation of list programs into flat,
data-parallel table-algebra plans.

The central idea: an expression is never compiled for a single evaluation,
but for *all* iterations of its enclosing ``map``-nest at once.  The live
iterations form the *loop* relation; every expression compiles to a
:class:`Vec` keyed by ``iter``.  ``map f xs`` (a) assigns each element of
``xs`` a fresh surrogate via row numbering, (b) makes those surrogates the
*inner* loop, (c) re-keys the environment to the inner loop (one equi-join
per free variable), and (d) compiles ``f``'s body once against the inner
loop -- the relational engine is then "free to consider these bindings and
the corresponding evaluations ... in any order it sees fit (or in
parallel)".

List order starts at the base tables: ``table t`` compiles to a
positional ``TableScan`` -- the scan hands out each row's position in
the catalog's canonical row order as its ``pos`` column; no ``RowNum``
numbers a base table -- and every rule from there on derives its ``pos``
from the ``pos`` of its inputs.

The compilation of the individual list-prelude combinators lives in
``repro.core.lift_builtins``; this module owns the expression dispatch
and the vector toolbox (boxing, merging, environment lifting) they share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from typing import Any, Iterator

from ..algebra import (
    Attach,
    BinApp,
    Const,
    Cross,
    EqJoin,
    LitTable,
    Node,
    Project,
    RowNum,
    Select,
    SemiJoin,
    TableScan,
    UnApp,
    UnionAll,
    position_column,
)
from ..errors import CompilationError
from ..expr import (
    AppE,
    BinOpE,
    Exp,
    IfE,
    LamE,
    ListE,
    LitE,
    TableE,
    TupleE,
    TupleElemE,
    UnOpE,
    VarE,
)
from ..ftypes import AtomT, IntT, ListT, TupleT, Type
from .layout import (
    AtomLay,
    Layout,
    NameGen,
    NestLay,
    TupleLay,
    Vec,
    layout_col_types,
    layout_cols,
    nest_positions,
    relabel,
)


@dataclass(frozen=True)
class Loop:
    """The loop relation: a single-column plan listing live iterations."""

    plan: Node
    col: str


Env = dict[str, Vec]


class LiftCompiler:
    """One compilation run (owns the fresh-name supply).

    ``decorrelate=False`` disables the decorrelated-filter rule (the
    lifter's half of join-graph isolation; ``compile_exp`` switches the
    expression normal form off with it), exposing the naive quadratic
    ``loop x source`` plans -- used by the decorrelation ablation.
    """

    def __init__(self, decorrelate: bool = True) -> None:
        self.names = NameGen()
        self.decorrelate = decorrelate

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def compile_top(self, e: Exp) -> Vec:
        """Compile a closed expression under the unit loop (one iteration,
        ``iter = 1``)."""
        return self.compile(e, self.unit_loop(), {})

    def unit_loop(self) -> Loop:
        """The single-iteration loop relation (also the context in which
        loop-invariant subqueries are hoisted and compiled once)."""
        ic = self.fresh()
        return Loop(LitTable(((1,),), ((ic, IntT),)), ic)

    # ------------------------------------------------------------------
    # toolbox
    # ------------------------------------------------------------------
    def fresh(self) -> str:
        return self.names.fresh()

    def project_vec(self, vec: Vec) -> Vec:
        """Narrow a vector's plan to exactly its own columns (keeps plans
        clean after operators that add scratch columns)."""
        cols = [(vec.iter_col, vec.iter_col), (vec.pos_col, vec.pos_col)]
        cols += [(c, c) for c in layout_cols(vec.layout)]
        return Vec(Project(vec.plan, tuple(cols)), vec.iter_col,
                   vec.pos_col, vec.layout)

    def as_fresh(self, vec: Vec) -> Vec:
        """Rename every column of ``vec`` to fresh names (via a Project),
        so it can appear on the right of a join without name clashes --
        also required when the same vector is used twice in one plan."""
        mapping = {vec.iter_col: self.fresh(), vec.pos_col: self.fresh()}
        for c in layout_cols(vec.layout):
            mapping[c] = self.fresh()
        cols = tuple((new, old) for old, new in mapping.items())
        return Vec(Project(vec.plan, cols), mapping[vec.iter_col],
                   mapping[vec.pos_col], relabel(vec.layout, mapping))

    def const_vec(self, loop: Loop, value: Any, ty: AtomT) -> Vec:
        """Compile a literal: attach ``pos = 1`` and the constant column to
        the loop relation (the paper's rule for constants)."""
        pos = self.fresh()
        item = self.fresh()
        plan = Attach(Attach(loop.plan, pos, 1, IntT), item, value, ty)
        return Vec(plan, loop.col, pos, AtomLay(item, ty))

    def empty_vec(self, elem_ty: Type, iter_ty: AtomT = IntT) -> Vec:
        """A typed empty vector (the compilation of ``[]``)."""
        ic, pc = self.fresh(), self.fresh()
        lay = self.layout_for(elem_ty)
        schema = [(ic, iter_ty), (pc, IntT)]
        schema += list(zip(layout_cols(lay), layout_col_types(lay)))
        return Vec(LitTable((), tuple(schema)), ic, pc, lay)

    def layout_for(self, ty: Type) -> Layout:
        """A fresh layout skeleton for ``ty`` (inner vectors are empty)."""
        if isinstance(ty, AtomT):
            return AtomLay(self.fresh(), ty)
        if isinstance(ty, TupleT):
            return TupleLay(tuple(self.layout_for(t) for t in ty.elts))
        if isinstance(ty, ListT):
            return NestLay(self.fresh(), self.empty_vec(ty.elt))
        raise CompilationError(f"no layout for type {ty!r}")

    # -- boxing ---------------------------------------------------------
    def box(self, vec: Vec, loop: Loop) -> Vec:
        """Box a list-valued vector into a scalar vector of surrogates.

        Per live iteration there is exactly one list value, so the
        iteration id itself serves as the surrogate (Section 3.2 / the
        paper's (un)boxing phase)."""
        ic, pc, sc = self.fresh(), self.fresh(), self.fresh()
        plan = Attach(Project(loop.plan, ((ic, loop.col), (sc, loop.col))),
                      pc, 1, IntT)
        return Vec(plan, ic, pc, NestLay(sc, vec))

    def unbox(self, vec: Vec) -> Vec:
        """Inverse of :func:`box`: splice a scalar vector of surrogates
        back into a list vector (one equi-join on the surrogate)."""
        if not isinstance(vec.layout, NestLay):
            raise CompilationError("unbox requires a NestLay vector")
        inner = self.as_fresh(vec.layout.inner)
        joined = EqJoin(vec.plan, inner.plan,
                        ((vec.layout.col, inner.iter_col),))
        out = Vec(joined, vec.iter_col, inner.pos_col, inner.layout)
        return self.project_vec(out)

    def box_if_list(self, vec: Vec, ty: Type, loop: Loop) -> Vec:
        return self.box(vec, loop) if isinstance(ty, ListT) else vec

    # -- loops and environments ------------------------------------------
    def loop_from(self, plan: Node, col: str) -> Loop:
        c = self.fresh()
        return Loop(Project(plan, ((c, col),)), c)

    def restrict_env(self, env: Env, subloop: Loop) -> Env:
        """Restrict every environment entry to the iterations of a
        sub-loop (used by conditionals)."""
        out: Env = {}
        for name, vec in env.items():
            plan = SemiJoin(vec.plan, subloop.plan,
                            ((vec.iter_col, subloop.col),))
            out[name] = Vec(plan, vec.iter_col, vec.pos_col, vec.layout)
        return out

    def lift_env(self, env: Env, map_plan: Node, outer: str,
                 inner: str) -> Env:
        """Re-key every environment entry from the outer loop to the inner
        loop of a ``map``: one equi-join per free variable, guided by the
        ``outer -> inner`` iteration map."""
        out: Env = {}
        for name, vec in env.items():
            v = self.as_fresh(vec)
            joined = EqJoin(map_plan, v.plan, ((outer, v.iter_col),))
            ic = self.fresh()
            cols = [(ic, inner), (v.pos_col, v.pos_col)]
            cols += [(c, c) for c in layout_cols(v.layout)]
            out[name] = Vec(Project(joined, tuple(cols)), ic, v.pos_col,
                            v.layout)
        return out

    # -- the map machinery -------------------------------------------------
    def enter(self, xs_vec: Vec):
        """Set up the inner loop over the elements of ``xs_vec``.

        Returns ``(qv, inner_iter, inner_loop, elem_vec, map_plan)`` where

        * ``qv`` numbers each element with a fresh surrogate (its inner
          iteration id) -- plan columns: ``xs`` columns + ``inner_iter``;
        * ``inner_loop`` is the new loop relation over those surrogates;
        * ``elem_vec`` binds the lambda variable: the element value, one
          row per inner iteration;
        * ``map_plan`` maps outer ``iter`` to ``inner_iter`` (for
          :func:`lift_env`).
        """
        ii = self.fresh()
        qv = RowNum(xs_vec.plan, ii,
                    ((xs_vec.iter_col, "asc"), (xs_vec.pos_col, "asc")))
        inner_loop = self.loop_from(qv, ii)
        ic, pc = self.fresh(), self.fresh()
        cols = [(ic, ii)] + [(c, c) for c in layout_cols(xs_vec.layout)]
        elem_plan = Attach(Project(qv, tuple(cols)), pc, 1, IntT)
        elem_vec = Vec(elem_plan, ic, pc, xs_vec.layout)
        if isinstance(xs_vec.layout, NestLay):
            # The elements are themselves lists (e.g. the groups bound by
            # ``group by``): the lambda variable denotes the *list*, so the
            # environment entry is the unboxed element vector.
            elem_vec = self.unbox(elem_vec)
        oc, nc = self.fresh(), self.fresh()
        map_plan = Project(qv, ((oc, xs_vec.iter_col), (nc, ii)))
        return qv, ii, inner_loop, elem_vec, (map_plan, oc, nc)

    def lift_lambda(self, lam: LamE, xs_vec: Vec, env: Env):
        """Compile a lambda body over all elements of ``xs_vec`` at once.

        Returns ``(qv, inner_iter, inner_loop, body_vec)``.
        """
        qv, ii, inner_loop, elem_vec, (map_plan, oc, nc) = self.enter(xs_vec)
        inner_env = self.lift_env(env, map_plan, oc, nc)
        inner_env[lam.param] = elem_vec
        body_vec = self.compile(lam.body, inner_loop, inner_env)
        return qv, ii, inner_loop, body_vec

    def join_back(self, qv: Node, ii: str, xs_vec: Vec, body_vec: Vec,
                  body_ty: Type, inner_loop: Loop) -> Vec:
        """Attach per-element results back to the outer iteration/order of
        ``xs_vec`` (the tail end of the ``map`` rule)."""
        scalar = self.box_if_list(body_vec, body_ty, inner_loop)
        b = self.as_fresh(scalar)
        ri, rp, rj = self.fresh(), self.fresh(), self.fresh()
        left = Project(qv, ((ri, xs_vec.iter_col), (rp, xs_vec.pos_col),
                            (rj, ii)))
        joined = EqJoin(left, b.plan, ((rj, b.iter_col),))
        out = Vec(joined, ri, rp, b.layout)
        return self.project_vec(out)

    # -- merging (append / literals / conditionals) -----------------------
    def merge_vecs(self, vecs: list[Vec]) -> Vec:
        """Merge same-shaped vectors into one, ordering each iteration's
        rows by (source index, original position).

        This implements ``++`` and list literals, and -- because the
        branches of a conditional live on disjoint iterations -- also the
        merge of ``if/then/else`` results.  Nested layouts require fresh
        surrogates for every output row, with all inner vectors re-keyed
        and recursively merged.
        """
        if len(vecs) == 1:
            return vecs[0]
        shape = vecs[0].layout
        ic, pc, tc = self.fresh(), self.fresh(), self.fresh()
        common = [self.fresh() for _ in layout_cols(shape)]
        parts = []
        for i, v in enumerate(vecs):
            tagged = Attach(v.plan, tc, i, IntT)
            cols = [(ic, v.iter_col), (pc, v.pos_col), (tc, tc)]
            cols += list(zip(common, layout_cols(v.layout)))
            parts.append(Project(tagged, tuple(cols)))
        union = reduce(UnionAll, parts)
        pc2 = self.fresh()
        numbered = RowNum(union, pc2, ((tc, "asc"), (pc, "asc")), (ic,))
        new_layout = relabel(shape, dict(zip(layout_cols(shape), common)))

        nests = nest_positions(new_layout)
        if not nests:
            out = Vec(numbered, ic, pc2, new_layout)
            return self.project_vec(out)

        # Fresh surrogate per output row, shared by all nest columns.
        sc = self.fresh()
        keyed = RowNum(numbered, sc, ((tc, "asc"), (ic, "asc"), (pc, "asc")))
        final_layout = self._remap_nests(keyed, tc, sc, new_layout, vecs)
        # Nest columns take the fresh surrogate value; atoms keep theirs.
        nest_cols = {n.col for n in nest_positions(final_layout)}
        proj_cols = [(col, sc if col in nest_cols else col)
                     for col in layout_cols(final_layout)]
        plan = Project(keyed, tuple([(ic, ic), (pc2, pc2)] + proj_cols))
        return Vec(plan, ic, pc2, final_layout)

    def _remap_nests(self, keyed: Node, tag_col: str, surr_col: str,
                     layout: Layout, vecs: list[Vec]) -> Layout:
        """Re-key the inner vectors behind every nest position of a merged
        layout to the fresh surrogates, merging them recursively."""
        if isinstance(layout, AtomLay):
            return layout
        if isinstance(layout, TupleLay):
            part_layouts = []
            for j, part in enumerate(layout.parts):
                sub_vecs = [self._layout_part(v.layout, j) for v in vecs]
                part_layouts.append(self._remap_nest_part(
                    keyed, tag_col, surr_col, part, sub_vecs))
            return TupleLay(tuple(part_layouts))
        if isinstance(layout, NestLay):
            return self._remap_nest_part(keyed, tag_col, surr_col, layout,
                                         [v.layout for v in vecs])
        raise CompilationError("unknown layout")  # pragma: no cover

    def _layout_part(self, layout: Layout, j: int) -> Layout:
        assert isinstance(layout, TupleLay)
        return layout.parts[j]

    def _remap_nest_part(self, keyed: Node, tag_col: str, surr_col: str,
                         merged_part: Layout,
                         source_parts: list[Layout]) -> Layout:
        if isinstance(merged_part, AtomLay):
            return merged_part
        if isinstance(merged_part, TupleLay):
            parts = []
            for j, sub in enumerate(merged_part.parts):
                subsources = [self._layout_part(sp, j) for sp in source_parts]
                parts.append(self._remap_nest_part(keyed, tag_col, surr_col,
                                                   sub, subsources))
            return TupleLay(tuple(parts))
        assert isinstance(merged_part, NestLay)
        rekeyed: list[Vec] = []
        for i, src in enumerate(source_parts):
            assert isinstance(src, NestLay)
            inner = self.as_fresh(src.inner)
            cond = self.fresh()
            sel = Select(BinApp(keyed, "eq", tag_col, Const(i, IntT), cond),
                         cond)
            kc, sc2 = self.fresh(), self.fresh()
            mapping = Project(sel, ((kc, merged_part.col), (sc2, surr_col)))
            joined = EqJoin(mapping, inner.plan, ((kc, inner.iter_col),))
            ic2 = self.fresh()
            cols = [(ic2, sc2), (inner.pos_col, inner.pos_col)]
            cols += [(c, c) for c in layout_cols(inner.layout)]
            rekeyed.append(Vec(Project(joined, tuple(cols)), ic2,
                               inner.pos_col, inner.layout))
        return NestLay(merged_part.col, self.merge_vecs(rekeyed))

    # -- position renumbering ----------------------------------------------
    def renumber(self, vec: Vec,
                 order: tuple[tuple[str, str], ...] | None = None) -> Vec:
        """Re-establish a dense 1..n ``pos`` per iteration (after filters,
        flattening, sorting...).  Defaults to the current position order."""
        if order is None:
            order = ((vec.pos_col, "asc"),)
        pc = self.fresh()
        plan = RowNum(vec.plan, pc, order, (vec.iter_col,))
        out = Vec(plan, vec.iter_col, pc, vec.layout)
        return self.project_vec(out)

    # ------------------------------------------------------------------
    # expression dispatch
    # ------------------------------------------------------------------
    def compile(self, e: Exp, loop: Loop, env: Env) -> Vec:
        if isinstance(e, LitE):
            return self.const_vec(loop, e.value, e.ty)
        if isinstance(e, VarE):
            try:
                return env[e.name]
            except KeyError:
                raise CompilationError(f"unbound variable {e.name!r}") from None
        if isinstance(e, TupleE):
            return self._compile_tuple(e, loop, env)
        if isinstance(e, ListE):
            return self._compile_list(e, loop, env)
        if isinstance(e, TupleElemE):
            return self._compile_proj(e, loop, env)
        if isinstance(e, TableE):
            return self._compile_table(e, loop)
        if isinstance(e, IfE):
            return self._compile_if(e, loop, env)
        if isinstance(e, BinOpE):
            return self._compile_binop(e, loop, env)
        if isinstance(e, UnOpE):
            return self._compile_unop(e, loop, env)
        if isinstance(e, AppE):
            from .lift_builtins import compile_builtin
            return compile_builtin(self, e, loop, env)
        raise CompilationError(f"cannot loop-lift node {e!r}")

    # -- structural forms ---------------------------------------------------
    def _compile_tuple(self, e: TupleE, loop: Loop, env: Env) -> Vec:
        head = self.compile(e.parts[0], loop, env)
        head = self.box_if_list(head, e.parts[0].ty, loop)
        plan = head.plan
        iter_col, pos_col = head.iter_col, head.pos_col
        layouts = [head.layout]
        for part in e.parts[1:]:
            v = self.compile(part, loop, env)
            v = self.box_if_list(v, part.ty, loop)
            v = self.as_fresh(v)
            plan = EqJoin(plan, v.plan, ((iter_col, v.iter_col),))
            layouts.append(v.layout)
        out = Vec(plan, iter_col, pos_col, TupleLay(tuple(layouts)))
        return self.project_vec(out)

    def _compile_list(self, e: ListE, loop: Loop, env: Env) -> Vec:
        assert isinstance(e.ty, ListT)
        if not e.elems:
            return self.empty_vec(e.ty.elt)
        if _is_pure_literal(e):
            # Shred the literal value straight into literal tables: one
            # per nesting level, linked by surrogates (Figure 3) -- flat
            # plans regardless of the list's length.
            return self._shred_literal(e, loop)
        scalars = []
        for elem in e.elems:
            v = self.compile(elem, loop, env)
            scalars.append(self.box_if_list(v, elem.ty, loop))
        return self.merge_vecs(scalars)

    def _shred_literal(self, e: ListE, loop: Loop) -> Vec:
        assert isinstance(e.ty, ListT)
        value = _literal_value(e)
        surrogates = itertools.count(1)
        inner = self._shred_keyed([(1, value)], e.ty.elt, surrogates)
        # every live iteration sees the same list: cross with the loop
        # (the single level-0 key is constant and projected away)
        pc = self.fresh()
        cols = [(loop.col, loop.col), (pc, inner.pos_col)]
        cols += [(c, c) for c in layout_cols(inner.layout)]
        crossed = Project(Cross(loop.plan, inner.plan), tuple(cols))
        return Vec(crossed, loop.col, pc, inner.layout)

    def _shred_keyed(self, keyed_lists: "list[tuple[int, list]]",
                     elem_ty: Type, surrogates) -> Vec:
        """Encode one nesting level of literal lists as a LitTable whose
        ``iter`` column holds the given surrogate keys; nested elements
        receive fresh surrogates and recurse into further tables."""
        ic, pc = self.fresh(), self.fresh()
        lay = self.layout_for(elem_ty)
        schema = [(ic, IntT), (pc, IntT)]
        schema += list(zip(layout_cols(lay), layout_col_types(lay)))
        rows: list[tuple] = []
        nested: list[list[tuple[int, list]]] = [
            [] for _ in _nested_types(elem_ty)]
        for key, value in keyed_lists:
            for pos, elem in enumerate(value, start=1):
                cells = _flatten_literal(elem, elem_ty, surrogates, nested)
                rows.append((key, pos) + tuple(cells))
        plan = LitTable(tuple(rows), tuple(schema))
        nested_types = _nested_types(elem_ty)
        if nested_types:
            inners = [self._shred_keyed(vals, ty, surrogates)
                      for vals, ty in zip(nested, nested_types)]
            lay = _replace_inners(lay, iter(inners))
        return Vec(plan, ic, pc, lay)

    def _compile_proj(self, e: TupleElemE, loop: Loop, env: Env) -> Vec:
        v = self.compile(e.tup, loop, env)
        if not isinstance(v.layout, TupleLay):
            raise CompilationError("projection from a non-tuple layout")
        part = v.layout.parts[e.index]
        out = Vec(v.plan, v.iter_col, v.pos_col, part)
        out = self.project_vec(out)
        if isinstance(e.ty, ListT):
            return self.unbox(out)
        return out

    def _compile_table(self, e: TableE, loop: Loop) -> Vec:
        # List order is the catalog's canonical row order: the scan hands
        # out each row's position in it, nothing sorts the table.
        cols = tuple((self.fresh(), src, ty) for src, ty in e.columns)
        pc = self.fresh()
        scan = TableScan(e.name, cols, (pc, position_column(
            src for src, _ in e.columns)))
        crossed = Cross(loop.plan, scan)
        lays = [AtomLay(out, ty) for out, _, ty in cols]
        layout: Layout = lays[0] if len(lays) == 1 else TupleLay(tuple(lays))
        out = Vec(crossed, loop.col, pc, layout)
        return self.project_vec(out)

    # -- conditionals ------------------------------------------------------
    def _compile_if(self, e: IfE, loop: Loop, env: Env) -> Vec:
        cv = self.compile(e.cond, loop, env)
        assert isinstance(cv.layout, AtomLay)
        cond_col = cv.layout.col
        then_loop = self.loop_from(Select(cv.plan, cond_col), cv.iter_col)
        nc = self.fresh()
        negated = UnApp(cv.plan, "not", cond_col, nc)
        else_loop = self.loop_from(Select(negated, nc), cv.iter_col)
        tv = self.compile(e.then_, then_loop,
                          self.restrict_env(env, then_loop))
        ev = self.compile(e.else_, else_loop,
                          self.restrict_env(env, else_loop))
        return self.merge_vecs([tv, ev])

    # -- scalar operators ----------------------------------------------------
    def _compile_binop(self, e: BinOpE, loop: Loop, env: Env) -> Vec:
        lv = self.compile(e.lhs, loop, env)
        rv = self.as_fresh(self.compile(e.rhs, loop, env))
        assert isinstance(lv.layout, AtomLay) and isinstance(rv.layout, AtomLay)
        joined = EqJoin(lv.plan, rv.plan, ((lv.iter_col, rv.iter_col),))
        out_col = self.fresh()
        assert isinstance(e.ty, AtomT)
        applied = BinApp(joined, e.op, lv.layout.col, rv.layout.col, out_col)
        out = Vec(applied, lv.iter_col, lv.pos_col, AtomLay(out_col, e.ty))
        return self.project_vec(out)

    def _compile_unop(self, e: UnOpE, loop: Loop, env: Env) -> Vec:
        v = self.compile(e.operand, loop, env)
        assert isinstance(v.layout, AtomLay)
        out_col = self.fresh()
        assert isinstance(e.ty, AtomT)
        applied = UnApp(v.plan, e.op, v.layout.col, out_col)
        out = Vec(applied, v.iter_col, v.pos_col, AtomLay(out_col, e.ty))
        return self.project_vec(out)


# ----------------------------------------------------------------------
# literal shredding helpers
# ----------------------------------------------------------------------

def _is_pure_literal(e: Exp) -> bool:
    """True iff ``e`` is built from literals only (no variables, tables,
    operators, or combinator applications)."""
    if isinstance(e, LitE):
        return True
    if isinstance(e, (TupleE, ListE)):
        return all(_is_pure_literal(c) for c in e.children())
    return False


def _literal_value(e: Exp):
    """Evaluate a pure-literal expression to its Python value."""
    if isinstance(e, LitE):
        return e.value
    if isinstance(e, TupleE):
        return tuple(_literal_value(p) for p in e.parts)
    if isinstance(e, ListE):
        return [_literal_value(x) for x in e.elems]
    raise CompilationError(f"not a literal: {e!r}")  # pragma: no cover


def _nested_types(ty: Type) -> list[Type]:
    """Element types of the nested-list positions of ``ty``, in layout
    (left-to-right) order."""
    if isinstance(ty, ListT):
        return [ty.elt]
    if isinstance(ty, TupleT):
        out: list[Type] = []
        for part in ty.elts:
            out.extend(_nested_types(part))
        return out
    return []


def _flatten_literal(value, ty: Type, surrogates,
                     nested: "list[list[tuple[int, list]]]",
                     slot: "list[int] | None" = None) -> list:
    """Cells of one element row; nested lists are replaced by fresh
    surrogates and collected into ``nested`` (one bucket per nest slot)."""
    if slot is None:
        slot = [0]
    if isinstance(ty, ListT):
        key = next(surrogates)
        nested[slot[0]].append((key, value))
        slot[0] += 1
        return [key]
    if isinstance(ty, TupleT):
        cells: list = []
        for part_value, part_ty in zip(value, ty.elts):
            cells.extend(_flatten_literal(part_value, part_ty, surrogates,
                                          nested, slot))
        return cells
    return [value]


def _replace_inners(lay: Layout, inners: "Iterator[Vec]") -> Layout:
    """Rebuild a layout, substituting the nested vectors left to right."""
    if isinstance(lay, AtomLay):
        return lay
    if isinstance(lay, NestLay):
        return NestLay(lay.col, next(inners))
    assert isinstance(lay, TupleLay)
    return TupleLay(tuple(_replace_inners(p, inners) for p in lay.parts))
