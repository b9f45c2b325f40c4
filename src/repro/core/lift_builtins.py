"""Loop-lifting rules for the list-prelude builtins.

Each rule consumes compiled operand vectors and produces the operator's
result vector using only flat, data-parallel table algebra -- no rule ever
iterates over data; iteration exists solely as the ``iter`` column.

Highlights (cf. Section 3.2 and [13]):

* ``map``/``filter``/``sort_with``/``group_with``/... share the *lifted
  lambda* machinery of :class:`repro.core.lift.LiftCompiler`: the lambda
  body is compiled once against the inner loop of all elements;
* aggregates (``sum``, ``length``, ``and``...) become grouped aggregation
  on ``iter``, with the defaults for *empty* lists supplied explicitly via
  an anti-join against the loop relation (SQL aggregation drops empty
  groups; Haskell's ``sum [] = 0`` must not);
* ``zip`` is the equi-join on ``(iter, pos)`` -- the relational image of
  positional access that Figure 6 highlights (``bpermuteP`` ⇒ join on
  ``pos``);
* order-sensitive operations (``reverse``, ``take``, ``nub``...) read and
  rewrite the ``pos`` order encoding, which is maintained *dense* (1..n
  per iteration) as an invariant.
"""

from __future__ import annotations

from typing import Callable

from ..algebra import (
    AntiJoin,
    Attach,
    BinApp,
    Const,
    Distinct,
    EqJoin,
    GroupAggr,
    Node,
    Project,
    RowNum,
    RowRank,
    Select,
    UnApp,
    UnionAll,
)
from ..errors import CompilationError
from ..expr import (
    AppE,
    BinOpE,
    Exp,
    LamE,
    TupleE,
    TupleElemE,
    VarE,
    conjuncts,
    free_vars,
)
from ..ftypes import AtomT, BoolT, DoubleT, IntT, ListT, Type
from .layout import AtomLay, Layout, NestLay, TupleLay, Vec, layout_cols, relabel
from .lift import Env, LiftCompiler, Loop


def compile_builtin(comp: LiftCompiler, e: AppE, loop: Loop, env: Env) -> Vec:
    try:
        rule = _RULES[e.fun]
    except KeyError:
        raise CompilationError(f"no loop-lifting rule for builtin "
                               f"{e.fun!r}") from None
    return rule(comp, e, loop, env)


# ----------------------------------------------------------------------
# shared machinery
# ----------------------------------------------------------------------

def _lam_arg(e: AppE, i: int = 0) -> LamE:
    arg = e.args[i]
    assert isinstance(arg, LamE)
    return arg


def _attach_lambda(comp: LiftCompiler, lam: LamE, xv: Vec, env: Env):
    """Evaluate ``lam`` for every element of ``xv`` and join the (scalar,
    flat) results onto the element rows.

    Returns ``(plan, iter_col, pos_col, elem_layout, result_layout)`` --
    the plan carries the element item columns (original names) plus the
    lambda-result columns.
    """
    qv, ii, _inner_loop, body = comp.lift_lambda(lam, xv, env)
    b = comp.as_fresh(body)
    ri, rp, rj = comp.fresh(), comp.fresh(), comp.fresh()
    cols = [(ri, xv.iter_col), (rp, xv.pos_col), (rj, ii)]
    cols += [(c, c) for c in layout_cols(xv.layout)]
    left = Project(qv, tuple(cols))
    joined = EqJoin(left, b.plan, ((rj, b.iter_col),))
    return joined, ri, rp, xv.layout, b.layout


def _atom_col(layout: Layout) -> str:
    assert isinstance(layout, AtomLay)
    return layout.col


def _scalar_result(comp: LiftCompiler, plan: Node, iter_col: str,
                   item_col: str, ty: AtomT) -> Vec:
    """Package (iter, value) rows as a scalar vector (``pos = 1``)."""
    ic, vc = comp.fresh(), comp.fresh()
    pc = comp.fresh()
    projected = Project(plan, ((ic, iter_col), (vc, item_col)))
    return Vec(Attach(projected, pc, 1, IntT), ic, pc, AtomLay(vc, ty))


def _fill_defaults(comp: LiftCompiler, loop: Loop, present: Vec,
                   default, ty: AtomT) -> Vec:
    """Union in ``default`` for iterations absent from ``present``
    (aggregation defaults on empty lists)."""
    pcol = _atom_col(present.layout)
    ic, vc = comp.fresh(), comp.fresh()
    have = Project(present.plan, ((ic, present.iter_col), (vc, pcol)))
    mi = comp.fresh()
    missing_iters = Project(
        AntiJoin(loop.plan, have, ((loop.col, ic),)), ((mi, loop.col),))
    mv = comp.fresh()
    missing = Project(Attach(missing_iters, mv, default, ty),
                      ((ic, mi), (vc, mv)))
    union = UnionAll(have, missing)
    pc = comp.fresh()
    return Vec(Attach(union, pc, 1, IntT), ic, pc, AtomLay(vc, ty))


def _aggregate(comp: LiftCompiler, loop: Loop, xv: Vec, func: str,
               out_ty: AtomT, default=None) -> Vec:
    """Aggregate the (atomic) elements of ``xv`` per iteration."""
    in_col = _atom_col(xv.layout) if func != "count" else None
    oc = comp.fresh()
    agg = GroupAggr(xv.plan, (xv.iter_col,),
                    ((func, in_col, oc),))
    present = _scalar_result(comp, agg, xv.iter_col, oc, out_ty)
    if default is None:
        return present
    return _fill_defaults(comp, loop, present, default, out_ty)


def _select_elem(comp: LiftCompiler, plan: Node, iter_col: str,
                 cond_col: str, layout: Layout, elem_ty: Type) -> Vec:
    """Keep the single row per iteration where ``cond_col`` holds and
    package it as a scalar element (unboxing list elements)."""
    sel = Select(plan, cond_col)
    ic, pc = comp.fresh(), comp.fresh()
    cols = [(ic, iter_col)] + [(c, c) for c in layout_cols(layout)]
    vec = Vec(Attach(Project(sel, tuple(cols)), pc, 1, IntT), ic, pc, layout)
    if isinstance(elem_ty, ListT):
        return comp.unbox(vec)
    return vec


def _concat_vec(comp: LiftCompiler, xv: Vec) -> Vec:
    """Flatten one nesting level: join outer rows to their inner lists and
    renumber positions by (outer pos, inner pos)."""
    if not isinstance(xv.layout, NestLay):
        raise CompilationError("concat requires a nested layout")
    inner = comp.as_fresh(xv.layout.inner)
    joined = EqJoin(xv.plan, inner.plan, ((xv.layout.col, inner.iter_col),))
    pc = comp.fresh()
    numbered = RowNum(joined, pc,
                      ((xv.pos_col, "asc"), (inner.pos_col, "asc")),
                      (xv.iter_col,))
    out = Vec(numbered, xv.iter_col, pc, inner.layout)
    return comp.project_vec(out)


def _compare_pos(comp: LiftCompiler, plan: Node, op: str, pos_col: str,
                 rhs) -> tuple[Node, str]:
    cc = comp.fresh()
    return BinApp(plan, op, pos_col, rhs, cc), cc


# ----------------------------------------------------------------------
# higher-order combinators
# ----------------------------------------------------------------------

def _r_map(comp: LiftCompiler, e: AppE, loop: Loop, env: Env) -> Vec:
    lam = _lam_arg(e)
    xv = comp.compile(e.args[1], loop, env)
    qv, ii, inner_loop, body = comp.lift_lambda(lam, xv, env)
    return comp.join_back(qv, ii, xv, body, lam.body.ty, inner_loop)


def _r_concat_map(comp: LiftCompiler, e: AppE, loop: Loop, env: Env) -> Vec:
    return _concat_vec(comp, _r_map(comp, e, loop, env))


def _r_concat(comp: LiftCompiler, e: AppE, loop: Loop, env: Env) -> Vec:
    xv = comp.compile(e.args[0], loop, env)
    return _concat_vec(comp, xv)


def _r_filter(comp: LiftCompiler, e: AppE, loop: Loop, env: Env) -> Vec:
    lam = _lam_arg(e)
    decorrelated = _try_decorrelated_filter(comp, lam, e.args[1], loop, env)
    if decorrelated is not None:
        return decorrelated
    xv = comp.compile(e.args[1], loop, env)
    return _filter_vec(comp, lam, xv, env)


def _filter_vec(comp: LiftCompiler, lam: LamE, xv: Vec, env: Env) -> Vec:
    plan, ri, rp, lay, blay = _attach_lambda(comp, lam, xv, env)
    sel = Select(plan, _atom_col(blay))
    vec = Vec(sel, ri, rp, lay)
    return comp.renumber(vec)


def _projected(e: Exp, param: str, lay: Layout) -> "Layout | None":
    """The part of an element's layout that the projection path
    ``param.i.j...`` denotes (``None`` for any other expression)."""
    if isinstance(e, VarE):
        return lay if e.name == param else None
    if isinstance(e, TupleElemE):
        inner = _projected(e.tup, param, lay)
        if isinstance(inner, TupleLay):
            return inner.parts[e.index]
    return None


def _try_decorrelated_filter(comp: LiftCompiler, lam: LamE, xs_exp,
                             loop: Loop, env: Env) -> "Vec | None":
    """Decorrelation: compile ``filter (\\x -> key x == e && rest) xs``
    -- with a loop-*invariant* source ``xs`` and an equality predicate
    correlating elements with the iteration context -- as one equi-join
    between the per-iteration key values and the source evaluated *once*.

    This is the lifter's half of the paper's join-graph isolation [10];
    ``repro.expr.normalize`` is the other, handing it each such filter
    around the largest closed generator product.  Without the pair,
    ``xs`` materializes as loop x source (quadratic in the Table 1
    workload, where the running example filters ``features`` by the
    iterated facility); with it, the plan is the join the paper's
    appendix SQL shows (``a0001.item10_str = a0003.facility``).
    """
    if not comp.decorrelate:
        return None  # ablation: rule disabled
    if free_vars(xs_exp):
        return None  # source varies per iteration: no hoisting
    param = lam.param
    keys: list[tuple[Exp, Exp]] = []  # (element side, iteration side)
    rest: list[Exp] = []
    for conj in conjuncts(lam.body):
        if isinstance(conj, BinOpE) and conj.op == "eq":
            fv_l, fv_r = free_vars(conj.lhs), free_vars(conj.rhs)
            if fv_l == {param} and param not in fv_r:
                keys.append((conj.lhs, conj.rhs))
                continue
            if fv_r == {param} and param not in fv_l:
                keys.append((conj.rhs, conj.lhs))
                continue
        rest.append(conj)
    if not keys:
        return None

    # The source, compiled once under the unit loop (loop hoisting).
    base = comp.compile(xs_exp, comp.unit_loop(), {})
    # Element-side key columns: the source's own where every key is a
    # projection of the element, else computed per source element.
    own = [_projected(k, param, base.layout) for k, _ in keys]
    if all(isinstance(part, AtomLay) for part in own):
        plan, bp, lay = base.plan, base.pos_col, base.layout
        key_cols = [_atom_col(part) for part in own]
    else:
        elem_body = (keys[0][0] if len(keys) == 1
                     else TupleE(tuple(k for k, _ in keys)))
        key_lam = LamE(param, lam.param_ty, elem_body)
        plan, _bi, bp, lay, klay = _attach_lambda(comp, key_lam, base, {})
        key_cols = layout_cols(klay)
    # Iteration-side key values: one row per live iteration.
    free_body = (keys[0][1] if len(keys) == 1
                 else TupleE(tuple(f for _, f in keys)))
    fvec = comp.compile(free_body, loop, env)
    free_cols = layout_cols(fvec.layout)
    joined = EqJoin(fvec.plan, plan, tuple(zip(free_cols, key_cols)))
    vec = comp.renumber(Vec(joined, fvec.iter_col, bp, lay),
                        ((bp, "asc"),))
    if not rest:
        return vec
    rest_body = rest[0]
    for conj in rest[1:]:
        rest_body = BinOpE("and", rest_body, conj, BoolT)
    return _filter_vec(comp, LamE(param, lam.param_ty, rest_body), vec, env)


def _r_sort_with(comp: LiftCompiler, e: AppE, loop: Loop, env: Env,
                 descending: bool = False) -> Vec:
    lam = _lam_arg(e)
    xv = comp.compile(e.args[1], loop, env)
    plan, ri, rp, lay, klay = _attach_lambda(comp, lam, xv, env)
    direction = "desc" if descending else "asc"
    order = tuple((c, direction) for c in layout_cols(klay))
    order += ((rp, "asc"),)  # stability tie-break on the original order
    vec = Vec(plan, ri, rp, lay)
    return comp.renumber(vec, order)


def _r_sort_with_desc(comp: LiftCompiler, e: AppE, loop: Loop,
                      env: Env) -> Vec:
    return _r_sort_with(comp, e, loop, env, descending=True)


def _r_group_with(comp: LiftCompiler, e: AppE, loop: Loop, env: Env) -> Vec:
    lam = _lam_arg(e)
    xv = comp.compile(e.args[1], loop, env)
    plan, ri, rp, lay, klay = _attach_lambda(comp, lam, xv, env)
    key_cols = layout_cols(klay)
    # Group surrogates: DENSE_RANK over (iter, key) -- the "binding due to
    # rank operator" of the paper's appendix SQL.
    sc = comp.fresh()
    order = ((ri, "asc"),) + tuple((c, "asc") for c in key_cols)
    ranked = RowRank(plan, sc, order)
    # Inner vector: the group members, re-keyed by their group surrogate.
    p2 = comp.fresh()
    members = RowNum(ranked, p2, ((rp, "asc"),), (sc,))
    i2 = comp.fresh()
    inner_cols = [(i2, sc), (p2, p2)] + [(c, c) for c in layout_cols(lay)]
    inner = Vec(Project(members, tuple(inner_cols)), i2, p2, lay)
    # Outer vector: one row per group, ordered by key.
    outer_cols = [(ri, ri)] + [(c, c) for c in key_cols] + [(sc, sc)]
    groups = Distinct(Project(ranked, tuple(outer_cols)))
    op = comp.fresh()
    numbered = RowNum(groups, op, tuple((c, "asc") for c in key_cols), (ri,))
    out = Vec(numbered, ri, op, NestLay(sc, inner))
    return comp.project_vec(out)


def _r_quantifier(comp: LiftCompiler, e: AppE, loop: Loop, env: Env,
                  func: str, default: bool) -> Vec:
    lam = _lam_arg(e)
    xv = comp.compile(e.args[1], loop, env)
    plan, ri, rp, _lay, blay = _attach_lambda(comp, lam, xv, env)
    bools = Vec(plan, ri, rp, blay)
    return _aggregate(comp, loop, bools, func, BoolT, default)


def _r_all(comp, e, loop, env):
    return _r_quantifier(comp, e, loop, env, "all", True)


def _r_any(comp, e, loop, env):
    return _r_quantifier(comp, e, loop, env, "any", False)


def _first_failure(comp: LiftCompiler, e: AppE, loop: Loop, env: Env):
    """Shared prefix of take_while/drop_while: element rows with the
    per-iteration position of the first predicate failure."""
    lam = _lam_arg(e)
    xv = comp.compile(e.args[1], loop, env)
    plan, ri, rp, lay, blay = _attach_lambda(comp, lam, xv, env)
    nc = comp.fresh()
    falses = Select(UnApp(plan, "not", _atom_col(blay), nc), nc)
    fc = comp.fresh()
    fpos = GroupAggr(falses, (ri,), (("min", rp, fc),))
    gi = comp.fresh()
    fmap = Project(fpos, ((gi, ri), (fc, fc)))
    return plan, ri, rp, lay, fmap, gi, fc


def _r_take_while(comp: LiftCompiler, e: AppE, loop: Loop, env: Env) -> Vec:
    plan, ri, rp, lay, fmap, gi, fc = _first_failure(comp, e, loop, env)
    with_f = EqJoin(plan, fmap, ((ri, gi),))
    c1 = comp.fresh()
    kept = Select(BinApp(with_f, "lt", rp, fc, c1), c1)
    no_failure = AntiJoin(plan, fmap, ((ri, gi),))
    # Align both arms on one fresh column set, then union.
    ic, pc = comp.fresh(), comp.fresh()
    common = [comp.fresh() for _ in layout_cols(lay)]
    proj = tuple([(ic, ri), (pc, rp)]
                 + list(zip(common, layout_cols(lay))))
    union = UnionAll(Project(kept, proj), Project(no_failure, proj))
    new_lay = relabel(lay, dict(zip(layout_cols(lay), common)))
    return Vec(union, ic, pc, new_lay)  # prefixes keep dense positions


def _r_drop_while(comp: LiftCompiler, e: AppE, loop: Loop, env: Env) -> Vec:
    plan, ri, rp, lay, fmap, gi, fc = _first_failure(comp, e, loop, env)
    with_f = EqJoin(plan, fmap, ((ri, gi),))
    c1 = comp.fresh()
    kept = Select(BinApp(with_f, "ge", rp, fc, c1), c1)
    vec = Vec(kept, ri, rp, lay)
    return comp.renumber(vec)


# ----------------------------------------------------------------------
# element extraction (head / last / the / index)
# ----------------------------------------------------------------------

def _r_head(comp: LiftCompiler, e: AppE, loop: Loop, env: Env) -> Vec:
    xv = comp.compile(e.args[0], loop, env)
    plan, cc = _compare_pos(comp, xv.plan, "eq", xv.pos_col, Const(1, IntT))
    return _select_elem(comp, plan, xv.iter_col, cc, xv.layout, e.ty)


_r_the = _r_head  # group-representative semantics (see frontend docs)


def _max_pos_join(comp: LiftCompiler, xv: Vec):
    mc = comp.fresh()
    maxp = GroupAggr(xv.plan, (xv.iter_col,), (("max", xv.pos_col, mc),))
    gi = comp.fresh()
    fmap = Project(maxp, ((gi, xv.iter_col), (mc, mc)))
    return EqJoin(xv.plan, fmap, ((xv.iter_col, gi),)), mc


def _r_last(comp: LiftCompiler, e: AppE, loop: Loop, env: Env) -> Vec:
    xv = comp.compile(e.args[0], loop, env)
    joined, mc = _max_pos_join(comp, xv)
    plan, cc = _compare_pos(comp, joined, "eq", xv.pos_col, mc)
    return _select_elem(comp, plan, xv.iter_col, cc, xv.layout, e.ty)


def _r_index(comp: LiftCompiler, e: AppE, loop: Loop, env: Env) -> Vec:
    xv = comp.compile(e.args[0], loop, env)
    iv = comp.as_fresh(comp.compile(e.args[1], loop, env))
    joined = EqJoin(xv.plan, iv.plan, ((xv.iter_col, iv.iter_col),))
    t1 = comp.fresh()
    shifted = BinApp(joined, "add", _atom_col(iv.layout), Const(1, IntT), t1)
    plan, cc = _compare_pos(comp, shifted, "eq", xv.pos_col, t1)
    assert isinstance(e.ty, Type)
    return _select_elem(comp, plan, xv.iter_col, cc, xv.layout, e.ty)


def _r_tail(comp: LiftCompiler, e: AppE, loop: Loop, env: Env) -> Vec:
    xv = comp.compile(e.args[0], loop, env)
    plan, cc = _compare_pos(comp, xv.plan, "gt", xv.pos_col, Const(1, IntT))
    vec = Vec(Select(plan, cc), xv.iter_col, xv.pos_col, xv.layout)
    return comp.renumber(_guard_nonempty(comp, vec, xv, "tail"))


def _r_init(comp: LiftCompiler, e: AppE, loop: Loop, env: Env) -> Vec:
    xv = comp.compile(e.args[0], loop, env)
    joined, mc = _max_pos_join(comp, xv)
    plan, cc = _compare_pos(comp, joined, "lt", xv.pos_col, mc)
    vec = Vec(Select(plan, cc), xv.iter_col, xv.pos_col, xv.layout)
    return comp.project_vec(_guard_nonempty(comp, vec, xv, "init"))


def _guard_nonempty(comp: LiftCompiler, vec: Vec, _xv: Vec, _who: str) -> Vec:
    """``tail []``/``init []`` are runtime errors in Haskell; relationally
    the rows simply vanish, which is indistinguishable from a legitimate
    empty result -- the paper's translation shares this behaviour, and the
    reference interpreter (which raises) documents the difference."""
    return vec


# ----------------------------------------------------------------------
# structure
# ----------------------------------------------------------------------

def _r_append(comp: LiftCompiler, e: AppE, loop: Loop, env: Env) -> Vec:
    xv = comp.compile(e.args[0], loop, env)
    yv = comp.compile(e.args[1], loop, env)
    return comp.merge_vecs([xv, yv])


def _r_cons(comp: LiftCompiler, e: AppE, loop: Loop, env: Env) -> Vec:
    x = comp.compile(e.args[0], loop, env)
    x = comp.box_if_list(x, e.args[0].ty, loop)
    xv = comp.compile(e.args[1], loop, env)
    return comp.merge_vecs([x, xv])


def _r_zip(comp: LiftCompiler, e: AppE, loop: Loop, env: Env) -> Vec:
    xv = comp.compile(e.args[0], loop, env)
    yv = comp.as_fresh(comp.compile(e.args[1], loop, env))
    joined = EqJoin(xv.plan, yv.plan,
                    ((xv.iter_col, yv.iter_col), (xv.pos_col, yv.pos_col)))
    out = Vec(joined, xv.iter_col, xv.pos_col,
              TupleLay((xv.layout, yv.layout)))
    return comp.project_vec(out)


def _r_reverse(comp: LiftCompiler, e: AppE, loop: Loop, env: Env) -> Vec:
    xv = comp.compile(e.args[0], loop, env)
    return comp.renumber(xv, ((xv.pos_col, "desc"),))


def _r_take(comp: LiftCompiler, e: AppE, loop: Loop, env: Env) -> Vec:
    nv = comp.as_fresh(comp.compile(e.args[0], loop, env))
    xv = comp.compile(e.args[1], loop, env)
    joined = EqJoin(xv.plan, nv.plan, ((xv.iter_col, nv.iter_col),))
    plan, cc = _compare_pos(comp, joined, "le", xv.pos_col,
                            _atom_col(nv.layout))
    out = Vec(Select(plan, cc), xv.iter_col, xv.pos_col, xv.layout)
    return comp.project_vec(out)  # prefixes stay dense


def _r_drop(comp: LiftCompiler, e: AppE, loop: Loop, env: Env) -> Vec:
    nv = comp.as_fresh(comp.compile(e.args[0], loop, env))
    xv = comp.compile(e.args[1], loop, env)
    joined = EqJoin(xv.plan, nv.plan, ((xv.iter_col, nv.iter_col),))
    plan, cc = _compare_pos(comp, joined, "gt", xv.pos_col,
                            _atom_col(nv.layout))
    out = Vec(Select(plan, cc), xv.iter_col, xv.pos_col, xv.layout)
    return comp.renumber(out)


def _r_nub(comp: LiftCompiler, e: AppE, loop: Loop, env: Env) -> Vec:
    xv = comp.compile(e.args[0], loop, env)
    item_cols = layout_cols(xv.layout)
    mp = comp.fresh()
    firsts = GroupAggr(xv.plan, (xv.iter_col,) + tuple(item_cols),
                       (("min", xv.pos_col, mp),))
    pc = comp.fresh()
    numbered = RowNum(firsts, pc, ((mp, "asc"),), (xv.iter_col,))
    out = Vec(numbered, xv.iter_col, pc, xv.layout)
    return comp.project_vec(out)


def _r_number(comp: LiftCompiler, e: AppE, loop: Loop, env: Env) -> Vec:
    xv = comp.compile(e.args[0], loop, env)
    nc = comp.fresh()
    cols = [(xv.iter_col, xv.iter_col), (xv.pos_col, xv.pos_col)]
    cols += [(c, c) for c in layout_cols(xv.layout)]
    cols.append((nc, xv.pos_col))  # expose the order encoding as data
    plan = Project(xv.plan, tuple(cols))
    return Vec(plan, xv.iter_col, xv.pos_col,
               TupleLay((xv.layout, AtomLay(nc, IntT))))


# ----------------------------------------------------------------------
# aggregates / special folds
# ----------------------------------------------------------------------

def _r_length(comp: LiftCompiler, e: AppE, loop: Loop, env: Env) -> Vec:
    xv = comp.compile(e.args[0], loop, env)
    return _aggregate(comp, loop, xv, "count", IntT, 0)


def _r_null(comp: LiftCompiler, e: AppE, loop: Loop, env: Env) -> Vec:
    length = _r_length(comp, e, loop, env)
    cc = comp.fresh()
    plan = BinApp(length.plan, "eq", _atom_col(length.layout),
                  Const(0, IntT), cc)
    out = Vec(plan, length.iter_col, length.pos_col, AtomLay(cc, BoolT))
    return comp.project_vec(out)


def _r_sum(comp: LiftCompiler, e: AppE, loop: Loop, env: Env) -> Vec:
    xv = comp.compile(e.args[0], loop, env)
    assert isinstance(e.ty, AtomT)
    zero = 0.0 if e.ty == DoubleT else 0
    return _aggregate(comp, loop, xv, "sum", e.ty, zero)


def _r_avg(comp: LiftCompiler, e: AppE, loop: Loop, env: Env) -> Vec:
    xv = comp.compile(e.args[0], loop, env)
    return _aggregate(comp, loop, xv, "avg", DoubleT)


def _r_maximum(comp: LiftCompiler, e: AppE, loop: Loop, env: Env) -> Vec:
    xv = comp.compile(e.args[0], loop, env)
    assert isinstance(e.ty, AtomT)
    return _aggregate(comp, loop, xv, "max", e.ty)


def _r_minimum(comp: LiftCompiler, e: AppE, loop: Loop, env: Env) -> Vec:
    xv = comp.compile(e.args[0], loop, env)
    assert isinstance(e.ty, AtomT)
    return _aggregate(comp, loop, xv, "min", e.ty)


def _r_and(comp: LiftCompiler, e: AppE, loop: Loop, env: Env) -> Vec:
    xv = comp.compile(e.args[0], loop, env)
    return _aggregate(comp, loop, xv, "all", BoolT, True)


def _r_or(comp: LiftCompiler, e: AppE, loop: Loop, env: Env) -> Vec:
    xv = comp.compile(e.args[0], loop, env)
    return _aggregate(comp, loop, xv, "any", BoolT, False)


# ----------------------------------------------------------------------
# rule table
# ----------------------------------------------------------------------

Rule = Callable[[LiftCompiler, AppE, Loop, Env], Vec]

_RULES: dict[str, Rule] = {
    "map": _r_map,
    "filter": _r_filter,
    "concat_map": _r_concat_map,
    "concat": _r_concat,
    "sort_with": _r_sort_with,
    "sort_with_desc": _r_sort_with_desc,
    "group_with": _r_group_with,
    "all": _r_all,
    "any": _r_any,
    "take_while": _r_take_while,
    "drop_while": _r_drop_while,
    "head": _r_head,
    "last": _r_last,
    "the": _r_the,
    "tail": _r_tail,
    "init": _r_init,
    "length": _r_length,
    "null": _r_null,
    "reverse": _r_reverse,
    "append": _r_append,
    "cons": _r_cons,
    "index": _r_index,
    "take": _r_take,
    "drop": _r_drop,
    "zip": _r_zip,
    "nub": _r_nub,
    "number": _r_number,
    "sum": _r_sum,
    "avg": _r_avg,
    "maximum": _r_maximum,
    "minimum": _r_minimum,
    "and": _r_and,
    "or": _r_or,
}

RULE_NAMES = frozenset(_RULES)
