"""Join-graph isolation [10] as an expression normal form.

Every front end desugars a comprehension into a *generator product*

    concat_map (\\x -> map (\\y -> h) ys) xs

(left-nested for three or more generators) with ``filter``s in or around
it, and each writes its guards somewhere else.  :func:`normalize` splits
every such filter into conjuncts and places each one by its free
variables alone, so the lifter sees the same term whichever front end
produced it:

1. a conjunct over product-bound variables only moves *in*, onto the
   source of the innermost generator that binds them -- where the
   lifter's decorrelation rule turns an equality into a join key;
2. a key conjunct ``key(elem) == e``, with ``e`` mentioning only
   variables bound *outside* the product, moves to one filter around the
   largest sub-product whose sources are closed -- that product is then
   loop-invariant: it is compiled once and joined to the iteration
   context on the key, and ``loop x source`` is never built;
3. everything else stays where it was written.

Only conjuncts built from variables, projections, literals and total
scalar operators move, so no partial operation changes its evaluation
point.  The rewrite is pure ``Exp -> Exp`` and returns its argument
itself when nothing applies.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple

from ..ftypes import BoolT, ListT
from .exp import (
    AppE,
    BinOpE,
    Exp,
    LamE,
    LitE,
    TupleE,
    TupleElemE,
    UnOpE,
    VarE,
    fresh_var,
)
from .traversal import conjuncts, free_vars, map_children, substitute, walk

#: Division by zero raises; a conjunct using these keeps its place.
_PARTIAL_OPS = frozenset({"div", "idiv", "mod"})

_AROUND, _LEFT, _RIGHT = range(3)


def normalize(e: Exp) -> Exp:
    """Bring every generator product in ``e`` into the normal form above."""
    out = map_children(e, normalize)
    if _lam_app(out, "filter") is not None:
        param, conjs, base = _peel(out)
        new = _settle(param, conjs, base)
    else:
        new = _fuse_head(out)
        product = _as_product(new)
        if product is not None:
            new = _isolate_product(product)
    return out if new == out else new


# ----------------------------------------------------------------------
# matching
# ----------------------------------------------------------------------

class _Product(NamedTuple):
    """``concat_map (\\x -> map (\\y -> head) ys) xs``."""

    x: VarE
    xs: Exp
    y: VarE
    ys: Exp
    head: Exp

    @property
    def pair(self) -> TupleE:
        return TupleE((self.x, self.y))


def _lam_app(e: Exp, fun: str) -> "tuple[LamE, Exp] | None":
    if (isinstance(e, AppE) and e.fun == fun and len(e.args) == 2
            and isinstance(e.args[0], LamE)):
        return e.args[0], e.args[1]
    return None


def _as_product(e: Exp) -> "_Product | None":
    outer = _lam_app(e, "concat_map")
    inner = outer and _lam_app(outer[0].body, "map")
    if not outer or not inner or outer[0].param == inner[0].param:
        return None
    return _Product(VarE(outer[0].param, outer[0].param_ty), outer[1],
                    VarE(inner[0].param, inner[0].param_ty), inner[1],
                    inner[0].body)


def _movable(e: Exp) -> bool:
    """A total scalar expression: safe to evaluate earlier or later."""
    if isinstance(e, (LitE, VarE)):
        return True
    if isinstance(e, (TupleElemE, UnOpE)):
        return all(_movable(c) for c in e.children())
    if isinstance(e, BinOpE):
        return (e.op not in _PARTIAL_OPS and _movable(e.lhs)
                and _movable(e.rhs))
    return False


def _kind(conj: Exp, bound: set[str]) -> str:
    """``pure`` (product variables only), ``key`` (decorrelatable
    equality with the enclosing scope) or ``other`` (never moves)."""
    if not _movable(conj):
        return "other"
    if free_vars(conj) <= bound:
        return "pure"
    if isinstance(conj, BinOpE) and conj.op == "eq":
        lhs, rhs = free_vars(conj.lhs), free_vars(conj.rhs)
        for elem, outer in ((lhs, rhs), (rhs, lhs)):
            if elem and elem <= bound and outer and not outer & bound:
                return "key"
    return "other"


def _peel(src: Exp) -> "tuple[VarE | None, list[Exp], Exp]":
    """Fuse the filter chain around ``src``: its parameter, the conjuncts
    over it (innermost layer first) and what they filter.  A layer under
    a non-total conjunct stays put -- it may be that conjunct's guard."""
    param: "VarE | None" = None
    conjs: list[Exp] = []
    while all(_movable(c) for c in conjs):
        layer = _lam_app(src, "filter")
        if layer is None:
            break
        lam, src = layer
        if param is None:
            param = VarE(lam.param, lam.param_ty)
        rename = {lam.param: param}
        conjs = [substitute(c, rename) for c in conjuncts(lam.body)] + conjs
    return param, conjs, src


# ----------------------------------------------------------------------
# building
# ----------------------------------------------------------------------

def _filter(param: "VarE | None", conjs: list[Exp], src: Exp) -> Exp:
    if not conjs:
        return src
    assert param is not None
    body = reduce(lambda a, b: BinOpE("and", a, b, BoolT), conjs)
    return AppE("filter", (LamE(param.name, param.ty, body), src), src.ty)


def _map(param: VarE, body: Exp, src: Exp) -> Exp:
    return AppE("map", (LamE(param.name, param.ty, body), src),
                ListT(body.ty))


def _build_product(p: _Product, xs: Exp, ys: Exp, head: Exp) -> Exp:
    inner = ys if head == p.y else _map(p.y, head, ys)
    return AppE("concat_map", (LamE(p.x.name, p.x.ty, inner), xs), inner.ty)


def _fuse_head(e: Exp) -> Exp:
    """``map h`` directly over a pair product is that product with head
    ``h``: no front end pays for pairs it only takes apart again."""
    mapped = _lam_app(e, "map")
    p = mapped and _as_product(mapped[1])
    if not mapped or not p or p.head != p.pair:
        return e
    head = substitute(mapped[0].body, {mapped[0].param: p.pair})
    return _build_product(p, p.xs, p.ys, head)


# ----------------------------------------------------------------------
# placement
# ----------------------------------------------------------------------

def _settle(param: "VarE | None", conjs: list[Exp], src: Exp) -> Exp:
    """``filter (\\param -> and conjs) src`` with every conjunct at its
    normal-form site."""
    p = _as_product(src)
    if not conjs or p is None or p.head != p.pair:
        return _filter(param, conjs, src)
    assert param is not None
    around, xs, ys = _isolate(param, conjs, p)
    return _filter(param, around, _build_product(p, xs, ys, p.pair))


def _isolate_product(p: _Product) -> Exp:
    """A product no filter surrounds: conjuncts written on its sources may
    still have to change sides, or float out around it."""
    t = VarE(fresh_var(), p.pair.ty)
    around, xs, ys = _isolate(t, [], p)
    if not around:
        return _build_product(p, xs, ys, p.head)
    isolated = _filter(t, around, _build_product(p, xs, ys, p.pair))
    if p.head == p.pair:
        return isolated
    head = substitute(p.head, {p.x.name: TupleElemE(t, 0),
                               p.y.name: TupleElemE(t, 1)})
    return _map(t, head, isolated)


def _isolate(t: VarE, conjs: list[Exp],
             p: _Product) -> tuple[list[Exp], Exp, Exp]:
    """Place ``conjs`` (over the pair ``t``) and the conjuncts written on
    the sources of ``p``; returns the conjuncts that belong around the
    product and its two rebuilt sources."""
    t0, t1 = TupleElemE(t, 0), TupleElemE(t, 1)
    xf, xconjs, xs0 = _peel(p.xs)
    yf, yconjs, ys0 = _peel(p.ys)
    xf = xf or VarE(fresh_var(), p.x.ty)
    yf = yf or VarE(fresh_var(), p.y.ty)
    homes = (
        (_LEFT, xconjs, {xf.name}, {xf.name: t0}),
        (_RIGHT, yconjs, {yf.name, p.x.name}, {yf.name: t1, p.x.name: t0}),
        (_AROUND, conjs, {t.name}, {}),
    )
    # Floating a key off xs evaluates ys for elements it used to reject:
    # only when nothing partial in ys can see them.
    left_floats = p.x.name not in free_vars(ys0) and all(
        _movable(c) or p.x.name not in free_vars(c) for c in yconjs)
    # (conjunct, home, kind); pure and key conjuncts are lifted over t
    items: list[tuple[Exp, int, str]] = []
    inner_fv = free_vars(xs0) | free_vars(ys0)
    for home, cs, bound, lift in homes:
        for c in cs:
            kind = _kind(c, bound)
            if kind == "key" and home == _LEFT and not left_floats:
                kind = "other"
            if kind != "other":
                c = substitute(c, lift)
            elif home != _AROUND:
                inner_fv |= free_vars(c)
            items.append((c, home, kind))
    # Is the product loop-invariant once its key conjuncts are out?
    closed = not inner_fv - {xf.name, yf.name, p.x.name}

    placed: dict[int, list[Exp]] = {_AROUND: [], _LEFT: [], _RIGHT: []}
    to_left = {t.name: TupleE((xf, p.y))}
    to_right = {t.name: TupleE((p.x, yf))}
    for c, home, kind in items:
        dest = home
        if kind != "other":
            nodes = list(walk(c))
            side = (t0 in nodes, t1 in nodes)
            if kind == "key" and closed:
                dest = _AROUND
            elif side == (True, False):
                dest = _LEFT
            elif side[1] and (kind == "pure" or not side[0]):
                dest = _RIGHT
            if dest == _LEFT:
                c = substitute(c, to_left)
            elif dest == _RIGHT:
                c = substitute(c, to_right)
        placed[dest].append(c)
    return (placed[_AROUND], _settle(xf, placed[_LEFT], xs0),
            _settle(yf, placed[_RIGHT], ys0))
