"""Desugaring comprehensions into list-prelude combinators.

This implements the "well-known desugaring approach" the paper cites for
its quasi-quoter (step 1 of Figure 2), extended with the ``group by`` /
``order by`` clauses of Peyton Jones & Wadler's *Comprehensive
Comprehensions* [16]:

* a generator extends the *binding stream* via ``concat_map``;
* a guard filters the stream;
* ``let`` pairs every stream element with the bound value;
* ``then group by k`` applies ``group_with`` and *rebinds every variable
  to the list of its values within the group* (which is why the paper's
  running example writes ``the cat`` and treats ``fac`` as a list);
* ``then sortWith by k`` / ``order by k [desc]`` applies a stable sort;
* the head expression is finally mapped over the stream.

The stream is represented as a left-nested pair chain; binders are
extractor functions from the stream element to the bound value, so the
whole translation stays compositional.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from ...errors import ComprehensionSyntaxError, QTypeError
from ...ftypes import ListT
from .. import combinators as C
from ..q import Q, cond, max_q, min_q, nil, to_q, tup
from . import parser as P

#: Builtins callable by name inside a comprehension, with Haskell-style
#: aliases alongside the snake_case names.
_BUILTIN_FNS: dict[str, Callable[..., Any]] = {
    "map": lambda f, xs: C.fmap(f, xs),
    "filter": lambda f, xs: C.ffilter(f, xs),
    "concatMap": C.concat_map, "concat_map": C.concat_map,
    "concat": C.concat,
    "sortWith": C.sort_with, "sort_with": C.sort_with,
    "groupWith": C.group_with, "group_with": C.group_with,
    "takeWhile": C.take_while, "take_while": C.take_while,
    "dropWhile": C.drop_while, "drop_while": C.drop_while,
    "zipWith": C.zip_with, "zip_with": C.zip_with,
    "all": C.all_q, "any": C.any_q,
    "and": C.and_q, "or": C.or_q,
    "head": C.head, "last": C.last, "the": C.the,
    "tail": C.tail, "init": C.init,
    "length": C.length, "null": C.null, "reverse": C.reverse,
    "append": C.append, "cons": C.cons, "snoc": C.snoc,
    "singleton": C.singleton,
    "index": C.index, "take": C.take, "drop": C.drop,
    "splitAt": C.split_at, "split_at": C.split_at,
    "zip": C.zip_q, "zip3": C.zip3_q, "unzip": C.unzip_q,
    "nub": C.nub, "number": C.number,
    "elem": C.elem, "notElem": C.not_elem, "not_elem": C.not_elem,
    "sum": C.fsum, "avg": C.favg,
    "maximum": C.maximum_q, "minimum": C.minimum_q,
    "min": min_q, "max": max_q,
    "fst": lambda q: q[0], "snd": lambda q: q[1],
    "abs": abs,
    "toDouble": lambda q: to_q(q).to_double(),
    "to_double": lambda q: to_q(q).to_double(),
    "cond": cond,
    "span": C.span_q, "break": C.break_q,
    "foldr": C.foldr, "foldl": C.foldl,
}

Scope = Mapping[str, Any]
Extractor = Callable[[Q], Q]


def desugar_comprehension(comp: P.PComp, env: Scope) -> Q:
    """Lower a parsed comprehension to a combinator query."""
    stream, binders = None, {}
    for qual in comp.quals:
        stream, binders = _step(qual, stream, binders, env)
    if stream is None:
        # No generator at all: [e | guards] behaves like a 0/1-element list.
        stream = to_q([0])
        binders = {}
    return C.fmap(lambda t: _eval(comp.head, _scope(binders, t, env)), stream)


def _step(qual: P.PQual, stream: Q | None,
          binders: dict[str, Extractor], env: Scope):
    if isinstance(qual, P.PGen):
        return _add_generator(qual, stream, binders, env)
    if stream is None and not isinstance(qual, P.PGen):
        # Guards/lets before any generator run over the unit stream.
        stream, binders = to_q([0]), dict(binders)
    if isinstance(qual, P.PGuard):
        new = C.ffilter(
            lambda t: _eval(qual.cond, _scope(binders, t, env)), stream)
        return new, binders
    if isinstance(qual, P.PLet):
        new = C.fmap(
            lambda t: tup(t, _eval(qual.value, _scope(binders, t, env))),
            stream)
        shifted = {n: _compose(ex, 0) for n, ex in binders.items()}
        shifted[qual.name] = _compose(_identity, 1)
        return new, shifted
    if isinstance(qual, P.PGroup):
        new = C.group_with(
            lambda t: _eval(qual.key, _scope(binders, t, env)), stream)
        grouped = {
            n: _group_binder(ex) for n, ex in binders.items()
        }
        return new, grouped
    if isinstance(qual, P.PSort):
        if qual.descending:
            new = C.sort_with_desc(
                lambda t: _eval(qual.key, _scope(binders, t, env)), stream)
        else:
            new = C.sort_with(
                lambda t: _eval(qual.key, _scope(binders, t, env)), stream)
        return new, binders
    raise ComprehensionSyntaxError(f"unknown qualifier {qual!r}")


def _add_generator(gen: P.PGen, stream: Q | None,
                   binders: dict[str, Extractor], env: Scope):
    pat = gen.pat
    if stream is None:
        src = _as_list_source(_eval(gen.src, dict(env)))
        new_binders: dict[str, Extractor] = {}
        _bind_pattern(pat, _identity, new_binders)
        return src, new_binders
    # Dependent generators: the source may mention earlier variables, so it
    # is (re-)evaluated inside the iteration -- loop-lifting turns this into
    # a single data-parallel plan regardless.
    new = C.concat_map(
        lambda t: C.fmap(
            lambda y: tup(t, y),
            _as_list_source(_eval(gen.src, _scope(binders, t, env)))),
        stream)
    shifted = {n: _compose(ex, 0) for n, ex in binders.items()}
    _bind_pattern(pat, _compose(_identity, 1), shifted)
    return new, shifted


def _as_list_source(value: Any) -> Q:
    src = to_q(value)
    if not isinstance(src.ty, ListT):
        raise QTypeError(f"generator source must be a list query, got "
                         f"{src.ty.show()}")
    return src


def _bind_pattern(pat: P.PPat, extract: Extractor,
                  binders: dict[str, Extractor]) -> None:
    if isinstance(pat, P.PWildPat):
        return
    if isinstance(pat, P.PVarPat):
        binders[pat.name] = extract
        return
    if isinstance(pat, P.PTuplePat):
        for i, sub in enumerate(pat.parts):
            _bind_pattern(sub, _index_extract(extract, i), binders)
        return
    raise ComprehensionSyntaxError(f"unsupported pattern {pat!r}")


def _identity(t: Q) -> Q:
    return t


def _compose(ex: Extractor, idx: int) -> Extractor:
    return lambda t: ex(t[idx])


def _index_extract(ex: Extractor, idx: int) -> Extractor:
    return lambda t: ex(t)[idx]


def _group_binder(ex: Extractor) -> Extractor:
    """After ``group by``, a variable denotes the list of its values within
    the group."""
    return lambda g: C.fmap(lambda t: ex(t), g)


def _scope(binders: Mapping[str, Extractor], t: Q, env: Scope) -> dict:
    scope = dict(env)
    for name, ex in binders.items():
        scope[name] = ex(t)
    return scope


# ----------------------------------------------------------------------
# expression evaluation
# ----------------------------------------------------------------------

def _eval(e: P.PExpr, scope: dict) -> Any:
    if isinstance(e, P.PLit):
        return to_q(e.value)
    if isinstance(e, P.PVar):
        return _lookup(e.name, scope)
    if isinstance(e, P.PTuple):
        return tup(*(_eval(p, scope) for p in e.parts))
    if isinstance(e, P.PList):
        if not e.elems:
            raise ComprehensionSyntaxError(
                "the element type of a bare [] cannot be inferred; use "
                "nil(ty) passed through the environment")
        elems = [to_q(_eval(x, scope)) for x in e.elems]
        out = nil(elems[0].ty)
        for elem in reversed(elems):
            out = C.cons(elem, out)
        return out
    if isinstance(e, P.PProj):
        operand = to_q(_eval(e.operand, scope))
        if isinstance(e.field, int):
            return operand[e.field]
        return getattr(operand, e.field)
    if isinstance(e, P.PBin):
        return _eval_bin(e, scope)
    if isinstance(e, P.PUn):
        operand = to_q(_eval(e.operand, scope))
        return ~operand if e.op == "not" else -operand
    if isinstance(e, P.PIf):
        return cond(_eval(e.cond, scope), _eval(e.then_, scope),
                    _eval(e.else_, scope))
    if isinstance(e, P.PLam):
        def fn(arg: Q) -> Any:
            inner = dict(scope)
            _destructure(e.pat, arg, inner)
            return _eval(e.body, inner)
        return fn
    if isinstance(e, P.PCall):
        fn = _eval_callee(e.fn, scope)
        args = [_eval(a, scope) for a in e.args]
        return fn(*args)
    if isinstance(e, P.PComp):
        return desugar_comprehension(e, scope)
    raise ComprehensionSyntaxError(f"cannot evaluate {e!r}")


def _destructure(pat: P.PPat, value: Q, scope: dict) -> None:
    if isinstance(pat, P.PWildPat):
        return
    if isinstance(pat, P.PVarPat):
        scope[pat.name] = value
        return
    if isinstance(pat, P.PTuplePat):
        for i, sub in enumerate(pat.parts):
            _destructure(sub, to_q(value)[i], scope)
        return
    raise ComprehensionSyntaxError(f"unsupported pattern {pat!r}")


def _eval_bin(e: P.PBin, scope: dict) -> Any:
    lhs = _eval(e.lhs, scope)
    rhs = _eval(e.rhs, scope)
    if e.op in ("append", "cons"):
        return {"append": C.append, "cons": C.cons}[e.op](lhs, rhs)
    lq = to_q(lhs)
    ops: dict[str, Callable[[Q, Any], Q]] = {
        "or": lambda a, b: a | b,
        "and": lambda a, b: a & b,
        "eq": lambda a, b: a == b,
        "ne": lambda a, b: a != b,
        "lt": lambda a, b: a < b,
        "le": lambda a, b: a <= b,
        "gt": lambda a, b: a > b,
        "ge": lambda a, b: a >= b,
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b,
        "div": lambda a, b: a / b,
        "idiv": lambda a, b: a // b,
        "mod": lambda a, b: a % b,
    }
    return ops[e.op](lq, rhs)


def _eval_callee(e: P.PExpr, scope: dict) -> Callable[..., Any]:
    if isinstance(e, P.PVar):
        if e.name in scope:
            fn = scope[e.name]
            if not callable(fn):
                raise ComprehensionSyntaxError(
                    f"{e.name!r} is not callable")
            return fn
        if e.name in _BUILTIN_FNS:
            return _BUILTIN_FNS[e.name]
        raise ComprehensionSyntaxError(f"unknown function {e.name!r}")
    fn = _eval(e, scope)
    if not callable(fn):
        raise ComprehensionSyntaxError(f"expression is not callable: {e!r}")
    return fn


def _lookup(name: str, scope: dict) -> Any:
    if name in scope:
        val = scope[name]
        return val if callable(val) else to_q(val)
    if name in _BUILTIN_FNS:
        return _BUILTIN_FNS[name]
    raise ComprehensionSyntaxError(
        f"unbound name {name!r}; bind it via a generator, 'let', or pass "
        f"it as a keyword argument to qc()")
