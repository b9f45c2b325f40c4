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

Both quoters reach this one desugarer: ``qc`` through its parser, ``pyq``
through a lowering of Python's ``ast`` onto the same surface AST.  Each
passes its own table of builtin names, which the caller's environment
shadows.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Mapping

from ...errors import ComprehensionSyntaxError, QTypeError
from ...ftypes import ListT
from .. import combinators as C
from ..q import Q, cond, nil, to_q, tup
from . import parser as P

Scope = Mapping[str, Any]
Extractor = Callable[[Q], Q]
Binders = dict[str, Extractor]

#: What each ``PBin`` operator builds from its (left-embedded) operands.
_BINOPS: dict[str, Callable[[Q, Any], Any]] = {
    "or": lambda a, b: a | b, "and": lambda a, b: a & b,
    "eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b, "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b, "ge": lambda a, b: a >= b,
    "add": lambda a, b: a + b, "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b, "div": lambda a, b: a / b,
    "idiv": lambda a, b: a // b, "mod": lambda a, b: a % b,
    "append": C.append, "cons": C.cons,
    "elem": C.elem, "index": lambda a, b: a[b],
}


def desugar(e: P.PExpr, env: Scope, builtins: Scope) -> Q:
    """Lower a parsed comprehension or expression to a query."""
    return to_q(_eval(e, {**builtins, **env}))


def desugar_comprehension(comp: P.PComp, env: Scope) -> Q:
    """Lower a parsed comprehension to a combinator query."""
    stream: Q | None = None
    binders: Binders = {}
    for qual in comp.quals:  # both syntaxes have at least one
        stream, binders = _step(qual, stream, binders, env)
    return C.fmap(_over(comp.head, binders, env), stream)


def _step(qual: P.PQual, stream: Q | None, binders: Binders,
          env: Scope) -> tuple[Q, Binders]:
    if isinstance(qual, P.PGen):
        return _add_generator(qual, stream, binders, env)
    if stream is None:
        # Guards/lets before any generator run over the unit stream.
        stream, binders = to_q([0]), dict(binders)
    if isinstance(qual, P.PGuard):
        return C.ffilter(_over(qual.cond, binders, env), stream), binders
    if isinstance(qual, P.PLet):
        value = _over(qual.value, binders, env)
        new = C.fmap(lambda t: tup(t, value(t)), stream)
        shifted = {n: _compose(ex, 0) for n, ex in binders.items()}
        shifted[qual.name] = _compose(_identity, 1)
        return new, shifted
    if isinstance(qual, P.PGroup):
        new = C.group_with(_over(qual.key, binders, env), stream)
        return new, {n: _group_binder(ex) for n, ex in binders.items()}
    if isinstance(qual, P.PSort):
        sort = C.sort_with_desc if qual.descending else C.sort_with
        return sort(_over(qual.key, binders, env), stream), binders
    raise ComprehensionSyntaxError(f"unknown qualifier {qual!r}")


def _add_generator(gen: P.PGen, stream: Q | None, binders: Binders,
                   env: Scope) -> tuple[Q, Binders]:
    if stream is None:
        new_binders: Binders = {}
        _bind_pattern(gen.pat, _identity, new_binders)
        return _as_list_source(_eval(gen.src, dict(env))), new_binders
    # Dependent generators: the source may mention earlier variables, so it
    # is (re-)evaluated inside the iteration -- loop-lifting turns this into
    # a single data-parallel plan regardless.
    src = _over(gen.src, binders, env)
    new = C.concat_map(
        lambda t: C.fmap(lambda y: tup(t, y), _as_list_source(src(t))),
        stream)
    shifted = {n: _compose(ex, 0) for n, ex in binders.items()}
    _bind_pattern(gen.pat, _compose(_identity, 1), shifted)
    return new, shifted


def _as_list_source(value: Any) -> Q:
    src = to_q(value)
    if not isinstance(src.ty, ListT):
        raise QTypeError(f"generator source must be a list query, got "
                         f"{src.ty.show()}")
    return src


def _bind_pattern(pat: P.PPat, extract: Extractor, binders: Binders) -> None:
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


def _scope(binders: Binders, t: Q, env: Scope) -> dict[str, Any]:
    scope = dict(env)
    for name, ex in binders.items():
        scope[name] = ex(t)
    return scope


def _over(e: P.PExpr, binders: Binders, env: Scope) -> Callable[[Q], Any]:
    """``e`` as a function of the element its ``binders`` extract from."""
    return lambda t: _eval(e, _scope(binders, t, env))


# ----------------------------------------------------------------------
# expression evaluation
# ----------------------------------------------------------------------

def _eval(e: P.PExpr, scope: dict[str, Any]) -> Any:
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
        try:
            return getattr(operand, e.field)
        except AttributeError:
            raise QTypeError(f"{operand.ty.show()} has no field "
                             f"{e.field!r}") from None
    if isinstance(e, P.PBin):
        lhs = to_q(_eval(e.lhs, scope))
        return _BINOPS[e.op](lhs, _eval(e.rhs, scope))
    if isinstance(e, P.PUn):
        operand = to_q(_eval(e.operand, scope))
        return ~operand if e.op == "not" else -operand
    if isinstance(e, P.PIf):
        return cond(_eval(e.cond, scope), _eval(e.then_, scope),
                    _eval(e.else_, scope))
    if isinstance(e, P.PLam):
        params: Binders = {}
        _bind_pattern(e.pat, _identity, params)
        return _over(e.body, params, scope)
    if isinstance(e, P.PCall):
        return _call(e, scope)
    if isinstance(e, P.PComp):
        return desugar_comprehension(e, scope)
    raise ComprehensionSyntaxError(f"cannot evaluate {e!r}")


def _call(e: P.PCall, scope: dict[str, Any]) -> Any:
    """The one call site: every builtin, environment function and lambda
    application of both front ends goes through here."""
    if isinstance(e.fn, P.PVar):
        name = e.fn.name
        if name not in scope:
            raise ComprehensionSyntaxError(f"unknown function {name!r}")
        fn = scope[name]
    else:
        name = str(e.fn.field) if isinstance(e.fn, P.PProj) else "function"
        fn = _eval(e.fn, scope)
    if not callable(fn):
        raise ComprehensionSyntaxError(f"{name!r} is not callable")
    args = [_eval(a, scope) for a in e.args]
    kwargs = {k: _eval(v, scope) for k, v in e.kwargs}
    _check_arity(name, fn, args, kwargs)
    return fn(*args, **kwargs)


def _check_arity(name: str, fn: Callable[..., Any], args: list[Any],
                 kwargs: dict[str, Any]) -> None:
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):  # a builtin without a signature
        return
    try:
        sig.bind(*args, **kwargs)
    except TypeError:
        positional = [p for p in sig.parameters.values()
                      if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        least = sum(p.default is p.empty for p in positional)
        takes = (str(least) if least == len(positional)
                 else f"{least} to {len(positional)}")
        raise ComprehensionSyntaxError(
            f"{name} takes {takes} argument{'' if takes == '1' else 's'}, "
            f"got {len(args)}") from None


def _lookup(name: str, scope: dict[str, Any]) -> Any:
    if name not in scope:
        raise ComprehensionSyntaxError(
            f"unbound name {name!r}; bind it in the comprehension or pass "
            f"it as a keyword argument to the quoter")
    val = scope[name]
    return val if callable(val) else to_q(val)
