"""Content-addressed structural fingerprints for expression trees.

A fingerprint is a SHA-256 digest over a canonical serialization of an
``Exp`` tree.  Two programs receive the same fingerprint iff they are
structurally identical *up to the names of bound variables*: the front
end draws lambda parameters from a global fresh-name counter, so the
"same" query constructed twice carries different ``VarE`` names, and a
plain structural hash would never repeat.  Bound variables are therefore
serialized as de Bruijn indices (distance to the binding ``LamE``).

The serialization embeds everything execution depends on:

* node kinds, operator names, literal values *and* their atomic types
  (so ``1 :: Int`` and ``1.0 :: Double`` differ),
* the element type of list literals (so two empty lists of different
  element types differ),
* for ``TableE``, the table name **and the full declared column schema**
  -- a compiled plan is only reusable against a catalog whose tables
  still have the shape the plan was compiled for.

This is the identity under which the runtime's plan cache
(:mod:`repro.runtime.plancache`) stores compiled bundles.
"""

from __future__ import annotations

import hashlib

from .exp import (
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

#: Field separator; never appears in operator names or type renderings.
_SEP = "\x1f"
#: Node terminator, so (a, (b, c)) and ((a, b), c) cannot collide.
_END = "\x1e"


def exp_fingerprint(exp: Exp) -> str:
    """Hex SHA-256 fingerprint of ``exp``'s structure (alpha-invariant)."""
    text = "".join(_tokens(exp, ()))
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


def _tokens(e: Exp, bound: tuple[str, ...]):
    """Yield the canonical token stream of ``e``.

    ``bound`` lists enclosing lambda parameters, innermost last; a bound
    ``VarE`` is emitted as its de Bruijn index into that list.  The walk
    keeps its own stack of pending ``(node, bound)`` pairs and tokens
    (programs nest thousands of levels deep), so every token costs the
    same whatever its depth.
    """
    todo: list = [(e, bound)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            yield item
            continue
        e, bound = item
        if isinstance(e, LitE):
            yield f"lit{_SEP}{e.ty.name}{_SEP}{e.value!r}{_END}"
        elif isinstance(e, VarE):
            for depth, name in enumerate(reversed(bound)):
                if name == e.name:
                    yield f"var{_SEP}{depth}{_END}"
                    break
            else:
                # Free variables cannot occur in a closed top-level
                # program, but fingerprinting stays total: fall back to
                # the literal name.
                yield f"freevar{_SEP}{e.name}{_SEP}{e.ty.show()}{_END}"
        elif isinstance(e, TableE):
            cols = ",".join(f"{n}:{t.name}" for n, t in e.columns)
            yield f"table{_SEP}{e.name}{_SEP}{cols}{_END}"
        else:
            if isinstance(e, TupleE):
                head, parts = f"tuple{_SEP}{len(e.parts)}", e.parts
            elif isinstance(e, ListE):
                head = f"list{_SEP}{e.ty.show()}{_SEP}{len(e.elems)}"
                parts = e.elems
            elif isinstance(e, LamE):
                head, parts = f"lam{_SEP}{e.param_ty.show()}", (e.body,)
                bound += (e.param,)
            elif isinstance(e, AppE):
                head, parts = f"app{_SEP}{e.fun}{_SEP}{len(e.args)}", e.args
            elif isinstance(e, TupleElemE):
                head, parts = f"elem{_SEP}{e.index}", (e.tup,)
            elif isinstance(e, IfE):
                head, parts = "if", (e.cond, e.then_, e.else_)
            elif isinstance(e, BinOpE):
                head, parts = f"binop{_SEP}{e.op}", (e.lhs, e.rhs)
            elif isinstance(e, UnOpE):
                head, parts = f"unop{_SEP}{e.op}", (e.operand,)
            else:  # pragma: no cover - the front end only builds the above
                raise TypeError(f"cannot fingerprint {e!r}")
            yield head
            # the node's parts, first on top, then its terminator
            todo.append(_END)
            todo.extend((part, bound) for part in reversed(parts))
