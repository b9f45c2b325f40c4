"""The deep-embedded expression AST.

This is the Python rendition of the paper's internal ``Exp`` data type
(Section 3.1): the DSH combinators "construct an internal data
representation of the embedded program fragment they represent", annotated
with value-level types.  Exactly as in the paper, this representation is not
itself guaranteed type-correct -- the front end (``repro.frontend``) takes
the role of Haskell's type checker and only ever constructs consistent
trees; the AST is not part of the public API.

Nodes are immutable and hashable so they can be shared, memoised, and used
as dictionary keys by the compiler.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..ftypes import AtomT, ListT, TupleT, Type


@dataclass(frozen=True)
class FnT(Type):
    """The type of a combinator-argument function.

    Functions are not first-class Ferry values (the paper lists first-class
    functions as future work); ``FnT`` only ever types ``LamE`` nodes that
    appear directly as arguments of higher-order builtins like ``map``.
    """

    arg: Type
    res: Type

    def show(self) -> str:
        return f"({self.arg.show()} -> {self.res.show()})"


_fresh_counter = itertools.count()


def fresh_var(prefix: str = "x") -> str:
    """A globally fresh variable name for lambda parameters."""
    return f"{prefix}{next(_fresh_counter)}"


class Exp:
    """Base class of expression nodes; every node carries its Ferry type."""

    ty: Type

    def children(self) -> Iterator["Exp"]:
        """Yield direct sub-expressions (for generic traversals)."""
        return iter(())


@dataclass(frozen=True)
class LitE(Exp):
    """A literal of basic type."""

    value: Any
    ty: AtomT

    def show(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class TupleE(Exp):
    """Tuple construction; ``ty`` is the corresponding ``TupleT``."""

    parts: tuple[Exp, ...]
    ty: TupleT = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ty", TupleT(tuple(p.ty for p in self.parts)))

    def children(self) -> Iterator[Exp]:
        return iter(self.parts)


@dataclass(frozen=True)
class ListE(Exp):
    """A literal list (the image of ``toQ`` on list values).

    The element type is carried explicitly so the empty list is typeable.
    """

    elems: tuple[Exp, ...]
    ty: ListT

    def children(self) -> Iterator[Exp]:
        return iter(self.elems)


@dataclass(frozen=True)
class VarE(Exp):
    """A variable bound by an enclosing ``LamE``."""

    name: str
    ty: Type


@dataclass(frozen=True)
class TableE(Exp):
    """A reference to a database-resident table.

    ``columns`` lists ``(column name, atom type)`` pairs in *alphabetical*
    order -- the paper fixes that "these columns are gathered in a flat
    tuple whose components are ordered alphabetically by column name".
    Referencing a table performs no I/O (Section 3.1).
    """

    name: str
    columns: tuple[tuple[str, AtomT], ...]
    ty: ListT


@dataclass(frozen=True)
class LamE(Exp):
    """A unary lambda; only ever an argument to a higher-order builtin."""

    param: str
    param_ty: Type
    body: Exp
    ty: FnT = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ty", FnT(self.param_ty, self.body.ty))

    def children(self) -> Iterator[Exp]:
        return iter((self.body,))


@dataclass(frozen=True)
class AppE(Exp):
    """Application of a named builtin combinator to its arguments."""

    fun: str
    args: tuple[Exp, ...]
    ty: Type

    def children(self) -> Iterator[Exp]:
        return iter(self.args)


@dataclass(frozen=True)
class TupleElemE(Exp):
    """Projection of the ``index``-th component (0-based) of a tuple."""

    tup: Exp
    index: int
    ty: Type = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.tup.ty, TupleT):
            raise ValueError(f"projection from non-tuple {self.tup.ty!r}")
        object.__setattr__(self, "ty", self.tup.ty.elts[self.index])

    def children(self) -> Iterator[Exp]:
        return iter((self.tup,))


@dataclass(frozen=True)
class IfE(Exp):
    """Conditional; both branches have the same type, the condition is Bool."""

    cond: Exp
    then_: Exp
    else_: Exp
    ty: Type = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ty", self.then_.ty)

    def children(self) -> Iterator[Exp]:
        return iter((self.cond, self.then_, self.else_))


@dataclass(frozen=True)
class BinOpE(Exp):
    """Binary operation on atoms (arithmetic, comparison, boolean, min/max)."""

    op: str
    lhs: Exp
    rhs: Exp
    ty: Type

    def children(self) -> Iterator[Exp]:
        return iter((self.lhs, self.rhs))


@dataclass(frozen=True)
class UnOpE(Exp):
    """Unary operation on atoms (``not``, ``neg``, ``abs``, casts)."""

    op: str
    operand: Exp
    ty: Type

    def children(self) -> Iterator[Exp]:
        return iter((self.operand,))


#: Binary operators over atoms and their classification.  Comparison
#: operators also apply component-wise to flat tuples (lexicographically),
#: which the front end desugars before reaching the AST.
ARITH_OPS = frozenset({"add", "sub", "mul", "div", "idiv", "mod", "min", "max"})
CMP_OPS = frozenset({"eq", "ne", "lt", "le", "gt", "ge"})
BOOL_OPS = frozenset({"and", "or"})
#: String operators: concatenation and SQL-style pattern matching
#: ('%' any run, '_' any single character).
STR_OPS = frozenset({"cat", "like"})
BIN_OPS = ARITH_OPS | CMP_OPS | BOOL_OPS | STR_OPS

UN_OPS = frozenset({"not", "neg", "abs", "to_double",
                    "upper", "lower", "strlen",
                    "year", "month", "day", "hour", "minute", "second"})
