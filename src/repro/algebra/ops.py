"""Table algebra operators (the Pathfinder-style intermediate representation).

The paper compiles list programs into "an intermediate representation
called table algebra, a simple variant of relational algebra [that] has
been designed to reflect the query capabilities of modern off-the-shelf
relational database engines" (Section 3).  This module defines that
algebra: plans are DAGs of immutable operator nodes over *named, typed
columns*.

Operator inventory (the classic Pathfinder set):

===============  ====================================================
``LitTable``     literal table (also: the compiler's loop relations)
``TableScan``    reference to a catalog table, columns renamed, rows
                 optionally numbered in the table's canonical order
``Attach``       attach a constant column
``Project``      project / rename / duplicate columns
``Select``       keep rows whose Boolean column is true
``Distinct``     duplicate elimination over all columns
``RowNum``       ``ROW_NUMBER() OVER (PARTITION BY ... ORDER BY ...)``
``RowRank``      ``DENSE_RANK() OVER (ORDER BY ...)``
``Cross``        Cartesian product
``EqJoin``       equi-join on one or more column pairs
``SemiJoin``     keep left rows with a right match
``AntiJoin``     keep left rows without a right match
``UnionAll``     bag union (schemas must agree)
``GroupAggr``    grouped aggregation (sum/count/min/max/avg/all/any)
``BinApp``       column-wise binary scalar operator
``UnApp``        column-wise unary scalar operator
===============  ====================================================

Nodes use *identity* equality (``eq=False``): plans are DAGs with heavy
sharing, and structural equality would be exponential.  A node is
therefore its own memo key, and common subexpression elimination
(``repro.analysis.PlanStore.intern``) performs its own hash-consing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Union

from ..ftypes import AtomT, IntT

#: Sort direction markers for RowNum/RowRank order specifications.
ASC = "asc"
DESC = "desc"

#: Aggregation functions understood by GroupAggr.
AGG_FUNCS = frozenset({"sum", "count", "min", "max", "avg", "all", "any"})


@dataclass(frozen=True, eq=False)
class Const:
    """A literal operand of a column-wise scalar operator."""

    value: Any
    ty: AtomT


#: An operand of BinApp: either a column name or a constant.
Operand = Union[str, Const]


class Node:
    """Base class of algebra operators."""

    @property
    def children(self) -> tuple["Node", ...]:
        return ()

    @property
    def label(self) -> str:
        return type(self).__name__


@dataclass(frozen=True, eq=False)
class LitTable(Node):
    """A literal table with an explicit schema (used for loop relations,
    literal lists, and typed empty relations)."""

    rows: tuple[tuple, ...]
    schema: tuple[tuple[str, AtomT], ...]


@dataclass(frozen=True, eq=False)
class TableScan(Node):
    """Scan a catalog table; ``columns`` maps fresh output column names to
    the source columns (all of them, in canonical alphabetical order).

    ``pos``, when asked for, is one more output column: the row's 1-based
    position in the catalog's canonical row order (all columns
    ascending) -- the list order of the table, which every host stores
    and none has to sort for.  It is named like a column, ``(out,
    source)``, the source name being :func:`position_column` of the
    table's own column names."""

    table: str
    columns: tuple[tuple[str, str, AtomT], ...]  # (out, source, type)
    pos: "tuple[str, str] | None" = None  # (out, source)

    @property
    def outputs(self) -> tuple[tuple[str, str, AtomT], ...]:
        """Every output column, the position last."""
        return (self.columns if self.pos is None
                else self.columns + ((*self.pos, IntT),))


def position_column(names: Iterable[str]) -> str:
    """The name under which a table whose columns are ``names`` keeps the
    position of its rows: ``pos``, lengthened until no column bears it."""
    taken, name = set(names), "pos"
    while name in taken:
        name += "_"
    return name


@dataclass(frozen=True, eq=False)
class Attach(Node):
    """Attach a constant column ``col`` with the given value."""

    child: Node
    col: str
    value: Any
    ty: AtomT

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.child,)


@dataclass(frozen=True, eq=False)
class Project(Node):
    """Projection with rename: output ``new`` takes the value of ``old``.

    The same input column may feed several outputs (column duplication);
    input columns not mentioned are dropped.
    """

    child: Node
    cols: tuple[tuple[str, str], ...]  # (new, old)

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.child,)


@dataclass(frozen=True, eq=False)
class Select(Node):
    """Keep rows where Boolean column ``col`` is true."""

    child: Node
    col: str

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.child,)


@dataclass(frozen=True, eq=False)
class Distinct(Node):
    """Duplicate elimination over the full schema."""

    child: Node

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.child,)


@dataclass(frozen=True, eq=False)
class RowNum(Node):
    """Dense 1-based row numbering per partition, in the given order.

    With a key-unique order specification this also serves as the
    surrogate/row-id generator of the loop-lifting compiler (deterministic
    because ``(iter, pos)`` is a key of every vector).
    """

    child: Node
    col: str
    order: tuple[tuple[str, str], ...]  # (column, ASC|DESC)
    part: tuple[str, ...] = ()

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.child,)


@dataclass(frozen=True, eq=False)
class RowRank(Node):
    """``DENSE_RANK`` over the given order (no partitioning): equal order
    keys receive equal ranks -- the compiler's group-surrogate generator
    (compare the "binding due to rank operator" CTEs in the paper's
    appendix)."""

    child: Node
    col: str
    order: tuple[tuple[str, str], ...]

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.child,)


@dataclass(frozen=True, eq=False)
class Cross(Node):
    """Cartesian product; column names must be disjoint."""

    left: Node
    right: Node

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.left, self.right)


@dataclass(frozen=True, eq=False)
class EqJoin(Node):
    """Equi-join on one or more column pairs; names must be disjoint."""

    left: Node
    right: Node
    pairs: tuple[tuple[str, str], ...]  # (left col, right col)

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.left, self.right)


@dataclass(frozen=True, eq=False)
class SemiJoin(Node):
    """Keep left rows that have at least one join partner on the right."""

    left: Node
    right: Node
    pairs: tuple[tuple[str, str], ...]

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.left, self.right)


@dataclass(frozen=True, eq=False)
class AntiJoin(Node):
    """Keep left rows that have *no* join partner on the right (used to
    supply defaults for empty groups: ``sum [] = 0`` etc.)."""

    left: Node
    right: Node
    pairs: tuple[tuple[str, str], ...]

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.left, self.right)


@dataclass(frozen=True, eq=False)
class UnionAll(Node):
    """Bag union; both inputs must have the identical schema."""

    left: Node
    right: Node

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.left, self.right)


@dataclass(frozen=True, eq=False)
class GroupAggr(Node):
    """Grouped aggregation.

    ``aggs`` is a tuple of ``(func, in_col, out_col)``; ``in_col`` is
    ``None`` for ``count``.  Output schema: group columns + one column per
    aggregate.  Groups with no rows do not appear (SQL semantics); the
    compiler adds defaults explicitly via :class:`AntiJoin` + :class:`Attach`.
    """

    child: Node
    group: tuple[str, ...]
    aggs: tuple[tuple[str, "str | None", str], ...]

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.child,)


@dataclass(frozen=True, eq=False)
class BinApp(Node):
    """Column-wise binary scalar operator: ``out := op(left, right)``.

    Operands are column names or :class:`Const` literals.  The operator set
    matches ``repro.expr.BIN_OPS``.
    """

    child: Node
    op: str
    lhs: Operand
    rhs: Operand
    out: str

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.child,)


@dataclass(frozen=True, eq=False)
class UnApp(Node):
    """Column-wise unary scalar operator (``not``/``neg``/``abs``/
    ``to_double``): ``out := op(col)``."""

    child: Node
    op: str
    col: str
    out: str

    @property
    def children(self) -> tuple[Node, ...]:
        return (self.child,)
