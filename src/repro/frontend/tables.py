"""The ``table`` combinator: referencing database-resident data.

Section 3.1: "Use of the table combinator does not result in I/O ...: it
just references the database-resident table by its unique name.  In the
case that the table has multiple columns, these columns are gathered in a
flat tuple whose components are ordered alphabetically by column name."

The ``TA`` constraint (rows are atoms or flat tuples of atoms) is enforced
here; whether the table actually exists with the declared row type is -- as
in the paper -- checked only when the query is run.
"""

from __future__ import annotations

import datetime
from typing import Mapping, Sequence

from ..errors import QTypeError
from ..expr import TableE
from ..ftypes import AtomT, ListT, Type, atom_type_for, tuple_t
from .q import Q

#: Python classes accepted as column type declarations.
_COLUMN_CLASSES = (bool, int, float, str, datetime.date, datetime.time)

SchemaLike = Mapping[str, "type | AtomT"] | Sequence[tuple[str, "type | AtomT"]]


def _atomize(decl: "type | AtomT", column: str) -> AtomT:
    if isinstance(decl, AtomT):
        return decl
    if isinstance(decl, type) and decl in _COLUMN_CLASSES:
        return atom_type_for(decl)
    raise QTypeError(
        f"column {column!r}: table columns must have basic types (the TA "
        f"constraint); got {decl!r}")


def normalize_schema(schema: SchemaLike) -> tuple[tuple[str, AtomT], ...]:
    """Validate a schema declaration and fix the alphabetical column order."""
    items = list(schema.items()) if isinstance(schema, Mapping) else list(schema)
    if not items:
        raise QTypeError("a table needs at least one column")
    seen: set[str] = set()
    cols: list[tuple[str, AtomT]] = []
    for name, decl in items:
        if not isinstance(name, str) or not name:
            raise QTypeError(f"invalid column name {name!r}")
        if name in seen:
            raise QTypeError(f"duplicate column name {name!r}")
        seen.add(name)
        cols.append((name, _atomize(decl, name)))
    cols.sort(key=lambda c: c[0])
    return tuple(cols)


def row_type(columns: tuple[tuple[str, AtomT], ...]) -> Type:
    """The Ferry row type of a table: the alphabetically-ordered flat tuple
    of its column types (a single column is the atom itself)."""
    return tuple_t(*(ty for _, ty in columns))


def table(name: str, schema: SchemaLike) -> Q:
    """Reference the database table ``name`` with the declared ``schema``.

    Returns a query of type ``[row]`` where ``row`` is the alphabetically
    ordered tuple of column values.  Rows are delivered in the table's
    canonical order (sorted by all columns), giving the deterministic list
    semantics that the relational order encoding preserves thereafter.
    """
    cols = normalize_schema(schema)
    ty = ListT(row_type(cols))
    return Q(TableE(name, cols, ty))
