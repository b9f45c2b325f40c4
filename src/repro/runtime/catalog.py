"""The table catalog: schemas and heap copies of database-resident data.

A :class:`Catalog` plays the role of the database schema plus its instance.
Backends (the in-memory engine, the SQLite executor) and the reference
interpreter all read table data from a catalog, which guarantees
that every implementation sees the *same* canonical row order: rows sorted
ascending by the full (alphabetically ordered) column tuple.  This is the
deterministic base order on which the relational ``pos`` encoding of list
order is built (Section 3.2) -- and its only source: a ``TableScan`` hands
out a row's position in it (:meth:`Catalog.columns`), nothing sorts a
base table again, so the order must be total (no NaN).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from ..algebra.ops import position_column
from ..errors import QTypeError, SchemaError
from ..expr import TableE
from ..ftypes import AtomT, check_value, normalize_value
from ..frontend.tables import SchemaLike, normalize_schema


class Catalog:
    """Named tables with declared schemas and validated, canonically
    ordered rows."""

    def __init__(self) -> None:
        self._schemas: dict[str, tuple[tuple[str, AtomT], ...]] = {}
        self._rows: dict[str, list[tuple]] = {}
        #: Per table scanned so far: its rows as columns (:meth:`columns`).
        self._columns: dict[str, dict[str, list]] = {}
        #: Incremented on every DDL statement (CREATE/DROP TABLE), the
        #: only way to change schema or data.  The plan cache bakes this
        #: into its keys, so any schema change invalidates previously
        #: compiled plans (repro.runtime.plancache), and backends use it
        #: to know when to (re)load the instance.
        self.schema_generation = 0

    # ------------------------------------------------------------------
    # definition
    # ------------------------------------------------------------------
    def create_table(self, name: str, schema: SchemaLike,
                     rows: Iterable[Sequence[Any]] = ()) -> None:
        """Create table ``name``.

        ``rows`` are tuples in the *declared* column order of ``schema``;
        they are validated, reordered to the canonical alphabetical column
        order, and sorted.
        """
        if name in self._schemas:
            raise SchemaError(f"table {name!r} already exists")
        declared = (list(schema.items()) if hasattr(schema, "items")
                    else list(schema))
        cols = normalize_schema(schema)
        order = [
            [n for n, _ in declared].index(col_name) for col_name, _ in cols
        ]
        checked: list[tuple] = []
        for row in rows:
            if not isinstance(row, (tuple, list)):
                row = (row,)
            if len(row) != len(cols):
                raise SchemaError(
                    f"table {name!r}: row {row!r} has {len(row)} fields, "
                    f"schema has {len(cols)} columns")
            reordered = tuple(row[i] for i in order)
            for value, (col_name, ty) in zip(reordered, cols):
                try:
                    check_value(value, ty)
                except QTypeError as err:
                    raise SchemaError(
                        f"table {name!r}, column {col_name!r}, row {row!r}: "
                        f"{err}") from None
            checked.append(tuple(
                normalize_value(v, ty)
                for v, (_, ty) in zip(reordered, cols)))
        checked.sort(key=_sort_key)
        self._schemas[name] = cols
        self._rows[name] = checked
        self.schema_generation += 1

    def create_table_from_records(self, cls: type,
                                  instances: Iterable[Any],
                                  name: str | None = None) -> None:
        """Create a table backing a ``@queryable`` record class."""
        from ..frontend.records import record_schema, record_to_tuple
        schema = record_schema(cls)
        self.create_table(name or cls.__name__.lower(), schema,
                          [record_to_tuple(x) for x in instances])

    def drop_table(self, name: str) -> None:
        """Remove a table (and its rows)."""
        self._require(name)
        del self._schemas[name]
        del self._rows[name]
        self._columns.pop(name, None)
        self.schema_generation += 1

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def has_table(self, name: str) -> bool:
        return name in self._schemas

    def table_names(self) -> list[str]:
        return sorted(self._schemas)

    def schema(self, name: str) -> tuple[tuple[str, AtomT], ...]:
        """Columns of ``name`` in canonical (alphabetical) order."""
        self._require(name)
        return self._schemas[name]

    def rows(self, name: str) -> list[tuple]:
        """Rows of ``name`` in canonical order (full-tuple ascending)."""
        self._require(name)
        return self._rows[name]

    def columns(self, name: str) -> dict[str, list]:
        """The rows of ``name`` as columns, by name, plus their 1-based
        positions under the table's :func:`position_column` name.  A
        table never changes, so it is transposed once; callers share the
        lists and must not mutate them."""
        cols = self._columns.get(name)
        if cols is None:
            names = [col for col, _ in self.schema(name)]
            rows = self._rows[name]
            cols = {col: [row[i] for row in rows]
                    for i, col in enumerate(names)}
            cols[position_column(names)] = list(range(1, len(rows) + 1))
            self._columns[name] = cols
        return cols

    def check_reference(self, ref: TableE) -> None:
        """Validate a ``table`` combinator reference against the catalog.

        The paper: a missing table or a row-type mismatch "throws an error
        at runtime" -- this is that check, performed when a query is run.
        """
        if ref.name not in self._schemas:
            raise SchemaError(f"query references unknown table {ref.name!r}")
        actual = self._schemas[ref.name]
        if tuple(ref.columns) != actual:
            raise SchemaError(
                f"table {ref.name!r}: declared row type "
                f"{_show_cols(ref.columns)} does not match the catalog's "
                f"{_show_cols(actual)}")

    def _require(self, name: str) -> None:
        if name not in self._schemas:
            raise SchemaError(f"unknown table {name!r}")


def _sort_key(row: tuple) -> tuple:
    """Canonical ordering key; mixed atom types never meet in one column,
    so plain tuple comparison is safe."""
    return row


def _show_cols(cols: Sequence[tuple[str, AtomT]]) -> str:
    return "(" + ", ".join(f"{n}: {t.show()}" for n, t in cols) + ")"
