"""Columnar relations (materialized tables) for the in-memory engine.

The engine follows the MonetDB/MIL execution model the paper targets:
a relation is a set of *parallel columns* (one Python list per column,
positionally aligned), not a list of row tuples, so operators are the
whole-column kernels of :mod:`repro.backends.kernels` and projection is
pure column aliasing.

Columns are treated as immutable once a relation is built: kernels that
"extend" a relation share the input's column objects and only append
freshly built columns, which makes column aliasing across relations (and
across the bundle-wide materialization cache) safe.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Sequence

from ..kernels import gather


class Relation:
    """A bag of rows stored column-wise with a fixed column order.

    ``columns[i]`` is the value list of column ``cols[i]``; all columns
    have length ``nrows``.  The engine treats relations as unordered
    (any observable order is established explicitly through ``RowNum``
    columns, exactly as on a real relational backend), so kernels are
    free to return rows in whatever order is cheapest -- an equi-join
    returns its pairs in the probing side's order.
    ``tests/engine/test_row_order.py`` holds the engine to that: every
    operator's result shuffled, every answer unchanged.
    """

    __slots__ = ("cols", "columns", "nrows", "_index")

    def __init__(self, cols: Sequence[str], columns: Sequence[Sequence[Any]],
                 nrows: "int | None" = None):
        self.cols = tuple(cols)
        self.columns = list(columns)
        if nrows is None:
            nrows = len(self.columns[0]) if self.columns else 0
        self.nrows = nrows
        self._index = {c: i for i, c in enumerate(self.cols)}

    # ------------------------------------------------------------------
    @property
    def rows(self) -> list[tuple]:
        """Row-tuple view (tests, debugging, row-oriented consumers).

        Materializes on every access -- hot paths should stay columnar.
        """
        if not self.columns:
            return [()] * self.nrows
        return list(zip(*self.columns))

    def col_index(self, col: str) -> int:
        return self._index[col]

    def column(self, col: str) -> Sequence[Any]:
        """The (shared, do-not-mutate) value sequence of ``col``."""
        return self.columns[self._index[col]]

    def extended(self, col: str, values: Sequence[Any]) -> "Relation":
        """This relation with one more column (the others are shared)."""
        return Relation(self.cols + (col,), self.columns + [values],
                        self.nrows)

    def beside(self, other: "Relation") -> "Relation":
        """This relation's columns followed by ``other``'s, row for row."""
        return Relation(self.cols + other.cols, self.columns + other.columns,
                        self.nrows)

    def filtered(self, mask: Sequence[Any]) -> "Relation":
        """The rows whose ``mask`` entry is true: one
        ``itertools.compress`` pass per column."""
        return Relation(self.cols, [list(compress(col, mask))
                                    for col in self.columns])

    def gathered(self, index: Sequence[int]) -> "Relation":
        """The rows at the positions of ``index`` (the identity index
        shares this relation's columns)."""
        return Relation(self.cols,
                        [gather(col, index) for col in self.columns],
                        len(index))

    def __len__(self) -> int:
        return self.nrows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Relation {self.cols} x {self.nrows} rows>"

