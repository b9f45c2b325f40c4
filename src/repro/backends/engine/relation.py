"""Columnar relations (materialized tables) of the in-memory engine.

The engine follows the MonetDB/MIL execution model the paper targets:
a relation is a set of *parallel columns* (one Python list per column,
positionally aligned), not a list of row tuples.  At run time it is a
bare ``(columns, nrows)`` slot of the bundle program
(:mod:`repro.backends.engine.evaluate`); :class:`Relation` is the named
view of one that :meth:`Engine.execute` hands back.

Columns are treated as immutable once built: steps that extend a
relation share the input's column objects and only append freshly built
columns, which makes column aliasing across relations (and across the
queries of a bundle) safe.
"""

from __future__ import annotations

from typing import Any, Sequence


class Relation:
    """A bag of rows stored column-wise with a fixed column order.

    ``columns[i]`` is the value list of column ``cols[i]``; all columns
    have length ``nrows``.  The engine treats relations as unordered
    (any observable order is established explicitly through ``RowNum``
    columns, exactly as on a real relational backend), so kernels are
    free to return rows in whatever order is cheapest -- an equi-join
    returns its pairs in the probing side's order.
    ``tests/engine/test_row_order.py`` holds the engine to that: every
    step's result shuffled, every answer unchanged.
    """

    __slots__ = ("cols", "columns", "nrows")

    def __init__(self, cols: Sequence[str], columns: Sequence[Sequence[Any]],
                 nrows: int):
        self.cols = tuple(cols)
        self.columns = list(columns)
        self.nrows = nrows

    @property
    def rows(self) -> list[tuple]:
        """Row-tuple view (tests, debugging, row-oriented consumers).

        Materializes on every access -- hot paths should stay columnar.
        """
        if not self.columns:
            return [()] * self.nrows
        return list(zip(*self.columns))

    def col_index(self, col: str) -> int:
        return self.cols.index(col)

    def column(self, col: str) -> Sequence[Any]:
        """The (shared, do-not-mutate) value sequence of ``col``."""
        return self.columns[self.cols.index(col)]

    def __len__(self) -> int:
        return self.nrows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Relation {self.cols} x {self.nrows} rows>"
