"""LINQ and Data Parallel Haskell, two systems Section 4 compares with.

* a LINQ-style baseline (:class:`LinqSession`): a queryable compiles to
  one SQL statement, but a queryable nested in the enumeration of
  another re-executes per outer row (the N+1 avalanche), and rows carry
  no order guarantee ("LINQ does not provide any relational encoding of
  order");
* a miniature DPH (Section 4.2): parallel arrays in the non-parametric
  representation -- ``[:(a, b):]`` as a tuple of arrays
  (:class:`TupleArray`), ``[:[:a:]:]`` as ``(offset, length)``
  descriptors over one flat array (:class:`NestedArray`) -- and Figure
  5's ``dotp`` as a scalar loop (:func:`dotp_comprehension`) and as
  Figure 6's vectorised pipeline (:func:`dotp_vectorised`).

The DSH side of both comparisons, and the HaskellDB baseline, are in
``workloads.py``.  This module imports no sibling, so examples import it
as ``comparisons`` and tests and benchmarks as ``examples.comparisons``.
"""

from __future__ import annotations

import hashlib
import random
import sqlite3
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.backends.sql.dbapi import SQLITE_DIALECT, load_catalog
from repro.runtime import Catalog

_quote = SQLITE_DIALECT.quote_ident


# ----------------------------------------------------------------------
# LINQ: lazy queryables with N+1 nested execution
# ----------------------------------------------------------------------

class LinqSession:
    """Executes LINQ-style pipelines; counts statements (Table 1)."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._conn = sqlite3.connect(":memory:")
        load_catalog(self._conn, catalog, SQLITE_DIALECT)
        self.statements_executed = 0

    def table(self, name: str) -> "Queryable":
        cols = tuple(c for c, _ in self.catalog.schema(name))
        return Queryable(self, name, cols)

    def execute(self, sql: str, params: tuple = ()) -> list[tuple]:
        """Run one statement.  An order-oblivious backend may deliver rows
        any way it likes; a statement-seeded shuffle models that, so runs
        are deterministic but order is meaningless."""
        rows = self._conn.execute(sql, params).fetchall()
        self.statements_executed += 1
        seed = int(hashlib.sha256(
            (sql + repr(params)).encode()).hexdigest()[:8], 16)
        random.Random(seed).shuffle(rows)
        return rows


class Queryable:
    """A lazily evaluated LINQ-ish table pipeline."""

    def __init__(self, session: LinqSession, table: str,
                 columns: tuple[str, ...],
                 wheres: tuple[tuple[str, Any], ...] = ()):
        self.session = session
        self.table = table
        self.columns = columns
        self.wheres = wheres

    def where_eq(self, column: str, value: Any) -> "Queryable":
        """``.Where(row => row.column == value)``."""
        return Queryable(self.session, self.table, self.columns,
                         self.wheres + ((column, value),))

    def distinct_values(self, column: str) -> list[Any]:
        sql = (f"SELECT DISTINCT {_quote(column)} "
               f"FROM {_quote(self.table)}")
        return [r[0] for r in self.session.execute(sql)]

    def _sql(self) -> tuple[str, tuple]:
        cols = ", ".join(_quote(c) for c in self.columns)
        sql = f"SELECT {cols} FROM {_quote(self.table)}"
        params: tuple = ()
        if self.wheres:
            sql += " WHERE " + " AND ".join(
                f"{_quote(c)} = ?" for c, _ in self.wheres)
            params = tuple(v for _, v in self.wheres)
        return sql, params

    def __iter__(self) -> Iterable[dict]:
        sql, params = self._sql()
        for row in self.session.execute(sql, params):
            yield dict(zip(self.columns, row))


def linq_example(session: LinqSession) -> list[tuple[str, list[str]]]:
    """The running example in LINQ style: group facilities by category and
    collect each category's feature meanings -- executed as one query for
    the keys plus one per category (N+1), with no order guarantee."""
    out = []
    for cat in session.table("facilities").distinct_values("cat"):
        meanings: list[str] = []
        for fac_row in session.table("facilities").where_eq("cat", cat):
            for feat_row in session.table("features").where_eq(
                    "fac", fac_row["fac"]):
                for mean_row in session.table("meanings").where_eq(
                        "feature", feat_row["feature"]):
                    if mean_row["meaning"] not in meanings:
                        meanings.append(mean_row["meaning"])
        out.append((cat, meanings))
    return out


# ----------------------------------------------------------------------
# DPH: parallel arrays in the non-parametric representation
# ----------------------------------------------------------------------

class PArray:
    """Base class of parallel arrays."""

    def __len__(self) -> int:
        raise NotImplementedError

    def to_list(self) -> list:
        raise NotImplementedError


@dataclass
class FlatArray(PArray):
    """A flat array of atomic values (``[:Float:]``, ``[:Int:]``, ...)."""

    values: list

    def __len__(self) -> int:
        return len(self.values)

    def to_list(self) -> list:
        return list(self.values)


@dataclass
class TupleArray(PArray):
    """An array of n-tuples, stored as n equal-length component arrays."""

    parts: tuple[PArray, ...]

    def __post_init__(self) -> None:
        lengths = {len(p) for p in self.parts}
        if len(lengths) > 1:
            raise ValueError(f"component arrays differ in length: {lengths}")

    def __len__(self) -> int:
        return len(self.parts[0])

    def to_list(self) -> list:
        return list(zip(*(p.to_list() for p in self.parts)))


@dataclass
class NestedArray(PArray):
    """A nested array: per-segment ``(offset, length)`` descriptors over
    one flat ``data`` array (locality-preserving; DSH's surrogate keys
    trade this descriptor arithmetic for foreign-key joins)."""

    offsets: list[int]
    lengths: list[int]
    data: PArray

    def __len__(self) -> int:
        return len(self.offsets)

    def to_list(self) -> list:
        flat = self.data.to_list()
        return [flat[o:o + l] for o, l in zip(self.offsets, self.lengths)]


def from_list(values: Sequence[Any]) -> PArray:
    """Build a parallel array from a Python list, choosing the
    non-parametric representation by element shape."""
    values = list(values)
    if not values:
        return FlatArray([])
    head = values[0]
    if isinstance(head, tuple):
        return TupleArray(tuple(from_list([v[i] for v in values])
                                for i in range(len(head))))
    if isinstance(head, list):
        offsets, lengths, flat = [], [], []
        for segment in values:
            offsets.append(len(flat))
            lengths.append(len(segment))
            flat.extend(segment)
        return NestedArray(offsets, lengths, from_list(flat))
    return FlatArray(values)


def fst_l(arr: PArray) -> PArray:
    """``fst^`` -- lifted first projection (Figure 6)."""
    if not isinstance(arr, TupleArray):
        raise TypeError("fst_l expects an array of tuples")
    return arr.parts[0]


def snd_l(arr: PArray) -> PArray:
    """``snd^`` -- lifted second projection (Figure 6)."""
    if not isinstance(arr, TupleArray):
        raise TypeError("snd_l expects an array of tuples")
    return arr.parts[1]


def zip_p(a: PArray, b: PArray) -> TupleArray:
    """``zipP`` -- arrays of tuples are just tuples of arrays."""
    if len(a) != len(b):
        raise ValueError("zip_p expects equal lengths")
    return TupleArray((a, b))


def mul_l(a: PArray, b: PArray) -> FlatArray:
    """``*^`` -- lifted multiplication (Figure 6)."""
    return FlatArray([x * y for x, y in zip(_flat(a), _flat(b))])


def add_l(a: PArray, b: PArray) -> FlatArray:
    """``+^`` -- lifted addition."""
    return FlatArray([x + y for x, y in zip(_flat(a), _flat(b))])


def bpermute(arr: PArray, indexes: PArray) -> FlatArray:
    """``bpermuteP`` -- bulk indexed gather: ``[:arr !: i | i <- idx:]``,
    the operation Figure 6 maps onto DSH's equi-join over ``pos``."""
    data = _flat(arr)
    out = []
    for i in _flat(indexes):
        if not 0 <= i < len(data):
            raise IndexError(f"bpermute index {i} out of bounds")
        out.append(data[i])
    return FlatArray(out)


def index_p(arr: PArray, i: int) -> Any:
    """``!:`` -- positional indexing."""
    return _flat(arr)[i]


def sum_p(arr: PArray):
    """``sumP`` -- parallel sum."""
    return sum(_flat(arr))


def sum_s(arr: NestedArray) -> FlatArray:
    """Segmented sum: one result per inner array (used by vectorised
    nested programs)."""
    flat = _flat(arr.data)
    return FlatArray([sum(flat[o:o + l])
                      for o, l in zip(arr.offsets, arr.lengths)])


def enum_from_to_p(lo: int, hi: int) -> FlatArray:
    """``enumFromToP`` -- the array [lo..hi]."""
    return FlatArray(list(range(lo, hi + 1)))


def replicate_p(n: int, value: Any) -> FlatArray:
    """``replicateP``."""
    return FlatArray([value] * n)


def pack_p(arr: PArray, flags: Iterable[bool]) -> FlatArray:
    """``packP`` -- keep elements whose flag is true."""
    return FlatArray([v for v, f in zip(_flat(arr), flags) if f])


def _flat(arr: PArray) -> list:
    if isinstance(arr, FlatArray):
        return arr.values
    if isinstance(arr, TupleArray):
        return arr.to_list()
    raise TypeError(f"expected a flat array, got {type(arr).__name__}")


def dotp_comprehension(sv: list[tuple[int, float]], v: list[float]) -> float:
    """Figure 5's ``dotp`` as a scalar loop (the reference)."""
    return sum(x * v[i] for i, x in sv)


def dotp_vectorised(sv: TupleArray, v: PArray) -> float:
    """Figure 6, left: ``sumP (snd^ sv *^ bpermuteP v (fst^ sv))``."""
    return sum_p(mul_l(snd_l(sv), bpermute(v, fst_l(sv))))
