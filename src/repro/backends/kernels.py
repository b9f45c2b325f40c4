"""Column kernels: how a join, sort, numbering, grouping or scalar map
is computed over plain Python lists.

The paper's MIL target processes whole columns (BATs) per primitive.
The in-memory engine is this tree's executor of that model: every step
of the program it lowers a bundle into assembles its operator from the
pure functions below, so each algorithm lives in exactly one place.

A *column* is a list, positionally aligned with its relation's other
columns and never mutated once built; an *index* is a sequence of row
positions to :func:`gather` by; the *identity index* ``range(n)`` says
"every row, in place", and gathering by it shares the column.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, groupby, repeat
from operator import (add, eq, ge, gt, is_not, itemgetter, le, lt, mul, ne,
                      neg, sub)
from typing import Any, Callable, Iterable, Sequence

from ..errors import ExecutionError, PartialFunctionError
from ..runtime.catalog import Catalog
from ..semantics.interp import like_match

Column = Sequence[Any]
Index = Sequence[int]


def _guarded(fn: Callable[[Any, Any], Any]) -> Callable[[Any, Any], Any]:
    def wrapped(a: Any, b: Any) -> Any:
        if b == 0:
            raise PartialFunctionError("division by zero")
        return fn(a, b)
    return wrapped


#: Scalar operators, applied with ``map`` over whole columns:
#: ``operator.*`` wherever a C-level callable exists, so the map never
#: re-enters the interpreter.
BIN: dict[str, Callable[[Any, Any], Any]] = {
    "add": add,
    "sub": sub,
    "mul": mul,
    "div": _guarded(lambda a, b: a / b),
    "idiv": _guarded(lambda a, b: a // b),
    "mod": _guarded(lambda a, b: a % b),
    "eq": eq,
    "ne": ne,
    "lt": lt,
    "le": le,
    "gt": gt,
    "ge": ge,
    "and": lambda a, b: a and b,
    "or": lambda a, b: a or b,
    "min": min,
    "max": max,
    "cat": add,
    "like": like_match,
}

UN: dict[str, Callable[[Any], Any]] = {
    "not": lambda a: not a,
    "neg": neg,
    "abs": abs,
    "to_double": float,
    "upper": lambda a: a.upper(),
    "lower": lambda a: a.lower(),
    "strlen": len,
    "year": lambda d: d.year,
    "month": lambda d: d.month,
    "day": lambda d: d.day,
    "hour": lambda t: t.hour,
    "minute": lambda t: t.minute,
    "second": lambda t: t.second,
}


def transpose(rows: Sequence[tuple[Any, ...]], width: int) -> list[list[Any]]:
    """Row tuples as ``width`` columns: one C-level ``zip``."""
    if not rows:
        return [[] for _ in range(width)]
    return [list(col) for col in zip(*rows)]


def table_columns(catalog: Catalog, table: str,
                  cols: Iterable[str]) -> list[list[Any]]:
    """The named columns of a base table (its position column is one of
    them), shared with the catalog, which transposes a table once."""
    by_name = catalog.columns(table)
    return [by_name[col] for col in cols]


def gather(cols: Sequence[Column], index: Index) -> list[Column]:
    """Every column of ``cols`` at the positions of ``index``: one
    C-level ``itemgetter`` over the index serves them all, and the
    identity index shares them (columns are immutable, so sharing one
    costs nothing)."""
    if not cols or index == range(len(cols[0])):
        return list(cols)
    if len(index) < 2:  # ``itemgetter`` of one position is no tuple
        return [[col[i] for i in index] for col in cols]
    pick = itemgetter(*index)
    return [list(pick(col)) for col in cols]


def key_column(cols: Sequence[Column]) -> Column:
    """One hashable, comparable key per row: the value column itself for
    a single column (no tuple wrapping), a zipped tuple column otherwise."""
    if len(cols) == 1:
        return cols[0]
    return list(zip(*cols))


def sort_perm(keys: Sequence[tuple[Column, bool]], nrows: int) -> list[int]:
    """Row positions sorted by the ``(column, descending)`` keys.

    Successive stable sorts, last key first; each pass's key function is
    the column's bound ``__getitem__`` (no per-row closure), so
    mixed-direction multi-key sorts stay C-level.
    """
    perm = list(range(nrows))
    for col, descending in reversed(keys):
        perm.sort(key=col.__getitem__, reverse=descending)
    return perm


def row_number(perm: Index, part: Sequence[Column]) -> list[int]:
    """1, 2, 3, ... along ``perm``, restarting per distinct ``part``
    key.  Numbers are written back through the permutation, so the
    input's row order is kept and no column needs gathering.

    A ``perm`` sorted by the partition first (as the engine's is) holds
    each partition's rows in one run, numbered by comparing each key
    with the one before; only when a key comes back after its run ended
    does a counter per key number the rows."""
    out = [0] * len(perm)
    if not part:
        for n, i in enumerate(perm, start=1):
            out[i] = n
        return out
    keys = key_column(part)
    if _number_runs(perm, keys, out):
        return out
    counters: dict[Any, int] = {}
    for i in perm:
        key = keys[i]
        n = counters.get(key, 0) + 1
        counters[key] = n
        out[i] = n
    return out


def _number_runs(perm: Index, keys: Column, out: list[int]) -> bool:
    """Number each run of equal keys along ``perm`` 1, 2, ...; ``False``
    when a key comes back after its run ended.  A key that equals the
    one before continues its run; any other key, a NaN included, that
    a ``dict`` would take for an earlier one is a comeback, so the
    numbers are the per-key counts wherever this returns ``True``."""
    started: set[Any] = set()
    prev: Any = object()  # equal to no key
    n = 0
    for i in perm:
        key = keys[i]
        if key == prev:
            n += 1
        elif key in started:
            return False
        else:
            started.add(key)
            prev, n = key, 1
        out[i] = n
    return True


def dense_rank(perm: Index, cols: Sequence[Column]) -> list[int]:
    """Dense rank along ``perm``: the rank advances whenever the key
    over ``cols`` changes; ties share a rank."""
    out = [0] * len(perm)
    runs = groupby(perm, key=key_column(cols).__getitem__)
    for rank, (_, run) in enumerate(runs, start=1):
        for i in run:
            out[i] = rank
    return out


def _positions(keys: Iterable[Any]) -> dict[Any, list[int]]:
    """Each distinct key's row positions, keys in first-occurrence order."""
    found: dict[Any, list[int]] = {}
    for i, key in enumerate(keys):
        rows = found.get(key)
        if rows is None:
            found[key] = [i]
        else:
            rows.append(i)
    return found


def _probe(build: Column, probe: Column) -> "tuple[Index, Index] | None":
    """Hash join on unique ``build`` keys: the aligned (build, probe)
    positions of the matches, the probe side's positions ascending --
    ``None`` when a build key repeats.

    The whole probe column is looked up with one C-level ``map`` and the
    misses are compressed out; when every probe matches, the probe index
    is the identity index.
    """
    pos = dict(zip(build, range(len(build))))
    if len(pos) != len(build):
        return None
    hits: list[Any] = list(map(pos.get, probe))
    if None not in hits:
        return hits, range(len(hits))
    mask = list(map(is_not, hits, repeat(None)))
    return list(compress(hits, mask)), list(compress(range(len(hits)), mask))


def join_index(lkeys: Column, rkeys: Column) -> tuple[Index, Index]:
    """The equi-join of two key columns as aligned (left, right) indices.

    The hash is built on a side whose keys are unique -- the smaller
    side is tried first (the right one on a tie): its dict is the
    cheaper one to build, and to drop when a key repeats -- and the
    other side probes it in C.  The probing side's index is the identity
    index whenever each of its rows matches, so its columns pass through
    ungathered: a 1:1 join against the compiler's keyed spines gathers
    one side only.  The pairs come in the probing side's row order, not
    left-major: relations are unordered (any order is an explicit
    ``RowNum`` column).  Only when both sides repeat a key does a
    per-row loop pair up each key's rows.
    """
    sides = [(rkeys, lkeys, True), (lkeys, rkeys, False)]
    if len(lkeys) < len(rkeys):
        sides.reverse()
    for build, probe, right in sides:
        found = _probe(build, probe)
        if found is not None:
            return (found[1], found[0]) if right else found
    li: list[int] = []
    ri: list[int] = []
    get = _positions(rkeys).get
    for i, key in enumerate(lkeys):
        js = get(key)
        if js is not None:
            li += repeat(i, len(js))
            ri += js
    return li, ri


def semi_mask(lkeys: Column, rkeys: Column, anti: bool) -> list[bool]:
    """Per left row: does its key occur on the right (``anti``: not)?"""
    keys = set(rkeys)
    if anti:
        return [k not in keys for k in lkeys]
    return list(map(keys.__contains__, lkeys))


def distinct_index(cols: Sequence[Column]) -> Index:
    """Positions of the first occurrence of each distinct row, ascending;
    the identity index when no row repeats."""
    keys = key_column(cols)
    n = len(keys)
    # Written back to front, each key ends up holding its first position.
    first = dict(zip(reversed(keys), range(n - 1, -1, -1)))
    if len(first) == n:
        return range(n)
    return sorted(first.values())


def cross_index(nl: int, nr: int) -> tuple[Index, Index]:
    """Cartesian product of ``nl`` by ``nr`` rows, left-major."""
    return [i for i in range(nl) for _ in range(nr)], list(range(nr)) * nl


def group_aggregate(cols: Sequence[Column], nrows: int,
                    aggs: Sequence[tuple[str, Column]]
                    ) -> tuple[list[Column], int]:
    """Group ``nrows`` rows by the key over ``cols`` and fold each
    ``(func, values)`` of ``aggs`` per group: the distinct values of
    each key column, then one column per aggregate, both in the keys'
    first-occurrence order -- and the number of groups.

    A single group folds the whole column.  Otherwise ``count`` is a
    C-level ``Counter`` over the keys and ``min``/``max`` one pass over
    ``(key, value)`` pairs, so neither builds a group's member list;
    ``sum``/``avg``/``all``/``any`` (and ``min``/``max`` over a column
    holding a NaN) fold each group's members.  Without key columns
    every row has the same (empty) key, so there is one group iff there
    are rows (SQL semantics at the algebra level: no rows, no group, no
    output row).
    """
    keys = key_column(cols) if cols else [()] * nrows
    groups = dict.fromkeys(keys)  # the distinct keys, first occurrence first
    if len(cols) == 1:
        out: list[Column] = [list(groups)]
    else:
        out = [list(col) for col in zip(*groups)] or [[] for _ in cols]
    many = len(groups) != 1
    members: "Sequence[Index] | None" = None if many else [range(nrows)]
    for func, values in aggs:
        if func == "count" and many:
            out.append(list(map(Counter(keys).__getitem__, groups)))
        elif (func in ("min", "max") and many
              and not any(map(ne, values, values))):
            out.append(_extremes(keys, values, groups, func == "max"))
        else:
            if members is None:
                members = list(_positions(keys).values())
            out.append(aggregate(func, values, members))
    return out, len(groups)


def _extremes(keys: Column, values: Column, groups: Iterable[Any],
              largest: bool) -> list[Any]:
    """Per group (in ``groups``' order) its least or largest value, the
    first of equal ones as ``min``/``max`` keep it: each key starts at
    its first value (one C-level ``dict`` build back to front) and only
    a strictly better value replaces it."""
    best = dict(zip(reversed(keys), reversed(values)))
    if largest:
        for key, value in zip(keys, values):
            if value > best[key]:
                best[key] = value
    else:
        for key, value in zip(keys, values):
            if value < best[key]:
                best[key] = value
    return list(map(best.__getitem__, groups))


_FOLDS: dict[str, Callable[[Iterable[Any]], Any]] = {
    "sum": sum, "min": min, "max": max, "all": all, "any": any,
}


def _nan_first(fold: Callable[[list[Any]], Any]
               ) -> Callable[[Iterable[Any]], Any]:
    """``fold`` (``min``/``max``) as IEEE 754-2019 ``minimum``/``maximum``:
    a NaN in the group is the result, wherever it stands (Python's
    ``min``/``max`` keep only a leading one)."""
    def folded(values: Iterable[Any]) -> Any:
        vs = list(values)
        for v in vs:
            if v != v:
                return v
        return fold(vs)
    return folded


def aggregate(func: str, values: Column,
              members: Sequence[Index]) -> list[Any]:
    """One aggregate value per group, folded over the group's
    ``members`` (row positions); ``count`` reads no ``values``."""
    if func == "count":
        return list(map(len, members))
    getv = values.__getitem__
    if func == "avg":
        return [float(sum(map(getv, m))) / len(m) for m in members]
    fold = _FOLDS.get(func)
    if fold is None:  # pragma: no cover - schema validation rejects
        raise ExecutionError(f"unknown aggregate {func!r}")
    # Only a NaN differs from itself: one C-level pass over the column,
    # and columns without one (every Int and String column) fold as is.
    if func in ("min", "max") and any(map(ne, values, values)):
        fold = _nan_first(fold)
    return [fold(map(getv, m)) for m in members]
