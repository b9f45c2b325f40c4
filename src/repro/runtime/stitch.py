"""Stitching: tabular query results back into nested Python values.

Steps 5 and 6 of the paper's Figure 2: the bundle's tabular results are
transferred into the heap and transformed into vanilla values.  Nested
lists are re-assembled by following surrogate keys from outer rows into
the inner queries' ``iter`` columns (Figure 3(b)); an inner list whose
surrogate never appears is empty.  Order is restored from the ``pos``
encoding -- backends deliver rows already sorted by ``(iter, pos)``.

The :class:`~repro.core.bundle.Ref` tree is the result's static shape,
so -- like query shredding's stitching (Cheney, Lindley & Wadler) -- it
is compiled once per bundle into a :class:`Stitcher` (cached on
``Bundle.stitcher``): per query one row builder of ``itemgetter`` objects
at the item columns' row offsets, a nested list a lookup of the surrogate
in the inner query's ``iter`` index.  A call builds those indexes inner
queries first, each in one ``groupby`` sweep, so every row is built once;
they belong to the call and every list it returns is new, so one
stitcher serves any number of threads and executions.
"""

from __future__ import annotations

from copy import deepcopy
from itertools import groupby
from operator import itemgetter
from typing import Any, Callable, Sequence

from ..core.bundle import AtomRef, Bundle, NestRef, Ref, TupleRef
from ..errors import ExecutionError, PartialFunctionError

#: Execution result: for each query of the bundle, its rows sorted by
#: (iter, pos); each row is (iter, pos, item...).
QueryRows = Sequence[Sequence[tuple]]

#: Binds a compiled row builder to one call's indexes: per query,
#: ``{surrogate: built inner list}`` and an untouched copy of it.
Binder = Callable[[list], Callable[[tuple], Any]]

_ITER = itemgetter(0)
#: Row offset of item column 0 (after ``iter`` and ``pos``).
_ITEMS = 2


def stitch(bundle: Bundle, results: QueryRows) -> Any:
    """Assemble the bundle's tabular ``results`` into the final value."""
    stitcher = bundle.stitcher
    if not isinstance(stitcher, Stitcher):
        stitcher = bundle.stitcher = Stitcher(bundle)
    return stitcher(results)


class Stitcher:
    """A bundle's ``Ref`` tree compiled into one row builder per query."""

    def __init__(self, bundle: Bundle):
        self.size = len(bundle.queries)
        self.root_is_list = bundle.root_is_list
        #: query -> binder, inner queries before the queries nesting them.
        self._plan: dict[int, Binder] = {}
        self._plan[0] = self._compile(bundle.root_ref)

    def __call__(self, results: QueryRows) -> Any:
        if len(results) != self.size:
            raise ExecutionError(
                f"backend returned {len(results)} result sets for a bundle "
                f"of {self.size} queries")
        built: list = [({}, {})] * self.size
        for qi, bind in self._plan.items():
            build = bind(built)
            index = {it: list(map(build, rows))
                     for it, rows in groupby(results[qi], _ITER)}
            built[qi] = (index, dict(index))
        top = built[0][0].get(1, [])
        if self.root_is_list:
            return top
        if not top:
            raise PartialFunctionError(
                "the query produced no value: a partial operation (head, "
                "the, maximum, avg, x !! i, ...) was applied to an empty "
                "list or out of bounds")
        if len(top) > 1:
            raise ExecutionError(f"scalar query produced {len(top)} rows")
        return top[0]

    def _compile(self, ref: Ref) -> Binder:
        if isinstance(ref, AtomRef):
            return _fixed(itemgetter(ref.index + _ITEMS))
        if isinstance(ref, TupleRef):
            if (len(ref.parts) > 1
                    and all(isinstance(p, AtomRef) for p in ref.parts)):
                return _fixed(itemgetter(*(p.index + _ITEMS
                                           for p in ref.parts)))
            parts = [self._compile(p) for p in ref.parts]
            return lambda built: _tuple([bind(built) for bind in parts])
        if isinstance(ref, NestRef):
            if ref.query not in self._plan:
                self._plan[ref.query] = self._compile(ref.inner)
            return lambda built: _nest(ref.index + _ITEMS, *built[ref.query])
        raise ExecutionError(f"unknown ref {ref!r}")  # pragma: no cover


def _fixed(build: Callable[[tuple], Any]) -> Binder:
    """A row builder that reads no index."""
    return lambda built: build


def _tuple(parts: list[Callable[[tuple], Any]]) -> Callable[[tuple], tuple]:
    # Pairs are the common case: no list per row (3x faster per row).
    if len(parts) == 2:
        first, second = parts
        return lambda row: (first(row), second(row))
    return lambda row: tuple([part(row) for part in parts])


def _nest(offset: int, index: dict, pristine: dict) -> Callable[[tuple], list]:
    take = index.pop

    def nest(row: tuple) -> list:
        # The first read of a surrogate takes the built list; a later
        # read (outer rows sharing an inner list) gets its own deep copy.
        got = take(row[offset], None)
        if got is None:
            got = pristine.get(row[offset])
            got = [] if got is None else deepcopy(got)
        return got
    return nest
