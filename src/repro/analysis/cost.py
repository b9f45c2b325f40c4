"""Sound row bounds over compiled plans.

Property inference gives every plan node a ``Card(lo, hi)`` that holds
for *every* database instance, so a ``TableScan`` is ``0..*`` and most
upper bounds above one are open.  For one instance more is known: the
catalog is immutable per schema generation (the plan cache keys on it),
so at compile time every table's size is exact.  :class:`RowBounds`
folds that in -- one memoized walk over the final plans through the
same per-operator rule inference uses
(:func:`~repro.analysis.properties.row_bounds`), seeded with
``Connection._table_stats()`` and intersected with the inferred
``Props.card`` -- and yields per node the bounds ``lo..hi`` and the
width.

That is all there is.  There is no point estimate, no selectivity
constant and no cost unit: nothing in the compiler prices a plan (its
rewrites are property-driven and always shrink it), and a guess that
can be wrong cannot be linted.  The bounds cannot: a measured row count
outside them is a soundness bug in inference, which is what ``D500``
(:func:`repro.obs.explain.build_report`) reports and what
``tests/properties/test_estimator_soundness.py`` hunts for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..algebra.dag import fill
from ..algebra.ops import Node
from .properties import Card, PlanStore, row_bounds


@dataclass(frozen=True)
class Bounds(Card):
    """Sound row bounds ``lo..hi`` (``hi=None``: some table's size is
    not known) and width of one plan node."""

    #: Output column count, from the inferred schema.
    width: int = 0

    def to_dict(self) -> dict[str, object]:
        return {"rows_lo": self.lo, "rows_hi": self.hi, "width": self.width}


class RowBounds:
    """The memoized bounds fold over a shared plan DAG.

    ``table_rows`` maps table names to exact row counts; a table it
    does not name scans as ``0..*``.  ``store`` is the compile's
    :class:`~repro.analysis.PlanStore`: the fold reads the properties
    the pipeline already inferred.
    """

    __slots__ = ("table_rows", "store", "memo")

    def __init__(self, table_rows: "Mapping[str, int] | None" = None,
                 store: "PlanStore | None" = None):
        self.table_rows = table_rows
        self.store = store if store is not None else PlanStore()
        self.memo: dict[Node, Bounds] = {}

    def of(self, node: Node) -> Bounds:
        """The :class:`Bounds` of ``node`` (and, in ``memo``, of every
        node below it)."""
        return self.memo.get(node) or fill(node, self.memo, self._bound)

    def _bound(self, node: Node) -> Bounds:
        # ``infer`` per node, not once at the root: facts *carried* to a
        # rewritten node say nothing about the nodes below it.
        infer = self.store.infer
        mine = infer(node)
        # The instance's bound and the inferred one are both sound, so
        # is their intersection.
        card = mine.card.meet(row_bounds(
            node, [infer(c) for c in node.children],
            [self.memo[c] for c in node.children], self.table_rows))
        return Bounds(card.lo, card.hi, len(mine.schema))


@dataclass
class BundleCost:
    """The root bounds of a bundle's queries (``bundle.cost``).

    ``backend`` is a label: the bounds are the same on every backend.
    """

    backend: str
    queries: "list[Bounds]" = field(default_factory=list)

    @property
    def est_rows(self) -> float:
        """The most rows the bundle can return: the summed root upper
        bounds, infinite while one of them is open."""
        return sum(float("inf") if q.hi is None else q.hi
                   for q in self.queries)

    def to_dict(self) -> dict[str, object]:
        return {"backend": self.backend,
                "queries": [q.to_dict() for q in self.queries]}


def estimate_bundle(bundle: object, backend: str = "engine",
                    table_rows: "Mapping[str, int] | None" = None,
                    cache: "PlanStore | None" = None) -> BundleCost:
    """The root :class:`Bounds` of every query of ``bundle`` (the
    compile pipeline stamps the result on ``bundle.cost``)."""
    bounds = RowBounds(table_rows, cache)
    return BundleCost(backend, [
        bounds.of(q.plan) for q in bundle.queries])  # type: ignore[attr-defined]
