"""Bundle execution on the in-memory algebra engine."""

from __future__ import annotations

from contextlib import nullcontext

from ...algebra import Node, describe
from ...analysis import ensure_verified
from ...core.bundle import Bundle
from ...runtime.catalog import Catalog
from ..base import Backend
from .evaluate import Engine, compile_schedule
from .relation import Relation


class EngineBackend(Backend):
    """Executes algebra plans directly (no SQL round trip).

    This is the default backend: it runs exactly the plans the
    loop-lifting compiler produced, which makes it both the fastest local
    option and the most direct check on the compilation itself.

    Every bundle execution owns one memo, a ``dict`` from ``id(node)``
    to its relation that all the bundle's queries fill, so subplans
    shared between bundle queries (the outer query's spine feeding each
    inner query) materialize once per bundle.
    """

    name = "engine"

    def prepare_bundle(self, bundle: Bundle) -> list[tuple[Node, ...]]:
        """Flatten every plan DAG into its evaluation schedule."""
        ensure_verified(bundle, "backend:engine")
        return [compile_schedule(query.plan) for query in bundle.queries]

    def describe_prepared(self, prepared: "list[tuple[Node, ...]]"
                          ) -> list[str]:
        """Render each schedule as a numbered instruction listing."""
        return ["\n".join(f"{i:3d}: {describe(node)}"
                          for i, node in enumerate(schedule))
                for schedule in prepared]

    def open_bundle(self, bundle: Bundle, catalog: Catalog,
                    prepared: "list[tuple[Node, ...]]"):
        engine = Engine(catalog)
        values: dict[int, Relation] = {}

        def run_query(qi, ops):
            query = bundle.queries[qi]
            rel = engine.execute(query.plan, prepared[qi], profile=ops,
                                 values=values)
            ic = rel.column(query.iter_col)
            pc = rel.column(query.pos_col)
            items = [rel.column(c) for c in query.item_cols]
            # (iter, pos) is a key of every query, so sorting the zipped
            # row tuples orders by it without a per-row key function.
            return sorted(zip(ic, pc, *items))

        return nullcontext(run_query)  # nothing to tear down
