"""Bundle execution on the in-memory algebra engine."""

from __future__ import annotations

from contextlib import nullcontext

from ...analysis import ensure_verified
from ...core.bundle import Bundle
from ...runtime.catalog import Catalog
from ..base import Backend
from .evaluate import BundleProgram


class EngineBackend(Backend):
    """Executes algebra plans directly (no SQL round trip).

    This is the default backend: it runs exactly the plans the
    loop-lifting compiler produced, which makes it both the fastest local
    option and the most direct check on the compilation itself.

    Its prepared artifact is the bundle lowered once into a
    :class:`BundleProgram`, one step per distinct node.  Every execution
    owns one slot list that all the bundle's queries fill, so subplans
    shared between bundle queries (the outer query's spine feeding each
    inner query) materialize once per execution.
    """

    name = "engine"

    def prepare_bundle(self, bundle: Bundle) -> BundleProgram:
        """Lower every plan of the bundle into one column program."""
        ensure_verified(bundle, "backend:engine")
        return BundleProgram(bundle)

    def describe_prepared(self, prepared: BundleProgram) -> list[str]:
        """Render each query's schedule as a numbered instruction
        listing."""
        return prepared.listing()

    def open_bundle(self, bundle: Bundle, catalog: Catalog,
                    prepared: BundleProgram):
        slots: list = [None] * len(prepared.steps)

        def run_query(qi, ops):
            return prepared.run(qi, slots, catalog, ops)

        return nullcontext(run_query)  # nothing to tear down
