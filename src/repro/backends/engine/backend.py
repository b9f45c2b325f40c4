"""Bundle execution on the in-memory algebra engine."""

from __future__ import annotations

import time

from ...algebra import Node, describe
from ...analysis import ensure_verified
from ...core.bundle import Bundle, SerializedQuery
from ...obs.metrics import METRICS
from ...obs.trace import NULL_TRACER
from ...runtime.catalog import Catalog
from ..base import Backend, ExecutionResult, observe_query_time
from .evaluate import BundleCache, Engine, compile_schedule


class EngineBackend(Backend):
    """Executes algebra plans directly (no SQL round trip).

    This is the default backend: it runs exactly the plans the
    loop-lifting compiler produced, which makes it both the fastest local
    option and the most direct check on the compilation itself.

    Every ``execute_bundle`` owns one :class:`BundleCache`, so subplans
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

    def execute_bundle(self, bundle: Bundle, catalog: Catalog,
                       prepared: "list[tuple[Node, ...]] | None" = None,
                       tracer=NULL_TRACER,
                       collector=None) -> ExecutionResult:
        engine = Engine(catalog)
        if prepared is None:
            prepared = self.prepare_bundle(bundle)
        cache = BundleCache()
        n = len(bundle.queries)
        per_op = collector is not None and collector.per_op
        results: list[list[tuple]] = []
        for qi, (query, schedule) in enumerate(zip(bundle.queries,
                                                   prepared)):
            qp = collector.query(qi + 1) if collector is not None else None
            with tracer.span("execute", query=qi + 1,
                             backend=self.name) as sp:
                t0 = time.perf_counter()
                rows = self._evaluate_query(engine, cache, query,
                                            schedule, qp, per_op)
                seconds = time.perf_counter() - t0
                sp.set(rows=len(rows))
                if qp is not None:
                    qp.time = seconds
                    qp.rows = len(rows)
            observe_query_time(self.name, qi, seconds, tracer.trace_id)
            results.append(rows)

        total_rows = sum(len(rows) for rows in results)
        METRICS.counter("backend.engine.queries").inc(n)
        METRICS.counter("backend.engine.rows").inc(total_rows)
        return ExecutionResult(results, queries_issued=n)

    # ------------------------------------------------------------------
    def _evaluate_query(self, engine: Engine, cache: BundleCache,
                        query: SerializedQuery, schedule, qp,
                        per_op: bool) -> list[tuple]:
        profile = qp.ops if (qp is not None and per_op) else None
        rel = engine.execute(query.plan, schedule, profile=profile,
                             cache=cache)
        ic = rel.column(query.iter_col)
        pc = rel.column(query.pos_col)
        items = [rel.column(c) for c in query.item_cols]
        # (iter, pos) is a key of every query, so sorting the zipped row
        # tuples orders by it without a per-row key function.
        return sorted(zip(ic, pc, *items))
