"""The optimizer pipeline: Pathfinder's role in step 3 of Figure 2.

Applies the syntactic rewrite passes in a short fixpoint loop:

1. common subexpression elimination (share the compiler's duplicates),
2. constant folding,
3. icols needed-columns pruning,
4. projection merging,

repeating until the plan stops shrinking (bounded by ``MAX_ROUNDS``).
On the stabilized plan one *property-driven* sweep runs (key-based
Distinct elimination, RowNum over an already-dense order column,
constant-true Select -- driven by ``repro.analysis`` inference); if it
fires, a single syntactic tidy-up round absorbs the leftovers.
The sweep, its cost gate and the final verifier share one
:class:`~repro.analysis.PropsCache`, which memoizes per node *object*:
nodes a pass rebuilt are analysed again and every cost-gated candidate
re-estimates its whole plan, so a cold compile makes dozens of
inference and plan-cost calls (36 and 30 on the running example), not
one walk -- the optimizer is most of a cold compile.

Every query of a bundle is verified by the staged plan verifier
(``repro.analysis``) before it reaches a backend; under verifier debug
mode (``FERRY_VERIFY=1`` / ``set_verify_debug``) the structural stage
additionally runs after *every* pass invocation, so a mis-rewriting
pass is caught at the pass boundary that introduced the damage.

Each run can record :class:`PassStats` -- per-pass node-count deltas,
fixpoint round counts, and per-rewrite fire counts -- which the runtime
attaches to compiled queries so cache tests and benchmarks can prove
whether the (expensive) rewrite fixpoint actually ran for a given
execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from typing import Mapping

from ..algebra import Node, node_count
from ..analysis import PropsCache, check_plan, verify_bundle, verify_debug_enabled
from ..analysis.cost import CostModel, estimate_bundle
from ..core.bundle import Bundle, SerializedQuery
from ..obs.trace import NULL_TRACER
from .rewrites import (
    apply_property_rewrites,
    eliminate_common_subexpressions,
    fold_constants,
    merge_projections,
    prune_unneeded_columns,
)

MAX_ROUNDS = 5

#: The syntactic fixpoint, in pipeline order.
_SYNTACTIC = (
    ("cse", eliminate_common_subexpressions),
    ("constfold", fold_constants),
    ("icols", prune_unneeded_columns),
    ("projmerge", merge_projections),
)

#: All pass names (stats keys): the syntactic loop plus the
#: property-driven sweep.
_PASSES = _SYNTACTIC + (("properties", apply_property_rewrites),)


@dataclass
class PassStats:
    """Accounting for one optimizer run (possibly over a whole bundle)."""

    #: Plans pushed through the pipeline.
    plans: int = 0
    #: Total fixpoint rounds across all plans.
    rounds: int = 0
    #: DAG nodes before/after, summed over plans.
    nodes_before: int = 0
    nodes_after: int = 0
    #: Net node-count reduction attributed to each pass.
    nodes_removed: dict[str, int] = field(
        default_factory=lambda: {name: 0 for name, _ in _PASSES})
    #: Fire counts of the property-driven rewrites (``distinct_elim``,
    #: ``rownum_dense``, ``select_true``, ``semijoin_reduce``).
    rewrites_fired: dict[str, int] = field(default_factory=dict)
    #: Candidates that matched but were rejected by the cost gate (the
    #: estimated plan cost did not strictly drop), per rewrite name.
    rewrites_gated: dict[str, int] = field(default_factory=dict)

    @property
    def shrinkage(self) -> float:
        """Fraction of plan nodes eliminated (0.0 for an empty run)."""
        if not self.nodes_before:
            return 0.0
        return 1.0 - self.nodes_after / self.nodes_before


def _syntactic_fixpoint(plan: Node, size: int, stats: PassStats,
                        tracer, debug: bool,
                        max_rounds: int = MAX_ROUNDS,
                        passes: tuple = _SYNTACTIC) -> tuple[Node, int]:
    """The cheap syntactic loop: run until the plan stops shrinking."""
    for round_no in range(max_rounds):
        stats.rounds += 1
        round_start = size
        for name, rewrite in passes:
            with tracer.span(name, round=round_no) as sp:
                plan = rewrite(plan)
                new_size = node_count(plan)
                sp.set(removed=size - new_size)
            if debug:
                check_plan(plan)
            stats.nodes_removed[name] += size - new_size
            size = new_size
        if size >= round_start:
            break
    return plan, size


def optimize_plan(plan: Node, stats: PassStats | None = None,
                  tracer=NULL_TRACER, verify: bool = True,
                  cache: "PropsCache | None" = None,
                  cost_model: "CostModel | None" = None) -> Node:
    """Run the rewrite pipeline on one plan DAG.

    ``tracer`` (a :class:`repro.obs.Tracer`) receives one span per
    rewrite-pass invocation, tagged with the fixpoint round and the
    node-count delta the pass achieved.  ``verify=False`` skips the
    final structural check (``optimize_bundle`` does, running the full
    staged verifier over the whole bundle instead); ``cache`` carries
    the property analysis over to that verifier so nothing is inferred
    twice.  ``cost_model`` (over the same cache) gates the property
    rewrites; without one a stats-free engine-calibrated model is built.
    """
    if stats is None:
        stats = PassStats()
    if cache is None:
        cache = PropsCache()
    if cost_model is None:
        cost_model = CostModel("engine", cache=cache)
    debug = verify_debug_enabled()
    size = node_count(plan)
    stats.plans += 1
    stats.nodes_before += size
    plan, size = _syntactic_fixpoint(plan, size, stats, tracer, debug)
    # One property-driven sweep on the stabilized (smallest) plan; when
    # it fires, the syntactic loop tidies the rewrite outputs (merges
    # the Project a RowNum elimination leaves behind, prunes columns a
    # dropped Distinct no longer needs).  One sweep suffices: each
    # rewrite only *removes* work, so cascades are rare and the next
    # cold compile would catch them -- quiescence is not worth a second
    # full inference walk per compile.
    with tracer.span("properties", round=stats.rounds) as sp:
        rewritten = apply_property_rewrites(plan, stats.rewrites_fired,
                                            cache, model=cost_model,
                                            gated=stats.rewrites_gated)
        new_size = node_count(rewritten)
        sp.set(removed=size - new_size)
    stats.nodes_removed["properties"] += size - new_size
    if rewritten is not plan:
        plan, size = rewritten, new_size
        if debug:
            check_plan(plan)
        # One tidy-up round of icols+projmerge is enough: the sweep only
        # removed operators or turned a RowNum into a rename, so pruning
        # plus merging absorbs the leftovers; re-running the full loop
        # to convergence would mostly pay for rounds that change nothing.
        plan, size = _syntactic_fixpoint(plan, size, stats, tracer, debug,
                                         max_rounds=1,
                                         passes=_SYNTACTIC[2:])
    stats.nodes_after += size
    if verify:
        check_plan(plan, cache.schemas)
    return plan


def optimize_bundle(bundle: Bundle, stats: PassStats | None = None,
                    tracer=NULL_TRACER,
                    table_rows: "Mapping[str, int] | None" = None,
                    backend: str = "engine") -> Bundle:
    """Optimize every query of a bundle.

    After the per-query fixpoints, one hash-consing sweep with a shared
    canonical table runs over all plans.  The per-query rewrites rebuild
    nodes, so the compiler's *cross-query* sharing (the outer query's
    spine feeding each inner query) would otherwise come out as
    structurally equal but distinct objects -- invisible to the engine's
    bundle cache, which memoizes on node identity.  Within each plan
    sharing is already maximal after CSE, so this sweep never changes a
    plan's shape, only object identity across queries.

    The finished bundle -- the exact plans every backend receives --
    then goes through all three verifier stages (structural, order,
    avalanche) and is stamped ``verified``.  The verifier reuses the
    optimizer's :class:`~repro.analysis.PropsCache`: after the
    cross-query sweep most nodes are already analyzed, so verification
    costs one incremental walk, not a second full one.
    """
    cache = PropsCache()
    # The rewrite gate deliberately estimates with the *engine*
    # calibration and *without* catalog row statistics: every backend
    # and every catalog instance must optimize the same program to
    # identical algebra (the goldens and the data-independence property
    # tests assert this).  Instance statistics only sharpen the cost
    # *stamp* below, never the plan shape.
    model = CostModel("engine", cache=cache)
    plans = [optimize_plan(q.plan, stats, tracer, verify=False, cache=cache,
                           cost_model=model)
             for q in bundle.queries]
    if len(plans) > 1:
        canonical: dict = {}
        plans = [eliminate_common_subexpressions(plan, canonical)
                 for plan in plans]
    queries = [
        SerializedQuery(plan, q.iter_col, q.pos_col, q.item_cols,
                        q.item_types)
        for plan, q in zip(plans, bundle.queries)
    ]
    optimized = Bundle(bundle.result_ty, queries, bundle.root_ref,
                       bundle.root_is_list)
    verify_bundle(optimized, label="post-optimize", cache=cache)
    # Stamp the compile-time cost estimate of the *final* plans (this
    # time with the executing backend's calibration): /statements
    # drift rows and the lint read it.
    optimized.cost = estimate_bundle(optimized, backend=backend,
                                     table_rows=table_rows, cache=cache)
    return optimized
