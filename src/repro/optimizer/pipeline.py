"""The optimizer pipeline: Pathfinder's role in step 3 of Figure 2.

A bundle is optimized as *one* multi-root DAG in *one*
:class:`~repro.analysis.PlanStore`.  Interning the raw plans is
common-subexpression elimination -- within a plan and across the
bundle's queries -- and every node a rewrite builds goes through the
same table, so structurally equal subplans are one object throughout
and "this family changed nothing" is ``is`` on the root.

**The memo contract.**  A fact -- schema, ``Props``, cost estimate, a
rewrite family's result -- is keyed by an interned node and never
invalidated; a rewrite makes a *new* node.  The store keeps every node
it was shown alive, so no ``id()`` key is ever recycled.  Constant
folding, projection merging and the property rewrites are memoized
functions of a node: visited once per compile however many rounds and
queries reach it, by a walk that never descends below a node already
done.  icols is the one top-down analysis (a shared node serves the
union of its consumers): demand per root, rebuilding only what narrows.

**Rounds and termination.**  ``constfold``, ``icols``, ``projmerge`` run
in rounds over the roots still shrinking; a root leaves after the first
round that does not make it smaller, so there is at most one round per
node.  *One* property sweep (``.rewrites.properties``) follows on the
stabilized plans, and the roots it changed get one ``icols`` +
``projmerge`` round for what the removed operators leave behind.  Going
on until nothing changes -- or sweeping the property rewrites to a
fixpoint -- rewrites more (one more semi-join reduction on nested
orders, 89 -> 83 nodes): other plans, so a change of its own
(EXPERIMENTS.md has the counts).

The finished bundle is verified and cost-stamped in the same store, so
only the last round's nodes are analysed there; under verifier debug
mode (``FERRY_VERIFY=1`` / ``set_verify_debug``) the structural stage
also runs at every family boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..algebra import Node, node_count
from ..analysis import PlanStore, check_plan, verify_bundle, verify_debug_enabled
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
from .rewrites.properties import _self_verify

#: The rewrite families: a round runs the syntactic ones in this order
#: (``cse`` -- interning the raw plans -- runs once, before the first).
_SYNTACTIC = ("constfold", "icols", "projmerge")
_FAMILIES = _SYNTACTIC + ("properties",)


@dataclass
class PassStats:
    """Accounting for one optimizer run (possibly over a whole bundle)."""

    #: Plans pushed through the pipeline.
    plans: int = 0
    #: Rounds performed over the bundle (tidy-up round included).
    rounds: int = 0
    #: DAG nodes before/after, summed over plans.
    nodes_before: int = 0
    nodes_after: int = 0
    #: Fire counts of the property-driven rewrites (``distinct_elim``,
    #: ``rownum_dense``, ``select_true``, ``semijoin_reduce``).
    rewrites_fired: dict[str, int] = field(default_factory=dict)
    #: Candidates that matched but were rejected by the cost gate (the
    #: estimated plan cost did not strictly drop), per rewrite name.
    rewrites_gated: dict[str, int] = field(default_factory=dict)
    #: Work counters of the plan store: nodes hash-consed, ``Props``
    #: inferred, cost estimates computed, rule applications per family.
    #: Each interned node is analysed and rewritten at most once, so
    #: none of the others exceeds ``nodes_interned``.
    nodes_interned: int = 0
    inferences: int = 0
    cost_estimates: int = 0
    rule_visits: dict[str, int] = field(default_factory=dict)


def _optimize(plans: "list[Node]", store: PlanStore, stats: PassStats,
              tracer: Any) -> "list[Node]":
    """The roots of ``plans`` after the rounds of the module docstring."""
    # The rewrite gate deliberately estimates with the *engine*
    # calibration and *without* catalog row statistics: every backend
    # and every catalog instance must optimize the same program to
    # identical algebra (the goldens and the data-independence property
    # tests assert this).  Instance statistics only sharpen the cost
    # *stamp* of the finished bundle, never the plan shape.
    model = CostModel("engine", cache=store)
    debug = verify_debug_enabled()
    decided: dict[int, tuple[str, bool]] = {}
    families: dict[str, Callable[[Node], Node]] = {
        "cse": lambda p: eliminate_common_subexpressions(p, store),
        "constfold": lambda p: fold_constants(p, store),
        "icols": lambda p: prune_unneeded_columns(p, store),
        "projmerge": lambda p: merge_projections(p, store),
        "properties": lambda p: apply_property_rewrites(
            p, stats.rewrites_fired, store, model=model,
            gated=stats.rewrites_gated, decided=decided),
    }
    roots = list(plans)
    sizes = [node_count(plan) for plan in plans]
    stats.plans += len(plans)
    stats.nodes_before += sum(sizes)

    def run(name: str, live: "list[int]") -> None:
        """One family over the ``live`` roots: one span, one delta."""
        removed = 0
        with tracer.span(name, round=stats.rounds) as sp:
            for i in live:
                root = families[name](roots[i])
                if root is not roots[i]:
                    roots[i], before = root, sizes[i]
                    sizes[i] = node_count(root)
                    removed += before - sizes[i]
            sp.set(removed=removed)
        if debug:
            for i in live:
                check_plan(roots[i], store.schemas)

    everything = list(range(len(plans)))
    run("cse", everything)
    live = everything
    while live:
        start = list(sizes)
        for name in _SYNTACTIC:
            run(name, live)
        stats.rounds += 1
        live = [i for i in live if sizes[i] < start[i]]
    stable = list(roots)
    run("properties", everything)
    live = [i for i in everything if roots[i] is not stable[i]]
    if live:
        for name in _SYNTACTIC[1:]:  # nothing new to fold
            run(name, live)
        stats.rounds += 1
    for i in live:
        # F190 on the plan the sweep led to: the verifier analyses it anyway
        _self_verify(stable[i], roots[i], store)
    stats.nodes_after += sum(sizes)
    return roots


def _account(store: PlanStore, stats: PassStats) -> None:
    stats.nodes_interned += len(store.canonical)
    stats.inferences += len(store.props)
    stats.cost_estimates += store.estimates
    for name in _FAMILIES:
        stats.rule_visits[name] = (stats.rule_visits.get(name, 0)
                                   + store.visits[name])


def optimize_plan(plan: Node, stats: PassStats | None = None,
                  tracer: Any = NULL_TRACER) -> Node:
    """Run the rewrite pipeline on one plan DAG (a one-plan store).
    ``tracer`` (a :class:`repro.obs.Tracer`) receives one span per
    family per round, tagged with the round and the node-count delta."""
    if stats is None:
        stats = PassStats()
    store = PlanStore()
    [root] = _optimize([plan], store, stats, tracer)
    _account(store, stats)
    check_plan(root, store.schemas)
    return root


def optimize_bundle(bundle: Bundle, stats: PassStats | None = None,
                    tracer: Any = NULL_TRACER,
                    table_rows: "Mapping[str, int] | None" = None,
                    backend: str = "engine") -> Bundle:
    """Optimize every query of a bundle, as one multi-root DAG.

    The finished bundle -- the exact plans every backend receives --
    then goes through all three verifier stages (structural, order,
    avalanche) and is stamped ``verified``, and carries the compile-time
    cost estimate of the *final* plans (this time with the executing
    backend's calibration and the catalog's row counts): /statements
    drift rows and the lint read it.
    """
    if stats is None:
        stats = PassStats()
    store = PlanStore()
    plans = _optimize([q.plan for q in bundle.queries], store, stats, tracer)
    queries = [
        SerializedQuery(plan, q.iter_col, q.pos_col, q.item_cols,
                        q.item_types)
        for plan, q in zip(plans, bundle.queries)
    ]
    optimized = Bundle(bundle.result_ty, queries, bundle.root_ref,
                       bundle.root_is_list)
    verify_bundle(optimized, label="post-optimize", cache=store)
    optimized.cost = estimate_bundle(optimized, backend=backend,
                                     table_rows=table_rows, cache=store)
    _account(store, stats)
    return optimized
