"""The optimizer pipeline: Pathfinder's role in step 3 of Figure 2.

A bundle is optimized as *one* multi-root DAG in *one*
:class:`~repro.analysis.PlanStore`, to *one* fixpoint.  Interning the
raw plans is common-subexpression elimination -- within a plan and
across the bundle's queries -- and every node a rewrite builds goes
through the same table, so structurally equal subplans are one object
throughout and "this family changed nothing" is ``is`` on the root.

**The sweep.**  Two families alternate until a whole sweep changes
nothing:

``icols``  (:mod:`.rewrites.icols`) one top-down demand pass over *all*
    roots -- a node shared by several queries serves the union of their
    demands and so stays one node -- then a rebuild of what narrows;
``simplify``  (:mod:`.rewrites.properties`) one memoized bottom-up
    ``visit`` per interned node that folds constants, merges projections
    and applies the property rules until none matches.

**Termination.**  Rank the operators ``EqJoin`` > ``Cross`` > ``RowNum``
= ``RowRank`` > ``Distinct`` = ``Select`` > ``Attach`` > the rest.
Every rule removes an operator and adds only operators ranked below it:
``Distinct`` / ``Select`` -> its child, ``RowNum`` / ``RowRank`` ->
``Project`` (``surrogate_key`` too: a ``RowNum`` becomes a ``Project``
onto a key column, which ranks strictly lower), ``Cross`` with a unit
literal -> ``Attach``-es, ``EqJoin`` -> its input, widened by
projections and ``Attach``-es.  The order rules (``order_inline``,
``pos_order``) make the readers of a numbering's number read the columns
that number ranks instead -- a longer order list over a wider path --
and take the next icols to get there: it deletes the numbering.
(``order_inline`` may go first while a query's ``pos`` still reads the
number; ``pos_order`` takes that reader in the same sweep.)  icols only
drops columns and the operators computing them -- pointing the
projections of a node a rule widened at its wider twin adds no operator
-- and a merge removes a projection.  ``const_spec`` keeps the numbering
and drops a constant column from its order or partition.  On the tree
unfolding of the bundle every step therefore strictly lowers (the
multiset of operator ranks, then the total length of the numberings'
specs, then total width) -- whatever the data and the backend, nothing
is priced.  A sweep shrinks that measure or changes nothing.  The loop
stops after the first simplify that changes nothing, unless the icols
before it merged a projection past one that other readers keep
(``icols.MERGES``): a second icols would then narrow that one further,
so another sweep runs.  Either way its result is a fixpoint of both
families, so no dead column and no mergeable projection is left.

**The memo contract.**  A fact -- schema, ``Props``, a node's
simplification -- is keyed by an interned node and never invalidated; a
rewrite makes a *new* node.  A node's rewrite holds the same
rows under the same names, so its ``Props`` are
*carried* to it, not inferred again (``PlanStore.carry``): inference
runs once on the pruned raw plans and then only on what the rules
build.  Self-verification (``F190``) is the exception by design: once,
at the end, it infers every changed plan afresh and compares schema and
keys with the plan as it entered the first sweep.

The finished bundle is verified and its row bounds
(:mod:`repro.analysis.cost`) are stamped in the same store; under
verifier debug mode (``FERRY_VERIFY=1`` / ``set_verify_debug``) the
structural stage also runs at every family boundary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import is_
from typing import Callable, Mapping, Sequence

from ..algebra import Node, RowNum, node_count, postorder
from ..analysis import (
    PlanStore,
    Props,
    check_plan,
    verify_bundle,
    verify_debug_enabled,
)
from ..analysis.cost import estimate_bundle
from ..core.bundle import Bundle, NestRef, SerializedQuery, TupleRef
from ..ftypes import IntT
from .rewrites import prune_unneeded_columns, simplify
from .rewrites.icols import MERGES
from .rewrites.properties import _self_verify

#: The rewrite families a sweep alternates (``cse`` -- interning the raw
#: plans -- runs once, before the first).
_FAMILIES = ("icols", "simplify")


@dataclass
class PassStats:
    """Accounting for one optimizer run (possibly over a whole bundle)."""

    #: Plans pushed through the pipeline.
    plans: int = 0
    #: Sweeps (icols + simplify) performed over the bundle.
    rounds: int = 0
    #: Wall-clock seconds per rewrite family (``cse``, ``icols``,
    #: ``simplify``), summed over the sweeps.
    family_seconds: dict[str, float] = field(default_factory=dict)
    #: DAG nodes before/after, summed over plans.
    nodes_before: int = 0
    nodes_after: int = 0
    #: Fire counts of the property rewrites (``rewrites.REWRITES``).
    rewrites_fired: dict[str, int] = field(default_factory=dict)
    #: Candidates that matched but were skipped because inference could
    #: not show every key of the node they replace, per rewrite name.
    rewrites_gated: dict[str, int] = field(default_factory=dict)
    #: Work counters of the plan store: nodes hash-consed, ``Props``
    #: inferred (not carried), rule applications per family; none of
    #: the others exceeds ``nodes_interned``.
    nodes_interned: int = 0
    inferences: int = 0
    rule_visits: dict[str, int] = field(default_factory=dict)


def _optimize(plans: "list[Node]", store: PlanStore, stats: PassStats,
              serial: "Sequence[tuple[str, str]]" = (),
              links: "Sequence[Mapping[str, Sequence[tuple[int, str]]]]"
              = ()) -> "list[Node]":
    """The roots of ``plans`` at the fixpoint of the module docstring;
    ``serial`` names the ``(iter, pos)`` columns of plans that are
    bundle queries, ``links`` their columns the stitcher only matches
    for equality, each with what it is matched against (:func:`_links`)."""
    debug = verify_debug_enabled()
    families: dict[str, Callable[["list[Node]"], "list[Node]"]] = {
        "cse": lambda roots: [store.intern(root) for root in roots],
        "icols": lambda roots: prune_unneeded_columns(roots, store),
        "simplify": lambda roots: simplify(
            roots, store, stats.rewrites_fired, stats.rewrites_gated, serial,
            links),
    }
    stats.plans += len(plans)
    stats.nodes_before += sum(map(node_count, plans))
    seconds = stats.family_seconds

    def run(name: str, roots: "list[Node]") -> "list[Node]":
        """One family over the bundle, timed."""
        t0 = time.perf_counter()
        new = families[name](roots)
        seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - t0
        if debug:
            for root in new:
                check_plan(root, store.schemas)
        return new

    roots = run("cse", plans)
    first = None
    while True:
        merges = store.visits[MERGES]
        pruned = run("icols", roots)
        first = first or pruned
        unpruned, roots = roots, run("simplify", pruned)
        stats.rounds += 1
        if all(map(is_, roots, pruned)) and (
                store.visits[MERGES] == merges
                or all(map(is_, pruned, unpruned))):
            break
    fresh: dict[Node, Props] = {}
    for old, new in zip(first, roots):
        if new is not old:
            _self_verify(old, new, store, fresh)
    store.inferences += len(fresh)
    stats.nodes_after += sum(map(node_count, roots))
    return roots


def _bundle_keys(plans: "list[Node]", store: PlanStore) -> "dict[Node, str]":
    """Per operator of ``plans`` with one, the first by name of its
    ``Int`` columns that alone are a key of it (``Bundle.keys``) -- a
    ``RowNum``'s own number before any: a table's rowid can number it."""
    keys = {}
    for node in postorder(*plans):
        schema = store.schema(node)
        cols = sorted(c for k in store.infer(node).keys if len(k) == 1
                      for c in k if schema.get(c) == IntT)
        if node.children and cols:
            own = isinstance(node, RowNum) and node.col in cols
            keys[node] = node.col if own else cols[0]
    return keys


def _links(bundle: Bundle) -> "list[dict[str, tuple[tuple[int, str], ...]]]":
    """Per query, the columns the stitcher only matches by equality, each
    with the ``(query, column)`` it is matched against: a nested list's
    surrogate and the ``iter`` of the query that holds the list.  (The
    outermost ``iter`` is not among them: the stitcher reads the value
    1 there.)"""
    links: "list[dict[str, set[tuple[int, str]]]]" = [
        {} for _ in bundle.queries]
    todo = [(bundle.root_ref, 0)]
    while todo:
        ref, qi = todo.pop()
        if isinstance(ref, NestRef):
            item = bundle.queries[qi].item_cols[ref.index]
            inner = bundle.queries[ref.query].iter_col
            links[qi].setdefault(item, set()).add((ref.query, inner))
            links[ref.query].setdefault(inner, set()).add((qi, item))
            todo.append((ref.inner, ref.query))
        elif isinstance(ref, TupleRef):
            todo.extend((part, qi) for part in ref.parts)
    return [{col: tuple(sorted(ends)) for col, ends in cols.items()}
            for cols in links]


def optimize_bundle(bundle: Bundle, stats: PassStats | None = None,
                    table_rows: "Mapping[str, int] | None" = None,
                    backend: str = "engine") -> Bundle:
    """Optimize every query of a bundle, as one multi-root DAG.

    The finished bundle -- the exact plans every backend receives --
    then goes through all three verifier stages (structural, order,
    avalanche) and is stamped ``verified``, and carries the row bounds
    of the *final* plans (``bundle.cost``; ``table_rows`` are the
    catalog's exact table sizes, ``backend`` is a label).  Neither
    argument influences the plans.
    """
    if stats is None:
        stats = PassStats()
    store = PlanStore()
    plans = _optimize([q.plan for q in bundle.queries], store, stats,
                      [(q.iter_col, q.pos_col) for q in bundle.queries],
                      _links(bundle))
    queries = [
        SerializedQuery(plan, q.iter_col, q.pos_col, q.item_cols,
                        q.item_types)
        for plan, q in zip(plans, bundle.queries)
    ]
    optimized = Bundle(bundle.result_ty, queries, bundle.root_ref,
                       bundle.root_is_list)
    verify_bundle(optimized, label="post-optimize", cache=store)
    optimized.keys = _bundle_keys(plans, store)
    optimized.cost = estimate_bundle(optimized, backend=backend,
                                     table_rows=table_rows, cache=store)
    stats.nodes_interned += len(store.canonical)
    stats.inferences += store.inferences
    for name in _FAMILIES:
        stats.rule_visits[name] = (stats.rule_visits.get(name, 0)
                                   + store.visits[name])
    return optimized
