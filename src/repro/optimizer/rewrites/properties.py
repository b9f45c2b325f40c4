"""Property-driven rewrites (Pathfinder's peephole style), cost-gated.

Unlike the syntactic passes, these rewrites fire on *inferred* plan
properties (``repro.analysis``), which see through whatever operator
chain produced the fact:

``distinct_elim``
    ``Distinct(q)`` -> ``q`` when ``q`` already has a key (its rows are
    duplicate-free, so duplicate elimination is the identity).
``rownum_dense``
    ``RowNum col := row_number(order by o asc partition by P)(q)`` ->
    ``Project[..., col <= o](q)`` when ``o`` is soundly dense-from-1
    per ``P`` in ``q``: numbering an already-numbered run just copies
    the order column.
``select_true``
    ``Select c (q)`` -> ``q`` when ``c`` is the constant ``True`` in
    ``q`` -- including when the constant travelled through projections,
    joins, or a comparison the constant-folder cannot see
    (``x == x``).
``semijoin_reduce``
    Two shapes, both rooted in the loop-lifting compiler's
    surrogate-regeneration joins.  (a) ``Project[left cols
    only](EqJoin(l, r, pairs))`` -> ``Project(SemiJoin(l, r, pairs))``
    when the join columns are a key of ``r``: each left row matches at
    most one right partner, so the join contributes *filtering* but no
    payload and no multiplicity; projected join columns of ``r`` are
    remapped to their (pointwise equal) left partners.  (b) the
    self-join identity: ``EqJoin(Project(b), Project(b), pairs)`` ->
    one merged ``Project(b)`` when every pair equates renames of the
    same column of the shared ``b`` and those columns hold a key of
    ``b`` -- joining a relation to itself on its own key matches every
    row with exactly itself.

Every candidate is **cost-gated**: it fires only when the estimated
plan cost (``repro.analysis.cost``, engine calibration -- deliberately
backend-independent so all backends optimize to identical algebra)
strictly drops; rejected candidates are accounted separately
(``PassStats.rewrites_gated``).  The gate is local
(``CostModel.delta``): only the few operators candidate and original do
not share are compared.  Match and gate are both taken on the node as
it stood before the sweep -- every rewrite preserves semantics, so the
facts hold for the rebuilt children the rewrite is applied over -- which
makes the family a memoized function of an interned node
(:class:`~repro.analysis.PlanStore`): a node shared by several queries
is decided once.  The pipeline self-verifies every plan the sweep
changed (:func:`_self_verify`, ``F190``) instead of emitting a
mis-optimized one.
"""

from __future__ import annotations

from ...algebra.ops import (
    Distinct,
    EqJoin,
    Node,
    Project,
    RowNum,
    Select,
    SemiJoin,
)
from ...algebra.dag import postorder
from ...analysis.cost import CostModel
from ...analysis.properties import PlanStore, _rename_keys
from ...errors import VerifyError

#: Rewrite names, as accounted in ``PassStats.rewrites_fired`` /
#: ``PassStats.rewrites_gated``.
REWRITES = ("distinct_elim", "rownum_dense", "select_true",
            "semijoin_reduce")


def apply_property_rewrites(root: Node,
                            fired: "dict[str, int] | None" = None,
                            cache: "PlanStore | None" = None,
                            model: "CostModel | None" = None,
                            gated: "dict[str, int] | None" = None,
                            decided: "dict[int, tuple[str, bool]] | None"
                            = None) -> Node:
    """One bottom-up sweep of the cost-gated property rewrites.

    ``fired`` (e.g. ``PassStats.rewrites_fired``) accumulates how often
    each rewrite applied in ``root``'s plan; ``gated`` how often a
    matching candidate was rejected because its estimated cost did not
    strictly drop.  ``cache`` is the compile's plan store; ``model`` (a
    :class:`~repro.analysis.cost.CostModel` over it) is the gate's
    estimator -- a stats-free engine-calibrated one by default.
    ``decided`` (``id(node)`` -> rewrite name, passed the gate?) carries
    a sweep's decisions from plan to plan of a bundle: a node shared with
    a plan swept before is decided once, yet counts for every plan that
    contains it, as it would in a sweep per plan.
    """
    store = cache or PlanStore()
    model = model or CostModel("engine", cache=store)
    decided = {} if decided is None else decided
    root = store.intern(root)

    def visit(node: Node, children: tuple[Node, ...]) -> Node:
        default = store.rebuild(node, children)
        hit = _rewrite_node(node, children, store)
        if hit is None:
            return default
        # The gate: a candidate must *strictly* lower the estimated
        # plan cost, else the default (un-rewritten) node stands.  It
        # prices the rewrite where it matched, on the plan as it stood:
        # rewritten children compute the same relations, and estimating
        # over them analyses nodes the tidy-up round replaces anyway.
        was = (hit if children == node.children
               else _rewrite_node(node, node.children, store))
        assert was is not None  # what matched over them matches over its own
        wins = model.delta(store.intern(was[1]), node) < 0
        decided[id(node)] = hit[0], wins
        return store.intern(hit[1]) if wins else default

    new_root = store.rewrite("properties", root, visit)
    for node in postorder(root) if decided else ():
        if id(node) in decided:
            name, wins = decided[id(node)]
            counts = fired if wins else gated
            if counts is not None:
                counts[name] = counts.get(name, 0) + 1
    return new_root


def _rewrite_node(node: Node, children: tuple[Node, ...],
                  store: PlanStore) -> "tuple[str, Node] | None":
    """The candidate replacement for ``node`` over its rebuilt
    ``children`` -- ``(rewrite name, candidate)`` -- or ``None`` when no
    rewrite matches.  The caller cost-gates the candidate."""
    if isinstance(node, Distinct):
        if store.infer(node.child).keys:
            return "distinct_elim", children[0]
        return None

    if isinstance(node, Select):
        if store.infer(node.child).constants.get(node.col) is True:
            return "select_true", children[0]
        return None

    if isinstance(node, RowNum):
        cp = store.infer(node.child)
        # Constant columns order nothing; drop them from the spec.
        order = [(c, d) for c, d in node.order if c not in cp.constants]
        if (len(order) == 1 and order[0][1] == "asc"
                and cp.is_dense(order[0][0], node.part)):
            cols = tuple((c, c) for c in cp.schema)
            return "rownum_dense", Project(
                children[0], cols + ((node.col, order[0][0]),))
        return None

    if isinstance(node, Project) and isinstance(node.child, EqJoin):
        return _semijoin_reduce(node, children, store)

    if isinstance(node, EqJoin):
        return _selfjoin_elim(node, children, store)

    return None


def _semijoin_reduce(node: Project, children: tuple[Node, ...],
                     store: PlanStore) -> "tuple[str, Node] | None":
    """``Project(EqJoin(l, r))`` -> ``Project(SemiJoin(l, r))`` when the
    join is right-unique and the projection takes nothing from ``r``
    beyond its join columns (remapped to their left partners)."""
    join = children[0]
    if not isinstance(join, EqJoin):  # a lower rewrite replaced it
        return None
    old_join = node.child
    assert isinstance(old_join, EqJoin)
    lp = store.infer(old_join.left)
    rp = store.infer(old_join.right)
    rcols = frozenset(r for _, r in old_join.pairs)
    if not rp.has_key(rcols):
        return None  # the join multiplies rows; it is not a filter
    pair_map = {r: l for l, r in old_join.pairs}
    cols: list[tuple[str, str]] = []
    for new, old in node.cols:
        if old in lp.schema:
            cols.append((new, old))
        elif (old in pair_map
              and rp.schema.get(old) == lp.schema.get(pair_map[old])):
            # The join equates old with its left partner pointwise.
            cols.append((new, pair_map[old]))
        else:
            return None  # a genuine right-side payload column
    # Key-preservation precheck: the self-verifier (F190) demands every
    # inferred root key survive.  The semi-join keeps only the *left*
    # keys (and wipes density facts), so prove each old root key is
    # covered by a remapped left key before committing -- skipping the
    # rewrite beats failing the compile.
    renames: dict[str, list[str]] = {}
    for new, src in cols:
        renames.setdefault(src, []).append(new)
    src_of = dict(zip((new for new, _ in cols), (s for _, s in cols)))
    new_keys = set()
    for key in _rename_keys(lp.keys, renames):
        # mirror Props normalization: constant columns leave keys
        new_keys.add(frozenset(
            c for c in key if src_of[c] not in lp.constants))
    for key in store.infer(node).keys:
        if not any(k <= key for k in new_keys):
            return None
    return "semijoin_reduce", Project(
        SemiJoin(join.left, join.right, old_join.pairs), tuple(cols))


def _selfjoin_elim(node: EqJoin, children: tuple[Node, ...],
                   store: PlanStore) -> "tuple[str, Node] | None":
    """``EqJoin(Project(b), Project(b), pairs)`` -> ``Project(b)`` when
    every pair equates two renames of the *same* column of the shared
    ``b`` and those columns hold a key of ``b``.

    This is the loop-lifting compiler's surrogate-regeneration idiom:
    a ranked subplan is projected twice and self-joined on its own
    surrogate to re-derive iteration columns.  Joining a relation to
    itself on a key matches every row with exactly itself, so the join
    is the identity and the two projections merge into one."""
    old_left, old_right = node.left, node.right
    if not (isinstance(old_left, Project) and isinstance(old_right, Project)
            and old_left.child is old_right.child):
        return None
    left, right = children
    if not (isinstance(left, Project) and isinstance(right, Project)
            and left.child is right.child):
        return None  # a lower rewrite broke the sharing
    base = old_left.child
    bp = store.infer(base)
    lsrc = dict(old_left.cols)
    rsrc = dict(old_right.cols)
    join_src = set()
    for lcol, rcol in node.pairs:
        if lsrc.get(lcol) != rsrc.get(rcol):
            return None  # a genuine join over two different columns
        join_src.add(lsrc[lcol])
    if not bp.has_key(frozenset(join_src)):
        return None  # rows can match foreign partners: not the identity
    cols = old_left.cols + old_right.cols
    # Key preservation for the self-verifier (F190): remap the base keys
    # through the merged projection and require every inferred key of
    # the old join to stay covered.
    renames: dict[str, list[str]] = {}
    for new, src in cols:
        renames.setdefault(src, []).append(new)
    src_of = {new: src for new, src in cols}
    new_keys = set()
    for key in _rename_keys(bp.keys, renames):
        new_keys.add(frozenset(
            c for c in key if src_of[c] not in bp.constants))
    for key in store.infer(node).keys:
        if not any(k <= key for k in new_keys):
            return None
    return "semijoin_reduce", Project(left.child, cols)


def _self_verify(old_root: Node, new_root: Node, cache: PlanStore) -> None:
    """Re-run inference on the rewritten plan and diff it against the
    original: the schema must be identical (names, types, order) and no
    inferred root key may be lost.  ``cache`` already holds the analysis
    of what the two plans share, so only rebuilt nodes are inferred."""
    new_schema = cache.schema(new_root)
    old_schema = cache.schema(old_root)
    if list(new_schema.items()) != list(old_schema.items()):
        raise VerifyError(
            "F190: property rewrite changed the root schema: "
            f"{list(old_schema)} -> {list(new_schema)}", code="F190")
    new_props = cache.infer(new_root)
    for key in cache.infer(old_root).keys:
        if not new_props.has_key(key):
            raise VerifyError(
                "F190: property rewrite lost root key "
                f"{{{', '.join(sorted(key))}}}", code="F190")
