"""The ``simplify`` family: every peephole rule in one bottom-up visit.

Constant folding (:mod:`.constfold`) and projection merging
(:mod:`.projmerge`) are syntactic.  The rest are Pathfinder's
property-driven rewrites: they fire on *inferred* plan properties
(``repro.analysis``), which see through whatever operator chain
produced the fact, and are accounted by name:

``distinct_elim``  ``Distinct(q)`` -> ``q`` when ``q`` has a key.
``select_true``  ``Select c (q)`` -> ``q`` when ``c`` is the constant
    ``True`` in ``q`` -- also through projections, joins or ``x == x``.
``rownum_dense``  ``RowNum c := row_number(order by o asc partition by
    P)`` -> ``Project[.., c <= o]`` when ``o`` is dense-from-1 per ``P``.
``rownum_rank``  ``RowNum`` / ``RowRank`` ``c`` by an order (within a
    partition) that an *order fact* says column ``n`` already numbers
    -> ``Project[.., c <= n]``: a second numbering of the same run.
``unit_cross``  ``Project(Cross(LitTable[1 row], q))`` -> ``Project`` over
    ``Attach``-es on ``q``: the unit loop relation is a constant column.
``selfjoin_elim``  ``EqJoin(d, Project(b))`` on a key column of ``b``
    that ``d``, a descendant of ``b``, still carries -> ``d`` widened by
    the columns of ``b`` the join fetched: the loop-lifting compiler's
    surrogate-regeneration joins (:func:`_selfjoin_elim`).

Nothing prices a candidate: each rule replaces a node by one of
strictly lower rank in a fixed operator order (see
:mod:`repro.optimizer.pipeline`, *Termination*), whatever the data and
the backend, so all backends optimize to identical algebra.  The one
gate is safety: a candidate must show, by inference, every key of the
node it replaces -- the pipeline self-verifies the plans it changed
(:func:`_self_verify`, ``F190``), and skipping a rewrite beats failing
the compile.  Skipped candidates are accounted separately
(``PassStats.rewrites_gated``).
"""

from __future__ import annotations

from collections import Counter

from ...algebra.ops import (
    Attach,
    BinApp,
    Cross,
    Distinct,
    EqJoin,
    GroupAggr,
    LitTable,
    Node,
    Project,
    RowNum,
    RowRank,
    Select,
    UnionAll,
)
from ...algebra.dag import postorder, replace_children
from ...analysis.properties import PlanStore, Props, infer_properties
from ...errors import VerifyError
from .constfold import fold_binapp
from .projmerge import merge_projection

#: Rewrite names, as accounted in ``PassStats.rewrites_fired`` /
#: ``PassStats.rewrites_gated``.
REWRITES = ("distinct_elim", "rownum_dense", "rownum_rank", "select_true",
            "selfjoin_elim", "unit_cross")


def simplify(roots: "list[Node]", store: "PlanStore | None" = None,
             fired: "dict[str, int] | None" = None,
             gated: "dict[str, int] | None" = None) -> "list[Node]":
    """One sweep of the rules over the plans of a bundle, each interned
    node once for the life of ``store``.

    A node is rebuilt over its simplified children and then rewritten
    until no rule applies, so a rule sees merged projections below it
    and what it builds merges into the projection above it in the same
    sweep.  ``fired`` / ``gated`` (``PassStats.rewrites_fired`` /
    ``rewrites_gated``) count per plan: a node shared by several queries
    is decided once, yet counts for every plan that contains it.
    """
    store = store or PlanStore()
    done = store.rewritten.setdefault("simplify", {})
    decided: dict[int, list[tuple[str, bool]]] = {}
    roots = [store.intern(root) for root in roots]
    for root in roots:
        store.infer(root)  # carried from here on (``PlanStore.carry``)
    #: consumers per node of the bundle, and per node a visit returned
    uses = Counter(id(c) for node in postorder(*roots) for c in node.children)
    shared: Counter[int] = Counter()

    def visit(node: Node, children: tuple[Node, ...]) -> Node:
        cur = store.rebuild(node, children)
        while id(cur) not in done:  # a simplified node is its own result
            store.carry(node, cur)
            new = cur
            if isinstance(cur, BinApp):
                new = store.add(fold_binapp(cur))
            elif isinstance(cur, Project):
                new = merge_projection(cur, store)
            if new is cur:
                hit = _rewrite_node(cur, store, shared)
                if hit is None:
                    break
                new = store.intern(hit[1])
                if isinstance(new, Project):
                    new = merge_projection(new, store)
                # it must show every key of what it replaces
                safe = all(map(store.infer(new).has_key,
                               store.infer(cur).keys))
                decided.setdefault(id(node), []).append((hit[0], safe))
                if not safe:
                    break
            cur = new
        shared[id(cur)] += uses[id(node)]
        return cur

    out = [store.rewrite("simplify", root, visit) for root in roots]
    for root in roots if decided else ():
        for node in postorder(root):
            for name, safe in decided.get(id(node), ()):
                counts = fired if safe else gated
                if counts is not None:
                    counts[name] = counts.get(name, 0) + 1
    return out


def _rewrite_node(node: Node, store: PlanStore, shared: "Counter[int]"
                  ) -> "tuple[str, Node] | None":
    """The candidate replacement for ``node`` -- ``(rewrite name,
    candidate)`` -- or ``None`` when no rewrite matches.  The caller
    checks that the candidate keeps the node's keys."""
    if isinstance(node, Distinct):
        if store.infer(node.child).keys:
            return "distinct_elim", node.child
        return None

    if isinstance(node, Select):
        if store.infer(node.child).constants.get(node.col) is True:
            return "select_true", node.child
        return None

    if isinstance(node, (RowNum, RowRank)):
        cp = store.infer(node.child)
        part = node.part if isinstance(node, RowNum) else ()
        # Constant columns order nothing; drop them from the spec.
        order = [(c, d) for c, d in node.order if c not in cp.constants]
        name, src = "rownum_rank", cp.numbered(
            node.order, part, unique=isinstance(node, RowNum))
        if (src is None and isinstance(node, RowNum) and len(order) == 1
                and order[0][1] == "asc" and cp.is_dense(order[0][0], part)):
            name, src = "rownum_dense", order[0][0]
        if src is None:
            return None
        cols = tuple((c, c) for c in store.schema(node.child))
        return name, Project(node.child, cols + ((node.col, src),))

    if isinstance(node, Project) and isinstance(node.child, Cross):
        # Under a projection (where every loop-lifted product sits) the
        # column order of what replaces the product is immaterial.
        cross = node.child
        for unit, other in (cross.children, cross.children[::-1]):
            if isinstance(unit, LitTable) and len(unit.rows) == 1:
                for (col, ty), value in zip(unit.schema, unit.rows[0]):
                    other = Attach(other, col, value, ty)
                return "unit_cross", Project(other, node.cols)
        return None

    if isinstance(node, EqJoin):
        return _selfjoin_elim(node, store, shared)

    return None


def _selfjoin_elim(node: EqJoin, store: PlanStore, shared: "Counter[int]"
                   ) -> "tuple[str, Node] | None":
    """``EqJoin(d, Project(b))`` on a key column of ``b`` -> ``Project(d')``
    when ``d`` descends from ``b`` and still carries that column.

    This is the loop-lifting compiler's surrogate-regeneration idiom: a
    numbered subplan ``b`` is filtered, joined and renamed into ``d``
    and then joined back to (a projection of) ``b`` on the surrogate
    that keys it, to re-attach columns of ``b``.  Every row of ``d``
    meets exactly the row of ``b`` it descends from, so the join goes
    once ``d'`` hands those columns up itself (:func:`_carry`)."""
    if len(node.pairs) != 1:
        return None
    for (derived, dcol), (anchor, acol) in (
            zip(node.children, node.pairs[0]),
            zip(node.children[::-1], node.pairs[0][::-1])):
        base, cols = ((anchor.child, anchor.cols)
                      if isinstance(anchor, Project) else
                      (anchor, tuple((c, c) for c in store.schema(anchor))))
        src = dict(cols)[acol]
        if store.infer(base).has_key({src}):
            wide = _carry(derived, dcol, base, src, cols, store, shared)
            if wide is not None:
                return "selfjoin_elim", Project(
                    wide, tuple((c, c) for c in store.schema(node)))
    return None


def _carry(node: Node, col: str, base: Node, src: str,
           extra: "tuple[tuple[str, str], ...]", store: PlanStore,
           shared: "Counter[int]") -> "Node | None":
    """``node`` with the columns ``extra`` (new name, column of ``base``)
    of the ``base`` row each of its rows descends from -- provided its
    column ``col`` is ``base``'s ``src``, handed up through renames and
    operators that only drop or repeat rows; else ``None``."""
    path: list[tuple[Node, int]] = []
    while True:
        schema = store.schema(node)
        if any(new in schema and (node is not base or new != old)
               for new, old in extra):
            return None  # the name is taken on the way up
        if node is base:
            break
        if shared[id(node)] > 1:
            return None  # widening it would compute it twice
        at = 0
        if isinstance(node, Project):
            col = dict(node.cols)[col]
        elif (isinstance(node, (GroupAggr, UnionAll)) or not node.children
              or col in (getattr(node, "col", None),
                         getattr(node, "out", None))):
            return None  # computed here, not handed up
        elif col not in store.schema(node.children[0]):
            at = 1
        path.append((node, at))
        node = node.children[at]
    if col != src:
        return None
    wide = store.add(Project(base, tuple((c, c) for c in schema) + tuple(
        e for e in extra if e[0] not in schema)))
    for node, at in reversed(path):
        if isinstance(node, Project):
            wide = merge_projection(store.add(Project(
                wide, node.cols + tuple((n, n) for n, _ in extra))), store)
        else:
            kids = list(node.children)
            kids[at] = wide
            wide = store.add(replace_children(node, tuple(kids)))
    return wide


def _self_verify(old_root: Node, new_root: Node, cache: PlanStore,
                 fresh: "dict[int, Props] | None" = None) -> None:
    """Re-run inference on the rewritten plan and diff it against the
    original: the schema must be identical (names, types, order) and no
    inferred root key may be lost.  ``fresh`` is the memo of that re-run
    (shared by the plans of a bundle): the pipeline's store *carries*
    facts from a node to its rewrite, which is what this checks, so the
    rewritten plan is inferred from its leaves, apart from the store."""
    new_schema = cache.schema(new_root)
    old_schema = cache.schema(old_root)
    if list(new_schema.items()) != list(old_schema.items()):
        raise VerifyError(
            "F190: property rewrite changed the root schema: "
            f"{list(old_schema)} -> {list(new_schema)}", code="F190")
    new_props = infer_properties(new_root, {} if fresh is None else fresh,
                                 cache.schemas)
    for key in cache.infer(old_root).keys:
        if not new_props.has_key(key):
            raise VerifyError(
                "F190: property rewrite lost root key "
                f"{{{', '.join(sorted(key))}}}", code="F190")
