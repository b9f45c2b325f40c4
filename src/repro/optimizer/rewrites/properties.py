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
``const_spec``  a ``RowNum`` / ``RowRank`` ordered or partitioned by a
    column that is constant -> the same without it: it orders and
    partitions nothing (an outermost list's ``iter``).
``rownum_rank``  ``RowNum`` / ``RowRank`` ``c`` by an order (within a
    partition) that an *order fact* says column ``n`` already numbers
    -> ``Project[.., c <= n]``: a second numbering of the same run.
``unit_cross``  ``Project(Cross(LitTable[1 row], q))`` -> ``Project`` over
    ``Attach``-es on ``q``: the unit loop relation is a constant column.
``selfjoin_elim``  ``EqJoin(d, Project(b))`` on a key column of ``b``
    that ``d``, a descendant of ``b``, still carries -> ``d`` widened by
    the columns of ``b`` the join fetched: the loop-lifting compiler's
    surrogate-regeneration joins.  The same for an anchor
    ``Distinct(Project_P(b))`` keyed by the join column: ``group_with``'s
    join of each group's members back to the distinct group rank
    (:func:`_selfjoin_elim`).
``order_inline``  a ``RowNum`` / ``RowRank`` that orders by the number
    ``n`` of a numbering below, which nothing else reads -- but a bundle
    query's ``pos``, which ``pos_order`` takes next -> the same over the
    columns ``n`` ranks, handed up to it; icols then deletes the
    numbering below (:func:`_order_inline`).
``pos_order``  the ``pos`` of a bundle query's root, the number of one
    ``Int`` column with a numbering lineage -> that column: a root
    ``pos`` is an order, not a count (:func:`_pos_order`).
``surrogate_key``  a ``RowNum`` over one partition whose number is only
    ever compared for equality with itself -- joined to the same
    numbering, grouped by, a partition, a query's ``iter`` or a nested
    list's surrogate (:meth:`_Uses.surrogate`) -> ``Project[.., c <=
    k]`` for an ``Int`` column ``k`` that is a key of the numbered rows,
    usually a scan's position handed up to them: equal numbers and
    equal keys pick the same rows (:func:`_surrogate_key`).

A rule hands columns up (:func:`_widen`) only through nodes nobody else
reads -- they would be computed twice -- but ``pos_order`` and
``surrogate_key`` may widen a node that only projections read: icols
then points all of them at the wider twin (``PlanStore.wider``).

Nothing prices a candidate: each rule -- the two order rules together
with the icols that follows them -- replaces a node by one of strictly
lower rank in a fixed operator order (see
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
from dataclasses import replace
from functools import partial
from typing import Callable, Iterator, Mapping, Sequence

from ...algebra.ops import (
    AntiJoin,
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
    SemiJoin,
    UnionAll,
)
from ...algebra.dag import postorder, replace_children
from ...analysis.properties import PlanStore, Props, infer_properties
from ...errors import VerifyError
from ...ftypes import IntT
from .constfold import fold_binapp
from .icols import _computes, _demand
from .projmerge import merge_projection

#: Rewrite names, as accounted in ``PassStats.rewrites_fired`` /
#: ``PassStats.rewrites_gated``.
REWRITES = ("const_spec", "distinct_elim", "order_inline", "pos_order",
            "rownum_dense", "rownum_rank", "select_true", "selfjoin_elim",
            "surrogate_key", "unit_cross")
_FLIP = {"asc": "desc", "desc": "asc"}


def simplify(roots: "list[Node]", store: "PlanStore | None" = None,
             fired: "dict[str, int] | None" = None,
             gated: "dict[str, int] | None" = None,
             serial: "Sequence[tuple[str, str]]" = (),
             links: "Sequence[Mapping[str, Sequence[tuple[int, str]]]]"
             = ()) -> "list[Node]":
    """One sweep of the rules over the plans of a bundle, each interned
    node once for the life of ``store``.

    A node is rebuilt over its simplified children and then rewritten
    until no rule applies, so a rule sees merged projections below it
    and what it builds merges into the projection above it in the same
    sweep.  ``fired`` / ``gated`` (``PassStats.rewrites_fired`` /
    ``rewrites_gated``) count per plan: a node shared by several queries
    is decided once, yet counts for every plan that contains it.
    ``serial`` names, per root that is a bundle query, its ``(iter,
    pos)`` columns: such a root is read in their order (``pos_order``).
    ``links`` names, per such root, the columns the stitcher only
    matches for equality -- a nested list's surrogate, the ``iter`` of
    the query holding the list -- each with the ``(query, column)`` it is
    matched against (``surrogate_key``).
    """
    store = store or PlanStore()
    done = store.rewritten.setdefault("simplify", {})
    #: the roots ``pos_order`` was offered, and turned down
    tried = store.rewritten.setdefault("pos_order", {}) if serial else {}
    decided: dict[Node, list[tuple[str, bool]]] = {}
    roots = [store.intern(root) for root in roots]
    if all(root in done and (i >= len(serial) or root in tried)
           for i, root in enumerate(roots)):
        return roots  # the last sweep left them as they are
    for root in roots:
        store.infer(root)  # carried from here on (``PlanStore.carry``)
    #: consumers per node of the bundle, and per node a visit returned
    nodes = list(postorder(*roots))
    uses = Counter(c for node in nodes for c in node.children)
    #: per root that is a bundle query: its pos, and the columns the
    #: stitcher matches, each with the roots' columns it matches them to
    ends: "dict[Node, list[tuple[str, _Links]]]" = {}
    for i, (_, pos) in enumerate(serial):
        ends.setdefault(roots[i], []).append((pos, {
            col: tuple((roots[j], other) for j, other in to)
            for col, to in (links[i] if i < len(links) else {}).items()}))
    shared = _Uses(nodes, ends, store)

    def visit(node: Node, children: tuple[Node, ...]) -> Node:
        cur = store.rebuild(node, children)
        while cur not in done:  # a simplified node is its own result
            store.carry(node, cur)
            new = cur
            if isinstance(cur, BinApp):
                new = store.add(fold_binapp(cur, store))
            elif isinstance(cur, Project):
                new = merge_projection(cur, store)
            if new is cur:
                hit = _rewrite_node(cur, store, shared)
                if hit is None and isinstance(cur, RowNum):
                    hit = _surrogate_key(cur, node, store, shared)
                if hit is None and isinstance(cur, (RowNum, RowRank)):
                    hit = _order_inline(cur, store, shared,
                                        partial(shared.unread, node))
                new = hit and adopt(node, cur, hit)
                if new is None:
                    break
            cur = new
        shared[cur] += uses[node]
        shared.origins.setdefault(cur, []).append(node)
        return cur

    def adopt(origin: Node, cur: Node, hit: "tuple[str, Node]"
              ) -> "Node | None":
        """The interned candidate ``hit`` offers for ``cur`` (which
        ``origin`` became), accounted -- ``None`` unless it shows every
        key of what it replaces."""
        new = store.intern(hit[1])
        if isinstance(new, Project):
            new = merge_projection(new, store)
        safe = all(map(store.infer(new).has_key, store.infer(cur).keys))
        decided.setdefault(origin, []).append((hit[0], safe))
        return new if safe else None

    out = [store.rewrite("simplify", root, visit) for root in roots]
    # A query's root is read in (iter, pos) order, whichever node it came
    # out as (it may be one a visit met inside another plan).
    for i, cols in enumerate(serial):
        if out[i] in tried:
            continue
        hit = (not uses[roots[i]] and isinstance(out[i], Project)
               and _pos_order(out[i], *cols, store, shared))
        new = hit and adopt(roots[i], out[i], hit)
        if new:
            out[i] = store.rewrite("simplify", new, visit)
        else:
            tried[out[i]] = out[i]
    for root in roots if decided else ():
        for node in postorder(root):
            for name, safe in decided.get(node, ()):
                counts = fired if safe else gated
                if counts is not None:
                    counts[name] = counts.get(name, 0) + 1
    return out


#: A bundle query's columns the stitcher matches for equality -> the
#: ``(root, column)`` of the queries they are matched against.
_Links = dict[str, tuple[tuple[Node, str], ...]]


class _Uses(Counter):
    """Who reads what in the bundle a sweep started from.  Counted: the
    consumers of each node a visit returned, and ``origins`` the nodes
    it came out of; found once a rule asks: the consumers of every node
    of the bundle; ``ends``: per root that is a bundle query, its
    ``pos`` and the columns the stitcher links by."""

    def __init__(self, nodes: "list[Node]",
                 ends: "dict[Node, list[tuple[str, _Links]]]",
                 store: PlanStore) -> None:
        super().__init__()
        self.nodes, self.ends, self.store = nodes, ends, store
        self.origins: dict[Node, list[Node]] = {}
        self._parents: "dict[Node, list[Node]] | None" = None
        self._fixed: "set[Node] | None" = None
        self._surrogates: dict[tuple[Node, str], bool] = {}
        self._derived: dict[tuple[Node, str, Node], bool] = {}

    def movable(self, node: Node) -> bool:
        """Do projections alone read ``node``?  A rule may then widen it
        for all of them (:func:`_widen`)."""
        if self._fixed is None:  # read by a query, or not by a projection
            self._fixed = set(self.ends).union(
                c for p in self.nodes if not isinstance(p, Project)
                for c in p.children)
        fixed = self._fixed
        return not any(o in fixed for o in self.origins.get(node, ()))

    @property
    def parents(self) -> "dict[Node, list[Node]]":
        if self._parents is None:
            self._parents = {}
            for parent in self.nodes:
                for child in parent.children:
                    self._parents.setdefault(child, []).append(parent)
        return self._parents

    def unread(self, node: Node, col: str) -> bool:
        """Does no consumer of ``node`` read its column ``col`` -- itself,
        or by handing it up to one that does?  The reader of a root reads
        all of it, but for the ``pos`` of a bundle query, which
        ``pos_order`` reads through."""
        for parent in self.parents.get(node, ()):
            if col in _own_reads(parent, self.store):
                return False
            ups = ([new for new, old in parent.cols if old == col]
                   if isinstance(parent, Project)
                   else [col] if col in self.store.schema(parent) else [])
            if not all(self.unread(parent, up) for up in ups):
                return False
        if node in self.ends:
            return all(col == pos for pos, _ in self.ends[node])
        return node in self.parents

    def surrogate(self, made: Node, col: str) -> bool:
        """Is the number ``col`` the numbering ``made`` gives only ever
        compared for equality with itself?  Every reader, through
        renames, must group by it (``GroupAggr``, ``Distinct``, a
        partition), join it to a column of the same numbering
        (:meth:`derives`), or be the stitcher matching a nested list's
        surrogate with the ``iter`` of its query, the other end of the
        same numbering too -- or order an unpartitioned numbering whose
        number is such a surrogate itself.  Then any other key of the
        numbered rows serves as well.  (A number only projections drop
        is no surrogate: icols deletes it.)"""
        known = self._surrogates.get((made, col))
        if known is None:
            known = self._surrogates[made, col] = self._linked_only(
                made, col)
        return known

    def derives(self, node: Node, col: str, made: Node) -> bool:
        """Is every value of column ``col`` of ``node`` the number
        ``made`` gives one of its rows -- handed up through renames,
        groups, unions and operators that only drop or repeat rows?"""
        key = (node, col, made)
        known = self._derived.get(key)
        if known is None:
            known = self._derived[key] = self._derives(node, col, made)
        return known

    def _derives(self, node: Node, col: str, made: Node) -> bool:
        while node is not made or col != getattr(made, "col", None):
            if isinstance(node, Project):
                col = dict(node.cols)[col]
            elif isinstance(node, UnionAll):
                return all(self.derives(arm, col, made)
                           for arm in node.children)
            elif isinstance(node, GroupAggr):
                if col not in node.group:
                    return False
            elif (node is made or not node.children
                  or col in (getattr(node, "col", None),
                             getattr(node, "out", None))):
                return False  # computed here, not handed up
            node = next(c for c in node.children
                        if col in self.store.schema(c))
        return True

    def _linked_only(self, made: Node, col: str) -> bool:
        parents, queries = self.parents, self.ends
        todo, seen, read = [(made, col)], set(), False
        while todo:
            node, col = todo.pop()
            if (node, col) in seen:
                continue
            seen.add((node, col))
            ends = queries.get(node)
            for _, link in ends or ():
                to = link.get(col)
                if to is None or not all(self.derives(root, other, made)
                                         for root, other in to):
                    return False  # an item, or matched to another number
                read = True
            readers = parents.get(node)
            if readers is None and ends is None:
                return False  # a plan's reader reads all of it
            for parent in readers or ():
                ups = self._links(parent, node, col, made)
                if ups is None:
                    return False
                if not isinstance(parent, Project):
                    read = True
                for up in ups:
                    todo.append((parent, up))
        return read

    def _links(self, parent: Node, child: Node, col: str, made: Node
               ) -> "list[str] | None":
        """The names under which ``parent`` hands up column ``col`` of
        its input ``child`` -- ``None`` when it reads the column for more
        than equality (:meth:`surrogate`)."""
        store = self.store
        if isinstance(parent, Project):
            return [new for new, old in parent.cols if old == col]
        if isinstance(parent, (RowNum, RowRank)):
            # ordering by it renumbers the rows, which only a number that
            # is a key or a rank -- equal exactly where the order is --
            # and a surrogate itself hides
            if col in (c for c, _ in parent.order) and (
                    getattr(parent, "part", ()) or not self.surrogate(
                        parent, parent.col)):
                return None
            return [col]
        if isinstance(parent, GroupAggr):
            if any(col == c for _, c, _ in parent.aggs):
                return None
            return [col] if col in parent.group else []
        if isinstance(parent, (EqJoin, SemiJoin, AntiJoin)):
            for at, other in ((0, 1), (1, 0)):
                if parent.children[at] is not child:
                    continue
                for pair in parent.pairs:
                    if pair[at] == col and not self.derives(
                            parent.children[other], pair[other], made):
                        return None
            return [col] if col in store.schema(parent) else []
        if isinstance(parent, UnionAll):
            return ([col] if all(self.derives(arm, col, made)
                                 for arm in parent.children) else None)
        if isinstance(parent, (Distinct, Cross)):
            return [col]
        if col in _own_reads(parent, store):  # Select, BinApp, UnApp
            return None
        return [col]


def _rewrite_node(node: Node, store: PlanStore, shared: _Uses
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
        if src is not None:
            cols = tuple((c, c) for c in store.schema(node.child))
            return name, Project(node.child, cols + ((node.col, src),))
        # ... nor partition anything: a shorter spec numbers alike.
        spec: "dict[str, tuple]" = {"order": tuple(order) or node.order[:1]}
        if isinstance(node, RowNum):
            spec["part"] = tuple(c for c in part if c not in cp.constants)
        if any(len(v) < len(getattr(node, k)) for k, v in spec.items()):
            return "const_spec", replace(node, **spec)
        return None

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


def _selfjoin_elim(node: EqJoin, store: PlanStore, shared: _Uses
                   ) -> "tuple[str, Node] | None":
    """``EqJoin(d, a)`` on a column ``k`` of an anchor ``a`` that is one
    row per value of ``k`` of a subplan ``b`` -> ``Project(d')`` when
    ``d`` descends from ``b`` and still carries ``b``'s ``k``.

    The anchor is ``b`` or a projection of it, ``k`` a key of ``b``: the
    loop-lifting compiler's surrogate-regeneration idiom, where a
    numbered subplan ``b`` is filtered, joined and renamed into ``d``
    and then joined back to ``b`` on the surrogate that keys it, to
    re-attach columns of ``b``.  Or it is ``Distinct(Project_P(b))``,
    under projections, keyed by ``k``: ``group_with``'s spine, where
    each group's members are joined back to the distinct group rank.
    Either way every row of ``d`` meets exactly one anchor row, which
    holds the values of the ``b`` row it descends from, so the join goes
    once ``d'`` hands those columns up itself (:func:`_widen`).  Where a
    node of a group spine has other readers (it is shared by every
    query), ``d'`` attaches those constant in ``b`` instead."""
    if len(node.pairs) != 1:
        return None
    for (derived, dcol), (anchor, acol) in (
            zip(node.children, node.pairs[0]),
            zip(node.children[::-1], node.pairs[0][::-1])):
        base, cols, grouped = _anchored(anchor, acol, store)
        if base is None:
            continue
        src = dict(cols)[acol]
        # The walk down from ``derived`` meets ``base``, if at all, at the
        # first node no higher than it: stop there.
        height = store.height(base)
        found = _trace(derived, dcol,
                       lambda n, _: store.height(n) <= height, store)
        if not found or found[1] is not base or found[2] != src:
            continue
        extra = tuple(e for e in cols if e[1] != src)
        wide = _widen(found[0], base, extra, store, shared)
        consts: "Mapping[str, object]" = {}
        if wide is None and grouped:  # a shared spine: attach constants
            consts = store.infer(base).constants
            wide = _widen(found[0], base, tuple(
                e for e in extra if e[1] not in consts), store, shared)
        if wide:  # the key itself is there: ``dcol``
            types = store.schema(base)
            for new, old in extra:
                if old in consts:
                    wide = Attach(wide, new, consts[old], types[old])
            same = {new: dcol for new, old in cols if old == src}
            return "selfjoin_elim", Project(wide, tuple(
                (c, same.get(c, c)) for c in store.schema(node)))
    return None


def _anchored(anchor: Node, col: str, store: PlanStore
              ) -> "tuple[Node | None, tuple[tuple[str, str], ...], bool]":
    """``(b, cols, grouped)`` when ``anchor`` holds one row per value of its
    column ``col`` in some ``b`` (:func:`_selfjoin_elim`): it is ``b``
    under projections, ``col`` a key of ``b``, or a ``Distinct`` of
    (a projection of) ``b`` under projections, ``col`` a key of the
    ``Distinct`` (``grouped``).  ``cols`` pairs each column of ``anchor``
    with the column of ``b`` it holds; ``b`` is ``None`` when there is
    none."""
    cols = tuple((c, c) for c in store.schema(anchor))
    distinct: "Distinct | None" = None
    node, key = anchor, col
    while isinstance(node, Project) or (
            isinstance(node, Distinct) and distinct is None):
        if isinstance(node, Distinct):
            distinct, key = node, dict(cols)[col]
        else:
            src = dict(node.cols)
            cols = tuple((new, src[old]) for new, old in cols)
        node = node.child
    if not store.infer(distinct or node).has_key(
            {key if distinct else dict(cols)[col]}):
        return None, (), False
    return node, cols, distinct is not None


def _order_inline(node: "RowNum | RowRank", store: PlanStore,
                  shared: _Uses, unread: "Callable[[str], bool]"
                  ) -> "tuple[str, Node] | None":
    """A numbering that orders by the number ``n`` of another one orders
    by what ``n`` ranks instead: ``n`` compares as those columns do
    among rows of one partition of *its* numbering, and this one only
    compares rows that share it -- its own partition and the order
    columns before ``n`` fix it (:func:`_determines`).  Nobody else
    reads ``n`` (``unread``, :func:`_ranked`), so the next ``icols``
    deletes the numbering below."""
    part = set(getattr(node, "part", ()))
    for i, (n, way) in enumerate(node.order):
        hit = _ranked(node.child, n, store, shared, unread)
        if hit is None:
            continue
        wide, by, within = hit
        if not _determines(wide, part.union(c for c, _ in node.order[:i]),
                           within, store):
            continue
        order = dict(node.order[:i])  # a column orders once, where first met
        for col, d in by:
            order.setdefault(col, d if way == "asc" else _FLIP[d])
        for col, d in node.order[i + 1:]:
            order.setdefault(col, d)
        if order:
            return "order_inline", Project(
                replace(node, child=wide, order=tuple(order.items())),
                tuple((c, c) for c in store.schema(node)))
    return None


def _surrogate_key(node: RowNum, origin: Node, store: PlanStore,
                   shared: _Uses) -> "tuple[str, Node] | None":
    """A ``RowNum`` whose number is a surrogate only (what ``origin``,
    the node it came out of, gives: :meth:`_Uses.surrogate`) and numbers
    all rows as one partition gives each row its own number; any ``Int``
    column that is a key of those rows tells them apart exactly as well
    -> ``Project[.., c <= k]``.  The key is usually a scan's position,
    handed up (:func:`_widen`) past operators that only drop or repeat
    rows."""
    if set(node.part) - store.infer(node.child).constants.keys():
        return None
    asked = False
    for path, base, k in _int_keys(node.child, store, shared):
        if not asked and not shared.surrogate(origin, node.col):
            return None
        asked, twins = True, {}
        wide = _widen(path, base, ((k, k),), store, shared, twins)
        if wide is not None and store.infer(wide).has_key({k}):
            store.wider.update(twins)
            cols = tuple((c, c) for c in store.schema(node.child))
            return "surrogate_key", Project(wide, cols + ((node.col, k),))
    return None


def _int_keys(top: Node, store: PlanStore, shared: _Uses
              ) -> "Iterator[tuple[list[tuple[Node, int]], Node, str]]":
    """``(path, base, k)``, nearest first: a single ``Int`` column ``k``
    that is a key of ``base`` and stays one of ``top`` once handed up
    ``path`` (:func:`_trace`) -- a join on the way matches each of its
    rows once (the other side's join columns are a key), a product with
    at most one row -- and that path would not widen a node read other
    than through projections (:func:`_widen`)."""
    todo: "list[tuple[list[tuple[Node, int]], Node]]" = [([], top)]
    seen: set[Node] = set()
    for path, base in todo:  # (grows as it goes)
        if base in seen:
            continue
        seen.add(base)
        schema = store.schema(base)
        for k in sorted(c for key in store.infer(base).keys
                        if len(key) == 1 for c in key):
            if schema.get(k) == IntT:
                yield path, base, k
        if isinstance(base, (Distinct, GroupAggr, UnionAll)):
            continue  # a column handed up here would change the rows
        if shared.get(base, 0) > 1 and not shared.movable(base):
            continue
        for at, arm in enumerate(base.children):
            if isinstance(base, (SemiJoin, AntiJoin)) and at:
                break
            if isinstance(base, (EqJoin, Cross)):
                other = store.infer(base.children[1 - at])
                if not (other.card.at_most_one if isinstance(base, Cross)
                        else other.has_key({p[1 - at] for p in base.pairs})):
                    continue
            todo.append((path + [(base, at)], arm))


def _pos_order(root: Project, iter_col: str, pos_col: str, store: PlanStore,
               shared: _Uses) -> "tuple[str, Node] | None":
    """The root of a bundle query is read in ``(iter, pos)`` order and
    ``pos`` for nothing else: a ``pos`` that numbers one ``Int`` column
    ascending, within partitions ``iter`` fixes, is that column -- if it
    descends from a numbering itself, so that the verifier's order stage
    still finds the lineage of ``pos``, and is unique per ``iter`` where
    ``pos`` is shown to be (ties of that column are duplicate rows, which
    the number told apart)."""
    src, twins = dict(root.cols), {}
    hit = _ranked(root.child, src[pos_col], store, shared, twins=twins)
    if hit is None:
        return None
    wide, by, within = hit
    if ([d for _, d in by] != ["asc"] or store.schema(wide)[by[0][0]] != IntT
            or not store.infer(wide).order_ok(by[0][0])  # (F201)
            or not _determines(wide, {src[iter_col]}, within, store)):
        return None
    it = src[iter_col]
    if store.infer(root.child).has_key({it, src[pos_col]}) and not (
            store.infer(wide).has_key({it, by[0][0]})):
        return None
    store.wider.update(twins)
    return "pos_order", Project(wide, tuple(
        (new, by[0][0] if new == pos_col else old) for new, old in root.cols))


def _ranked(node: Node, col: str, store: PlanStore, shared: _Uses,
            unread: "Callable[[str], bool]" = lambda col: True,
            twins: "dict[Node, Node] | None" = None
            ) -> "tuple[Node, tuple, frozenset[str]] | None":
    """``(wide, by, within)`` when column ``col`` of ``node`` is the
    number a ``RowNum`` / ``RowRank`` below gives, handed up to ``node``
    alone and read by nothing on the way -- nor, says ``unread``, past
    ``node`` -- and ranks ``by`` within ``within`` there (:func:`_ranks`):
    ``wide`` is ``node`` handing up those columns as well.  (A
    ``Distinct`` on the way reads the number: none is crossed.)  Given
    ``twins``, the way may pass a node that several projections read
    (:func:`_widen`).  The cheap questions come first: few candidates
    pass them."""
    found = _trace(node, col, lambda n, c: (
        shared.get(n, 0) > 1 and (
            twins is None or not shared.movable(n))) or (
        isinstance(n, (RowNum, RowRank)) and n.col == c), store)
    if found is None or shared.get(found[1], 0) > 1 or not unread(col):
        return None
    path, made, _ = found
    for step in [step for step, _ in path] + [made]:
        if isinstance(step, Project):
            col = dict(step.cols)[col]
            if [old for _, old in step.cols].count(col) > 1:
                return None  # handed up under a second name
        elif col in _own_reads(step, store):
            return None
    fact = _ranks(made, store)
    if fact is None:
        return None
    by, within = fact
    cols = sorted(within.union(o for o, _ in by))
    wide = _widen(path, made, tuple((o, o) for o in cols), store, shared,
                  twins)
    return wide and (wide, by, within)


def _own_reads(node: Node, store: PlanStore) -> "set[str]":
    """The columns ``node`` reads of its input(s) whatever is asked of it."""
    made = _computes(node)
    if made is not None:
        return made[1]
    needed: dict[Node, set[str]] = {node: set()}
    _demand(node, needed, store.schemas)
    return set().union(*(needed.get(c, ()) for c in node.children))


def _trace(node: Node, col: str, stop: "Callable[[Node, str], bool]",
           store: PlanStore
           ) -> "tuple[list[tuple[Node, int]], Node, str] | None":
    """Follow column ``col`` of ``node`` down, through renames and
    operators that only drop or repeat rows, to the first node ``stop``
    accepts: the steps taken (node, index of the child followed), that
    node and the column's name there -- ``None`` when the column is
    computed on the way."""
    path: list[tuple[Node, int]] = []
    while not stop(node, col):
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
    return path, node, col


def _widen(path: "list[tuple[Node, int]]", base: Node,
           extra: "tuple[tuple[str, str], ...]", store: PlanStore,
           shared: _Uses, twins: "dict[Node, Node] | None" = None
           ) -> "Node | None":
    """The top of ``path`` (:func:`_trace`) handing up, as ``extra`` (new
    name, column of ``base``), columns of the ``base`` row each of its
    rows descends from -- columns that follow from the traced one, or a
    ``Distinct`` on the way would tell more rows apart.  A step that
    hands them up already stands; one that has to change but has a
    second consumer (it would be computed twice) gives ``None`` -- given
    ``twins``, unless only projections read it: its wider twin is noted
    there (for ``PlanStore.wider``: the next icols points them all at
    it, so that it stays one node)."""
    have = store.schema(base)
    if any(new in have and new != old for new, old in extra):
        return None
    fresh = tuple(e for e in extra if e[0] not in have)
    wide = base
    if fresh:
        wide = store.add(Project(base, tuple((c, c) for c in have) + fresh))
    names = [new for new, _ in extra]
    for node, at in reversed(path):
        cols: "tuple[tuple[str, str], ...]" = ()
        if isinstance(node, Project):
            src = dict(node.cols)
            cols = tuple((n, n) for n in names if n not in src)
            taken = any(src.get(n, n) != n for n in names)
        else:
            below = store.schema(node.children[at])
            taken = any(n in store.schema(node) and n not in below
                        for n in names)
        if taken:
            return None  # the name means something else on the way up
        if wide is node.children[at] and not cols:
            wide = node
        elif shared.get(node, 0) > 1 and (twins is None
                                    or not shared.movable(node)):
            return None
        elif isinstance(node, Project):
            wide = merge_projection(
                store.add(Project(wide, node.cols + cols)), store)
        else:
            kids = list(node.children)
            kids[at] = wide
            wide = store.add(replace_children(node, tuple(kids)))
            if twins is not None:
                twins[node] = wide
    return wide


def _determines(node: Node, xs: "set[str]", ws: "frozenset[str]",
                store: PlanStore) -> bool:
    """Do rows of ``node`` that agree on the columns ``xs`` agree on the
    columns ``ws``?  Shown by constants, keys (a key of a join's input
    fixes all that input hands up), equated columns and numberings (a
    rank follows from what it ranks: :func:`_ranks`) -- here, or below
    operators that only drop or repeat rows."""
    while True:
        p = store.infer(node)
        xs, size = xs | p.constants.keys(), 0
        while isinstance(node, (EqJoin, Cross)) and size < len(xs):
            size = len(xs)
            for pair in getattr(node, "pairs", ()):
                if xs & set(pair):
                    xs = xs.union(pair)
            for child in node.children:
                own = store.schema(child).keys()
                if store.infer(child).has_key(xs & own):
                    xs = xs | own
        if isinstance(node, (RowNum, RowRank)) and node.col in ws:
            fact = _ranks(node, store)
            if fact and xs >= fact[1].union(c for c, _ in fact[0]):
                xs = xs | {node.col}
        ws = ws - xs
        if not ws or p.has_key(xs):
            return True
        if isinstance(node, Project):
            src = dict(node.cols)
            xs = {src[x] for x in xs if x in src}
            ws = frozenset(src[w] for w in ws)
        elif isinstance(node, (GroupAggr, UnionAll)):
            return False
        for child in node.children:
            have = store.schema(child).keys()
            if ws <= have:  # (a semijoin hands up nothing of its right)
                node, xs = child, xs & have
                break
        else:
            return False


def _ranks(made: "RowNum | RowRank", store: PlanStore
           ) -> "tuple[tuple[tuple[str, str], ...], frozenset[str]] | None":
    """``(by, within)`` when the number ``made`` gives is the rank of its
    order columns ``by`` within its partition ``within``, constants left
    out: a ``RowRank``, or a ``RowNum`` no two rows of a partition tie
    in."""
    consts = store.infer(made.child).constants.keys()
    by = tuple(o for o in made.order if o[0] not in consts)
    within = frozenset(getattr(made, "part", ())).difference(consts)
    if isinstance(made, RowNum) and not _determines(
            made.child, within.union(c for c, _ in by),
            frozenset(store.schema(made.child)), store):
        return None
    return by, within


def _self_verify(old_root: Node, new_root: Node, cache: PlanStore,
                 fresh: "dict[Node, Props] | None" = None) -> None:
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
