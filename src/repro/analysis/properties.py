"""Plan-property inference over the table algebra (Pathfinder-style).

Pathfinder drives its rewrites from inferred plan properties -- keys,
constant columns, cardinalities -- rather than from syntactic patterns
alone (Grust et al., "Why off-the-shelf RDBMSs are better at XPath than
you might expect", and the Pathfinder peephole optimizer).  This module
gives the reproduction that analysis layer: a single memoized bottom-up
walk over the shared plan DAG derives, per node, a :class:`Props` record
with

``keys``
    a minimal antichain of column sets whose projection is duplicate
    free (bag semantics).  The empty key means "at most one row".
``constants``
    columns whose value is the same in every row, with that value.
``card``
    cardinality bounds ``lo..hi`` (``hi=None`` means unbounded).
``non_null``
    columns that provably contain no ``None``.  The algebra's type
    system has no Maybe/NULL, so this is almost always every column;
    it is tracked anyway because the differential property tests cheaply
    falsify it if an operator ever starts leaking ``None``.
``dense``
    *sound* density facts: ``(col, part)`` means that within every
    group of rows agreeing on the ``part`` columns, ``col`` carries
    exactly the values ``1..n`` (the paper's ``pos`` encoding).  Only
    facts that hold for every instance are recorded; rewrites may rely
    on them.
``order``
    *sound* numbering facts: ``(col, by, part)`` means that within every
    group of rows agreeing on ``part``, ``col`` is the dense rank of the
    ``by`` columns (``(column, direction)`` pairs) -- and their
    ``row_number`` wherever no two rows of a group tie on them.
    ``RowRank`` and tie-free ``RowNum`` state it; it survives renaming,
    added columns and ``Distinct``, and falls at anything that drops
    rows.  Numbering the same run again is then a ``Project``.
``provenance``
    *lineage-grade* order pedigree: columns that descend from a
    ``RowNum`` (or an equivalent dense source) through operators that
    preserve the "this column encodes list order" reading.  Unlike
    ``dense`` this is a lint signal -- the order verifier (``F2xx``)
    uses it to flag plans whose ``pos`` column has no row-numbering
    lineage at all, without false-positiving on prefixes/unions whose
    density is real but not locally provable.

Inference is sound for everything except ``provenance`` (documented
above); the hypothesis differential suite checks ``keys``,
``constants``, ``card``, ``non_null``, ``dense`` and ``order`` against
actually materialized engine relations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Callable, Mapping

from ..algebra.dag import fill, node_key, replace_children
from ..algebra.ops import (
    AntiJoin,
    Attach,
    BinApp,
    Const,
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
    TableScan,
    UnApp,
    UnionAll,
)
from ..algebra.schema import Schema, schema_of
from ..errors import PartialFunctionError
from ..ftypes import IntT
from ..semantics.interp import _binop, _unop

#: Antichain size cap: key sets beyond this are dropped (smallest kept).
MAX_KEYS = 16
#: Work budget (rows x column pairs) for the pairwise density scan of
#: literal tables.  Everything O(rows x cols) always runs -- a literal's
#: size already bounds compile cost via codegen, and the verifier's
#: F201 check needs the density of user-written literal lists of any
#: length -- but the quadratic-in-width pair loop is budgeted so a
#: pathologically wide literal cannot blow up analysis.
LIT_PAIR_BUDGET = 2_000_000

Key = frozenset  # of column names
DenseFact = tuple  # (col, frozenset[str])
OrderFact = tuple  # (col, ((col, "asc"|"desc"), ...), frozenset[str])


@dataclass(frozen=True)
class Card:
    """Cardinality bounds: ``lo <= nrows <= hi`` (``hi=None``: unbounded)."""

    lo: int = 0
    hi: int | None = None

    def contains(self, n: int) -> bool:
        return self.lo <= n and (self.hi is None or n <= self.hi)

    @property
    def at_most_one(self) -> bool:
        return self.hi is not None and self.hi <= 1

    @property
    def empty(self) -> bool:
        return self.hi == 0

    def show(self) -> str:
        hi = "*" if self.hi is None else str(self.hi)
        return f"{self.lo}..{hi}"

    def times(self, other: "Card") -> "Card":
        hi = (None if self.hi is None or other.hi is None
              else self.hi * other.hi)
        return Card(self.lo * other.lo, hi)

    def plus(self, other: "Card") -> "Card":
        hi = (None if self.hi is None or other.hi is None
              else self.hi + other.hi)
        return Card(self.lo + other.lo, hi)

    def filtered(self) -> "Card":
        """Bounds after dropping an unknown subset of rows."""
        return Card(0, self.hi)

    def meet(self, other: "Card") -> "Card":
        """Both bounds hold: the tighter ``lo`` and the tighter ``hi``."""
        his = [c.hi for c in (self, other) if c.hi is not None]
        return Card(max(self.lo, other.lo), min(his, default=None))


@dataclass
class Props:
    """Inferred properties of one plan node (see module docstring)."""

    schema: Schema
    keys: frozenset[Key] = frozenset()
    constants: dict[str, Any] = field(default_factory=dict)
    card: Card = Card()
    non_null: frozenset[str] = frozenset()
    dense: frozenset[DenseFact] = frozenset()
    provenance: frozenset[str] = frozenset()
    order: frozenset[OrderFact] = frozenset()

    # -- queries -------------------------------------------------------
    def has_key(self, cols: "frozenset[str] | set[str]") -> bool:
        """Is some inferred key a subset of ``cols`` (i.e. ``cols`` is a
        superkey)?"""
        cols = frozenset(cols)
        return any(k <= cols for k in self.keys)

    def is_dense(self, col: str, part: "frozenset[str] | tuple[str, ...]"
                 ) -> bool:
        """Soundly dense: within every ``part`` group, ``col`` is exactly
        ``1..n``.

        A recorded fact ``(col, P)`` applies to any partition that
        groups the rows identically: adding or removing *constant*
        columns never splits or merges groups, so the fact transfers
        whenever ``P`` and ``part`` differ only by constants.
        """
        part = frozenset(part)
        for c, p in self.dense:
            if c != col:
                continue
            if all(x in self.constants for x in (p | part) - (p & part)):
                return True
        # A constant 1 is trivially dense whenever the partition is a
        # superkey (each group holds exactly one row).
        return self.constants.get(col) == 1 and self.has_key(part)

    def numbered(self, order: "tuple[tuple[str, str], ...]",
                 part: "tuple[str, ...]", unique: bool) -> "str | None":
        """The column that already holds ``dense_rank(order by order
        partition by part)`` -- with ``unique``, ``row_number`` -- if an
        order fact names one.  The two agree exactly where ``order`` and
        ``part`` tell all rows apart, which (the rank being a function of
        them) is where they form a superkey together with it."""
        spec = (tuple((c, d) for c, d in order if c not in self.constants),
                frozenset(part) - self.constants.keys())
        for col, by, within in self.order:
            if (by, within) == spec and (not unique or self.has_key(
                    within.union({col}, (c for c, _ in by)))):
                return col
        return None

    def restricted(self, schema: Schema) -> "Props":
        """The facts that survive dropping every column not in
        ``schema`` (what icols does to a relation)."""
        if len(schema) == len(self.schema):
            return self
        cols = schema.keys()
        return _finish(
            schema, {k for k in self.keys if k <= cols}, self.constants,
            self.card, self.non_null, self.dense, self.provenance,
            frozenset((c, by, within) for c, by, within in self.order
                      if cols >= within.union({c}, (o for o, _ in by))))

    def order_ok(self, col: str) -> bool:
        """Lint-grade: does ``col`` plausibly encode list order?  (Used
        by the F2xx order stage; see module docstring for soundness.)"""
        return (col in self.provenance
                or any(c == col for c, _ in self.dense)
                or self.constants.get(col) == 1
                or self.card.at_most_one)

    def show(self) -> str:
        """Compact one-line rendering (EXPLAIN property annotations)."""
        parts = [f"card {self.card.show()}"]
        if self.keys:
            keys = sorted(self.keys, key=lambda k: (len(k), sorted(k)))
            parts.append("keys " + " ".join(
                "{" + ",".join(sorted(k)) + "}" for k in keys[:3]))
        if self.constants:
            parts.append("const " + ",".join(
                f"{c}={v!r}" for c, v in sorted(self.constants.items())))
        if self.dense:
            facts = sorted(self.dense,
                           key=lambda f: (f[0], len(f[1]), sorted(f[1])))
            parts.append("dense " + ",".join(
                f"{c}/{{{','.join(sorted(p))}}}" if p else f"{c}"
                for c, p in facts[:3]))
        if self.order:
            parts.append("order " + ",".join(sorted(
                f"{c}~{'.'.join(o for o, _ in by)}"
                for c, by, _ in self.order)[:3]))
        return "[" + "; ".join(parts) + "]"


# ----------------------------------------------------------------------
# inference entry point
# ----------------------------------------------------------------------

class PlanStore:
    """One compile's plans as a single interned DAG, and every fact
    derived from it.

    :meth:`intern` hash-conses on :func:`~repro.algebra.dag.node_key`:
    structurally equal subplans -- within a plan or across the queries
    of a bundle -- are one object, so common-subexpression elimination
    is construction and "this rewrite changed nothing" is ``is``.
    Schema, :class:`Props` and each rewrite family's result
    (:meth:`rewrite`) hang off a node by ``id()`` and are never
    invalidated -- a rewrite makes a *new* node -- so a node is analysed
    and rewritten once per compile, whoever asks.  That is sound only
    while no ``id()`` is recycled: the store keeps every node it was
    shown alive (``canonical`` the interned ones, ``pins`` the rest).
    """

    __slots__ = ("canonical", "twin", "pins", "props", "schemas",
                 "rewritten", "visits", "inferences")

    def __init__(self) -> None:
        #: structural key -> the interned node
        self.canonical: dict[tuple[Any, ...], Node] = {}
        #: ``id`` of every node :meth:`intern` saw -> its interned twin
        self.twin: dict[int, Node] = {}
        self.pins: list[Node] = []
        self.props: dict[int, Props] = {}
        self.schemas: dict[int, Schema] = {}
        #: rewrite family -> ``id(interned node)`` -> its rewrite
        self.rewritten: dict[str, dict[int, Node]] = {}
        #: work counters: rule applications per family, ``Props`` inferred
        self.visits: Counter[str] = Counter()
        self.inferences = 0

    def intern(self, root: Node) -> Node:
        """The interned node structurally equal to ``root``; what of
        ``root``'s plan the store has not seen is hash-consed in."""
        return self.twin.get(id(root)) or fill(root, self.twin, self._adopt)

    def _adopt(self, node: Node) -> Node:
        canon = self.add(replace_children(
            node, tuple(self.twin[id(c)] for c in node.children)))
        if canon is not node:
            self.pins.append(node)  # its id stays a key of ``twin``
        return canon

    def add(self, node: Node) -> Node:
        """:meth:`intern` for a node built over interned children."""
        canon = self.canonical.setdefault(node_key(node), node)
        self.twin[id(canon)] = canon
        return canon

    def rebuild(self, node: Node, children: tuple[Node, ...]) -> Node:
        """Interned ``node`` over interned ``children``."""
        built = replace_children(node, children)
        return node if built is node else self.add(built)

    def rewrite(self, family: str, root: Node,
                visit: Callable[[Node, tuple[Node, ...]], Node]) -> Node:
        """``root`` rewritten bottom-up by the rule family ``visit``
        (an interned node and its rewritten children -> its interned
        replacement), each node once for the life of the store.  A
        result is its own rewrite, and is marked so."""
        memo = self.rewritten.setdefault(family, {})

        def once(node: Node) -> Node:
            self.visits[family] += 1
            result = visit(node, tuple(memo[id(c)] for c in node.children))
            memo[id(result)] = result
            return result

        root = self.intern(root)
        return memo.get(id(root)) or fill(root, memo, once)

    def schema(self, node: Node) -> Schema:
        return schema_of(node, self.schemas)

    def infer(self, node: Node) -> Props:
        """The facts about ``node``: carried over from the node it
        rewrites (:meth:`carry`) or inferred, once."""
        return self.props.get(id(node)) or fill(node, self.props, self._infer)

    def _infer(self, node: Node) -> Props:
        self.inferences += 1
        self.pins.append(node)  # its id stays a key of ``props``
        return _infer_props(node, self.props, self.schemas)

    def carry(self, old: Node, new: Node) -> None:
        """``new`` holds the rows of ``old`` under the same names (or a
        subset of them): every fact about ``old`` that only names
        columns ``new`` still has is a fact about ``new``, without
        inferring it again."""
        facts = self.props.get(id(old))
        if facts is not None and id(new) not in self.props:
            self.props[id(new)] = facts.restricted(self.schema(new))


def infer_properties(node: Node, memo: "dict[int, Props] | None" = None,
                     schemas: "dict[int, Schema] | None" = None) -> Props:
    """Infer :class:`Props` for ``node``, memoized over the shared DAG
    (iteratively -- plans can be thousands of operators deep).  Pass the
    same ``memo``/``schemas`` across calls to analyze shared subplans
    once; the caller keeps the nodes alive meanwhile."""
    props: dict[int, Props] = {} if memo is None else memo
    known: dict[int, Schema] = {} if schemas is None else schemas
    return props.get(id(node)) or fill(
        node, props, lambda current: _infer_props(current, props, known))


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

def _minimize(keys: "set[Key]") -> frozenset[Key]:
    """Keep only minimal keys (drop supersets), capped at MAX_KEYS."""
    if len(keys) < 2:
        return frozenset(keys)
    ordered = sorted(keys, key=lambda k: (len(k), sorted(k)))
    out: list[Key] = []
    for k in ordered:
        if not any(m <= k for m in out):
            out.append(k)
        if len(out) >= MAX_KEYS:
            break
    return frozenset(out)


def _finish(schema: Schema, keys: "set[Key]", constants: dict,
            card: Card, non_null: "frozenset[str]",
            dense: "frozenset[DenseFact]",
            provenance: "frozenset[str]",
            order: "frozenset[OrderFact]" = frozenset()) -> Props:
    """Normalize the mutual implications between properties."""
    cols = set(schema)
    consts = {c for c in constants if c in cols}
    # Constant columns neither split partition groups nor distinguish
    # rows: strip them, leaving the strongest (smallest) facts.
    if consts:
        keys = {k - consts for k in keys}
        stripped = set()
        for c, p in dense:
            if c in consts:
                # A constant yet dense column means every group holds
                # exactly one row (the run 1..n collapses to "1"): the
                # partition itself is a key.
                keys.add(frozenset(p - consts))
            else:
                stripped.add((c, frozenset(p - consts)))
        dense = frozenset(stripped)
    if consts and order:  # constant columns order and partition nothing
        order = frozenset(
            (c, tuple(o for o in by if o[0] not in consts), within - consts)
            for c, by, within in order)
    for c, by, within in order:
        run = within.union(o for o, _ in by)
        if any(k <= run | {c} for k in keys):
            # No two rows tie, and the rank follows from the order
            # columns: they are a key, and the rank is the row number.
            keys.add(run)
            dense |= {(c, within)}
            provenance |= {c}
    # Density implies uniqueness: within a part group col is 1..n, so
    # part + col projects without duplicates.
    for col, part in dense:
        keys.add(frozenset(part | {col}))
    # At most one row <=> the empty key.
    if card.hi is not None and card.hi <= 1:
        keys.add(frozenset())
    minimal = _minimize(keys)
    # Dense within groups of one row: the run 1..n is the constant 1.
    ones = {c: 1 for c, p in dense
            if c in cols and c not in constants and p <= cols
            and any(k <= p for k in minimal)}
    if ones:
        return _finish(schema, set(minimal), {**constants, **ones}, card,
                       non_null, dense, provenance, order)
    if frozenset() in minimal and (card.hi is None or card.hi > 1):
        card = Card(card.lo, 1)
    constants = {c: v for c, v in constants.items() if c in cols}
    return Props(schema, minimal, constants, card,
                 non_null & cols,
                 frozenset((c, p) for c, p in dense
                           if c in cols and p <= cols),
                 provenance & cols, order)


def _scan_literal(node: LitTable, schema: Schema
                  ) -> ("tuple[set[Key], dict[str, Any], "
                        "frozenset[str], frozenset[DenseFact]]"):
    """Exact keys / constants / density for literal tables (loop
    relations, literal lists) by looking at the rows."""
    cols = list(schema)
    nrows = len(node.rows)
    keys: set[Key] = set()
    constants: dict[str, Any] = {}
    non_null: set[str] = set(cols)
    dense: set[DenseFact] = set()
    if nrows == 0:
        return keys, constants, frozenset(non_null), frozenset(dense)
    columns = {c: [row[i] for row in node.rows]
               for i, c in enumerate(cols)}
    for c in cols:
        vals = columns[c]
        if any(v is None for v in vals):
            non_null.discard(c)
        elif all(v == vals[0] for v in vals):
            constants[c] = vals[0]
    for c in cols:
        try:
            if len(set(columns[c])) == nrows:
                keys.add(frozenset({c}))
        except TypeError:  # pragma: no cover - unhashable literal
            pass
    if not keys and len(set(node.rows)) == nrows:
        keys.add(frozenset(cols))

    def is_dense_seq(vals) -> bool:
        return sorted(vals) == list(range(1, len(vals) + 1))

    pair_budget = LIT_PAIR_BUDGET // max(nrows, 1)
    for c in cols:
        if schema[c] != IntT or c not in non_null:
            continue
        if is_dense_seq(columns[c]):
            dense.add((c, frozenset()))
        for p in cols:
            if p == c:
                continue
            if pair_budget <= 0:
                break  # constant-partition transfer still applies
            pair_budget -= 1
            groups: dict[Any, list] = {}
            for pv, cv in zip(columns[p], columns[c]):
                groups.setdefault(pv, []).append(cv)
            if all(is_dense_seq(g) for g in groups.values()):
                dense.add((c, frozenset({p})))
    return keys, constants, frozenset(non_null), frozenset(dense)


def _renamed(cols: "frozenset[str]", renames: "dict[str, list[str]]"
             ) -> "list[frozenset[str]]":
    """``cols`` across a Project: every column must be kept; a
    duplicated column yields one set per choice of new name (capped)."""
    if not cols <= renames.keys():
        return []
    choices = [renames[c] for c in cols]
    n_combos = 1
    for ch in choices:
        n_combos *= len(ch)
    if n_combos > 8:
        choices = [ch[:1] for ch in choices]
    return [frozenset(combo) for combo in product(*choices)]


def _rename_keys(keys: "frozenset[Key]", renames: "dict[str, list[str]]"
                 ) -> set[Key]:
    """Survive keys across a Project (see :func:`_renamed`)."""
    return {new for k in keys for new in _renamed(k, renames)}


def _operand_const(operand: "str | Const",
                   constants: "dict[str, Any]") -> Any:
    """The operand's constant value, or a ``_UNKNOWN`` marker."""
    if isinstance(operand, Const):
        return operand.value
    if operand in constants:
        return constants[operand]
    return _UNKNOWN


_UNKNOWN = object()

#: Comparison ops folded when both operands are the *same column*.
_SAME_COL_CMP = {"eq": True, "le": True, "ge": True,
                 "lt": False, "gt": False, "ne": False}


# ----------------------------------------------------------------------
# per-operator rules
# ----------------------------------------------------------------------

def row_bounds(node: Node, kids: "list[Props]", cards: "list[Card]",
               table_rows: "Mapping[str, int] | None" = None) -> Card:
    """Sound bounds on the rows of ``node`` from bounds ``cards`` on the
    rows of its children and the facts ``kids`` inferred about them.

    The one cardinality rule per operator: inference calls it with the
    children's ``Props.card``, the row-bounds fold of
    :mod:`repro.analysis.cost` with bounds that also know the exact
    size of every table (``table_rows``)."""
    if isinstance(node, LitTable):
        return Card(len(node.rows), len(node.rows))
    if isinstance(node, TableScan):
        n = None if table_rows is None else table_rows.get(node.table)
        return Card() if n is None else Card(n, n)
    if isinstance(node, Select):
        return (cards[0] if kids[0].constants.get(node.col) is True
                else cards[0].filtered())
    if isinstance(node, Distinct):
        return Card(min(cards[0].lo, 1), cards[0].hi)
    if isinstance(node, (SemiJoin, AntiJoin)):
        return cards[0].filtered()
    if isinstance(node, Cross):
        return cards[0].times(cards[1])
    if isinstance(node, EqJoin):
        # A side whose join columns are a key matches each row of the
        # other side at most once.
        if kids[1].has_key({r for _, r in node.pairs}):
            return cards[0].filtered()
        if kids[0].has_key({l for l, _ in node.pairs}):
            return cards[1].filtered()
        return cards[0].times(cards[1]).filtered()
    if isinstance(node, UnionAll):
        return cards[0].plus(cards[1])
    if isinstance(node, GroupAggr):
        # Groups with no rows do not appear; no grouping is one group.
        return Card(min(cards[0].lo, 1), cards[0].hi if node.group else 1)
    return cards[0]  # one output row per input row


def _infer_props(node: Node, memo: "dict[int, Props]",
                 schemas: "dict[int, Schema]") -> Props:
    schema = schema_of(node, schemas)
    kids = [memo[id(c)] for c in node.children]
    card = row_bounds(node, kids, [p.card for p in kids])

    if isinstance(node, LitTable):
        keys, constants, non_null, dense = _scan_literal(node, schema)
        prov = frozenset(c for c, _ in dense) if node.rows else frozenset(
            c for c in schema if schema[c] == IntT)
        return _finish(schema, keys, constants, card, non_null, dense, prov)

    if isinstance(node, TableScan):
        # Catalog rows are validated against the declared atom types on
        # insert, so scans never produce None.  The position numbers the
        # rows 1..n -- as a row number, not as the rank of the columns: a
        # table may hold a row twice, so no order fact (it would make
        # the columns a key).
        pos = frozenset(node.pos[:1] if node.pos else ())
        return _finish(schema, set(), {}, card, frozenset(schema),
                       frozenset((c, frozenset()) for c in pos), pos)

    if isinstance(node, Attach):
        p = memo[id(node.child)]
        constants = dict(p.constants)
        constants[node.col] = node.value
        non_null = p.non_null | ({node.col} if node.value is not None
                                 else frozenset())
        prov = p.provenance | ({node.col} if node.value == 1
                               else frozenset())
        return _finish(schema, set(p.keys), constants, card, non_null,
                       p.dense, prov, p.order)

    if isinstance(node, Project):
        p = memo[id(node.child)]
        renames: dict[str, list[str]] = {}
        for new, old in node.cols:
            renames.setdefault(old, []).append(new)
        keys = _rename_keys(p.keys, renames)
        constants = {new: p.constants[old] for new, old in node.cols
                     if old in p.constants}
        non_null = frozenset(new for new, old in node.cols
                             if old in p.non_null)
        dense = {(nc, part) for col, old_part in p.dense
                 for part in _renamed(old_part, renames)
                 for nc in renames.get(col, ())}
        prov = frozenset(new for new, old in node.cols
                         if old in p.provenance)
        order = frozenset(
            (renames[c][0], tuple((renames[o][0], d) for o, d in by),
             frozenset(renames[w][0] for w in within))
            for c, by, within in p.order
            if renames.keys() >= within.union({c}, (o for o, _ in by)))
        return _finish(schema, keys, constants, card, non_null,
                       frozenset(dense), prov, order)

    if isinstance(node, Select):
        p = memo[id(node.child)]
        constants = dict(p.constants)
        # Downstream of the filter the selection column is always true.
        constants[node.col] = True
        # Filtering breaks density but not lineage.
        return _finish(schema, set(p.keys), constants, card, p.non_null,
                       frozenset(), p.provenance)

    if isinstance(node, Distinct):
        p = memo[id(node.child)]
        keys = set(p.keys)
        keys.add(frozenset(schema))
        # The distinct rows hold the same order values: a rank stands.
        return _finish(schema, keys, dict(p.constants), card, p.non_null,
                       frozenset(), p.provenance, p.order)

    if isinstance(node, RowNum):
        p = memo[id(node.child)]
        keys = set(p.keys)
        keys.add(frozenset(node.part) | {node.col})
        constants = dict(p.constants)
        if p.card.at_most_one:
            constants[node.col] = 1
        dense = set(p.dense)
        dense.add((node.col, frozenset(node.part)))
        prov = p.provenance | {node.col}
        order = p.order
        if p.has_key({c for c, _ in node.order}.union(node.part)):
            # no ties: the row number is the dense rank
            order |= {(node.col, node.order, frozenset(node.part))}
        return _finish(schema, keys, constants, card,
                       p.non_null | {node.col}, frozenset(dense), prov, order)

    if isinstance(node, RowRank):
        p = memo[id(node.child)]
        constants = dict(p.constants)
        if p.card.at_most_one:
            constants[node.col] = 1
        # DENSE_RANK is dense 1..k globally, but k < nrows when order
        # keys tie, so (col, ()) is *not* a density fact w.r.t. rows;
        # it is also no key.  Lineage only.
        return _finish(schema, set(p.keys), constants, card,
                       p.non_null | {node.col}, p.dense, p.provenance,
                       p.order | {(node.col, node.order, frozenset())})

    if isinstance(node, Cross):
        lp = memo[id(node.left)]
        rp = memo[id(node.right)]
        keys = {lk | rk for lk in lp.keys for rk in rp.keys}
        constants = dict(lp.constants)
        constants.update(rp.constants)
        dense: set[DenseFact] = set()
        # A dense run replicated per row of the other side stays dense
        # once the partition also pins that row (via one of its keys).
        for col, part in lp.dense:
            for rk in rp.keys:
                dense.add((col, part | rk))
        for col, part in rp.dense:
            for lk in lp.keys:
                dense.add((col, part | lk))
        return _finish(schema, keys, constants, card,
                       lp.non_null | rp.non_null, frozenset(dense),
                       lp.provenance | rp.provenance)

    if isinstance(node, EqJoin):
        lp = memo[id(node.left)]
        rp = memo[id(node.right)]
        lcols = frozenset(l for l, _ in node.pairs)
        rcols = frozenset(r for _, r in node.pairs)
        right_unique = rp.has_key(rcols)
        left_unique = lp.has_key(lcols)
        keys = {lk | rk for lk in lp.keys for rk in rp.keys}
        if right_unique:
            keys |= set(lp.keys)
        if left_unique:
            keys |= set(rp.keys)
        constants = dict(lp.constants)
        constants.update(rp.constants)
        # Equality propagates constants across the join pairs.
        for lc, rc in node.pairs:
            if lc in constants and rc not in constants:
                constants[rc] = constants[lc]
            elif rc in constants and lc not in constants:
                constants[lc] = constants[rc]
        dense: set[DenseFact] = set()
        # A right-side run dense per exactly the join columns survives:
        # each left row pulls in one complete partition group.
        for col, part in rp.dense:
            if part == rcols:
                for lk in lp.keys:
                    dense.add((col, part | lk))
        for col, part in lp.dense:
            if part == lcols:
                for rk in rp.keys:
                    dense.add((col, part | rk))
        return _finish(schema, keys, constants, card,
                       lp.non_null | rp.non_null, frozenset(dense),
                       lp.provenance | rp.provenance)

    if isinstance(node, (SemiJoin, AntiJoin)):
        lp = memo[id(node.left)]
        return _finish(schema, set(lp.keys), dict(lp.constants), card,
                       lp.non_null, frozenset(), lp.provenance)

    if isinstance(node, UnionAll):
        lp = memo[id(node.left)]
        rp = memo[id(node.right)]
        constants = {}
        for c in schema:
            lv = lp.constants.get(c, _UNKNOWN)
            rv = rp.constants.get(c, _UNKNOWN)
            if lp.card.empty:
                lv = rv
            if rp.card.empty:
                rv = lv
            if lv is not _UNKNOWN and lv == rv:
                constants[c] = lv
        # Concatenating two provenant runs is the compiler's append /
        # take-while encoding; order pedigree survives (lint-grade).
        return _finish(schema, set(), constants, card,
                       lp.non_null & rp.non_null, frozenset(),
                       lp.provenance & rp.provenance)

    if isinstance(node, GroupAggr):
        p = memo[id(node.child)]
        group = frozenset(node.group)
        keys = {group}
        keys |= {k for k in p.keys if k <= group}
        # Groups share no row: where a column tells the rows of (part of)
        # a group key apart, its least or greatest value tells the groups.
        keys |= {k ^ {col, out} for func, col, out in node.aggs
                 if func in ("min", "max")
                 for k in p.keys if col in k and k - {col} <= group}
        constants = {c: v for c, v in p.constants.items() if c in group}
        # Groups with no rows do not appear, so aggregates never see an
        # empty input: sum/min/max/... of a non-empty group is non-None.
        non_null = frozenset(c for c in group if c in p.non_null)
        non_null |= {out for _, _, out in node.aggs}
        # The least or greatest position of a group orders the groups.
        prov = (group & p.provenance).union(
            out for func, col, out in node.aggs
            if func in ("min", "max") and col in p.provenance)
        return _finish(schema, keys, constants, card, non_null,
                       frozenset(), prov)

    if isinstance(node, BinApp):
        p = memo[id(node.child)]
        constants = dict(p.constants)
        lv = _operand_const(node.lhs, p.constants)
        rv = _operand_const(node.rhs, p.constants)
        if lv is not _UNKNOWN and rv is not _UNKNOWN:
            try:
                constants[node.out] = _binop(node.op, lv, rv)
            except (PartialFunctionError, ArithmeticError, TypeError,
                    ValueError):
                pass
        elif (node.op in _SAME_COL_CMP and isinstance(node.lhs, str)
              and node.lhs == node.rhs):
            constants[node.out] = _SAME_COL_CMP[node.op]
        ins_non_null = all(
            isinstance(o, Const) and o.value is not None
            or isinstance(o, str) and o in p.non_null
            for o in (node.lhs, node.rhs))
        non_null = p.non_null | ({node.out} if ins_non_null
                                 else frozenset())
        return _finish(schema, set(p.keys), constants, card, non_null,
                       p.dense, p.provenance, p.order)

    if isinstance(node, UnApp):
        p = memo[id(node.child)]
        constants = dict(p.constants)
        if node.col in p.constants:
            try:
                constants[node.out] = _unop(node.op, p.constants[node.col])
            except (PartialFunctionError, ArithmeticError, TypeError,
                    ValueError, AttributeError):
                pass
        non_null = p.non_null | ({node.out} if node.col in p.non_null
                                 else frozenset())
        return _finish(schema, set(p.keys), constants, card, non_null,
                       p.dense, p.provenance, p.order)

    # Unknown operator: schema_of above would have raised; this is for
    # completeness only.
    return Props(schema)  # pragma: no cover


# ----------------------------------------------------------------------
# EXPLAIN annotations
# ----------------------------------------------------------------------

def annotate_plan(root: Node, memo: "dict[int, Props] | None" = None,
                  schemas: "dict[int, Schema] | None" = None
                  ) -> dict[int, str]:
    """Per-node property annotations keyed by the pretty-printer's
    postorder ``@n`` refs (feed into ``plan_text(root, annotations)``)."""
    from ..algebra.dag import postorder
    if memo is None:
        memo = {}
    infer_properties(root, memo, schemas)
    return {i: memo[id(node)].show()
            for i, node in enumerate(postorder(root))}
