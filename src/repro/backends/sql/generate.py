"""SQL:1999 code generation from table-algebra plans.

The Pathfinder role (step 3 of Figure 2): lower a bundle of optimized
algebra DAGs into SQL:1999 built from common table expressions, with
``ROW_NUMBER()``/``DENSE_RANK()`` window functions carrying the order and
surrogate encodings -- the same shapes as the appendix of the paper
("binding due to rank operator", "binding due to duplicate elimination").
Base tables are not numbered that way: a scan that needs the rows'
positions selects the position column ``load_catalog`` stored with them
(``TableScan.pos``), and a bundle member's final ``ORDER BY iter, pos``
only needs ``pos`` to sort as the list does, not to count from 1.

The generator works on the whole bundle (:func:`generate_bundle`).  A
plan node with a single consumer becomes one ``WITH`` binding (``t0000``,
``t0001``, ... numbered over the bundle).  A non-leaf node with several
consumers -- counted over *all* of the bundle's plans, each query root
being one -- becomes a :class:`Step`: a temporary table (``ferry_m0000``,
...) filled once per bundle by ``INSERT ... WITH <its private bindings>
SELECT``.  Each bundle member stays one row-returning ``WITH ... SELECT
... ORDER BY iter, pos`` over base tables and temporary tables, and lists
the steps it depends on in build order.

A step's table declares one ``Int`` column that alone is a key of its
node (``Bundle.keys``, read off the optimizer's facts) as its primary
key -- on SQLite the alias of the rowid, so the joins, groups and
duplicate eliminations on a surrogate read the table's own B-tree
instead of building an index every run (an anti-join on it probes the
table as it stands, without a ``DISTINCT`` copy).  Ferry values are never NULL,
so the alias never makes one up, and a key that did not hold would fail
the ``INSERT`` rather than the answer.  A step numbering its rows
without a partition, by a number that is its key, leaves the numbering
to that rowid instead of a ``ROW_NUMBER()`` window.  A bundle that never
went through ``optimize_bundle`` gets steps without a key.  A numbering
lists only the columns its readers read, and a rank that only a row
numbering reads is computed in that numbering's ``SELECT``: SQLite runs
windows as co-routines that copy every column listed.  Each statement
also lists the catalog columns its joins probe
(``GeneratedSQL.probes``), which the host indexes.  A literal table is one
multi-row ``VALUES`` (a compound ``SELECT`` has at most 500 terms on
SQLite).

Base tables and temporary tables are referenced schema-qualified through
the dialect, so no catalog table name can collide with a binding or a
temporary table.  Engine quirks -- identifier quoting, type names,
literal syntax, window-function and DDL spellings -- are delegated to a
:class:`~repro.backends.sql.dbapi.SQLiteDialect`; division
and modulus are emitted as the UDF names the adapter registers so that
Haskell's flooring ``div``/``mod`` semantics survive the translation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Collection, Mapping, Sequence

from ...algebra import (
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
    describe,
    postorder,
    schema_of,
)
from ...core.bundle import SerializedQuery
from ...errors import ExecutionError
from ...ftypes import DoubleT
from .dbapi import SQLITE_DIALECT, SQLiteDialect


@dataclass(frozen=True)
class Step:
    """One shared plan node, built once per bundle as a temporary table."""

    #: Unqualified table name in the reserved ``ferry_`` namespace; the
    #: executor keys "already built in this bundle" on it.
    name: str
    #: Postorder ``@n`` of the node in the plan of the statement listing
    #: this step (the pretty-printer's reference).
    ref: int
    #: One-line operator description (``repro.algebra.describe``).
    op: str
    #: Number of columns of the table.
    width: int
    create: str
    insert: str


@dataclass
class GeneratedSQL:
    """One SQL statement of the bundle."""

    #: The row-returning SELECT.
    text: str
    columns: tuple[str, ...]  # iter, pos, item... in output order
    #: The temporary tables ``text`` reads, transitively, in build order.
    steps: tuple[Step, ...] = ()
    #: Fetched row -> result row, or ``None`` when the driver's values
    #: are the atoms already (no ``Bool``/``Double``/``Date``/``Time`` item).
    convert: "Callable[[tuple], tuple] | None" = None
    #: The catalog ``(table, column)`` pairs that ``steps`` and ``text``
    #: probe in a join, which the host indexes before running them.
    probes: tuple[tuple[str, str], ...] = ()

    def script(self, built: Collection[str] = ()) -> str:
        """What running this statement sends, as text: the steps whose
        tables are not among ``built``, then the SELECT."""
        parts = [f"-- @{step.ref} {step.op}\n{step.create};\n{step.insert};"
                 for step in self.steps if step.name not in built]
        return "\n".join(parts + [self.text])


def generate_bundle(queries: Sequence[SerializedQuery],
                    dialect: SQLiteDialect = SQLITE_DIALECT,
                    keys: "Mapping[Node, str] | None" = None
                    ) -> list[GeneratedSQL]:
    """Generate the SQL of a whole bundle: per query one SELECT projecting
    ``iter, pos, items`` ordered by ``(iter, pos)``, plus the
    temporary-table steps it reads; ``keys`` (``Bundle.keys``) names the
    ``Int`` key column a step's table declares its primary key."""
    keys = keys or {}
    d = dialect
    plans = [list(postorder(query.plan)) for query in queries]

    # Consumers per node over the whole bundle, then relation names.
    consumers = Counter(query.plan for query in queries)
    numbered: list[Node] = []
    seen: set[Node] = set()
    for plan in plans:
        for node in plan:
            if node not in seen:
                seen.add(node)
                numbered.append(node)
                consumers.update(node.children)
    names: dict[Node, str] = {}
    tables: dict[Node, str] = {}  # shared node -> unqualified table name
    for i, node in enumerate(numbered):
        if node.children and (consumers[node] > 1 or _divides(node)):
            tables[node] = f"ferry_m{len(tables):04d}"
            names[node] = d.temp_table_ref(tables[node])
        else:
            names[node] = f"t{i:04d}"

    # A step numbering its rows without a partition, whose number is its
    # key, leaves the number to the table: the key is the rowid's alias,
    # and SQLite gives the rows of an ``INSERT ... SELECT ... ORDER BY``
    # into a fresh table the rowids 1, 2, ... in that order.
    by_rowid = {node for node in tables if isinstance(node, RowNum)
                and not node.part and keys.get(node) == node.col}

    # A numbering that only projections read lists only the columns they
    # keep (and its own, and its table's key): SQLite runs a window as a
    # co-routine, which copies every column its SELECT lists, and a step
    # stores them all.
    memo: dict = {}
    listed = {node: _cols(node, memo) for node in numbered}
    readers: dict[Node, list[Node]] = {}
    for node in numbered:
        for child in node.children:
            readers.setdefault(child, []).append(node)
    for node, by in readers.items():
        projections = [p for p in by if isinstance(p, Project)]
        if isinstance(node, (RowNum, RowRank)) and consumers[node] == len(
                projections):
            read = {node.col, keys.get(node)}
            read.update(old for p in projections for _, old in p.cols)
            kept = [c for c in listed[node] if c in read]
            if len(kept) > 1 or node not in by_rowid:  # (one to insert)
                listed[node] = kept

    # A rank that only a row numbering reads is computed in the same
    # SELECT: a partition or an order by the rank is one by the columns it
    # ranks, and SQLite sorts for both windows in one co-routine.
    folded: dict[Node, RowRank] = {}
    for node, by in readers.items():
        if isinstance(node, RowRank) and node not in tables and consumers[
                node] == 1 and isinstance(by[0], RowNum):
            folded[by[0]] = node

    # Every node is rendered once: as the body of its table's INSERT, or
    # as a binding of the one block it is in (leaves: of each such block).
    bodies = {node: _render(node, names, memo, d, keys, node in by_rowid,
                            listed[node], folded.get(node))
              for node in numbered}
    probes = {node: _probes(node, tables, memo) for node in numbered
              if isinstance(node, (EqJoin, SemiJoin, AntiJoin))}
    ctes = {node: f"{names[node]}"
                      f"({_select_list(listed[node], d)})"
                      f" AS (\n{bodies[node]}\n)"
            for node in numbered
            if node not in tables and node not in folded.values()}

    def bindings(block: list[Node]) -> str:
        """The ``WITH`` clause binding every node of ``block``."""
        block = [n for n in block if n in ctes]
        if not block:
            return ""
        return "WITH\n" + ",\n".join(ctes[n] for n in block) + "\n"

    first: dict[Node, Step] = {}  # shared node -> its step where first met
    generated = []
    for query, plan in zip(queries, plans):
        steps = []
        for ref, node in enumerate(plan):
            name = tables.get(node)
            if name is None:
                continue
            step = first.get(node)
            if step is None:
                schema = schema_of(node, memo)
                cols = listed[node]
                into = names[node]
                if node in by_rowid:
                    numbered_cols = [c for c in cols if c != node.col]
                    into += f"({_select_list(numbered_cols, d)})"
                step = first[node] = Step(
                    name, ref, describe(node), len(cols),
                    d.create_temp_table(name, [(c, schema[c]) for c in cols],
                                        keys.get(node)),
                    f"INSERT INTO {into}\n"
                    f"{bindings(_block(node, tables)[:-1])}"
                    f"{bodies[node]}")
            steps.append(step if step.ref == ref else replace(step, ref=ref))
        root = query.plan
        out_cols = (query.iter_col, query.pos_col) + query.item_cols
        order = ", ".join(f"{d.quote_ident(c)} ASC" for c in out_cols[:2])
        # A root that is not a table is bound like any other node and
        # then projected: its body may be a compound SELECT, which cannot
        # take the ORDER BY itself.
        block = [] if root in tables else _block(root, tables)
        text = (f"{bindings(block)}SELECT {_select_list(out_cols, d)}\n"
                f"FROM {names[root]}\nORDER BY {order};")
        probed = dict.fromkeys(pair for node in plan
                               for pair in probes.get(node, ()))
        generated.append(GeneratedSQL(text, out_cols, tuple(steps),
                                      _row_converter(query, d),
                                      tuple(probed)))
    return generated


def _row_converter(query: SerializedQuery, d: SQLiteDialect
                   ) -> "Callable[[tuple], tuple] | None":
    """The conversion of one fetched row of ``query``, built once per
    statement: only the item columns whose type the driver does not
    hand back as the atom are touched.  SQLite stores a NaN as NULL and
    Ferry has no NULL, so a NULL ``Double`` can only be a NaN."""
    todo = [(i, conv) for i, ty in enumerate(query.item_types, start=2)
            if (conv := d.from_db_value(ty)) is not None]
    if not todo:
        return None

    def convert(raw: tuple) -> tuple:
        row = list(raw)
        for i, conv in todo:
            try:
                row[i] = conv(row[i])
            except TypeError:
                if row[i] is not None or query.item_types[i - 2] != DoubleT:
                    raise
                row[i] = math.nan
        return tuple(row)
    return convert


def _divides(node: Node) -> bool:
    """A division is a step of its own: inside one statement, SQLite may
    test it on rows that a later join drops, and a division by zero must
    raise only on the rows that reach it."""
    return isinstance(node, BinApp) and node.op in ("div", "idiv", "mod")


def _probes(join: Node, tables: "dict[Node, str]", memo
            ) -> list[tuple[str, str]]:
    """The catalog columns ``join`` compares, on either side."""
    found = []
    for lc, rc in join.pairs:
        for side, col in ((join.children[0], lc), (join.children[1], rc)):
            pair = _base_column(side, col, tables, memo)
            if pair is not None:
                found.append(pair)
    return found


def _base_column(node: Node, col: str, tables: "dict[Node, str]", memo
                 ) -> "tuple[str, str] | None":
    """The ``(table, column)`` that ``col`` of ``node`` reads, followed
    through renames and through the joins of ``node``'s block -- SQLite
    flattens those into one loop nest, so it probes the catalog table
    itself -- or ``None`` where the column is made, numbered, grouped or
    read from a temporary table, or is a table's position column (its
    rowid already)."""
    while node not in tables:
        if isinstance(node, TableScan):
            if node.pos is not None and col == node.pos[0]:
                return None
            return next((node.table, src)
                        for out, src, _ in node.columns if out == col)
        if isinstance(node, Project):
            col = dict(node.cols)[col]
        elif isinstance(node, Attach):
            if col == node.col:
                return None
        elif isinstance(node, (EqJoin, Cross)):
            if col not in schema_of(node.children[0], memo):
                node = node.children[1]
                continue
        elif not isinstance(node, (SemiJoin, AntiJoin)):
            return None
        node = node.children[0]
    return None


def _block(root: Node, tables: "dict[Node, str]") -> list[Node]:
    """``root``'s block in postorder (``root`` last): the nodes reachable
    from it without passing through a temporary table."""
    block: list[Node] = []
    seen: set[Node] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if node in seen:
            continue
        if expanded:
            seen.add(node)
            block.append(node)
        else:
            stack.append((node, True))
            for child in node.children:
                if child not in seen and child not in tables:
                    stack.append((child, False))
    return block


# ----------------------------------------------------------------------
# per-operator rendering
# ----------------------------------------------------------------------

def _cols(node: Node, memo) -> list[str]:
    return list(schema_of(node, memo))


def _select_list(cols: list[str], d: SQLiteDialect) -> str:
    return ", ".join(d.quote_ident(c) for c in cols)


def _render(node: Node, names: dict[Node, str], memo, d: SQLiteDialect,
            keys: "Mapping[Node, str]", by_rowid: bool,
            listed: list[str], rank: "RowRank | None") -> str:
    q = d.quote_ident

    if isinstance(node, LitTable):
        if not node.rows:
            nulls = ", ".join(
                f"CAST(NULL AS {d.type_name(ty)}) AS {q(n)}"
                for n, ty in node.schema)
            return f"  SELECT {nulls} WHERE 0"
        # One multi-row VALUES: a compound SELECT may hold at most 500
        # terms on SQLite; the binding's column list names the columns.
        return "  VALUES " + ",\n         ".join(
            "(" + ", ".join(d.literal(v, ty)
                            for v, (_, ty) in zip(row, node.schema)) + ")"
            for row in node.rows)

    if isinstance(node, TableScan):
        cols = ", ".join(f"{q(src)} AS {q(out)}"
                         for out, src, _ in node.outputs)
        return f"  SELECT {cols}\n  FROM {d.table_ref(node.table)}"

    child = names[node.children[0]] if node.children else None

    if isinstance(node, Attach):
        base = _select_list(_cols(node.children[0], memo), d)
        lit = d.literal(node.value, node.ty)
        return (f"  SELECT {base}, {lit} AS {q(node.col)}"
                f"\n  FROM {child}")

    if isinstance(node, Project):
        cols = ", ".join(f"{q(old)} AS {q(new)}"
                         for new, old in node.cols)
        return f"  SELECT {cols}\n  FROM {child}"

    if isinstance(node, Select):
        base = _select_list(_cols(node, memo), d)
        return (f"  SELECT {base}\n  FROM {child}"
                f"\n  WHERE {q(node.col)}")

    if isinstance(node, Distinct):
        base = _select_list(_cols(node, memo), d)
        # "binding due to duplicate elimination" (appendix)
        return f"  SELECT DISTINCT {base}\n  FROM {child}"

    if isinstance(node, (RowNum, RowRank)):
        spec, part = node.order, getattr(node, "part", ())
        # the windows come last: each numbering appends its column
        windows: list[str] = []
        if rank is not None:
            # the rank folded in is our input: select from its input, and
            # order and partition by what it ranks where we read it
            child = names[rank.child]
            spec, part = _unrank(spec, rank), tuple(
                o for c in part for o in ([o for o, _ in rank.order]
                                          if c == rank.col else [c]))
            if rank.col in listed:
                # "binding due to rank operator" (appendix)
                windows.append(f"{d.dense_rank(_order_sql(rank.order, d))}"
                               f" AS {q(rank.col)}")
        base = _select_list([c for c in listed if c not in (
            node.col, getattr(rank, "col", None))], d)
        order = _order_sql(spec, d)
        items = [base] * bool(base) + windows
        if by_rowid:
            # the table's rowid numbers the rows as they are inserted
            return (f"  SELECT {', '.join(items)}\n"
                    f"  FROM {child}\n  ORDER BY {order}")
        items.append(f"{d.row_number(part, order)} AS {q(node.col)}"
                     if isinstance(node, RowNum) else
                     f"{d.dense_rank(order)} AS {q(node.col)}")
        return ("  SELECT " + ",\n         ".join(items)
                + f"\n  FROM {child}")

    if isinstance(node, Cross):
        left, right = (names[c] for c in node.children)
        base = _select_list(_cols(node, memo), d)
        return f"  SELECT {base}\n  FROM {left}, {right}"

    if isinstance(node, EqJoin):
        left, right = (names[c] for c in node.children)
        base = _select_list(_cols(node, memo), d)
        on = " AND ".join(f"l.{q(lc)} = r.{q(rc)}" for lc, rc in node.pairs)
        return (f"  SELECT {base}\n  FROM {left} AS l\n  JOIN {right} AS r"
                f"\n    ON {on}")

    if isinstance(node, SemiJoin):
        # Uncorrelated IN: the host evaluates the subquery once (SQLite
        # into an ephemeral index) instead of once per outer row.  A NULL
        # key makes IN unknown, which WHERE drops -- as EXISTS would.
        left, right = (names[c] for c in node.children)
        base = _select_list(_cols(node, memo), d)
        lkeys = ", ".join(q(lc) for lc, _ in node.pairs)
        rkeys = ", ".join(q(rc) for _, rc in node.pairs)
        if len(node.pairs) > 1:
            lkeys = f"({lkeys})"
        return (f"  SELECT {base}\n  FROM {left}"
                f"\n  WHERE {lkeys} IN (SELECT {rkeys} FROM {right})")

    if isinstance(node, AntiJoin):
        # NOT IN would lose rows as soon as a key on either side is
        # NULL; an outer join against the distinct keys keeps the NOT
        # EXISTS result (a NULL key matches nothing, so its row stays)
        # and still probes the right side through one index.
        # Where one right column is a key already, the right side is
        # joined as it stands: a keyed step probes its own B-tree.
        left, right = (names[c] for c in node.children)
        base = ", ".join(f"l.{q(c)}" for c in _cols(node, memo))
        rkeys = ", ".join(q(rc) for _, rc in node.pairs)
        on = " AND ".join(f"r.{q(rc)} = l.{q(lc)}" for lc, rc in node.pairs)
        if keys.get(node.right) not in {rc for _, rc in node.pairs}:
            right = f"(SELECT DISTINCT {rkeys} FROM {right})"
        return (f"  SELECT {base}\n  FROM {left} AS l\n  LEFT JOIN "
                f"{right} AS r\n    ON {on}"
                f"\n  WHERE r.{q(node.pairs[0][1])} IS NULL")

    if isinstance(node, UnionAll):
        left, right = (names[c] for c in node.children)
        cols = _cols(node, memo)
        base = _select_list(cols, d)
        return (f"  SELECT {base}\n  FROM {left}"
                f"\n  UNION ALL\n  SELECT {base}\n  FROM {right}")

    if isinstance(node, GroupAggr):
        parts = [q(c) for c in node.group]
        in_schema = schema_of(node.child, memo)
        for func, in_col, out_col in node.aggs:
            agg = _aggregate_sql(func, in_col, d)
            if in_col and in_schema[in_col] == DoubleT and func in (
                    "sum", "avg", "min", "max"):
                # SQLite stores a NaN as NULL and these skip NULLs; a
                # NaN propagates instead (NULL reads back as NaN).
                agg = (f"CASE WHEN COUNT({q(in_col)}) = COUNT(*) "
                       f"THEN {agg} END")
            parts.append(f"{agg} AS {q(out_col)}")
        sql = f"  SELECT {', '.join(parts)}\n  FROM {child}"
        if node.group:
            sql += ("\n  GROUP BY "
                    + ", ".join(q(c) for c in node.group))
        else:
            # SQL answers an aggregate without groups over no rows with
            # one row (0 / NULL); the algebra's answer is no group, no row.
            sql += "\n  HAVING COUNT(*) > 0"
        return sql

    if isinstance(node, BinApp):
        base = _select_list(_cols(node.children[0], memo), d)
        expr = _binop_sql(node, d)
        return (f"  SELECT {base}, {expr} AS {q(node.out)}"
                f"\n  FROM {child}")

    if isinstance(node, UnApp):
        base = _select_list(_cols(node.children[0], memo), d)
        col = q(node.col)
        expr = {
            "not": f"(NOT {col})",
            # SQLite evaluates ``-x`` as ``0 - x``, which makes the
            # negation of ``0.0`` ``0.0``; a product keeps the sign of
            # zero, and integers stay integers.
            "neg": f"({col} * -1)",
            "abs": f"ABS({col})",
            "to_double": f"CAST({col} AS REAL)",
            "upper": f"UPPER({col})",
            "lower": f"LOWER({col})",
            "strlen": f"LENGTH({col})",
            # dates/times are stored as ISO-8601 text: fixed-offset parts
            "year": f"CAST(SUBSTR({col}, 1, 4) AS INTEGER)",
            "month": f"CAST(SUBSTR({col}, 6, 2) AS INTEGER)",
            "day": f"CAST(SUBSTR({col}, 9, 2) AS INTEGER)",
            "hour": f"CAST(SUBSTR({col}, 1, 2) AS INTEGER)",
            "minute": f"CAST(SUBSTR({col}, 4, 2) AS INTEGER)",
            "second": f"CAST(SUBSTR({col}, 7, 2) AS INTEGER)",
        }[node.op]
        return (f"  SELECT {base}, {expr} AS {q(node.out)}"
                f"\n  FROM {child}")

    raise ExecutionError(f"cannot generate SQL for {node.label}")


def _order_sql(order: "tuple[tuple[str, str], ...]", d: SQLiteDialect
               ) -> str:
    return ", ".join(f"{d.quote_ident(c)} {dr.upper()}" for c, dr in order)


def _unrank(order: "tuple[tuple[str, str], ...]", rank: RowRank
            ) -> "tuple[tuple[str, str], ...]":
    """``order`` with ``rank``'s number replaced by the columns it ranks
    -- over the same rows, the two order alike."""
    flip = {"asc": "desc", "desc": "asc"}
    return tuple(pair for c, dr in order for pair in (
        [(o, od if dr == "asc" else flip[od]) for o, od in rank.order]
        if c == rank.col else [(c, dr)]))


def _aggregate_sql(func: str, in_col: "str | None", d: SQLiteDialect) -> str:
    if func == "count":
        return "COUNT(*)"
    col = d.quote_ident(in_col)
    return {
        "sum": f"SUM({col})",
        "min": f"MIN({col})",
        "max": f"MAX({col})",
        "avg": f"AVG(CAST({col} AS REAL))",
        # booleans are stored as 0/1, so EVERY/SOME reduce to MIN/MAX
        "all": f"MIN({col})",
        "any": f"MAX({col})",
    }[func]


def _operand_sql(operand, d: SQLiteDialect) -> str:
    if isinstance(operand, Const):
        return d.literal(operand.value, operand.ty)
    return d.quote_ident(operand)


def _binop_sql(node: BinApp, d: SQLiteDialect) -> str:
    a = _operand_sql(node.lhs, d)
    b = _operand_sql(node.rhs, d)
    simple = {
        "add": f"({a} + {b})",
        "sub": f"({a} - {b})",
        "mul": f"({a} * {b})",
        "eq": f"({a} = {b})",
        "ne": f"({a} <> {b})",
        "lt": f"({a} < {b})",
        "le": f"({a} <= {b})",
        "gt": f"({a} > {b})",
        "ge": f"({a} >= {b})",
        "and": f"({a} AND {b})",
        "or": f"({a} OR {b})",
        "min": f"MIN({a}, {b})",
        "max": f"MAX({a}, {b})",
        # UDFs registered by the adapter: Haskell div/mod floor toward
        # negative infinity and must error (not NULL) on division by zero.
        "div": f"FERRY_DIV({a}, {b})",
        "idiv": f"FERRY_IDIV({a}, {b})",
        "mod": f"FERRY_MOD({a}, {b})",
        "cat": f"({a} || {b})",
        # SQLite's native LIKE is case-insensitive for ASCII; the UDF
        # keeps the library's case-sensitive semantics on every backend.
        "like": f"FERRY_LIKE({a}, {b})",
    }
    return simple[node.op]
