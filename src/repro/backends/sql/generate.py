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

Base tables and temporary tables are referenced schema-qualified through
the dialect, so no catalog table name can collide with a binding or a
temporary table.  Engine quirks -- identifier quoting, type names,
literal syntax, window-function and DDL spellings -- are delegated to a
:class:`~repro.backends.sql.dbapi.Dialect` (default: SQLite); division
and modulus are emitted as the UDF names the adapter registers so that
Haskell's flooring ``div``/``mod`` semantics survive the translation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Collection, Sequence

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
from ...ftypes import AtomT, DoubleT
from .dbapi import SQLITE_DIALECT, Dialect


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

    def script(self, built: Collection[str] = ()) -> str:
        """What running this statement sends, as text: the steps whose
        tables are not among ``built``, then the SELECT."""
        parts = [f"-- @{step.ref} {step.op}\n{step.create};\n{step.insert};"
                 for step in self.steps if step.name not in built]
        return "\n".join(parts + [self.text])


# Module-level helpers bound to the default (SQLite) dialect, kept for
# callers that predate the dialect layer.

def sql_type(ty: AtomT) -> str:
    """Column type name for CREATE TABLE statements."""
    return SQLITE_DIALECT.type_name(ty)


def render_literal(value, ty: AtomT) -> str:
    return SQLITE_DIALECT.literal(value, ty)


def quote_ident(name: str) -> str:
    return SQLITE_DIALECT.quote_ident(name)


def generate_bundle(queries: Sequence[SerializedQuery],
                    dialect: Dialect = SQLITE_DIALECT) -> list[GeneratedSQL]:
    """Generate the SQL of a whole bundle: per query one SELECT projecting
    ``iter, pos, items`` ordered by ``(iter, pos)``, plus the
    temporary-table steps it reads."""
    d = dialect
    plans = [list(postorder(query.plan)) for query in queries]

    # Consumers per node over the whole bundle, then relation names.
    consumers = Counter(id(query.plan) for query in queries)
    numbered: list[Node] = []
    seen: set[int] = set()
    for plan in plans:
        for node in plan:
            if id(node) not in seen:
                seen.add(id(node))
                numbered.append(node)
                consumers.update(id(child) for child in node.children)
    names: dict[int, str] = {}
    tables: dict[int, str] = {}  # shared node -> unqualified table name
    for i, node in enumerate(numbered):
        if node.children and (consumers[id(node)] > 1 or _divides(node)):
            tables[id(node)] = f"ferry_m{len(tables):04d}"
            names[id(node)] = d.temp_table_ref(tables[id(node)])
        else:
            names[id(node)] = f"t{i:04d}"

    # Every node is rendered once: as the body of its table's INSERT, or
    # as a binding of the one block it is in (leaves: of each such block).
    memo: dict = {}
    bodies = {id(node): _render(node, names, memo, d) for node in numbered}
    ctes = {id(node): f"{names[id(node)]}"
                      f"({_select_list(_cols(node, memo), d)})"
                      f" AS (\n{bodies[id(node)]}\n)"
            for node in numbered if id(node) not in tables}

    def bindings(block: list[Node]) -> str:
        """The ``WITH`` clause binding every node of ``block``."""
        if not block:
            return ""
        return "WITH\n" + ",\n".join(ctes[id(n)] for n in block) + "\n"

    first: dict[int, Step] = {}  # shared node -> its step where first met
    generated = []
    for query, plan in zip(queries, plans):
        steps = []
        for ref, node in enumerate(plan):
            name = tables.get(id(node))
            if name is None:
                continue
            step = first.get(id(node))
            if step is None:
                schema = schema_of(node, memo)
                step = first[id(node)] = Step(
                    name, ref, describe(node), len(schema),
                    d.create_temp_table(name, schema.items()),
                    f"INSERT INTO {names[id(node)]}\n"
                    f"{bindings(_block(node, tables)[:-1])}"
                    f"{bodies[id(node)]}")
            steps.append(step if step.ref == ref else replace(step, ref=ref))
        root = query.plan
        out_cols = (query.iter_col, query.pos_col) + query.item_cols
        order = ", ".join(f"{d.quote_ident(c)} ASC" for c in out_cols[:2])
        # A root that is not a table is bound like any other node and
        # then projected: its body may be a compound SELECT, which cannot
        # take the ORDER BY itself.
        block = [] if id(root) in tables else _block(root, tables)
        text = (f"{bindings(block)}SELECT {_select_list(out_cols, d)}\n"
                f"FROM {names[id(root)]}\nORDER BY {order};")
        generated.append(GeneratedSQL(text, out_cols, tuple(steps),
                                      _row_converter(query, d)))
    return generated


def _row_converter(query: SerializedQuery, d: Dialect
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


def generate_sql(query: SerializedQuery,
                 dialect: Dialect = SQLITE_DIALECT) -> GeneratedSQL:
    """SQL for one query on its own: a bundle of one."""
    return generate_bundle([query], dialect)[0]


def _divides(node: Node) -> bool:
    """A division is a step of its own: inside one statement, SQLite may
    test it on rows that a later join drops, and a division by zero must
    raise only on the rows that reach it."""
    return isinstance(node, BinApp) and node.op in ("div", "idiv", "mod")


def _block(root: Node, tables: "dict[int, str]") -> list[Node]:
    """``root``'s block in postorder (``root`` last): the nodes reachable
    from it without passing through a temporary table."""
    block: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in seen:
            continue
        if expanded:
            seen.add(id(node))
            block.append(node)
        else:
            stack.append((node, True))
            for child in node.children:
                if id(child) not in seen and id(child) not in tables:
                    stack.append((child, False))
    return block


# ----------------------------------------------------------------------
# per-operator rendering
# ----------------------------------------------------------------------

def _cols(node: Node, memo) -> list[str]:
    return list(schema_of(node, memo))


def _select_list(cols: list[str], d: Dialect) -> str:
    return ", ".join(d.quote_ident(c) for c in cols)


def _render(node: Node, names: dict[int, str], memo, d: Dialect) -> str:
    q = d.quote_ident

    if isinstance(node, LitTable):
        if not node.rows:
            nulls = ", ".join(
                f"CAST(NULL AS {d.type_name(ty)}) AS {q(n)}"
                for n, ty in node.schema)
            return f"  SELECT {nulls} WHERE 0"
        selects = []
        for row in node.rows:
            cells = ", ".join(
                f"{d.literal(v, ty)} AS {q(n)}"
                for v, (n, ty) in zip(row, node.schema))
            selects.append(f"  SELECT {cells}")
        return "\n  UNION ALL\n".join(selects)

    if isinstance(node, TableScan):
        cols = ", ".join(f"{q(src)} AS {q(out)}"
                         for out, src, _ in node.outputs)
        return f"  SELECT {cols}\n  FROM {d.table_ref(node.table)}"

    child = names[id(node.children[0])] if node.children else None

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
        base = _select_list(_cols(node.children[0], memo), d)
        order = ", ".join(f"{q(c)} {dr.upper()}"
                          for c, dr in node.order)
        if isinstance(node, RowNum):
            window = d.row_number(node.part, order)
        else:
            # "binding due to rank operator" (appendix)
            window = d.dense_rank(order)
        return (f"  SELECT {base},\n         {window} AS "
                f"{q(node.col)}\n  FROM {child}")

    if isinstance(node, Cross):
        left, right = (names[id(c)] for c in node.children)
        base = _select_list(_cols(node, memo), d)
        return f"  SELECT {base}\n  FROM {left}, {right}"

    if isinstance(node, EqJoin):
        left, right = (names[id(c)] for c in node.children)
        base = _select_list(_cols(node, memo), d)
        on = " AND ".join(f"l.{q(lc)} = r.{q(rc)}" for lc, rc in node.pairs)
        return (f"  SELECT {base}\n  FROM {left} AS l\n  JOIN {right} AS r"
                f"\n    ON {on}")

    if isinstance(node, SemiJoin):
        # Uncorrelated IN: the host evaluates the subquery once (SQLite
        # into an ephemeral index) instead of once per outer row.  A NULL
        # key makes IN unknown, which WHERE drops -- as EXISTS would.
        left, right = (names[id(c)] for c in node.children)
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
        left, right = (names[id(c)] for c in node.children)
        base = ", ".join(f"l.{q(c)}" for c in _cols(node, memo))
        rkeys = ", ".join(q(rc) for _, rc in node.pairs)
        on = " AND ".join(f"r.{q(rc)} = l.{q(lc)}" for lc, rc in node.pairs)
        return (f"  SELECT {base}\n  FROM {left} AS l\n  LEFT JOIN "
                f"(SELECT DISTINCT {rkeys} FROM {right}) AS r"
                f"\n    ON {on}\n  WHERE r.{q(node.pairs[0][1])} IS NULL")

    if isinstance(node, UnionAll):
        left, right = (names[id(c)] for c in node.children)
        cols = _cols(node, memo)
        base = _select_list(cols, d)
        return (f"  SELECT {base}\n  FROM {left}"
                f"\n  UNION ALL\n  SELECT {base}\n  FROM {right}")

    if isinstance(node, GroupAggr):
        parts = [q(c) for c in node.group]
        for func, in_col, out_col in node.aggs:
            parts.append(f"{_aggregate_sql(func, in_col, d)} AS "
                         f"{q(out_col)}")
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
            "neg": f"(-{col})",
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


def _aggregate_sql(func: str, in_col: "str | None", d: Dialect) -> str:
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


def _operand_sql(operand, d: Dialect) -> str:
    if isinstance(operand, Const):
        return d.literal(operand.value, operand.ty)
    return d.quote_ident(operand)


def _binop_sql(node: BinApp, d: Dialect) -> str:
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
