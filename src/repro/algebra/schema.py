"""Schema inference and validation for algebra plans.

Every operator's output schema (an ordered mapping column -> atom type) is
derived from its inputs; inference doubles as a *plan validator* -- an
ill-formed plan (unknown column, type mismatch, name clash) raises
:class:`CompilationError` immediately, which keeps compiler bugs close to
their source instead of surfacing as wrong answers.
"""

from __future__ import annotations

from ..errors import VerifyError
from ..expr.exp import ARITH_OPS, BOOL_OPS, CMP_OPS, STR_OPS
from ..ftypes import AtomT, BoolT, DateT, DoubleT, IntT, StringT, TimeT
from .dag import fill
from .ops import (
    AGG_FUNCS,
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

Schema = dict[str, AtomT]


def schema_of(node: Node, memo: dict[Node, Schema] | None = None) -> Schema:
    """Infer (and validate) the output schema of ``node``.

    Pass a shared ``memo`` when inferring over a DAG to avoid re-walking
    shared subplans.  Inference is iterative (plans can be thousands of
    operators deep): the node's subplan is prefilled bottom-up.
    """
    if memo is None:
        memo = {}
    cached = memo.get(node)
    if cached is not None:
        return cached
    return fill(node, memo, lambda current: _infer(current, memo))


def _fail(node: Node, msg: str, code: str = "F104") -> None:
    """Raise a coded :class:`VerifyError` (a :class:`CompilationError`).

    ``code`` is the verifier's stable diagnostic code (``F101`` unknown
    column, ``F102`` duplicate name, ``F103`` type mismatch, ``F104``
    malformed operator, ``F105`` name clash, ``F106`` union schema
    mismatch); the error also carries the offending ``node`` so the
    verifier can attach the pretty-printer's ``@n`` ref.
    """
    err = VerifyError(f"{node.label}: {msg}", code=code)
    err.node = node
    raise err


def _col(node: Node, schema: Schema, col: str) -> AtomT:
    try:
        return schema[col]
    except KeyError:
        _fail(node, f"unknown column {col!r} (have {sorted(schema)})",
              code="F101")
        raise AssertionError  # pragma: no cover


def _infer(node: Node, memo: dict[Node, Schema]) -> Schema:
    """``node``'s schema from its children's, which ``memo`` holds."""
    if isinstance(node, LitTable):
        out = {}
        for name, ty in node.schema:
            if name in out:
                _fail(node, f"duplicate column {name!r}", code="F102")
            out[name] = ty
        for row in node.rows:
            if len(row) != len(node.schema):
                _fail(node, f"row {row!r} does not match schema width "
                            f"{len(node.schema)}")
        return out

    if isinstance(node, TableScan):
        out = {}
        for new, _src, ty in node.outputs:
            if new in out:
                _fail(node, f"duplicate column {new!r}", code="F102")
            out[new] = ty
        return out

    if isinstance(node, Attach):
        child = memo[node.child]
        if node.col in child:
            _fail(node, f"column {node.col!r} already exists", code="F102")
        out = dict(child)
        out[node.col] = node.ty
        return out

    if isinstance(node, Project):
        child = memo[node.child]
        out = {}
        for new, old in node.cols:
            if new in out:
                _fail(node, f"duplicate output column {new!r}", code="F102")
            out[new] = _col(node, child, old)
        return out

    if isinstance(node, Select):
        child = memo[node.child]
        if _col(node, child, node.col) != BoolT:
            _fail(node, f"selection column {node.col!r} is not Bool",
                  code="F103")
        return dict(child)

    if isinstance(node, Distinct):
        return dict(memo[node.child])

    if isinstance(node, (RowNum, RowRank)):
        child = memo[node.child]
        if node.col in child:
            _fail(node, f"column {node.col!r} already exists", code="F102")
        if not node.order:
            _fail(node, "numbering without an order is non-deterministic")
        for col, direction in node.order:
            _col(node, child, col)
            if direction not in ("asc", "desc"):
                _fail(node, f"bad sort direction {direction!r}")
        if isinstance(node, RowNum):
            for col in node.part:
                _col(node, child, col)
        out = dict(child)
        out[node.col] = IntT
        return out

    if isinstance(node, (Cross, EqJoin, SemiJoin, AntiJoin)):
        left = memo[node.left]
        right = memo[node.right]
        if isinstance(node, (EqJoin, SemiJoin, AntiJoin)):
            if not node.pairs:
                _fail(node, "join requires at least one column pair")
            for lcol, rcol in node.pairs:
                lty = _col(node, left, lcol)
                rty = _col(node, right, rcol)
                if lty != rty:
                    _fail(node, f"join column types differ: {lcol}:{lty.show()}"
                                f" vs {rcol}:{rty.show()}", code="F103")
        if isinstance(node, (SemiJoin, AntiJoin)):
            return dict(left)
        clash = set(left) & set(right)
        if clash:
            _fail(node, f"column name clash {sorted(clash)}", code="F105")
        out = dict(left)
        out.update(right)
        return out

    if isinstance(node, UnionAll):
        left = memo[node.left]
        right = memo[node.right]
        if left != right:
            _fail(node, f"schemas differ: {_show(left)} vs {_show(right)}",
                  code="F106")
        return dict(left)

    if isinstance(node, GroupAggr):
        child = memo[node.child]
        out: Schema = {}
        for col in node.group:
            out[col] = _col(node, child, col)
        for func, in_col, out_col in node.aggs:
            if func not in AGG_FUNCS:
                _fail(node, f"unknown aggregate {func!r}")
            if out_col in out:
                _fail(node, f"duplicate output column {out_col!r}", code="F102")
            if func == "count":
                out[out_col] = IntT
            else:
                ity = _col(node, child, in_col)
                if func == "avg":
                    out[out_col] = DoubleT
                elif func in ("all", "any"):
                    if ity != BoolT:
                        _fail(node, f"{func} requires a Bool column", code="F103")
                    out[out_col] = BoolT
                else:
                    out[out_col] = ity
        return out

    if isinstance(node, BinApp):
        child = memo[node.child]
        if node.out in child:
            _fail(node, f"column {node.out!r} already exists", code="F102")
        lty = _operand_ty(node, child, node.lhs)
        rty = _operand_ty(node, child, node.rhs)
        if lty != rty:
            _fail(node, f"operand types differ: {lty.show()} vs {rty.show()}",
                  code="F103")
        if node.op in CMP_OPS:
            res = BoolT
        elif node.op in STR_OPS:
            if lty != StringT:
                _fail(node, f"{node.op} requires String operands", code="F103")
            res = StringT if node.op == "cat" else BoolT
        elif node.op in BOOL_OPS:
            if lty != BoolT:
                _fail(node, f"{node.op} requires Bool operands", code="F103")
            res = BoolT
        elif node.op in ARITH_OPS:
            res = lty
        else:
            _fail(node, f"unknown operator {node.op!r}")
            raise AssertionError  # pragma: no cover
        out = dict(child)
        out[node.out] = res
        return out

    if isinstance(node, UnApp):
        child = memo[node.child]
        if node.out in child:
            _fail(node, f"column {node.out!r} already exists", code="F102")
        ity = _col(node, child, node.col)
        if node.op == "not":
            if ity != BoolT:
                _fail(node, "'not' requires a Bool column", code="F103")
            res = BoolT
        elif node.op in ("neg", "abs"):
            if ity not in (IntT, DoubleT):
                _fail(node, f"{node.op!r} requires a numeric column", code="F103")
            res = ity
        elif node.op == "to_double":
            res = DoubleT
        elif node.op in ("upper", "lower"):
            if ity != StringT:
                _fail(node, f"{node.op!r} requires a String column", code="F103")
            res = StringT
        elif node.op == "strlen":
            if ity != StringT:
                _fail(node, "'strlen' requires a String column", code="F103")
            res = IntT
        elif node.op in ("year", "month", "day"):
            if ity != DateT:
                _fail(node, f"{node.op!r} requires a Date column", code="F103")
            res = IntT
        elif node.op in ("hour", "minute", "second"):
            if ity != TimeT:
                _fail(node, f"{node.op!r} requires a Time column", code="F103")
            res = IntT
        else:
            _fail(node, f"unknown operator {node.op!r}")
            raise AssertionError  # pragma: no cover
        out = dict(child)
        out[node.out] = res
        return out

    _fail(node, "unknown operator class")
    raise AssertionError  # pragma: no cover


def _operand_ty(node: Node, schema: Schema, operand) -> AtomT:
    if isinstance(operand, Const):
        return operand.ty
    return _col(node, schema, operand)


def _show(schema: Schema) -> str:
    return "{" + ", ".join(f"{c}: {t.show()}" for c, t in schema.items()) + "}"
