"""Constant folding over column-wise scalar applications.

* ``BinApp`` whose operand column is constant -- as property inference
  shows it, through any ``Attach``, ``Project``, join or literal below --
  reads the constant directly (a dead producer then falls to icols);
* ``BinApp`` over two constants becomes an ``Attach`` of the folded value.

(``Select`` on a constant-``True`` column is the property rule
``select_true``.)
"""

from __future__ import annotations

from ...algebra import Attach, BinApp, Const, Node
from ...analysis import PlanStore
from ...errors import PartialFunctionError
from ...expr.exp import BOOL_OPS, CMP_OPS
from ...ftypes import AtomT, BoolT
from ...semantics.interp import _binop


def fold_binapp(node: BinApp, store: PlanStore) -> Node:
    """``node`` with the operand columns ``store`` infers constant read
    as constants and, when both are constant, folded into an ``Attach``
    -- or ``node`` itself."""
    props = store.infer(node.child)

    def operand(x: "str | Const") -> "str | Const":
        if isinstance(x, str) and x in props.constants:
            return Const(props.constants[x], props.schema[x])
        return x

    lhs, rhs = operand(node.lhs), operand(node.rhs)
    if isinstance(lhs, Const) and isinstance(rhs, Const):
        try:
            value = _binop(node.op, lhs.value, rhs.value)
        except PartialFunctionError:
            # division by zero must stay a runtime error
            return BinApp(node.child, node.op, lhs, rhs, node.out)
        return Attach(node.child, node.out, value,
                      _result_ty(node.op, lhs.ty))
    if lhs is not node.lhs or rhs is not node.rhs:
        return BinApp(node.child, node.op, lhs, rhs, node.out)
    return node


def _result_ty(op: str, operand_ty: AtomT) -> AtomT:
    if op in CMP_OPS or op in BOOL_OPS or op == "like":
        return BoolT
    return operand_ty
