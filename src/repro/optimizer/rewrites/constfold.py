"""Constant folding over column-wise scalar applications.

* ``BinApp`` whose operand column is produced by an ``Attach`` of a
  constant reads the constant directly (the dead ``Attach`` then falls to
  icols);
* ``BinApp`` over two constants becomes an ``Attach`` of the folded value.

(``Select`` on a constant-``True`` column is the property rule
``select_true``.)
"""

from __future__ import annotations

from ...algebra import Attach, BinApp, Const, Node
from ...errors import PartialFunctionError
from ...expr.exp import BOOL_OPS, CMP_OPS
from ...ftypes import AtomT, BoolT
from ...semantics.interp import _binop


def fold_binapp(node: BinApp) -> Node:
    """``node`` with constant operands read out of the ``Attach`` below
    it and, when both are constant, folded into an ``Attach`` -- or
    ``node`` itself."""
    lhs, rhs = node.lhs, node.rhs
    child = node.child
    if isinstance(child, Attach):
        if lhs == child.col:
            lhs = Const(child.value, child.ty)
        if rhs == child.col:
            rhs = Const(child.value, child.ty)
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
