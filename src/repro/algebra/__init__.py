"""Table algebra: the Pathfinder-style relational IR of the compiler."""

from .dag import (
    contains,
    node_count,
    node_key,
    operator_histogram,
    postorder,
    replace_children,
    rewrite_dag,
)
from .ops import (
    AGG_FUNCS,
    ASC,
    DESC,
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
    position_column,
)
from .pretty import bundle_text, describe, plan_dot, plan_text
from .schema import Schema, schema_of

__all__ = [
    "AGG_FUNCS", "ASC", "DESC", "AntiJoin", "Attach", "BinApp", "Const",
    "Cross", "Distinct", "EqJoin", "GroupAggr", "LitTable", "Node",
    "Project", "RowNum", "RowRank", "Schema", "Select", "SemiJoin",
    "TableScan", "UnApp", "UnionAll", "bundle_text", "contains",
    "describe", "node_count", "node_key",
    "operator_histogram", "plan_dot", "plan_text",
    "position_column", "postorder",
    "replace_children", "rewrite_dag", "schema_of",
]
