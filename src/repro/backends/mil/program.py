"""A MIL-style column-at-a-time virtual machine.

The paper's second code-generation target is MIL, the MonetDB Interpreter
Language [5]: a language whose primitives each process *entire columns*
(BATs) at a time.  This module provides a faithful miniature: a
:class:`MILProgram` is a flat sequence of column instructions (printable
as pseudo-MIL), executed by :class:`MILVM` over an environment of named
columns.  Every instruction materializes its full result column before
the next runs -- the column-at-a-time execution model.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from typing import Any

from .. import kernels


class Instr:
    """Base class of VM instructions."""

    def execute(self, env: dict[str, list]) -> None:
        raise NotImplementedError

    def show(self) -> str:
        raise NotImplementedError


@dataclass
class LitCol(Instr):
    """Materialize a literal column."""

    dst: str
    values: tuple

    def execute(self, env: dict[str, list]) -> None:
        env[self.dst] = list(self.values)

    def show(self) -> str:
        preview = list(self.values[:4])
        suffix = ", ..." if len(self.values) > 4 else ""
        return f"{self.dst} := bat.new({preview}{suffix})  # {len(self.values)} values"


@dataclass
class LoadCol(Instr):
    """Load a base-table column (bound at VM construction)."""

    dst: str
    table: str
    column: str

    def execute(self, env: dict[str, list]) -> None:
        env[self.dst] = env[f"@{self.table}.{self.column}"]

    def show(self) -> str:
        return f'{self.dst} := bat("{self.table}", "{self.column}")'


@dataclass
class ConstCol(Instr):
    """A constant column as long as ``like``."""

    dst: str
    value: Any
    like: str

    def execute(self, env: dict[str, list]) -> None:
        env[self.dst] = [self.value] * len(env[self.like])

    def show(self) -> str:
        return f"{self.dst} := const({self.value!r}).project({self.like})"


@dataclass
class Map2(Instr):
    """Column-wise binary operator (the MIL ``[op]`` multiplex)."""

    dst: str
    op: str
    lhs: str
    rhs: str

    def execute(self, env: dict[str, list]) -> None:
        env[self.dst] = list(map(kernels.BIN[self.op], env[self.lhs],
                                 env[self.rhs]))

    def show(self) -> str:
        return f"{self.dst} := [{self.op}]({self.lhs}, {self.rhs})"


@dataclass
class Map2Const(Instr):
    dst: str
    op: str
    lhs: str
    const: Any
    const_left: bool = False

    def execute(self, env: dict[str, list]) -> None:
        col, const = env[self.lhs], repeat(self.const)
        args = (const, col) if self.const_left else (col, const)
        env[self.dst] = list(map(kernels.BIN[self.op], *args))

    def show(self) -> str:
        if self.const_left:
            return f"{self.dst} := [{self.op}]({self.const!r}, {self.lhs})"
        return f"{self.dst} := [{self.op}]({self.lhs}, {self.const!r})"


@dataclass
class Map1(Instr):
    dst: str
    op: str
    src: str

    def execute(self, env: dict[str, list]) -> None:
        env[self.dst] = list(map(kernels.UN[self.op], env[self.src]))

    def show(self) -> str:
        return f"{self.dst} := [{self.op}]({self.src})"


@dataclass
class MaskIndex(Instr):
    """Row indices where the Boolean column is true (MIL ``uselect``)."""

    dst: str
    mask: str

    def execute(self, env: dict[str, list]) -> None:
        mask = env[self.mask]
        env[self.dst] = list(compress(range(len(mask)), mask))

    def show(self) -> str:
        return f"{self.dst} := {self.mask}.uselect(true)"


@dataclass
class Take(Instr):
    """Positional gather (MIL ``join`` with a void-headed BAT; DPH's
    ``bpermuteP``)."""

    dst: str
    src: str
    index: str

    def execute(self, env: dict[str, list]) -> None:
        env[self.dst] = kernels.gather(env[self.src], env[self.index])

    def show(self) -> str:
        return f"{self.dst} := {self.src}.take({self.index})"


@dataclass
class DistinctIndex(Instr):
    """Indices of the first occurrence of each distinct tuple."""

    dst: str
    cols: tuple[str, ...]

    def execute(self, env: dict[str, list]) -> None:
        env[self.dst] = kernels.distinct_index([env[c] for c in self.cols])

    def show(self) -> str:
        return f"{self.dst} := distinct({', '.join(self.cols)})"


@dataclass
class SortPerm(Instr):
    """Stable sort permutation over (column, direction) keys."""

    dst: str
    keys: tuple[tuple[str, str], ...]

    def execute(self, env: dict[str, list]) -> None:
        keys = [(env[col], direction == "desc")
                for col, direction in self.keys]
        env[self.dst] = kernels.sort_perm(keys, len(keys[0][0]) if keys else 0)

    def show(self) -> str:
        keys = ", ".join(f"{c} {d}" for c, d in self.keys)
        return f"{self.dst} := sort_perm({keys})"


@dataclass
class RowNumber(Instr):
    """Dense numbering along ``perm`` within partitions (window function
    in column form)."""

    dst: str
    perm: str
    part: tuple[str, ...]

    def execute(self, env: dict[str, list]) -> None:
        env[self.dst] = kernels.row_number(
            env[self.perm], [env[c] for c in self.part])

    def show(self) -> str:
        part = ", ".join(self.part) or "()"
        return f"{self.dst} := row_number(perm={self.perm}, part={part})"


@dataclass
class DenseRank(Instr):
    dst: str
    perm: str
    keys: tuple[str, ...]

    def execute(self, env: dict[str, list]) -> None:
        env[self.dst] = kernels.dense_rank(
            env[self.perm], [env[c] for c in self.keys])

    def show(self) -> str:
        return f"{self.dst} := dense_rank(perm={self.perm}, keys={list(self.keys)})"


@dataclass
class HashJoinIndex(Instr):
    """Equi-join index pair (MIL ``join``)."""

    dst_left: str
    dst_right: str
    left_keys: tuple[str, ...]
    right_keys: tuple[str, ...]

    def execute(self, env: dict[str, list]) -> None:
        env[self.dst_left], env[self.dst_right] = kernels.join_index(
            kernels.key_column([env[c] for c in self.left_keys]),
            kernels.key_column([env[c] for c in self.right_keys]))

    def show(self) -> str:
        return (f"({self.dst_left}, {self.dst_right}) := join("
                f"{list(self.left_keys)}, {list(self.right_keys)})")


@dataclass
class SemiIndex(Instr):
    dst: str
    left_keys: tuple[str, ...]
    right_keys: tuple[str, ...]
    anti: bool

    def execute(self, env: dict[str, list]) -> None:
        mask = kernels.semi_mask(
            kernels.key_column([env[c] for c in self.left_keys]),
            kernels.key_column([env[c] for c in self.right_keys]), self.anti)
        env[self.dst] = list(compress(range(len(mask)), mask))

    def show(self) -> str:
        op = "antijoin" if self.anti else "semijoin"
        return f"{self.dst} := {op}({list(self.left_keys)}, {list(self.right_keys)})"


@dataclass
class CrossIndex(Instr):
    dst_left: str
    dst_right: str
    left_like: str
    right_like: str

    def execute(self, env: dict[str, list]) -> None:
        env[self.dst_left], env[self.dst_right] = kernels.cross_index(
            len(env[self.left_like]), len(env[self.right_like]))

    def show(self) -> str:
        return (f"({self.dst_left}, {self.dst_right}) := "
                f"cross({self.left_like}, {self.right_like})")


@dataclass
class Concat(Instr):
    dst: str
    first: str
    second: str

    def execute(self, env: dict[str, list]) -> None:
        env[self.dst] = env[self.first] + env[self.second]

    def show(self) -> str:
        return f"{self.dst} := {self.first}.append({self.second})"


@dataclass
class GroupAggregate(Instr):
    """Grouped aggregation in one column pass (MIL ``{op}`` pump)."""

    group_cols: tuple[str, ...]
    #: (func, input column or None, output var)
    aggs: tuple[tuple[str, "str | None", str], ...]
    #: outputs for the group-by columns themselves
    group_out: tuple[str, ...]
    #: a column as long as the input: the row count of a global
    #: aggregate, which has no group column to take it from
    like: str = ""

    def execute(self, env: dict[str, list]) -> None:
        key_columns, members = kernels.group_members(
            [env[c] for c in self.group_cols],
            len(env[self.like or self.group_cols[0]]))
        env.update(zip(self.group_out, key_columns))
        for func, in_col, out in self.aggs:
            env[out] = kernels.aggregate(
                func, env[in_col] if in_col else (), members)

    def show(self) -> str:
        aggs = ", ".join(f"{o} := {{{f}}}({c or '*'})"
                         for f, c, o in self.aggs)
        return f"group by ({', '.join(self.group_cols)}): {aggs}"


@dataclass
class MILProgram:
    """A generated column program plus its output column variables."""

    instructions: list[Instr]
    out_vars: tuple[str, ...]

    def show(self) -> str:
        lines = [instr.show() for instr in self.instructions]
        lines.append(f"return ({', '.join(self.out_vars)})")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.instructions)


class MILVM:
    """Executes MIL programs against base-table columns."""

    def __init__(self, base_columns: dict[str, list]):
        #: keys have the form ``@table.column``
        self.base_columns = base_columns

    def run(self, program: MILProgram) -> list[list]:
        env: dict[str, list] = dict(self.base_columns)
        for instr in program.instructions:
            instr.execute(env)
        return [env[v] for v in program.out_vars]
