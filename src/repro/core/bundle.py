"""Query bundles: the compiler's final artefact.

A compiled program is a *bundle* of relational queries -- one per list
constructor in the result type (avalanche safety, Section 3.2): the outer
query Q1 delivers the relational encoding of the outer list with
surrogates standing in for nested lists, Q2 the encodings of all inner
lists, and so on (Figure 3(b)).

Each :class:`SerializedQuery` is an algebra plan projected onto the
standard column order ``iter | pos | item...``; the :class:`Ref` tree
records how item columns (and further queries) assemble back into nested
Python values (``repro.runtime.stitch``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..algebra import Node, Project
from ..errors import CompilationError
from ..expr import Exp, free_vars, normalize
from ..ftypes import AtomT, ListT, Type, count_list_constructors
from .layout import AtomLay, Layout, NestLay, TupleLay, Vec, layout_cols
from .lift import LiftCompiler


class Ref:
    """How to build a value from a result row (and further queries)."""


@dataclass(frozen=True)
class AtomRef(Ref):
    """Item column ``index`` (0-based among the query's item columns)."""

    index: int
    ty: AtomT


@dataclass(frozen=True)
class TupleRef(Ref):
    parts: tuple[Ref, ...]


@dataclass(frozen=True)
class NestRef(Ref):
    """Item column ``index`` holds surrogates into query ``query``."""

    index: int
    query: int
    inner: Ref


@dataclass
class SerializedQuery:
    """One member of the bundle, in standard ``iter|pos|item...`` form."""

    plan: Node
    iter_col: str
    pos_col: str
    item_cols: tuple[str, ...]
    item_types: tuple[AtomT, ...]


@dataclass
class Bundle:
    """The complete compiled program."""

    result_ty: Type
    queries: list[SerializedQuery]
    root_ref: Ref
    root_is_list: bool
    #: Stamped by ``repro.analysis.verify_bundle`` once every verifier
    #: stage passed; backends then skip re-verification at prepare time.
    verified: bool = False
    #: Row bounds of the queries' results for the catalog instance
    #: compiled against (a ``repro.analysis.cost.BundleCost``), stamped
    #: by ``optimize_bundle``.  ``None`` until stamped.
    cost: "object | None" = None
    #: Per node of the plans with one, an ``Int`` column that alone is a
    #: key of it -- read off the optimizer's facts by ``optimize_bundle``
    #: (empty before); the SQL generator makes it the primary key of the
    #: node's temporary table.
    keys: "dict[Node, str]" = field(default_factory=dict, repr=False)
    #: The ``repro.runtime.stitch.Stitcher`` compiled from ``root_ref``
    #: by the first ``stitch``, reused by every later one.
    stitcher: "object | None" = field(default=None, init=False,
                                      compare=False, repr=False)

    @property
    def size(self) -> int:
        """Number of relational queries -- the paper's avalanche-safety
        metric."""
        return len(self.queries)

    @property
    def expected_size(self) -> int:
        """Bundle size predicted by the static result type: one query per
        ``[.]`` constructor (Section 3.2), plus one carrier query when the
        root is not itself a list."""
        n = count_list_constructors(self.result_ty)
        return n if self.root_is_list else n + 1

    @property
    def avalanche_ok(self) -> bool:
        """Runtime check of the avalanche invariant: does the emitted
        bundle match the size the result type dictates?"""
        return self.size == self.expected_size


def serialize(vec: Vec, result_ty: Type) -> Bundle:
    """Lower a compiled root vector into a query bundle."""
    queries: list[SerializedQuery] = []
    memo: dict[int, int] = {}  # by id(): a ``Vec`` compares structurally

    def emit(v: Vec) -> int:
        qid = memo.get(id(v))
        if qid is not None:
            return qid
        from ..core.layout import layout_col_types
        cols = tuple(layout_cols(v.layout))
        types = tuple(layout_col_types(v.layout))
        proj = tuple([(v.iter_col, v.iter_col), (v.pos_col, v.pos_col)]
                     + [(c, c) for c in cols])
        qid = len(queries)
        memo[id(v)] = qid
        # Inner queries are emitted after this slot is reserved, so the
        # outer list is Q1, its inner lists Q2, ... as in the paper.
        queries.append(SerializedQuery(Project(v.plan, proj), v.iter_col,
                                       v.pos_col, cols, types))
        return qid

    def build_ref(lay: Layout, base: int, counter: list[int]) -> Ref:
        if isinstance(lay, AtomLay):
            idx = counter[0]
            counter[0] += 1
            return AtomRef(idx, lay.ty)
        if isinstance(lay, NestLay):
            idx = counter[0]
            counter[0] += 1
            inner_qid = emit(lay.inner)
            inner_ref = build_ref(lay.inner.layout, inner_qid, [0])
            return NestRef(idx, inner_qid, inner_ref)
        if isinstance(lay, TupleLay):
            return TupleRef(tuple(build_ref(p, base, counter)
                                  for p in lay.parts))
        raise CompilationError(f"unknown layout {lay!r}")  # pragma: no cover

    root_qid = emit(vec)
    root_ref = build_ref(vec.layout, root_qid, [0])
    return Bundle(result_ty, queries, root_ref,
                  isinstance(result_ty, ListT))


def compile_exp(exp, decorrelate: bool = True) -> Bundle:
    """Loop-lift a closed expression and serialize the resulting vectors
    (the complete compile pipeline minus optimization).

    ``decorrelate`` switches join-graph isolation as a whole: the
    expression normal form (``repro.expr.normalize``) and the lifter's
    decorrelated-filter rule that turns its isolated filters into joins.
    """
    if decorrelate:
        exp = _isolated(exp)
    compiler = LiftCompiler(decorrelate=decorrelate)
    vec = compiler.compile_top(exp)
    return serialize(vec, exp.ty)


def _isolated(exp: Exp) -> Exp:
    """``normalize(exp)``, refused if it changed the type or captured a
    variable -- a normaliser bug must not reach a backend as a plan."""
    out = normalize(exp)
    if out is not exp and (out.ty != exp.ty
                           or not free_vars(out) <= free_vars(exp)):
        raise CompilationError(
            f"join-graph isolation broke the program: {exp.ty.show()} with "
            f"free variables {sorted(free_vars(exp))} became "
            f"{out.ty.show()} with {sorted(free_vars(out))}")
    return out
