"""The in-memory algebra engine: bottom-up evaluation of plan DAGs.

This is the laptop-scale stand-in for the paper's database back-end: it
executes exactly the table-algebra plans the loop-lifting compiler emits,
column at a time.  Each operator is a whole-column kernel over
:class:`~repro.backends.engine.relation.Relation`'s parallel column
lists -- hash joins probe whole key columns and gather via C-level
``map``, selection is one ``itertools.compress`` pass per column,
projection is pure column aliasing, and scalar operators are a single
``map`` over value columns -- mirroring the MonetDB/MIL execution model
(and the fused bag-semantics kernels of Dong & Kjolstad).

Shared subplans are evaluated once: within a query through the schedule
(postorder visits each DAG node once), and *across* the queries of a
bundle through a :class:`BundleCache` keyed on DAG node identity, so the
outer query's spine feeding each inner query materializes once per
bundle rather than once per query -- the engine-level image of the
``WITH`` bindings in the generated SQL.
"""

from __future__ import annotations

import threading
import time
from itertools import compress, repeat
from operator import add, eq, ge, gt, itemgetter, le, lt, mul, ne, neg, sub
from typing import Any, Callable, Sequence

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
    postorder,
)
from ...errors import ExecutionError, PartialFunctionError
from ...runtime.catalog import Catalog
from .relation import Relation, sort_rows  # noqa: F401  (sort_rows re-export)


def compile_schedule(root: Node) -> tuple[Node, ...]:
    """The engine's "generated code" for a plan: its evaluation order.

    Flattening the DAG into an instruction-like postorder sequence is
    data-independent, so prepared queries compute it once and replay it
    on every execution.
    """
    return tuple(postorder(root))


class BundleCache:
    """Cross-query materialization cache, keyed on DAG node identity.

    The queries of a bundle share plan DAG nodes (the outer query's
    spine feeds each inner query; the optimizer hash-conses across the
    whole bundle), so one cache per ``execute_bundle`` lets every shared
    subplan materialize exactly once per bundle.

    ``materialize`` has once-only semantics under concurrency: the first
    caller to claim a node computes it while later callers block on the
    claim's event and then read the finished relation (or re-raise the
    computing thread's error).  ``values`` is only ever written by the
    claim owner, so lock-free reads of finished entries are safe under
    the GIL.

    Bundles execute serially, so the claim protocol is never contended
    and a plain dict would do.  It is still here only because of the
    benchmark gate: it costs a constant ~3.5 us per node, so dropping it
    makes ``paper_mix_engine`` 6 ms faster at 1, 2 and 4 copies alike,
    and that constant saving alone raises the workload's ``scaling_x2``
    by 13% against a 7% bound (CHANGES.md, PR 12).
    """

    __slots__ = ("values", "_claims", "_lock")

    def __init__(self) -> None:
        #: id(node) -> materialized Relation (complete entries only).
        self.values: dict[int, Relation] = {}
        self._claims: dict[int, tuple[threading.Event, list]] = {}
        self._lock = threading.Lock()

    def materialize(self, node: Node,
                    compute: Callable[[], Relation]) -> Relation:
        nid = id(node)
        rel = self.values.get(nid)
        if rel is not None:
            return rel
        with self._lock:
            claim = self._claims.get(nid)
            mine = claim is None
            if mine:
                claim = self._claims[nid] = (threading.Event(), [])
        event, errbox = claim
        if mine:
            try:
                rel = compute()
                self.values[nid] = rel
            except BaseException as err:
                errbox.append(err)
                raise
            finally:
                event.set()
            return rel
        event.wait()
        if errbox:
            raise errbox[0]
        return self.values[nid]


class Engine:
    """Evaluates algebra plans against a :class:`Catalog`."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    def execute(self, root: Node,
                schedule: "tuple[Node, ...] | None" = None,
                profile: "list | None" = None,
                cache: "BundleCache | None" = None) -> Relation:
        """Evaluate the plan DAG rooted at ``root``.

        ``schedule`` is an optional precomputed evaluation order (the
        DAG's postorder, as produced by :func:`compile_schedule`); passing
        it skips the traversal, which prepared queries cache.

        ``profile``, when given, receives one
        :class:`~repro.obs.analyze.OpProfile` per schedule slot --
        exclusive wall time, input/output cardinalities, and output
        width -- the data behind EXPLAIN ANALYZE's annotated plan.  The
        profiling loop is kept separate so unprofiled execution pays
        zero clock reads.

        ``cache``, when given, is the bundle-wide materialization cache:
        nodes already materialized by an earlier query of the bundle
        are served from it, and nodes this query materializes become
        visible to the rest of the bundle.  Cardinalities and widths
        reported to ``profile``
        are unaffected -- a cache hit reports the same relation, only
        with (near-)zero exclusive time.
        """
        if schedule is None:
            schedule = tuple(postorder(root))
        values = cache.values if cache is not None else {}
        if profile is None:
            if cache is None:
                for node in schedule:
                    values[id(node)] = self._eval(node, values)
            else:
                for node in schedule:
                    cache.materialize(
                        node, lambda node=node: self._eval(node, values))
            return values[id(root)]

        from ...algebra import describe
        from ...obs.analyze import OpProfile
        for ref, node in enumerate(schedule):
            rows_in = sum(values[id(c)].nrows for c in node.children)
            t0 = time.perf_counter()
            if cache is None:
                rel = self._eval(node, values)
                values[id(node)] = rel
            else:
                rel = cache.materialize(
                    node, lambda node=node: self._eval(node, values))
            elapsed = time.perf_counter() - t0
            profile.append(OpProfile(ref=ref, op=describe(node),
                                     time=elapsed, rows_in=rows_in,
                                     rows_out=rel.nrows,
                                     width=len(rel.cols)))
        return values[id(root)]

    # ------------------------------------------------------------------
    # whole-column kernels
    # ------------------------------------------------------------------
    def _eval(self, node: Node, memo: dict[int, Relation]) -> Relation:
        children = [memo[id(c)] for c in node.children]

        if isinstance(node, LitTable):
            return Relation.from_rows([n for n, _ in node.schema],
                                      list(node.rows))

        if isinstance(node, TableScan):
            schema = self.catalog.schema(node.table)
            src_index = {name: i for i, (name, _) in enumerate(schema)}
            rows = self.catalog.rows(node.table)
            if rows:
                src_cols = list(zip(*rows))  # one transpose, C-level
                columns = [list(src_cols[src_index[src]])
                           for _, src, _ in node.columns]
            else:
                columns = [[] for _ in node.columns]
            return Relation([out for out, _, _ in node.columns], columns,
                            len(rows))

        if isinstance(node, Attach):
            (rel,) = children
            return Relation(rel.cols + (node.col,),
                            rel.columns + [[node.value] * rel.nrows],
                            rel.nrows)

        if isinstance(node, Project):
            (rel,) = children
            # Pure column aliasing: no per-row work at all.
            return Relation([new for new, _ in node.cols],
                            [rel.columns[rel.col_index(old)]
                             for _, old in node.cols],
                            rel.nrows)

        if isinstance(node, Select):
            (rel,) = children
            mask = rel.columns[rel.col_index(node.col)]
            columns = [list(compress(col, mask)) for col in rel.columns]
            return Relation(rel.cols, columns,
                            len(columns[0]) if columns else 0)

        if isinstance(node, Distinct):
            (rel,) = children
            # dict.fromkeys keeps first occurrences in order (bag → set
            # while preserving the incidental row order, like the seed).
            uniq = list(dict.fromkeys(zip(*rel.columns)))
            return Relation.from_rows(rel.cols, uniq)

        if isinstance(node, RowNum):
            (rel,) = children
            keys = ([(rel.col_index(c), False) for c in node.part]
                    + [(rel.col_index(c), d == "desc")
                       for c, d in node.order])
            perm = rel.sort_perm(keys)
            out = [0] * rel.nrows
            if not node.part:
                for n, i in enumerate(perm, start=1):
                    out[i] = n
            else:
                part_cols = [rel.columns[rel.col_index(c)]
                             for c in node.part]
                counters: dict[Any, int] = {}
                if len(part_cols) == 1:
                    pc = part_cols[0]
                    for i in perm:
                        key = pc[i]
                        n = counters.get(key, 0) + 1
                        counters[key] = n
                        out[i] = n
                else:
                    for i in perm:
                        key = tuple(pc[i] for pc in part_cols)
                        n = counters.get(key, 0) + 1
                        counters[key] = n
                        out[i] = n
            # Numbers are written back through the permutation, so the
            # input's (arbitrary) row order is kept and no column needs
            # gathering.
            return Relation(rel.cols + (node.col,), rel.columns + [out],
                            rel.nrows)

        if isinstance(node, RowRank):
            (rel,) = children
            keys = [(rel.col_index(c), d == "desc") for c, d in node.order]
            perm = rel.sort_perm(keys)
            order_cols = [rel.columns[rel.col_index(c)]
                          for c, _ in node.order]
            out = [0] * rel.nrows
            rank = 0
            prev: Any = object()
            if len(order_cols) == 1:
                oc = order_cols[0]
                for i in perm:
                    key = oc[i]
                    if key != prev:
                        rank += 1
                        prev = key
                    out[i] = rank
            else:
                for i in perm:
                    key = tuple(c[i] for c in order_cols)
                    if key != prev:
                        rank += 1
                        prev = key
                    out[i] = rank
            return Relation(rel.cols + (node.col,), rel.columns + [out],
                            rel.nrows)

        if isinstance(node, Cross):
            left, right = children
            nl, nr = left.nrows, right.nrows
            rrange = range(nr)
            columns = [[v for v in col for _ in rrange]
                       for col in left.columns]
            columns += [list(col) * nl for col in right.columns]
            return Relation(left.cols + right.cols, columns, nl * nr)

        if isinstance(node, EqJoin):
            left, right = children
            lkeys = _key_column(left, [l for l, _ in node.pairs])
            rkeys = _key_column(right, [r for _, r in node.pairs])
            pos: dict[Any, int] = {k: j for j, k in enumerate(rkeys)}
            if len(pos) == len(right):
                # Unique build keys (the common case: the right side is
                # keyed, e.g. the compiler's surrogate spines): probe the
                # whole key column with one C-level map, then compress
                # out the misses.
                hits = list(map(pos.get, lkeys))
                if None not in hits:  # every probe matched (C-level scan)
                    # 1:1 join: the left columns pass through untouched
                    # (columns are immutable by convention, so aliasing
                    # them costs nothing); only the right side gathers.
                    columns = left.columns + [
                        list(map(col.__getitem__, hits))
                        for col in right.columns]
                    return Relation(left.cols + right.cols, columns,
                                    len(hits))
                mask = [j is not None for j in hits]
                li: Sequence[int] = list(compress(range(len(lkeys)), mask))
                ri: Sequence[int] = list(compress(hits, mask))
            else:
                buckets: dict[Any, list[int]] = {}
                for j, k in enumerate(rkeys):
                    b = buckets.get(k)
                    if b is None:
                        buckets[k] = [j]
                    else:
                        b.append(j)
                li = []
                ri = []
                get = buckets.get
                for i, k in enumerate(lkeys):
                    js = get(k)
                    if js is not None:
                        li += repeat(i, len(js))
                        ri += js
            columns = [list(map(col.__getitem__, li))
                       for col in left.columns]
            columns += [list(map(col.__getitem__, ri))
                        for col in right.columns]
            return Relation(left.cols + right.cols, columns, len(li))

        if isinstance(node, (SemiJoin, AntiJoin)):
            left, right = children
            lkeys = _key_column(left, [l for l, _ in node.pairs])
            rkeys = _key_column(right, [r for _, r in node.pairs])
            keys = set(rkeys)
            if isinstance(node, SemiJoin):
                mask = list(map(keys.__contains__, lkeys))
            else:
                mask = [k not in keys for k in lkeys]
            columns = [list(compress(col, mask)) for col in left.columns]
            return Relation(left.cols, columns,
                            len(columns[0]) if columns else 0)

        if isinstance(node, UnionAll):
            left, right = children
            if left.cols == right.cols:
                rcols = right.columns
            else:  # align right's column order with left's
                rcols = [right.columns[right.col_index(c)]
                         for c in left.cols]
            columns = [list(lc) + list(rc)
                       for lc, rc in zip(left.columns, rcols)]
            return Relation(left.cols, columns, left.nrows + right.nrows)

        if isinstance(node, GroupAggr):
            return _group_aggr(node, children[0])

        if isinstance(node, BinApp):
            (rel,) = children
            lhs = _operand_column(rel, node.lhs)
            rhs = _operand_column(rel, node.rhs)
            out = list(map(_BIN_FNS[node.op], lhs, rhs))
            return Relation(rel.cols + (node.out,), rel.columns + [out],
                            rel.nrows)

        if isinstance(node, UnApp):
            (rel,) = children
            col = rel.columns[rel.col_index(node.col)]
            out = list(map(_UN_FNS[node.op], col))
            return Relation(rel.cols + (node.out,), rel.columns + [out],
                            rel.nrows)

        raise ExecutionError(f"engine cannot evaluate {node.label}")


# ----------------------------------------------------------------------
# column kernels' helpers
# ----------------------------------------------------------------------

def _key_column(rel: Relation, cols: list) -> Sequence[Any]:
    """The join/group key per row as one sequence: the value column
    itself for single-column keys (no tuple wrapping), a zipped tuple
    column otherwise."""
    if len(cols) == 1:
        return rel.columns[rel.col_index(cols[0])]
    return list(zip(*(rel.columns[rel.col_index(c)] for c in cols)))


def _guarded_div(fn):
    def wrapped(a, b):
        if b == 0:
            raise PartialFunctionError("division by zero")
        return fn(a, b)
    return wrapped


_BIN_FNS = {
    # operator.* where a C-level callable exists (map stays in C).
    "add": add,
    "sub": sub,
    "mul": mul,
    "div": _guarded_div(lambda a, b: a / b),
    "idiv": _guarded_div(lambda a, b: a // b),
    "mod": _guarded_div(lambda a, b: a % b),
    "eq": eq,
    "ne": ne,
    "lt": lt,
    "le": le,
    "gt": gt,
    "ge": ge,
    "and": lambda a, b: a and b,
    "or": lambda a, b: a or b,
    "min": min,
    "max": max,
    "cat": add,
    "like": None,  # bound below (imports the shared matcher)
}

from ...semantics.interp import like_match as _like_match  # noqa: E402

_BIN_FNS["like"] = _like_match

_UN_FNS = {
    "not": lambda a: not a,
    "neg": neg,
    "abs": abs,
    "to_double": float,
    "upper": lambda a: a.upper(),
    "lower": lambda a: a.lower(),
    "strlen": len,
    "year": lambda d: d.year,
    "month": lambda d: d.month,
    "day": lambda d: d.day,
    "hour": lambda t: t.hour,
    "minute": lambda t: t.minute,
    "second": lambda t: t.second,
}


def _operand_column(rel: Relation, operand) -> Sequence[Any]:
    """A BinApp operand as an iterable of per-row values: the value
    column for a column reference, a bounded ``repeat`` for a constant
    (bounded so two constant operands cannot stall ``map``)."""
    if isinstance(operand, Const):
        return repeat(operand.value, rel.nrows)
    return rel.columns[rel.col_index(operand)]


def _group_aggr(node: GroupAggr, rel: Relation) -> Relation:
    keys = _key_column(rel, list(node.group)) if node.group else None
    groups: dict[Any, list[int]] = {}
    if keys is None:
        # global aggregation: one group iff there are rows (SQL semantics
        # at the algebra level: no rows, no group, no output row)
        if rel.nrows:
            groups[()] = list(range(rel.nrows))
    else:
        for i, k in enumerate(keys):
            b = groups.get(k)
            if b is None:
                groups[k] = [i]
            else:
                b.append(i)
    # group-key output columns (first-occurrence order = dict order)
    if not node.group:
        key_columns: list[list] = []
    elif len(node.group) == 1:
        key_columns = [list(groups.keys())]
    else:
        gkeys = list(groups.keys())
        key_columns = ([list(col) for col in zip(*gkeys)] if gkeys
                       else [[] for _ in node.group])
    members = list(groups.values())
    agg_columns: list[list] = []
    for func, in_col, _out in node.aggs:
        if func == "count":
            agg_columns.append([len(m) for m in members])
            continue
        values = rel.columns[rel.col_index(in_col)]
        getv = values.__getitem__
        if func == "sum":
            agg_columns.append([sum(map(getv, m)) for m in members])
        elif func == "min":
            agg_columns.append([min(map(getv, m)) for m in members])
        elif func == "max":
            agg_columns.append([max(map(getv, m)) for m in members])
        elif func == "avg":
            agg_columns.append([float(sum(map(getv, m))) / len(m)
                                for m in members])
        elif func == "all":
            agg_columns.append([all(map(getv, m)) for m in members])
        elif func == "any":
            agg_columns.append([any(map(getv, m)) for m in members])
        else:  # pragma: no cover - schema validation rejects
            raise ExecutionError(f"unknown aggregate {func!r}")
    cols = tuple(node.group) + tuple(out for _, _, out in node.aggs)
    return Relation(cols, key_columns + agg_columns, len(members))


# Row-tuple access for the few remaining row-oriented consumers (kept so
# external callers of the seed API keep working).
def _key_getter(rel: Relation, cols: list):
    """A row-tuple join-key extractor (single columns avoid wrapping)."""
    idxs = [rel.col_index(c) for c in cols]
    if len(idxs) == 1:
        return itemgetter(idxs[0])
    return itemgetter(*idxs)
