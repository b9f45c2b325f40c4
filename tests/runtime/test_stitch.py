"""The compiled stitcher: result shapes, scalar roots, fresh values, the
per-bundle cache, and the plan-cache key a ``Q`` handle keeps.

Clock-free: every check is on values, exceptions and object identity.
Hand-built result rows follow the backend contract -- per query,
``(iter, pos, item...)`` sorted by ``(iter, pos)``.
"""

from __future__ import annotations

import pytest

from repro import Connection, PartialFunctionError, SchemaError, nil, to_q
from examples.workloads import orders_dataset
from repro.core import compile_exp
from repro.errors import ExecutionError
from repro.ftypes import IntT, ListT
from repro.runtime import stitch
from repro.semantics import Interpreter

from ..backends.test_sql_scaling import nested_orders_query
from ..conftest import BACKENDS

SHAPES = {
    "depth 4": [[[[1, 2], [3]], [[4]]], [[[5, 6, 7]]]],
    "empty inner list at every depth": [[], [[], [[], [1, 2]]], [[[3]]]],
    "tuple of two nests": [([1, 2], ["a"]), ([], ["b", "c"]), ([3], [])],
    "nest inside a tuple inside a nest": [[(1, [2, 3]), (4, [])], [],
                                          [(5, [6])]],
    "scalar root of two nests": ([1, 2], [[3], []]),
    "nested tuples": [((1, "x"), [(2.5, True)]), ((3, "y"), [])],
}


def bundle_of(value):
    return compile_exp(to_q(value).exp)


def rounded(value):
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, (list, tuple)):
        return type(value)(map(rounded, value))
    return value


class TestShapes:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_round_trip(self, backend, name):
        value = SHAPES[name]
        assert Connection(backend=backend).run(to_q(value)) == value

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_nested_orders(self, backend):
        # Region -> customers -> order totals: customers without orders
        # are empty inner lists in the middle of a query's rows.
        catalog = orders_dataset(12)
        db = Connection(backend=backend, catalog=catalog)
        q = nested_orders_query(db)
        # (sqlite sums the prices in another order)
        assert rounded(db.run(q)) == rounded(Interpreter(catalog).run(q.exp))

    def test_empty_root_list(self):
        assert Connection().run(nil(ListT(IntT))) == []


class TestIndex:
    """The surrogate index: inner rows grouped by ``iter``, in ``pos``
    order, a missing surrogate an empty list."""

    @staticmethod
    def fanout(n_groups, per_group):
        """A ``[[(Int, Double)]]`` bundle and rows: outer row ``g`` has
        surrogate ``g``; every third surrogate has no inner rows."""
        bundle = bundle_of([[(1, 1.0)]])
        outer = [(1, g + 1, g) for g in range(n_groups)]
        inner = [(g, p, g * per_group + p, float(p))
                 for g in range(n_groups) if g % 3
                 for p in range(per_group)]
        return bundle, [outer, inner]

    def test_matches_setdefault_loop(self):
        bundle, rows = self.fanout(137, 7)
        index: dict = {}
        for row in rows[1]:
            index.setdefault(row[0], []).append(row[2:])
        assert stitch(bundle, rows) == [index.get(g, []) for g in range(137)]

    def test_empty_and_single_run(self):
        bundle = bundle_of([[1]])
        assert stitch(bundle, [[], []]) == []
        assert stitch(bundle, [[(1, 1, 9)], []]) == [[]]
        assert stitch(bundle, [[(1, 1, 9)], [(9, 1, "a"), (9, 2, "b")]]) \
            == [["a", "b"]]

    def test_items_stay_in_pos_order(self):
        bundle, rows = self.fanout(10, 50)
        for members in stitch(bundle, rows):
            assert members == sorted(members)


class TestScalarRoot:
    def test_one_row_is_the_value(self):
        assert stitch(bundle_of(42), [[(1, 1, 7)]]) == 7

    def test_no_row_is_partial(self):
        with pytest.raises(PartialFunctionError,
                           match="the query produced no value"):
            stitch(bundle_of(42), [[]])

    def test_two_rows_is_an_error(self):
        with pytest.raises(ExecutionError,
                           match="scalar query produced 2 rows"):
            stitch(bundle_of(42), [[(1, 1, 7), (1, 2, 8)]])

    def test_wrong_number_of_result_sets(self):
        with pytest.raises(ExecutionError, match="backend returned 1 result "
                                                 "sets for a bundle of 2"):
            stitch(bundle_of([[1]]), [[]])


class TestFreshValues:
    def test_surrogate_read_twice_gives_distinct_lists(self):
        # Two outer rows carry one surrogate: equal values, and no list
        # shared at any depth.
        value = stitch(bundle_of([[[1]]]),
                       [[(1, 1, 5), (1, 2, 5)], [(5, 1, 8)], [(8, 1, 42)]])
        assert value == [[[42]], [[42]]]
        assert value[0] is not value[1]
        assert value[0][0] is not value[1][0]

    def test_mutation_does_not_reach_the_next_call(self):
        bundle = bundle_of([[1]])
        rows = [[(1, 1, 9), (1, 2, 3)], [(9, 1, 10), (9, 2, 11)]]
        first = stitch(bundle, rows)
        first[0].append(99)
        first.append([])
        assert stitch(bundle, rows) == [[10, 11], []]

    def test_mutating_a_run_result_does_not_reach_the_next_run(self):
        db = Connection()
        q = to_q(SHAPES["nest inside a tuple inside a nest"])
        value = db.run(q)
        value[0][0][1].clear()
        value.clear()
        assert db.run(q) == SHAPES["nest inside a tuple inside a nest"]


class TestCompiledOnce:
    def test_second_stitch_reuses_the_stitcher(self):
        bundle = bundle_of([[1]])
        rows = [[(1, 1, 9)], [(9, 1, 10)]]
        stitch(bundle, rows)
        stitcher = bundle.stitcher
        assert stitcher is not None
        assert stitch(bundle, rows) == [[10]]
        assert bundle.stitcher is stitcher

    def test_cached_plan_keeps_its_stitcher(self):
        db = Connection()
        q = to_q(SHAPES["depth 4"])
        db.run(q)
        stitcher = db.compile(q).bundle.stitcher
        db.run(q)
        db.prepare(q).execute()
        assert db.compile(q).bundle.stitcher is stitcher

    def test_stitcher_is_not_part_of_bundle_equality(self):
        a, b = bundle_of([[1]]), bundle_of([[1]])
        stitch(a, [[], []])
        assert a.stitcher is not None and b.stitcher is None
        assert repr(a) == repr(b)


class TestPlanKeyOnTheHandle:
    @staticmethod
    def db_and_query():
        db = Connection()
        db.create_table("t", [("n", int)], [(1,), (2,)])
        return db, db.table("t").map(lambda n: n * 10)

    def test_ddl_on_a_referenced_table_raises(self):
        db, q = self.db_and_query()
        assert db.run(q) == [10, 20]
        db.catalog.drop_table("t")
        db.create_table("t", [("n", str)], [("x",)])
        with pytest.raises(SchemaError):
            db.run(q)

    def test_ddl_elsewhere_recompiles(self):
        db, q = self.db_and_query()
        db.run(q)
        db.run(q)
        assert db.query_log.recent[0].cache_hit
        db.create_table("u", [("m", int)])
        assert db.run(q) == [10, 20]
        assert db.query_log.recent[0].cache_hit is False
        assert db.run(q) == [10, 20]
        assert db.query_log.recent[0].cache_hit

    def test_fingerprint_is_kept(self):
        db, q = self.db_and_query()
        fp = q.fingerprint()
        assert db.compile(q).fingerprint == fp
        assert q.fingerprint() is fp
        assert q.tables_referenced() is q.tables_referenced()
