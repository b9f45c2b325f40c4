"""Differential: prepared queries survive DDL and stay semantics-faithful.

A :class:`PreparedQuery` compiled before ``create_table``/``drop_table``
DDL must transparently re-prepare (the catalog's schema generation is
part of the cache key) and afterwards agree with the reference
:class:`Interpreter` on every backend -- the prepared-handle variant of
the differential property suite.
"""

import pytest

from repro import Connection
from examples.workloads import numbers_dataset
from repro.semantics import Interpreter

BACKENDS = ("engine", "sqlite", "mil")


def fresh_connection(backend):
    db = Connection(backend=backend)
    db.create_table("nums", [("n", int)],
                    [(i,) for i in (3, 1, 4, 1, 5, 9, 2, 6)])
    return db


def nums_query(db):
    t = db.table("nums")
    return t.filter(lambda r: r > 2).map(lambda r: r * 10)


def oracle_value(db, q):
    return Interpreter(db.catalog).run(q.exp)


class TestPreparedAcrossDDL:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_create_table_reprepares_and_agrees(self, backend):
        db = fresh_connection(backend)
        q = nums_query(db)
        handle = db.prepare(q)
        before = handle.execute()
        assert before == oracle_value(db, q)

        db.create_table("unrelated", [("x", str)], [("a",)])
        after = handle.execute()
        assert after == oracle_value(db, q) == before

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_drop_and_recreate_with_new_rows(self, backend):
        db = fresh_connection(backend)
        q = nums_query(db)
        handle = db.prepare(q)
        # catalog rows are stored sorted: 3,1,4,1,5,9,2,6 -> 1,1,2,3,4,5,6,9
        assert handle.execute() == [30, 40, 50, 60, 90]

        # replace the table contents entirely: same schema, new instance
        db.catalog.drop_table("nums")
        db.create_table("nums", [("n", int)], [(7,), (2,), (8,)])
        q2 = nums_query(db)
        assert handle.execute() == oracle_value(db, q2) == [70, 80]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reprepare_happens_once_per_generation(self, backend):
        db = fresh_connection(backend)
        handle = db.prepare(nums_query(db))
        gen = handle._schema_generation
        db.create_table("other", [("x", int)], [(1,)])
        handle.execute()
        assert handle._schema_generation > gen
        bumped = handle._schema_generation
        handle.execute()  # no further DDL: no further re-prepare
        assert handle._schema_generation == bumped

    def test_reprepare_is_recorded_as_the_compile_that_ran(self):
        """An execute that re-prepares after DDL is a cache miss with
        compile phases -- in the trace, the flight recorder and the
        statement stats alike; the next execute is a plain hit again."""
        db = Connection(catalog=numbers_dataset(10))
        handle = db.prepare(db.table("nums").filter(lambda r: r > 2))
        db.create_table("other", [("x", int)], [(1,)])
        handle.execute()
        assert db.last_trace.find("cache-lookup").attrs["hit"] is False
        assert db.last_trace.find("lift") is not None
        rec = db.query_log.recent[0]
        assert rec.cache_hit is False
        assert {"lift", "optimize"} <= set(rec.phases)
        assert db.stats.get(handle.fingerprint)["cache_hits"] == 0
        handle.execute()
        rec = db.query_log.recent[0]
        assert rec.cache_hit is True
        assert set(rec.phases) == {"execute", "stitch"}
        assert db.stats.get(handle.fingerprint)["cache_hits"] == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dropped_table_surfaces_schema_error(self, backend):
        from repro.errors import SchemaError
        db = fresh_connection(backend)
        handle = db.prepare(nums_query(db))
        db.catalog.drop_table("nums")
        with pytest.raises(SchemaError):
            handle.execute()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bundle_size_is_stable_across_reprepare(self, backend):
        db = fresh_connection(backend)
        handle = db.prepare(nums_query(db))
        size = handle.query_count
        db.create_table("noise", [("x", int)])
        handle.execute()
        assert handle.query_count == size  # avalanche metric: type-determined
