"""Plan-cache correctness: fingerprints, hits, invalidation, eviction."""

import sys

import pytest

from repro import Connection, PlanCache, fmap, table, to_q
from repro.runtime import Catalog
from examples.workloads import paper_dataset, running_example_query
from repro.expr import fingerprint
from repro.expr.fingerprint import exp_fingerprint
from repro.runtime.plancache import CacheEntry, CacheKey

from ..conftest import map_chain


def make_catalog():
    cat = Catalog()
    cat.create_table("t", [("n", int)], [(1,), (2,), (3,)])
    return cat


def squares(db):
    """A fresh structurally-identical query each call (fresh lambda vars)."""
    return fmap(lambda x: x * x, db.table("t"))


class TestFingerprint:
    def test_stable_across_construction(self):
        db = Connection(catalog=make_catalog())
        assert squares(db).fingerprint() == squares(db).fingerprint()

    def test_alpha_invariant(self):
        # same program, different bound-variable names (fresh counter)
        a = fmap(lambda x: x + 1, to_q([1, 2]))
        b = fmap(lambda y: y + 1, to_q([1, 2]))
        assert a.fingerprint() == b.fingerprint()

    def test_different_programs_differ(self):
        a = fmap(lambda x: x + 1, to_q([1, 2]))
        b = fmap(lambda x: x + 2, to_q([1, 2]))
        c = fmap(lambda x: x + 1, to_q([1, 3]))
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3

    def test_table_schema_in_fingerprint(self):
        a = table("t", {"n": int})
        b = table("t", {"n": str})
        c = table("t", {"m": int})
        assert len({a.fingerprint(), b.fingerprint(), c.fingerprint()}) == 3

    def test_literal_type_in_fingerprint(self):
        assert to_q(1).fingerprint() != to_q(1.0).fingerprint()
        assert to_q(True).fingerprint() != to_q(1).fingerprint()

    def test_empty_list_element_type_in_fingerprint(self):
        from repro import nil
        from repro.ftypes import IntT, StringT
        assert nil(IntT).fingerprint() != nil(StringT).fingerprint()

    def test_digests_are_pinned(self):
        """Plan-cache keys are stable across releases of the walk."""
        assert exp_fingerprint(map_chain(3).exp) == (
            "8baa7ff7ba279ecd4622ca6f2f41e5cd"
            "fa33111dea7dc9017f5720430ed89ebe")
        db = Connection(catalog=paper_dataset())
        assert exp_fingerprint(running_example_query(db).exp) == (
            "38c45f99858978f8ac1364da150b20db"
            "1d25a3dcbb223d6ef4cf5b245c572224")

    def test_token_steps_grow_linearly_with_depth(self):
        """The token walk keeps its own stack: a program twice as deep
        resumes it twice as often, not four times (a recursive
        generator resumes every enclosing frame for each token)."""
        code = fingerprint._tokens.__code__
        steps = {}
        for n in (150, 300):
            exp = map_chain(n).exp
            count = 0

            def tracer(frame, event, arg):
                nonlocal count
                count += frame.f_code is code

            sys.settrace(tracer)
            try:
                exp_fingerprint(exp)
            finally:
                sys.settrace(None)
            steps[n] = count
        assert steps[150] > 150
        assert steps[300] <= 2.1 * steps[150]


class TestCacheHits:
    def test_same_program_twice_compiles_once(self):
        db = Connection(catalog=make_catalog())
        r1 = db.run(squares(db))
        r2 = db.run(squares(db))
        assert r1 == r2 == [1, 4, 9]
        assert db.cache_stats.misses == 1
        assert db.cache_stats.hits == 1

    def test_hit_skips_lift_and_optimization(self):
        db = Connection(catalog=make_catalog())
        cold = db.compile(squares(db))
        warm = db.compile(squares(db))
        assert not cold.cache_hit and warm.cache_hit
        # the optimizer ran on the cold path only
        assert cold.pass_stats is not None and cold.pass_stats.plans > 0
        assert warm.pass_stats is None
        assert "lift" in cold.timings and "lift" not in warm.timings
        assert "optimize" not in warm.timings

    def test_hit_returns_same_bundle_object(self):
        db = Connection(catalog=make_catalog())
        cold = db.compile(squares(db))
        warm = db.compile(squares(db))
        assert warm.bundle is cold.bundle

    def test_shared_cache_shares_across_connections(self):
        shared = PlanCache()
        cat = make_catalog()
        a = Connection(catalog=cat, plan_cache=shared)
        b = Connection(catalog=cat, plan_cache=shared)
        a.run(squares(a))
        b.run(squares(b))
        assert shared.stats.misses == 1 and shared.stats.hits == 1

    def test_codegen_cached_per_backend(self):
        db = Connection(backend="sqlite", catalog=make_catalog())
        db.run(squares(db))
        entry = db.compile(squares(db)).cache_entry
        code = entry.codegen["sqlite"]
        db.run(squares(db))
        assert entry.codegen["sqlite"] is code


class TestInvalidation:
    def test_ddl_forces_recompile(self):
        db = Connection(catalog=make_catalog())
        db.run(squares(db))
        db.catalog.drop_table("t")
        db.create_table("t", [("n", int)], [(5,)])
        # same program, same schema -- but the generation changed
        assert db.run(squares(db)) == [25]
        assert db.cache_stats.misses == 2

    def test_schema_change_is_checked_before_lookup(self):
        from repro.errors import SchemaError
        db = Connection(catalog=make_catalog())
        q = squares(db)  # declared against t(n: Int)
        db.run(q)
        db.catalog.drop_table("t")
        db.create_table("t", [("n", str)], [("x",)])
        with pytest.raises(SchemaError):
            db.run(q)

    def test_prepared_query_survives_ddl(self):
        db = Connection(catalog=make_catalog())
        prepared = db.prepare(squares(db))
        assert prepared.execute() == [1, 4, 9]
        db.catalog.drop_table("t")
        db.create_table("t", [("n", int)], [(7,)])
        assert prepared.execute() == [49]


class TestLRUEviction:
    def test_unit_eviction_order(self):
        cache = PlanCache(capacity=2)

        def key(i):
            return CacheKey(f"fp{i}", 0)

        cache.insert(key(1), CacheEntry(bundle=None))
        cache.insert(key(2), CacheEntry(bundle=None))
        assert cache.lookup(key(1)) is not None  # refresh 1; 2 is now LRU
        cache.insert(key(3), CacheEntry(bundle=None))
        assert cache.stats.evictions == 1
        assert cache.lookup(key(2)) is None
        assert cache.lookup(key(1)) is not None
        assert cache.lookup(key(3)) is not None

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_connection_eviction_at_capacity(self):
        db = Connection(catalog=make_catalog(), plan_cache=PlanCache(1))
        db.run(squares(db))
        db.run(fmap(lambda x: x + 1, db.table("t")))  # evicts squares
        assert db.cache_stats.evictions == 1
        db.run(squares(db))  # must recompile
        assert db.cache_stats.misses == 3
        assert db.cache_stats.hits == 0


class TestAccounting:
    def test_cached_executions_count_queries(self):
        # The Section 3.2 avalanche metric counts executions, not
        # compilations: three runs of a 1-query bundle issue 3 queries
        # even though the program compiled once.
        db = Connection(catalog=make_catalog())
        for _ in range(3):
            db.run(squares(db))
        assert db.cache_stats.misses == 1
        assert db.queries_issued == 3
        assert db.executions == 3

    def test_prepared_execution_counts_queries(self):
        db = Connection(catalog=make_catalog())
        prepared = db.prepare(squares(db))
        before = db.queries_issued
        prepared.execute()
        prepared.execute()
        assert db.queries_issued == before + 2 * prepared.query_count
        assert db.executions == 2

    def test_compile_alone_issues_nothing(self):
        db = Connection(catalog=make_catalog())
        db.compile(squares(db))
        assert db.queries_issued == 0 and db.executions == 0


class TestResultCorrectness:
    @pytest.mark.parametrize("backend", ["engine", "sqlite"])
    def test_cached_results_identical(self, backend):
        db = Connection(backend=backend, catalog=make_catalog())
        cold = db.run(squares(db))
        warm = db.run(squares(db))
        assert db.cache_stats.hits >= 1
        assert cold == warm == [1, 4, 9]

    @pytest.mark.parametrize("backend", ["engine", "sqlite"])
    def test_prepared_matches_run(self, backend):
        db = Connection(backend=backend, catalog=make_catalog())
        nested = fmap(lambda x: fmap(lambda y: y + x, db.table("t")),
                      db.table("t"))
        expected = db.run(nested)
        prepared = db.prepare(fmap(
            lambda x: fmap(lambda y: y + x, db.table("t")), db.table("t")))
        assert prepared.execute() == expected
