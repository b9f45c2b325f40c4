"""SQL:1999 generation and the SQLite executor.

Includes the appendix golden test: the running example compiles to a
bundle of exactly two SQL statements whose shapes match the paper's --
a duplicate-elimination binding (DISTINCT) driving the outer query and a
DENSE_RANK binding carrying the group surrogates, built once in the step
both queries read -- and the
contract of the bundle script around them: every plan node shared inside
the bundle is built once as a temporary table, by a number of statements
that does not depend on the data, and nothing outlives the run.
"""

import datetime
import sqlite3

import pytest

from repro import Connection, PartialFunctionError, fmap, to_q
from repro.backends.sql import SQLITE_DIALECT, SQLiteBackend
from examples.workloads import (
    avalanche_dataset,
    raw_bundle,
    running_example_query,
)
from repro.ftypes import BoolT, DateT, DoubleT, IntT, StringT, TimeT
from repro.runtime import Catalog

from ..conftest import e2e_workloads, feature_meanings_query, run_all_ways


@pytest.fixture()
def db(paper_catalog):
    return Connection(backend="sqlite", catalog=paper_catalog)


def bundle_script(db, q):
    """Per bundle member: the statements it sends, as one text."""
    backend = db.backend
    return backend.describe_prepared(
        backend.prepare_bundle(db.compile(q).bundle))


def statements_sent(db, q) -> list[str]:
    """Every statement one warm ``run`` sends, via sqlite's trace hook."""
    db.run(q)
    sent: list[str] = []
    db.backend._conn.set_trace_callback(sent.append)
    try:
        db.run(q)
    finally:
        db.backend._conn.set_trace_callback(None)
    return sent


def assert_idle(backend: SQLiteBackend) -> None:
    """No temporary table and no open transaction outlive a run."""
    conn = backend._conn
    assert conn.execute(
        "SELECT count(*) FROM sqlite_temp_master").fetchone() == (0,)
    assert conn.in_transaction is False


class TestAppendixGolden:
    def test_running_example_is_two_statements(self, db):
        code = db.backend.prepare_bundle(
            db.compile(running_example_query(db)).bundle)
        assert len(code) == 2

    def test_outer_query_has_distinct_binding(self, db):
        outer, _inner = bundle_script(db, running_example_query(db))
        assert "SELECT DISTINCT" in outer

    def test_queries_use_rank_operators(self, db):
        outer, inner = bundle_script(db, running_example_query(db))
        # the group surrogate is ranked once, in a step both queries
        # read (printed with the first); positions are numbered in each
        assert (outer + inner).count("DENSE_RANK() OVER") == 1
        assert "DENSE_RANK() OVER" in outer
        assert "ROW_NUMBER() OVER" in outer
        assert "ROW_NUMBER() OVER" in inner

    def test_statements_are_cte_shaped_and_ordered(self, db):
        code = db.backend.prepare_bundle(
            db.compile(running_example_query(db)).bundle)
        for gen in code:
            assert gen.text.startswith("WITH")
            assert gen.text.rstrip().endswith(";")
            assert "ORDER BY" in gen.text
            assert "t0000" in gen.script()

    def test_result_matches_other_backends(self, db, paper_catalog):
        engine = Connection(backend="engine", catalog=paper_catalog)
        q1 = running_example_query(db)
        q2 = running_example_query(engine)
        assert db.run(q1) == engine.run(q2)


class TestBundleScript:
    def test_each_shared_node_is_materialised_once_per_bundle(self, db):
        q = running_example_query(db)
        q1, q2 = db.backend.prepare_bundle(db.compile(q).bundle)
        # Q1 and Q2 both read the first table ...
        assert q1.steps[0].name == "ferry_m0000"
        assert "ferry_m0000" in [step.name for step in q2.steps]
        tables = {step.name for step in q1.steps + q2.steps}
        assert len(tables) == 3
        # ... and the run creates it, like every other one, once
        sent = statements_sent(db, q)
        created = [s for s in sent if s.startswith("CREATE TEMP TABLE")]
        assert len(created) == len(set(created)) == 3
        assert sum(s.startswith("INSERT INTO temp.") for s in sent) == 3
        # 8 auxiliary statements (BEGIN, 3 x CREATE + INSERT, ROLLBACK)
        # around the bundle's two
        assert len(sent) == 10

    def test_statement_count_is_independent_of_the_data(self):
        counts = []
        for n in (5, 20):
            db = Connection(backend="sqlite", catalog=avalanche_dataset(n))
            before = db.backend.statements_executed
            sent = statements_sent(db, running_example_query(db))
            counts.append(len(sent))
            assert db.backend.statements_executed - before == 2 * 2
        assert counts[0] == counts[1]

    def test_a_step_declares_the_int_key_its_node_has(self, db):
        """A step whose node has a single-column ``Int`` key makes it the
        table's primary key -- SQLite's rowid alias, which the joins,
        groups and duplicate eliminations on it read instead of building
        an index per run.  Nested orders' surrogates are such keys; the
        running example's join step has none and declares none."""
        W = e2e_workloads()
        orders = Connection(backend="sqlite", catalog=W.make_catalog(
            W.orders_tables(20, 1)))
        program = next(p for p in W.CORPUS if p.name == "nested_orders")
        code = orders.backend.prepare_bundle(
            orders.compile(program.build(orders)).bundle)
        steps = {step.name: step for gen in code for step in gen.steps}
        assert all(step.create.count("PRIMARY KEY") == 1
                   for step in steps.values())
        [surrogate] = [step for step in steps.values()
                       if step.op.startswith("RowNum") and "partition"
                       not in step.op]
        number = surrogate.op.split()[1]
        assert f'"{number}" INTEGER PRIMARY KEY' in surrogate.create
        # the orders without line items: an anti-join that probes the
        # keyed step of the totals as it stands, no DISTINCT copy of it
        assert "LEFT JOIN temp.ferry_m" in code[2].text
        assert "DISTINCT" not in code[2].text
        q1, q2 = db.backend.prepare_bundle(
            db.compile(running_example_query(db)).bundle)
        [join] = {step.name: step for step in q1.steps + q2.steps
                  if step.op.startswith("EqJoin")}.values()
        assert "PRIMARY KEY" not in join.create

    def test_a_bundle_the_optimizer_never_saw_declares_no_key(self, db):
        bundle = raw_bundle(running_example_query(db))
        code = db.backend.prepare_bundle(bundle)
        assert not any("PRIMARY KEY" in step.create
                       for gen in code for step in gen.steps)
        assert db.backend.execute_bundle(
            bundle, db.catalog, prepared=code).rows

    def test_describe_prepared_prints_each_step_once(self, db):
        outer, inner = bundle_script(db, running_example_query(db))
        for part in (outer, inner):
            assert part.startswith("-- dialect sqlite")
        assert (outer + inner).count("CREATE TEMP TABLE") == 3
        assert outer.count("temp.ferry_m0000 (") == 1
        assert inner.count("temp.ferry_m0000 (") == 0

    def test_standalone_run_sql_builds_its_own_steps(self, db):
        q = running_example_query(db)
        bundle = db.compile(q).bundle
        backend = db.backend
        code = backend.prepare_bundle(bundle)
        bundle_rows = backend.execute_bundle(bundle, db.catalog,
                                             prepared=code).rows
        assert_idle(backend)
        for gen, query, rows in zip(code, bundle.queries, bundle_rows):
            assert backend.run_sql(gen, query) == rows
            assert_idle(backend)


class TestRowConversion:
    """The fetched rows are the result rows unless a column's type says
    otherwise -- decided once per statement, not per cell."""

    def test_int_and_string_rows_are_returned_as_fetched(self, db):
        q = running_example_query(db)
        for gen in db.backend.prepare_bundle(db.compile(q).bundle):
            assert gen.convert is None

    def test_only_the_columns_that_need_it_convert(self):
        db = Connection(backend="sqlite")
        day = datetime.date(2009, 6, 29)
        db.create_table("m", [("d", datetime.date), ("n", int),
                              ("ok", bool), ("x", float)],
                        [(day, 1, True, 2), (day, 2, False, 0.5)])
        query = db.compile(db.table("m")).bundle.queries[0]
        [gen] = db.backend.prepare_bundle(db.compile(db.table("m")).bundle)
        # (iter, pos, d, n, ok, x) as the driver hands it over
        raw = (1, 1, "2009-06-29", 1, 1, 2)
        assert gen.convert(raw) == (1, 1, day, 1, True, 2.0)
        assert type(gen.convert(raw)[5]) is float
        assert query.item_types == (DateT, IntT, BoolT, DoubleT)
        assert db.run(db.table("m")) == [(day, 1, True, 2.0),
                                         (day, 2, False, 0.5)]


class TestCleanup:
    """Temporary tables live in one transaction per run, rolled back on
    success and on error."""

    def test_nothing_outlives_a_successful_run(self, db):
        db.run(running_example_query(db))
        assert_idle(db.backend)

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_failure_mid_bundle(self, tmp_path, on_disk):
        path = str(tmp_path / "ferry.db") if on_disk else ":memory:"
        catalog = Catalog()
        catalog.create_table("t", [("n", int)], [(0,), (1,), (2,)])
        db = Connection(backend=SQLiteBackend(path=path), catalog=catalog)
        t = db.table("t")
        bad = db.prepare(fmap(lambda x: fmap(lambda y: x // y, t), t))
        good = fmap(lambda x: fmap(lambda y: x + y, t), t)

        sent: list[str] = []
        db.backend._conn.set_trace_callback(sent.append)
        with pytest.raises(PartialFunctionError):
            bad.execute()
        db.backend._conn.set_trace_callback(None)
        # Q1 ran, then Q2's FERRY_IDIV step failed in its INSERT, with the
        # shared step's temp table and its own in place
        assert sum(s.startswith("CREATE TEMP TABLE") for s in sent) == 2
        assert sum(s.startswith("WITH") for s in sent) == 1
        assert sent[-2].startswith("INSERT") and "FERRY_IDIV" in sent[-2]
        assert_idle(db.backend)

        assert db.run(good) == [[0, 1, 2], [1, 2, 3], [2, 3, 4]]
        with pytest.raises(PartialFunctionError):
            bad.execute()
        assert_idle(db.backend)
        assert db.run(good) == [[0, 1, 2], [1, 2, 3], [2, 3, 4]]
        if on_disk:
            with sqlite3.connect(path) as other:
                assert other.execute(
                    "SELECT name FROM sqlite_master").fetchall() == [("t",)]


class TestReservedNames:
    """Catalog tables named like the generator's own relations."""

    def test_tables_named_like_bindings_and_temp_tables(self):
        catalog = Catalog()
        for name in ("t0000", "t0001", "ferry_m0000"):
            catalog.create_table(name, [("a", int), ("b", int)],
                                 [(1, 10), (2, 20)])
        db = Connection(catalog=catalog)
        assert run_all_ways(fmap(lambda r: r[0], db.table("t0000")),
                            catalog) == [1, 2]
        # nested: bindings t0000.., and a temp table ferry_m0000, exist
        nested = fmap(
            lambda a: fmap(lambda b: a[0] + b[1],
                           db.table("ferry_m0000")),
            db.table("t0001"))
        sqlite = Connection(backend="sqlite", catalog=catalog)
        code = sqlite.backend.prepare_bundle(sqlite.compile(nested).bundle)
        assert code[0].steps[0].name == "ferry_m0000"
        assert run_all_ways(nested, catalog) == [[11, 21], [12, 22]]


class TestDialect:
    def test_sql_types(self):
        type_name = SQLITE_DIALECT.type_name
        assert type_name(IntT) == "INTEGER"
        assert type_name(BoolT) == "INTEGER"
        assert type_name(DoubleT) == "REAL"
        assert type_name(StringT) == "TEXT"
        assert type_name(DateT) == "TEXT"

    def test_literals(self):
        literal = SQLITE_DIALECT.literal
        assert literal(True, BoolT) == "1"
        assert literal(3, IntT) == "3"
        assert literal("o'hare", StringT) == "'o''hare'"
        assert literal(datetime.date(2009, 6, 29), DateT) == "'2009-06-29'"
        assert literal(datetime.time(12, 30), TimeT) == "'12:30:00'"


class TestExecution:
    def test_roundtrip_all_atom_types(self):
        db = Connection(backend="sqlite")
        value = [(True, 1, 2.5, "x",
                  datetime.date(2020, 2, 2), datetime.time(23, 59))]
        assert db.run(to_q(value)) == value

    def test_integer_division_floors(self):
        # sqlite's native '/' truncates; the FERRY_IDIV UDF must floor
        db = Connection(backend="sqlite")
        assert db.run(fmap(lambda x: x // 2, to_q([-7, 7]))) == [-4, 3]

    def test_mod_sign(self):
        db = Connection(backend="sqlite")
        assert db.run(fmap(lambda x: x % 3, to_q([-7, 7]))) == [2, 1]

    def test_division_by_zero_raises(self):
        db = Connection(backend="sqlite")
        with pytest.raises(PartialFunctionError):
            db.run(fmap(lambda x: x // (x - x), to_q([1])))

    def test_statement_accounting(self, paper_catalog):
        db = Connection(backend="sqlite", catalog=paper_catalog)
        backend: SQLiteBackend = db.backend
        before = backend.statements_executed
        db.run(running_example_query(db))
        assert backend.statements_executed - before == 2

    def test_statement_accounting_three_statement_bundle(self,
                                                         paper_catalog):
        db = Connection(backend="sqlite", catalog=paper_catalog)
        q = feature_meanings_query(db)
        assert db.compile(q).bundle.size == 3
        before = db.backend.statements_executed
        db.run(q)
        assert db.backend.statements_executed - before == 3
        assert db.queries_issued == 3

    def test_catalog_reload_on_version_change(self):
        db = Connection(backend="sqlite")
        db.create_table("t", [("n", int)], [(1,)])
        q = db.table("t")
        assert db.run(q) == [1]
        db.catalog.drop_table("t")
        db.create_table("t", [("n", int)], [(5,), (6,)])
        assert db.run(db.table("t")) == [5, 6]

    def test_a_fresh_catalog_at_a_freed_ones_address_is_loaded(self):
        """The backend holds the catalog it loaded: a fresh catalog that
        lands at a freed one's address, with the same schema generation,
        is loaded, not taken for the freed one."""
        backend = SQLiteBackend()
        db = Connection(backend=backend)
        db.create_table("t", [("n", int)], [(0,)])
        bundle = db.compile(fmap(lambda x: x + 0, db.table("t"))).bundle
        code = backend.prepare_bundle(bundle)
        for v in range(1, 300):
            catalog = Catalog()
            catalog.create_table("t", [("n", int)], [(v,)])
            [rows] = backend.execute_bundle(bundle, catalog,
                                            prepared=code).rows
            assert [row[-1] for row in rows] == [v]
            del catalog

    def test_empty_table(self):
        db = Connection(backend="sqlite")
        db.create_table("t", [("n", int)], [])
        assert db.run(db.table("t")) == []
