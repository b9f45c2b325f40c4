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

from repro import (
    Connection,
    PartialFunctionError,
    fmap,
    fsum,
    group_with,
    sort_with,
    sort_with_desc,
    the,
    to_q,
    tup,
)
from repro.algebra import Project, RowNum
from repro.backends.engine import Engine
from repro.backends.sql import SQLITE_DIALECT, SQLiteBackend, generate_bundle
from examples.workloads import (
    avalanche_dataset,
    raw_bundle,
    running_example_query,
)
from repro.ftypes import BoolT, DateT, DoubleT, IntT, StringT, TimeT
from repro.runtime import Catalog

from ..conftest import e2e_workloads, feature_meanings_query, run_all_ways
from .test_sql_operators import lt, serialized

W = e2e_workloads()
NESTED_ORDERS = next(p for p in W.CORPUS if p.name == "nested_orders")
INF = float("inf")


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


def orders_db(n_customers: int) -> Connection:
    """Nested orders' tables at ``n_customers``, on sqlite."""
    return Connection(backend="sqlite", catalog=W.make_catalog(
        W.orders_tables(n_customers, 1)))


def probed(db, q) -> list[tuple[str, str]]:
    """The catalog columns ``q``'s statements probe."""
    return sorted({pair for gen in db.backend.prepare_bundle(
        db.compile(q).bundle) for pair in gen.probes})


def index_columns(backend: SQLiteBackend) -> dict[str, tuple[str, ...]]:
    """The indexes ``main`` holds: name -> (table, its columns...)."""
    conn = backend._conn
    q = SQLITE_DIALECT.quote_ident
    return {name: (table, *(r[2] for r in conn.execute(
                f"PRAGMA main.index_info({q(name)})")))
            for name, table in conn.execute(
                "SELECT name, tbl_name FROM sqlite_master "
                "WHERE type = 'index'")}


def index_names(backend: SQLiteBackend) -> dict[str, tuple[str, str]]:
    """The indexes ``main`` holds: name -> (table, the column it is on)."""
    return {name: cols[:2] for name, cols in index_columns(backend).items()}


def query_plans(db, q) -> list[tuple[str, list[str]]]:
    """``EXPLAIN QUERY PLAN`` of every step's ``INSERT`` and every
    statement of ``q``'s warm run: (the step's operator or the
    statement, its plan lines)."""
    db.run(q)
    conn = db.backend._conn
    plans = []
    built: set[str] = set()
    conn.execute("BEGIN")
    try:
        for gen in db.backend.prepare_bundle(db.compile(q).bundle):
            for step in gen.steps:
                if step.name not in built:
                    built.add(step.name)
                    conn.execute(step.create)
                    plans.append((step.op, [r[-1] for r in conn.execute(
                        "EXPLAIN QUERY PLAN " + step.insert)]))
                    conn.execute(step.insert)
            plans.append((gen.text, [r[-1] for r in conn.execute(
                "EXPLAIN QUERY PLAN " + gen.text)]))
    finally:
        conn.rollback()
    return plans


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

    def test_outer_query_has_no_distinct_binding(self, db):
        # The appendix binds the distinct group rank and joins each
        # group's members back to it; both joins are 1:1, so the
        # optimizer drops them and the distinct binding with them.
        outer, _inner = bundle_script(db, running_example_query(db))
        assert "DISTINCT" not in outer
        assert "JOIN" not in outer

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
        # Q1 and Q2 both read the one table: the group spine, each
        # group's members numbered with the group rank beside them ...
        assert q1.steps[0].name == "ferry_m0000"
        assert "ferry_m0000" in [step.name for step in q2.steps]
        tables = {step.name for step in q1.steps + q2.steps}
        assert len(tables) == 1
        # ... and the run creates it once
        sent = statements_sent(db, q)
        created = [s for s in sent if s.startswith("CREATE TEMP TABLE")]
        assert len(created) == len(set(created)) == 1
        assert sum(s.startswith("INSERT INTO temp.") for s in sent) == 1
        # 4 auxiliary statements (BEGIN, CREATE + INSERT, ROLLBACK)
        # around the bundle's two
        assert len(sent) == 6

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
        an index per run.  Nested orders' surrogates are such keys, and
        the running example's one step is keyed by the facilities'
        positions; the shared sum of Figure 5's dot product has none and
        declares none."""
        orders = orders_db(20)
        code = orders.backend.prepare_bundle(
            orders.compile(NESTED_ORDERS.build(orders)).bundle)
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
        [spine] = {step.name: step for step in q1.steps + q2.steps}.values()
        assert spine.create.count("INTEGER PRIMARY KEY") == 1
        mix = Connection(backend="sqlite", catalog=W.make_catalog(
            W.paper_mix_tables(1, 42)))
        dotp = next(p for p in W.CORPUS if p.name == "dotp")
        [shared] = mix.backend.prepare_bundle(
            mix.compile(dotp.build(mix)).bundle)[0].steps
        assert "PRIMARY KEY" not in shared.create

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
        assert (outer + inner).count("CREATE TEMP TABLE") == 1
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


class TestProbedIndexes:
    """The catalog columns a bundle's joins probe carry an index, built
    once per loaded catalog; sqlite would otherwise build an automatic
    index on each of them on every run."""

    def test_the_columns_the_paper_programs_probe(self, db):
        assert probed(db, running_example_query(db)) == [
            ("features", "fac"), ("features", "feature"),
            ("meanings", "feature")]
        orders = orders_db(20)
        assert probed(orders, NESTED_ORDERS.build(orders)) == [
            ("lineitems", "oid"), ("orders", "cid")]

    def test_an_index_is_built_once_per_catalog_generation(self):
        db = orders_db(20)
        report = NESTED_ORDERS.build(db)
        customers, orders = db.table("customers"), db.table("orders")
        per_customer = fmap(lambda c: fmap(
            lambda o: o[2], orders.filter(lambda o: o[0] == c[0])), customers)
        assert ("orders", "cid") in probed(db, per_customer)
        indexed = sorted(set(probed(db, report) + probed(db, per_customer)))

        def built(*runs) -> list[str]:
            sent: list[str] = []
            db.backend._conn.set_trace_callback(sent.append)
            try:
                for q in runs:
                    db.run(q)
            finally:
                db.backend._conn.set_trace_callback(None)
            return [s for s in sent if s.startswith("CREATE INDEX")]

        # two bundles that probe orders.cid share its index
        assert len(built(report, report, per_customer, report)) == len(
            indexed)
        assert sorted(index_names(db.backend).values()) == indexed
        assert built(report, per_customer) == []
        # a reload drops every index with its table; the next runs
        # build them again, once
        db.create_table("extra", [("n", int)], [(1,)])
        assert len(built(report, per_customer, report)) == len(indexed)
        assert sorted(index_names(db.backend).values()) == indexed
        db.catalog.drop_table("extra")
        assert len(built(per_customer)) == len(probed(db, per_customer))
        assert sorted(index_names(db.backend).values()) == probed(
            db, per_customer)
        assert_idle(db.backend)

    def test_sums_over_a_probe_add_in_list_order(self):
        """The line items of one order come off the covering index in
        list order, so a ``Double`` sum adds them as the interpreter
        does: ``1e16, -1e16, 1.0`` sums to ``1.0`` in that order and to
        ``0.0`` in price order."""
        catalog = W.make_catalog({  # rows (line, oid, price), (cid, oid)
            "orders": ([("oid", int), ("cid", int)], [(1, 7), (2, 7)]),
            "lineitems": ([("oid", int), ("line", int), ("price", float)], [
                (1, 1, 1e16), (2, 2, 5.0), (1, 3, -1e16), (1, 4, 1.0)])})
        db = Connection(backend="sqlite", catalog=catalog)
        orders, lines = db.table("orders"), db.table("lineitems")
        q = fmap(lambda o: fsum(fmap(lambda li: li[2], lines.filter(
            lambda li: li[1] == o[1]))), orders)
        assert run_all_ways(q, catalog) == [1.0, 5.0]
        assert any(line.startswith("SEARCH main.lineitems USING COVERING")
                   for _, plan in query_plans(db, q) for line in plan)

    @pytest.mark.parametrize("program", ["running example", "nested orders"])
    def test_no_run_builds_an_automatic_index_on_a_catalog_table(
            self, program):
        if program == "nested orders":
            db = orders_db(200)
            q = NESTED_ORDERS.build(db)
        else:
            db = Connection(backend="sqlite", catalog=avalanche_dataset(20))
            q = running_example_query(db)
        plans = query_plans(db, q)
        assert len(plans) >= 3  # a step and the two or three statements
        automatic = [(what, line) for what, lines in plans for line in lines
                     if line.startswith(("SEARCH main.", "SCAN main."))
                     and "AUTOMATIC" in line]
        assert automatic == []
        # every probe of a catalog table reads its index alone
        searches = [line for _, lines in plans for line in lines
                    if line.startswith("SEARCH main.")]
        assert searches
        assert all("USING COVERING INDEX ferry_i" in line
                   for line in searches), searches


class TestRowidNumbering:
    """A step numbering its rows without a partition, whose number is its
    key, has no window: its ``INSERT`` selects the other columns in the
    numbering's order, and the table's rowid numbers them."""

    #: How a report arranges each region's customers: as stored, by
    #: name descending, by ``score * 0.0`` (a NaN for the one customer
    #: of its region scored ``inf``, ``-0.0`` for a negative score).
    ARRANGE = {
        "stored": lambda g: g,
        "desc": lambda g: sort_with_desc(lambda c: c[1], g),
        "double": lambda g: sort_with(lambda c: c[3] * 0.0, g),
    }

    @staticmethod
    def catalog(empty: "str | None") -> Catalog:
        tables = {
            "customers": ([("cid", int), ("name", str), ("region", str),
                           ("score", float)], [
                (1, "ann", "EU", 2.0), (2, "bob", "EU", -1.0),
                (3, "cy", "US", INF), (4, "di", "EU", 0.0),
                (5, "ed", "APAC", -0.0), (6, "fay", "APAC", 0.5)]),
            "orders": ([("oid", int), ("cid", int), ("month", int)], [
                (10, 1, 3), (11, 2, 1), (12, 3, 2), (13, 1, 1),
                (14, 5, 4), (15, 6, 2), (16, 2, 5)]),
            "lineitems": ([("oid", int), ("line", int), ("price", float)], [
                (10, 1, 1.5), (11, 1, -0.0), (12, 1, 2.0), (12, 2, 0.25),
                (14, 1, 3.0), (16, 1, -2.5), (16, 2, 0.0)]),
        }
        if empty is not None:
            tables[empty] = (tables[empty][0], [])
        return W.make_catalog(tables)

    @staticmethod
    def report(db, arrange):
        """Nested orders' shape: per region, each customer's name, score
        times zero and order totals."""
        customers, orders, lineitems = (
            db.table(t) for t in ("customers", "orders", "lineitems"))

        def totals(c):
            return fmap(lambda o: fsum(fmap(
                lambda li: li[2], lineitems.filter(lambda li: li[1] == o[2]))),
                orders.filter(lambda o: o[0] == c[0]))

        return fmap(lambda g: tup(
            the(fmap(lambda c: c[2], g)),
            fmap(lambda c: tup(c[1], c[3] * 0.0, totals(c)), arrange(g))),
            group_with(lambda c: c[2], customers))

    @staticmethod
    def rowid_steps(db, q) -> list:
        """The steps of ``q`` that number their rows by the rowid."""
        code = db.backend.prepare_bundle(db.compile(q).bundle)
        return [step for step in {step.name: step for gen in code
                                  for step in gen.steps}.values()
                if step.op.startswith("RowNum") and "OVER (" not in
                step.insert]

    def test_nested_orders_numbers_its_pairs_without_a_window(self):
        db = orders_db(20)
        [step] = self.rowid_steps(db, NESTED_ORDERS.build(db))
        assert "partition" not in step.op
        number = step.op.split()[1]
        assert f'"{number}" INTEGER PRIMARY KEY' in step.create
        assert f'"{number}"' not in step.insert
        assert "ORDER BY" in step.insert

    @pytest.mark.parametrize("empty", [None, "customers", "orders"])
    @pytest.mark.parametrize("arrange", ARRANGE)
    def test_keyed_numberings_agree_with_the_engine(self, arrange, empty):
        catalog = self.catalog(empty)
        db = Connection(backend="sqlite", catalog=catalog)
        q = self.report(db, self.ARRANGE[arrange])
        assert self.rowid_steps(db, q)
        run_all_ways(q, catalog)

    def test_an_outermost_numbering_drops_its_constant_partition(self):
        """The outermost list's ``iter`` is one constant: sorting it
        partitions by nothing, so its numbering is a keyed step that the
        rowid numbers."""
        catalog = self.catalog(None)
        db = Connection(backend="sqlite", catalog=catalog)
        orders, lines = db.table("orders"), db.table("lineitems")
        q = fmap(lambda o: tup(o[2], fmap(lambda li: li[2], lines.filter(
            lambda li: li[1] == o[2]))), sort_with_desc(lambda o: o[1], orders))
        [step] = self.rowid_steps(db, q)
        assert "partition" not in step.op
        assert run_all_ways(q, catalog)[:2] == [(16, [-2.5, 0.0]), (14, [3.0])]

    def test_a_descending_order_numbers_as_the_window_does(self):
        rows = lt([(1, "a"), (2, "c"), (2, "b"), (3, "a")],
                  ("k", IntT), ("s", StringT))
        num = RowNum(rows, "n", (("k", "desc"), ("s", "asc")))
        queries = [serialized(num),
                   serialized(Project(num, (("m", "n"), ("t", "s"))))]
        gen = generate_bundle(queries, keys={num: "n"})[0]
        assert "OVER (" not in gen.steps[0].insert
        backend = SQLiteBackend()
        backend._ensure_loaded(Catalog())
        got = sorted(row[2:] for row in backend.run_sql(gen, queries[0]))
        assert got == [(1, "a", 4), (2, "b", 2), (2, "c", 3), (3, "a", 1)]
        rel = Engine(Catalog()).execute(num)
        idx = [rel.col_index(c) for c in ("k", "s", "n")]
        assert got == sorted(tuple(r[i] for i in idx) for r in rel.rows)


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

    def test_tables_named_like_indexes(self):
        """Indexes share the catalog tables' namespace, case-insensitively:
        the generated names skip every table's, and never repeat."""
        catalog = Catalog()
        catalog.create_table("ferry_i0000", [("k", int), ("v", str)],
                             [(1, "a"), (2, "b"), (3, "c")])
        catalog.create_table("FERRY_I0001", [("k", int), ("w", int)],
                             [(1, 10), (1, 11), (2, 20)])
        catalog.create_table('ferry_i0002" ON x', [('k"', int), ("x y", int)],
                             [(2, 5), (3, 6)])
        db = Connection(catalog=catalog)
        a, b, c = (db.table(name) for name in (
            "ferry_i0000", "FERRY_I0001", 'ferry_i0002" ON x'))
        q = fmap(lambda r: tup(
            r[1],
            fmap(lambda s: s[1], b.filter(lambda s: s[0] == r[0])),
            fmap(lambda t: t[1], c.filter(lambda t: t[0] == r[0]))), a)
        assert run_all_ways(q, catalog) == [
            ("a", [10, 11], []), ("b", [20], [5]), ("c", [], [6])]
        sqlite = Connection(backend="sqlite", catalog=catalog)
        probes = probed(sqlite, q)
        assert probes == [("FERRY_I0001", "k"), ('ferry_i0002" ON x', 'k"')]
        sqlite.run(q)
        indexes = index_names(sqlite.backend)
        assert sorted(indexes.values()) == probes
        # each covers its table: the probed column, the position (the
        # rows of one value in list order), then every other column
        assert sorted(index_columns(sqlite.backend).values()) == [
            ("FERRY_I0001", "k", "pos", "w"),
            ('ferry_i0002" ON x', 'k"', "pos", "x y")]
        assert sorted(indexes) == ["ferry_i0002", "ferry_i0003"]
        # a later bundle's index skips the tables' names and the
        # indexes' already built
        later = fmap(lambda s: fmap(
            lambda r: r[1], a.filter(lambda r: r[0] == s[0])), b)
        assert ("ferry_i0000", "k") in probed(sqlite, later)
        assert run_all_ways(later, catalog) == [["a"], ["a"], ["b"]]
        sqlite.run(later)
        indexes = index_names(sqlite.backend)
        assert indexes["ferry_i0004"] == ("ferry_i0000", "k")
        assert not ({name.lower() for name in indexes}
                    & {name.lower() for name in catalog.table_names()})


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
