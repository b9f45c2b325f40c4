"""Failure injection: every documented error path raises precisely."""

import dataclasses
import math

import pytest

from repro import (
    Connection,
    PartialFunctionError,
    QTypeError,
    SchemaError,
    UnsupportedError,
    favg,
    fmap,
    foldr,
    fsum,
    group_with,
    head,
    index,
    last,
    length,
    maximum_q,
    minimum_q,
    nil,
    nub,
    qc,
    queryable,
    sort_with,
    table,
    tail,
    the,
    to_q,
)
from repro.errors import FerryError
from repro.ftypes import IntT
from repro.runtime import Catalog
from repro.semantics import Interpreter

from ..conftest import BACKENDS, map_chain


@pytest.fixture(params=BACKENDS)
def db(request):
    conn = Connection(backend=request.param)
    conn.create_table("t", [("n", int)], [(1,), (2,)])
    return conn


class TestSchemaFailures:
    def test_unknown_table(self, db):
        with pytest.raises(SchemaError):
            db.run(table("missing", {"n": int}))

    def test_row_type_mismatch(self, db):
        with pytest.raises(SchemaError):
            db.run(table("t", {"n": str}))

    def test_extra_column_mismatch(self, db):
        with pytest.raises(SchemaError):
            db.run(table("t", [("n", int), ("m", int)]))

    def test_errors_are_ferry_errors(self, db):
        with pytest.raises(FerryError):
            db.run(table("missing", {"n": int}))

    @pytest.mark.parametrize("hostile", [2 ** 63, -2 ** 63 - 1, 10 ** 30])
    def test_int_outside_signed_64_bit_is_rejected(self, db, hostile):
        # An Int is what a SQL host can store.  The engine would carry
        # the bignum and sqlite raise a stray OverflowError at load
        # time; the catalog decides it for both, naming table, column
        # and row.
        with pytest.raises(SchemaError) as err:
            db.create_table("big", [("id", int), ("n", int)],
                            [(1, 7), (2, hostile)])
        for part in ("'big'", "'n'", f"(2, {hostile})", "64-bit"):
            assert part in str(err.value)
        assert not db.catalog.has_table("big")

    def test_the_ends_of_the_signed_64_bit_range_are_ints(self, db):
        ends = [-2 ** 63, 2 ** 63 - 1]
        db.create_table("ends", [("n", int)], [(n,) for n in ends])
        assert db.run(db.table("ends")) == ends

    def test_a_record_table_rejects_the_same_int(self, db):
        @queryable
        @dataclasses.dataclass
        class Reading:
            sensor: str
            value: int

        with pytest.raises(SchemaError, match="'value'.*64-bit"):
            db.create_table_from_records(
                Reading, [Reading("a", 1), Reading("b", 2 ** 63)])
        assert not db.catalog.has_table("reading")


    @pytest.mark.parametrize("nan", [float("nan"), -float("nan")])
    def test_nan_is_rejected(self, db, nan):
        # The canonical row order is the only source of a base table's
        # list order, so it must be total.  The engine would return
        # whatever ``list.sort`` made of the NaN and sqlite die of a
        # stray TypeError; the catalog decides it for both, naming
        # table, column and row.
        with pytest.raises(SchemaError) as err:
            db.create_table("readings", [("id", int), ("x", float)],
                            [(1, 0.5), (2, nan), (3, -1.0)])
        for part in ("'readings'", "'x'", "(2, nan)", "NaN"):
            assert part in str(err.value)
        assert not db.catalog.has_table("readings")

    def test_infinities_are_doubles_and_order(self, db):
        values = [float("inf"), 0.0, float("-inf")]
        db.create_table("wide", [("x", float)], [(x,) for x in values])
        assert db.run(db.table("wide")) == sorted(values)

    def test_infinite_double_constants(self, db):
        # sqlite reads an overflowing literal as an infinity; the SQL
        # text must not spell the constant as Python's ``inf``.
        inf = float("inf")
        assert db.run(fmap(lambda x: x + inf, to_q([1.0, 2.0]))) == \
            [inf, inf]
        assert db.run(fmap(lambda x: x - inf, to_q([1.0]))) == [-inf]
        assert db.run(fsum(to_q([inf, 1.0]))) == inf

    def test_a_nan_result_is_a_nan(self, db):
        # sqlite stores the NaN of ``inf - inf`` and ``inf * 0`` as NULL;
        # Ferry has no NULL, so the sqlite backend reads it back as NaN.
        inf = float("inf")
        assert math.isnan(db.run(fsum(to_q([inf, -inf]))))
        nan, zero = db.run(fmap(lambda x: x * 0.0, to_q([inf, 1.0])))
        assert math.isnan(nan) and zero == 0.0

    @pytest.mark.parametrize("text", ["\x00", "\ud800", "a\udfffb"],
                             ids=["nul", "lone-surrogate", "inner-surrogate"])
    def test_text_outside_utf8_is_rejected(self, db, text):
        # sqlite stores UTF-8: a lone surrogate would escape its driver
        # as a UnicodeEncodeError while the engine returns it.  The
        # catalog decides it for both, naming table, column and row,
        # and ``to_q`` refuses the same literal.
        with pytest.raises(SchemaError) as err:
            db.create_table("notes", [("id", int), ("s", str)],
                            [(1, "ok"), (2, text)])
        for part in ("'notes'", "'s'", f"(2, {text!r})", "database text"):
            assert part in str(err.value)
        assert not db.catalog.has_table("notes")
        with pytest.raises(QTypeError, match="database text"):
            db.run(to_q(["fine", text]))

    def test_a_record_table_rejects_nan(self, db):
        @queryable
        @dataclasses.dataclass
        class Sample:
            sensor: str
            level: float

        with pytest.raises(SchemaError, match="'level'.*NaN"):
            db.create_table_from_records(
                Sample, [Sample("a", 1.0), Sample("b", float("nan"))])
        assert not db.catalog.has_table("sample")

    @pytest.mark.parametrize("literal", [
        lambda: to_q([2 ** 63, 1]),
        lambda: nub(to_q([float("nan"), 1.0, float("nan")])),
    ], ids=["int-outside-64-bit", "nan"])
    def test_query_literals_follow_the_table_rule(self, db, literal):
        # ``to_q`` checks a literal by the rule ``create_table`` uses, so
        # sqlite cannot widen the Int to a Double nor write the NaN into
        # its SQL text while the engine returns something else.
        with pytest.raises(QTypeError, match="64-bit|NaN"):
            db.run(literal())


INF = float("inf")
AGGREGATES = {"sum": fsum, "avg": favg, "maximum": maximum_q,
              "minimum": minimum_q}


def everywhere(build, catalog, outcome=lambda run: run()):
    """``build(db)``'s value on the interpreter and on every backend,
    each run through ``outcome``."""
    def on(backend):
        db = Connection(backend=backend, catalog=catalog)
        return lambda: db.run(build(db))

    runs = [lambda: Interpreter(catalog).run(
        build(Connection(catalog=catalog)).exp)]
    return [outcome(run) for run in runs + [on(b) for b in BACKENDS]]


def outcome(run):
    """``run()``'s value as its ``repr`` -- a NaN matches a NaN, an
    ``int`` does not match the ``float`` of the same number -- or the
    class of the ``FerryError`` it raised."""
    try:
        return repr(run())
    except FerryError as err:
        return type(err)


def assert_one_outcome(build, catalog):
    outcomes = everywhere(build, catalog, outcome)
    assert all(o == outcomes[0] for o in outcomes), outcomes


class TestNaNInAggregates:
    """A NaN inside an aggregate's input is the aggregate's value, as
    IEEE 754-2019 ``maximum``/``minimum`` have it, wherever it stands in
    the list and on every executor.  ``x * 0.0`` makes one of ``-inf``
    (sorted first) or ``inf`` (sorted last); sqlite stores that NaN as
    NULL, which its ``SUM``/``AVG``/``MIN``/``MAX`` would skip."""

    @pytest.mark.parametrize("agg", AGGREGATES)
    @pytest.mark.parametrize("rows", [[1.0, -INF, 2.0], [1.0, 2.0, INF]],
                             ids=["nan-first", "nan-last"])
    def test_top_level(self, rows, agg):
        catalog = Catalog()
        catalog.create_table("t", [("x", float)], [(x,) for x in rows])
        values = everywhere(lambda db: AGGREGATES[agg](
            fmap(lambda x: x * 0.0, db.table("t"))), catalog)
        assert all(map(math.isnan, values)), values

    @pytest.mark.parametrize("agg", AGGREGATES)
    def test_per_group(self, agg):
        # group 1 holds its NaN first, group 2 last, group 3 none
        catalog = Catalog()
        catalog.create_table("t", [("g", int), ("x", float)], [
            (1, 1.0), (1, -INF), (1, 2.0), (2, 1.0), (2, 2.0), (2, INF),
            (3, 1.0), (3, 2.0)])
        values = everywhere(lambda db: fmap(
            lambda grp: AGGREGATES[agg](fmap(lambda r: r[1] * 0.0, grp)),
            group_with(lambda r: r[0], db.table("t"))), catalog)
        for first, last, clean in values:
            assert math.isnan(first) and math.isnan(last) and clean == 0.0, \
                values


@pytest.mark.xfail(strict=True, reason="open (ROADMAP, the NaN key): "
                   "sqlite stores a NaN as NULL, which equals no other "
                   "NaN and sorts first")
class TestNaNKeys:
    """A NaN as a sort, group or ``nub`` key.  The interpreter and the
    engine compare by Python's ``<`` and ``==``, under which a NaN is
    neither less than nor equal to anything, so ``x * 0.0`` of ``-inf``
    (sorted first) and of ``inf`` (sorted last) stay apart and in
    place; sqlite reads both NaNs as one NULL key and sorts it first."""

    @staticmethod
    def catalog():
        catalog = Catalog()
        catalog.create_table("t", [("x", float)],
                             [(x,) for x in (1.0, -INF, 2.0, INF)])
        return catalog

    @staticmethod
    def ys(db):
        return fmap(lambda x: x * 0.0, db.table("t"))

    def test_sort_with(self):
        assert_one_outcome(
            lambda db: sort_with(lambda y: y, self.ys(db)), self.catalog())

    def test_group_with(self):
        assert_one_outcome(
            lambda db: group_with(lambda y: y, self.ys(db)), self.catalog())

    def test_nub(self):
        assert_one_outcome(lambda db: nub(self.ys(db)), self.catalog())


@pytest.mark.xfail(strict=True, reason="open (ROADMAP, Int overflow): a "
                   "computed Int outside signed 64 bits is a bignum on "
                   "the engine, a Double or an uncoded error on sqlite")
class TestIntOverflow:
    """``check_value`` refuses an input ``Int`` outside signed 64 bits
    (``TestSchemaFailures``), but a computed one gets through: the
    interpreter and the engine return the Python bignum, sqlite widens
    it to a ``Double`` inside an ``[Int]`` or raises an
    ``ExecutionError`` with no code."""

    @staticmethod
    def catalog():
        catalog = Catalog()
        catalog.create_table("t", [("x", int)], [(2 ** 62,), (2 ** 62,)])
        return catalog

    def test_an_overflowing_sum_of_two_columns(self):
        assert_one_outcome(
            lambda db: fmap(lambda x: x + x, db.table("t")), self.catalog())

    def test_an_overflowing_aggregate(self):
        assert_one_outcome(lambda db: fsum(db.table("t")), self.catalog())

    def test_an_overflow_in_the_dividend(self):
        assert_one_outcome(
            lambda db: fmap(lambda x: (0 - x - x) // -1, db.table("t")),
            self.catalog())


class TestStoredNegativeZero:
    """Catalog tables and temporary-table steps declare a ``Double``
    column with no type: ``REAL`` affinity would write ``-0.0`` as the
    integer 0, losing the sign wherever a value is stored rather than
    computed.  Compared by ``repr``: ``-0.0 == 0.0``."""

    def test_a_catalog_table(self):
        catalog = Catalog()
        catalog.create_table("t", [("x", float)], [(-0.0,), (1.0,)])
        assert_one_outcome(lambda db: db.table("t"), catalog)

    def test_a_step_table(self):
        # a division is a temporary-table step of its own
        assert_one_outcome(
            lambda db: fmap(lambda x: x / 1.0, to_q([-0.0, 1.0])),
            Catalog())


class TestPartialOperations:
    def test_head_of_empty(self, db):
        with pytest.raises(PartialFunctionError):
            db.run(head(db.table("t").filter(lambda n: n > 99)))

    def test_last_the_of_empty(self, db):
        empty = db.table("t").filter(lambda n: n > 99)
        with pytest.raises(PartialFunctionError):
            db.run(last(empty))
        with pytest.raises(PartialFunctionError):
            db.run(the(empty))

    def test_maximum_avg_of_empty(self, db):
        empty = db.table("t").filter(lambda n: n > 99)
        with pytest.raises(PartialFunctionError):
            db.run(maximum_q(empty))
        with pytest.raises(PartialFunctionError):
            db.run(favg(empty))

    def test_index_out_of_bounds(self, db):
        with pytest.raises(PartialFunctionError):
            db.run(index(db.table("t"), 99))

    def test_division_by_zero(self, db):
        with pytest.raises(PartialFunctionError):
            db.run(fmap(lambda n: n // (n - n), db.table("t")))

    @pytest.mark.parametrize("op", ["//", "%"])
    def test_a_division_no_row_reaches_does_not_raise(self, db, op):
        # Inside one statement sqlite may test the guard's comparison on
        # rows of the outer scan before the join that drops them.
        q = qc(f"[n | n <- t, (if n > 0 then 0 else 1 {op} 0) == 0]",
               t=db.table("t"))
        assert db.run(q) == [1, 2]


@pytest.mark.xfail(strict=True, reason="open (ROADMAP, partial operations "
                   "under iteration): the iteration's row is dropped")
class TestPartialOperationsUnderIteration:
    def test_head_of_empty_per_row(self, db):
        t = db.table("t")
        with pytest.raises(PartialFunctionError):
            db.run(fmap(lambda x: head(t.filter(lambda y: y > 100)), t))

    def test_maximum_of_empty_comprehension_per_row(self, db):
        with pytest.raises(PartialFunctionError):
            db.run(qc("[maximum([0 | y <- t, False]) | x <- t]",
                      t=db.table("t")))

    def test_index_out_of_bounds_per_row(self, db):
        t = db.table("t")
        with pytest.raises(PartialFunctionError):
            db.run(fmap(lambda x: index(t, x + 5), t))

    def test_tail_of_empty(self, db):
        t = db.table("t")
        empty = t.filter(lambda y: y > 100)
        with pytest.raises(PartialFunctionError):
            db.run(fmap(lambda x: tail(empty), t))
        with pytest.raises(PartialFunctionError):
            db.run(tail(empty))


class TestLongLiteralLists:
    """A literal list is one multi-row ``VALUES`` on SQLite, which caps a
    compound ``SELECT`` at 500 terms; every backend agrees past it."""

    @pytest.mark.parametrize("n", [600, 5000])
    def test_length_and_sum(self, db, n):
        assert db.run(length(to_q(list(range(n))))) == n
        assert db.run(fsum(to_q(list(range(n))))) == n * (n - 1) // 2

    @pytest.mark.parametrize("n", [600, 5000])
    def test_a_dense_dot_product(self, db, n):
        """Fig. 5's ``dotp`` with a dense vector of ``n`` elements."""
        dense = to_q([float(i % 7) for i in range(n)])
        sparse = to_q([(i, 0.5) for i in range(0, n, 97)])
        got = db.run(fsum(fmap(lambda p: p[1] * index(dense, p[0]),
                               sparse)))
        assert got == sum(0.5 * float(i % 7) for i in range(0, n, 97))

    def test_rows_of_tuples_keep_their_order(self, db):
        rows = [(i, f"s{i}", i % 2 == 0) for i in range(700)]
        assert db.run(to_q(rows)) == rows


class TestConstructionFailures:
    def test_general_folds(self):
        with pytest.raises(UnsupportedError):
            foldr(lambda a, b: a, 0, to_q([1]))

    def test_ill_typed_queries_fail_before_run(self):
        with pytest.raises(QTypeError):
            to_q(1) + "a"
        with pytest.raises(QTypeError):
            fmap(lambda x: x, to_q(1))

    def test_lambda_errors_carry_context(self):
        with pytest.raises(QTypeError) as err:
            fmap(lambda x: x + "a", to_q([1]))
        assert "map" in str(err.value)


class TestNestingLimit:
    """The expression passes recurse once per nesting level: a program
    nested past Python's recursion limit is refused with a
    ``FerryError`` by every entry point, and the connection lives on."""

    @pytest.mark.parametrize("n", [400, 1000])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_too_deep_a_program_is_unsupported(self, backend, n):
        db = Connection(backend=backend)
        q = map_chain(n)
        for call in (db.run, db.prepare, db.explain):
            with pytest.raises(UnsupportedError, match="nesting limit"):
                call(q)
        (record,) = db.query_log.recent  # the run's
        assert record.kind == "run" and record.rows is None
        assert record.error.startswith("UnsupportedError(")
        assert db.run(map_chain(2)) == [3, 4, 5]


class TestDocumentedDeviations:
    def test_tail_of_empty_is_empty_when_compiled(self, db):
        """`tail []` errors in Haskell and in the reference interpreter;
        relationally the rows simply vanish -- an empty result.  The
        deviation is documented in repro.core.lift_builtins."""
        empty = db.table("t").filter(lambda n: n > 99)
        assert db.run(tail(empty)) == []

    def test_oracle_raises_for_tail_of_empty(self):
        from repro.semantics import Interpreter
        with pytest.raises(PartialFunctionError):
            Interpreter().run(tail(nil(IntT)).exp)
