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
    head,
    index,
    last,
    maximum_q,
    nil,
    nub,
    qc,
    queryable,
    table,
    tail,
    the,
    to_q,
)
from repro.errors import FerryError
from repro.ftypes import IntT


@pytest.fixture(params=("engine", "sqlite", "mil"))
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
        # An Int is what a SQL host can store.  The engine and the MIL VM
        # would carry the bignum and sqlite raise a stray OverflowError
        # at load time; the catalog decides it for all three, naming
        # table, column and row.
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
        # list order, so it must be total.  The engine and the MIL VM
        # would return whatever ``list.sort`` made of the NaN and sqlite
        # die of a stray TypeError; the catalog decides it for all
        # three, naming table, column and row.
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
        # as a UnicodeEncodeError while the engine and MIL return it.
        # The catalog decides it for all three, naming table, column
        # and row, and ``to_q`` refuses the same literal.
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
        # its SQL text while the engine and MIL return something else.
        with pytest.raises(QTypeError, match="64-bit|NaN"):
            db.run(literal())


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
