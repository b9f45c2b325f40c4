"""Unit tests of the plan-property inference engine on hand-built plans.

Each test pins one inference rule from ``repro.analysis.properties``
(keys, constants, cardinality bounds, density, order facts, provenance)
on a plan
small enough that the expected property set can be stated by hand; the
hypothesis suite (``tests/properties/test_property_inference.py``)
checks the same judgements against materialized relations at scale.
"""

from repro.algebra import (
    Attach,
    BinApp,
    Const,
    Cross,
    Distinct,
    EqJoin,
    GroupAggr,
    LitTable,
    Project,
    RowNum,
    RowRank,
    Select,
    SemiJoin,
    TableScan,
    UnionAll,
)
from repro.analysis import Card, infer_properties
from repro.backends.engine.evaluate import Engine
from repro.ftypes import BoolT, DoubleT, IntT, StringT
from repro.runtime import Catalog


def lit(*cols, rows=()):
    return LitTable(tuple(rows), tuple(cols))


#: iter-style column constant 1, item column with duplicates.
DUPS = lit(("i", IntT), ("v", IntT), rows=[(1, 10), (1, 20), (1, 10)])
#: duplicate-free item column.
UNIQ = lit(("i", IntT), ("v", IntT), rows=[(1, 10), (1, 20), (1, 30)])


class TestLiterals:
    def test_exact_cardinality(self):
        assert infer_properties(DUPS).card == Card(3, 3)

    def test_scanned_constants(self):
        p = infer_properties(DUPS)
        assert p.constants == {"i": 1}

    def test_scanned_keys_skip_duplicate_columns(self):
        assert not infer_properties(DUPS).has_key({"v"})
        assert infer_properties(UNIQ).has_key({"v"})

    def test_empty_literal_has_empty_key(self):
        p = infer_properties(lit(("a", IntT)))
        assert p.card.empty and p.has_key(frozenset())

    def test_dense_literal_column_counts_as_order(self):
        dense = lit(("p", IntT), ("v", IntT), rows=[(2, 5), (1, 6)])
        p = infer_properties(dense)
        assert p.order_ok("p") and not p.order_ok("v")


class TestPositionalScan:
    SCAN = TableScan("t", (("a", "a", IntT), ("b", "b", StringT)),
                     ("p", "pos"))

    def test_the_position_is_a_dense_key(self):
        p = infer_properties(self.SCAN)
        assert list(p.schema) == ["a", "b", "p"] and p.schema["p"] == IntT
        assert p.has_key({"p"}) and not p.has_key({"a", "b"})
        assert p.is_dense("p", ()) and p.order_ok("p")

    def test_it_is_a_row_number_not_a_rank_of_the_columns(self):
        # a table may hold a row twice: an order fact "p ranks (a, b)"
        # would make (a, b) a key and let a load-bearing Distinct go
        assert not infer_properties(self.SCAN).order
        catalog = Catalog()
        catalog.create_table("t", [("a", int), ("b", str)],
                             [(1, "x"), (1, "x"), (0, "y")])
        rel = Engine(catalog).execute(self.SCAN)
        assert rel.rows == [(0, "y", 1), (1, "x", 2), (1, "x", 3)]

    def test_a_scan_without_position_states_nothing_new(self):
        p = infer_properties(TableScan("t", (("a", "a", IntT),)))
        assert not p.keys and not p.dense and not p.provenance

    def test_the_least_position_of_a_group_tells_the_groups_apart(self):
        # nub: one row per distinct (a, b), ordered by first occurrence
        first = GroupAggr(self.SCAN, ("a", "b"), (("min", "p", "m"),))
        p = infer_properties(first)
        assert p.has_key({"m"}) and p.has_key({"a", "b"})
        assert p.order_ok("m")
        total = GroupAggr(self.SCAN, ("a",), (("sum", "p", "s"),))
        assert not infer_properties(total).has_key({"s"})
        assert not infer_properties(total).order_ok("s")


class TestUnaryRules:
    def test_distinct_keys_full_schema(self):
        p = infer_properties(Distinct(DUPS))
        # the constant column never splits groups, so the stripped
        # partition {v} is the minimal key
        assert p.has_key({"v"}) and p.has_key({"i", "v"})

    def test_attach_adds_constant(self):
        p = infer_properties(Attach(DUPS, "k", 7, IntT))
        assert p.constants["k"] == 7

    def test_project_renames_properties(self):
        p = infer_properties(Project(UNIQ, (("a", "v"), ("b", "i"))))
        assert p.has_key({"a"}) and p.constants == {"b": 1}

    def test_select_filtered_cardinality_and_learned_constant(self):
        flags = lit(("v", IntT), ("f", BoolT),
                    rows=[(1, True), (2, False), (3, True)])
        p = infer_properties(Select(flags, "f"))
        assert p.constants["f"] is True
        assert p.card == Card(0, 3)

    def test_rownum_key_density_and_provenance(self):
        num = RowNum(DUPS, "p", (("v", "asc"),), ("i",))
        p = infer_properties(num)
        assert p.has_key({"i", "p"}) and p.has_key({"p"})
        assert p.is_dense("p", ("i",))
        assert "p" in p.provenance

    def test_density_transfers_across_constant_partition_columns(self):
        # partition {i} vs {} differ only by the constant column i
        num = RowNum(DUPS, "p", (("v", "asc"),), ("i",))
        assert infer_properties(num).is_dense("p", ())

    def test_a_rank_of_tied_rows_is_one(self):
        rank = RowRank(DUPS, "r", (("i", "asc"),))
        assert infer_properties(rank).constants["r"] == 1

    def test_restricting_drops_the_keys_of_dropped_columns(self):
        num = RowNum(DUPS, "p", (("v", "asc"),))
        p = infer_properties(num).restricted(
            infer_properties(Project(num, (("i", "i"), ("v", "v")))).schema)
        assert all(k <= {"i", "v"} for k in p.keys)
        assert not p.dense

    def test_constant_one_is_dense_per_superkey(self):
        one = Attach(UNIQ, "p", 1, IntT)
        assert infer_properties(one).is_dense("p", ("v",))


class TestOrderFacts:
    """``(col, by, part)``: within ``part``, ``col`` is the dense rank of
    the ``by`` columns -- their row number where nothing ties."""

    TIES = lit(("g", IntT), ("v", IntT),
               rows=[(1, 30), (1, 10), (2, 30), (2, 30), (1, 10)])
    BY_V = (("v", "asc"),)
    RANKED = RowRank(TIES, "r", BY_V)

    def holds(self, plan) -> bool:
        """Every order fact inferred for ``plan`` is true of its rows."""
        rel = Engine(Catalog()).execute(plan)
        rows = list(zip(*rel.columns)) if rel.columns else []
        at = {c: i for i, c in enumerate(rel.cols)}
        facts = infer_properties(plan).order
        for col, by, part in facts:
            assert all(d == "asc" for _, d in by)  # enough for these plans
            for row in rows:
                group = [r for r in rows
                         if all(r[at[p]] == row[at[p]] for p in part)]
                before = {tuple(r[at[c]] for c, _ in by) for r in group
                          if tuple(r[at[c]] for c, _ in by)
                          < tuple(row[at[c]] for c, _ in by)}
                if row[at[col]] != 1 + len(before):
                    return False
        return bool(facts)

    def test_rowrank_states_its_order(self):
        assert infer_properties(self.RANKED).order == {
            ("r", self.BY_V, frozenset())}
        assert self.holds(self.RANKED)

    def test_rownum_states_it_only_without_ties(self):
        tied = RowNum(self.TIES, "n", self.BY_V, ("g",))
        assert not infer_properties(tied).order
        free = RowNum(UNIQ, "n", self.BY_V, ("i",))
        # the constant partition column i is normalized away
        assert infer_properties(free).order == {
            ("n", self.BY_V, frozenset())}
        assert self.holds(free)

    def test_survives_renaming_added_columns_and_distinct(self):
        plan = Distinct(Project(
            Attach(self.RANKED, "k", 7, IntT),
            (("w", "v"), ("s", "r"), ("k", "k"))))
        assert infer_properties(plan).order == {
            ("s", (("w", "asc"),), frozenset())}
        assert self.holds(plan)
        # ... where the rank is a row number: dense, and a key by itself
        p = infer_properties(plan)
        assert p.is_dense("s", ()) and p.has_key({"s"}) and p.has_key({"w"})
        assert p.order_ok("s")

    def test_falls_when_a_column_or_a_row_goes(self):
        assert not infer_properties(
            Project(self.RANKED, (("r", "r"), ("g", "g")))).order
        flagged = BinApp(self.RANKED, "gt", "v", Const(10, IntT), "f")
        assert infer_properties(flagged).order
        for filtered in (Select(flagged, "f"),
                         SemiJoin(self.RANKED, UNIQ, (("g", "i"),)),
                         EqJoin(self.RANKED, lit(("j", IntT), rows=[(2,)]),
                                (("g", "j"),)),
                         UnionAll(self.RANKED, self.RANKED)):
            assert not infer_properties(filtered).order

    def test_numbered_answers_the_second_numbering(self):
        p = infer_properties(Attach(self.RANKED, "k", 7, IntT))
        by_k_v = (("k", "asc"), ("v", "asc"))  # a constant orders nothing
        assert p.numbered(by_k_v, ("k",), unique=False) == "r"
        assert p.numbered((("v", "desc"),), (), unique=False) is None
        assert p.numbered(self.BY_V, ("g",), unique=False) is None
        # as a row number only where v tells all rows apart
        assert p.numbered(self.BY_V, (), unique=True) is None
        distinct = infer_properties(Distinct(Project(
            self.RANKED, (("v", "v"), ("r", "r")))))
        assert distinct.numbered(self.BY_V, (), unique=True) == "r"


class TestScalarApplications:
    def test_constant_folding_through_binapp(self):
        app = BinApp(DUPS, "add", "i", Const(2, IntT), "s")
        assert infer_properties(app).constants["s"] == 3

    def test_same_column_comparison_is_constant(self):
        eq = BinApp(DUPS, "eq", "v", "v", "t")
        ne = BinApp(DUPS, "ne", "v", "v", "u")
        lt = BinApp(DUPS, "lt", "v", "v", "w")
        assert infer_properties(eq).constants["t"] is True
        assert infer_properties(ne).constants["u"] is False
        # strict comparisons of a column with itself are constant False
        assert infer_properties(lt).constants["w"] is False


class TestEqualitySelection:
    """``Select c`` over ``c := x eq k`` leaves rows where ``x`` is the
    constant ``k`` -- unless ``x`` is a ``Double``: ``-0.0 eq 0.0``."""

    @staticmethod
    def selected(rows, ty, k):
        t = lit(("x", ty), ("n", IntT), rows=rows)
        return infer_properties(Select(BinApp(t, "eq", "x", Const(k, ty),
                                              "c"), "c"))

    def test_an_int_is_pinned(self):
        p = self.selected([(1, 1), (1, 2), (2, 1)], IntT, 1)
        assert p.constants["x"] == 1
        # a key that held x loses it: {x, n} narrows to {n}
        assert p.has_key({"n"})

    def test_a_string_is_pinned_either_side(self):
        t = lit(("x", StringT), rows=[("a",), ("b",)])
        p = infer_properties(Select(BinApp(
            t, "eq", Const("a", StringT), "x", "c"), "c"))
        assert p.constants["x"] == "a"

    def test_a_double_is_not(self):
        p = self.selected([(0.0, 1), (-0.0, 2)], DoubleT, 0.0)
        assert "x" not in p.constants

    def test_a_row_number_of_one_leaves_its_partition_a_key(self):
        num = RowNum(DUPS, "p", (("v", "asc"),), ("v",))
        first = Select(BinApp(num, "eq", "p", Const(1, IntT), "c"), "c")
        assert infer_properties(first).has_key({"v"})
        assert not infer_properties(num).has_key({"v"})


class TestBinaryRules:
    def test_cross_multiplies_cards_and_products_keys(self):
        right = lit(("w", IntT), rows=[(7,), (8,)])
        p = infer_properties(Cross(UNIQ, right))
        assert p.card == Card(6, 6)
        assert p.has_key({"v", "w"})
        assert not p.has_key({"v"}) and not p.has_key({"w"})

    def test_eqjoin_propagates_constants_across_pairs(self):
        left = lit(("a", IntT), rows=[(4,), (4,)])
        right = lit(("b", IntT), ("w", IntT), rows=[(4, 1), (5, 2)])
        p = infer_properties(EqJoin(left, right, (("a", "b"),)))
        # a is constant 4 on the left, so b = a is constant too
        assert p.constants["a"] == 4 and p.constants["b"] == 4

    def test_unionall_keeps_agreeing_constants(self):
        a = lit(("x", IntT), rows=[(1,), (1,)])
        b = lit(("x", IntT), rows=[(1,)])
        c = lit(("x", IntT), rows=[(2,)])
        assert infer_properties(UnionAll(a, b)).constants == {"x": 1}
        assert infer_properties(UnionAll(a, c)).constants == {}
        assert infer_properties(UnionAll(a, b)).card == Card(3, 3)


class TestMemoization:
    def test_shared_nodes_inferred_once(self):
        memo, schemas = {}, {}
        shared = Distinct(UNIQ)
        root = Cross(Project(shared, (("a", "v"),)),
                     Project(shared, (("b", "i"),)))
        infer_properties(root, memo, schemas)
        # 5 distinct nodes despite two paths to `shared`
        assert len(memo) == 5
        before = dict(memo)
        infer_properties(root, memo, schemas)
        assert {k: id(v) for k, v in memo.items()} == \
            {k: id(v) for k, v in before.items()}
