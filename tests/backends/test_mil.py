"""The MIL column-at-a-time code generator and virtual machine."""

import pytest

from repro import Connection, fmap, group_with, to_q
from repro.backends.mil import MILGenerator
from repro.backends.mil import program as mil
from repro.bench.table1 import running_example_query
from repro.errors import PartialFunctionError


class TestInstructions:
    def run(self, instrs, out):
        vm = mil.MILVM({})
        program = mil.MILProgram(list(instrs), tuple(out))
        return vm.run(program)

    def test_litcol_and_map2(self):
        (result,) = self.run([
            mil.LitCol("a", (1, 2, 3)),
            mil.LitCol("b", (10, 20, 30)),
            mil.Map2("c", "add", "a", "b"),
        ], ["c"])
        assert result == [11, 22, 33]

    def test_map2const(self):
        (result,) = self.run([
            mil.LitCol("a", (1, 2)),
            mil.Map2Const("c", "sub", "a", 10, const_left=True),
        ], ["c"])
        assert result == [9, 8]

    def test_mask_and_take(self):
        (result,) = self.run([
            mil.LitCol("a", (5, -1, 7)),
            mil.Map2Const("m", "gt", "a", 0),
            mil.MaskIndex("i", "m"),
            mil.Take("out", "a", "i"),
        ], ["out"])
        assert result == [5, 7]

    def test_sortperm_rownumber(self):
        (result,) = self.run([
            mil.LitCol("g", (1, 1, 2)),
            mil.LitCol("v", (9, 3, 5)),
            mil.SortPerm("p", (("v", "asc"),)),
            mil.RowNumber("r", "p", ("g",)),
        ], ["r"])
        assert result == [2, 1, 1]

    def test_dense_rank(self):
        (result,) = self.run([
            mil.LitCol("v", (5, 3, 5)),
            mil.SortPerm("p", (("v", "asc"),)),
            mil.DenseRank("r", "p", ("v",)),
        ], ["r"])
        assert result == [2, 1, 2]

    def test_hash_join_index(self):
        (li, ri) = self.run([
            mil.LitCol("l", (1, 2)),
            mil.LitCol("r", (2, 2, 3)),
            mil.HashJoinIndex("li", "ri", ("l",), ("r",)),
        ], ["li", "ri"])
        assert list(zip(li, ri)) == [(1, 0), (1, 1)]

    def test_semi_and_anti(self):
        (semi, anti) = self.run([
            mil.LitCol("l", (1, 2, 3)),
            mil.LitCol("r", (2,)),
            mil.SemiIndex("s", ("l",), ("r",), anti=False),
            mil.SemiIndex("a", ("l",), ("r",), anti=True),
        ], ["s", "a"])
        assert semi == [1]
        assert anti == [0, 2]

    def test_group_aggregate(self):
        (keys, sums) = self.run([
            mil.LitCol("g", ("b", "a", "b")),
            mil.LitCol("v", (1, 2, 3)),
            mil.GroupAggregate(("g",), (("sum", "v", "s"),), ("k",)),
        ], ["k", "s"])
        assert sorted(zip(keys, sums)) == [("a", 2), ("b", 4)]

    def test_division_errors(self):
        with pytest.raises(PartialFunctionError):
            self.run([
                mil.LitCol("a", (1,)),
                mil.Map2Const("c", "idiv", "a", 0),
            ], ["c"])

    def test_program_show(self):
        program = mil.MILProgram(
            [mil.LitCol("a", (1, 2)), mil.Map2Const("b", "mul", "a", 3)],
            ("b",))
        text = program.show()
        assert "bat.new" in text
        assert "return (b)" in text


class TestBackend:
    def test_artifacts_contain_programs(self, paper_catalog):
        db = Connection(backend="mil", catalog=paper_catalog)
        compiled = db.compile(running_example_query(db))
        programs = db.backend.describe_prepared(
            db.backend.prepare_bundle(compiled.bundle))
        assert len(programs) == 2
        assert "join" in programs[1]

    def test_column_programs_match_row_engine(self, paper_catalog):
        q_mil = running_example_query(
            Connection(backend="mil", catalog=paper_catalog))
        mil_db = Connection(backend="mil", catalog=paper_catalog)
        eng_db = Connection(backend="engine", catalog=paper_catalog)
        assert mil_db.run(q_mil) == eng_db.run(q_mil)

    def test_transposes_only_the_tables_the_programs_read(
            self, paper_catalog, monkeypatch):
        paper_catalog.create_table("audit", [("who", str)], [("nobody",)])
        db = Connection(backend="mil", catalog=paper_catalog)
        q = running_example_query(db)
        want = db.run(q)  # cold: compile-time statistics read every table
        # one transposition per referenced table, none of the others ...
        assert sorted(paper_catalog._columns) == [
            "facilities", "features", "meanings"]
        kept = {t: dict(cols) for t, cols in paper_catalog._columns.items()}
        reads = []
        rows = paper_catalog.rows
        monkeypatch.setattr(paper_catalog, "rows",
                            lambda name: reads.append(name) or rows(name))
        assert db.run(q) == want
        # ... and none at all on a warm run: the scans share the columns
        assert reads == []
        for table, cols in paper_catalog._columns.items():
            assert all(cols[c] is kept[table][c] for c in cols)

    def test_generator_counts_instructions(self):
        db = Connection(backend="mil")
        compiled = db.compile(fmap(lambda x: x + 1, to_q([1, 2])))
        gen = MILGenerator()
        query = compiled.bundle.queries[0]
        program = gen.generate(query.plan,
                               (query.iter_col, query.pos_col)
                               + query.item_cols)
        assert len(program) > 3

    def test_nested_results(self):
        db = Connection(backend="mil")
        db.create_table("t", [("n", int)], [(2,), (1,)])
        q = group_with(lambda n: n % 2, db.table("t"))
        assert db.run(q) == [[2], [1]]
