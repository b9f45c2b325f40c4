"""End-to-end: the paper's Section 2 running example, on every backend.

The expected result is the nested list printed in the paper:

    [("API", []),
     ("LIB", ["respects list order", ...]),
     ("LIN", ["supports data nesting", ...]),
     ("ORM", ["supports data nesting", ...]),
     ("QLA", ["avoids query avalanches", ...])]
"""

from examples.workloads import running_example_query


def result_of(db):
    return db.run(running_example_query(db))


class TestRunningExample:
    def test_categories_in_order(self, any_backend_db):
        result = result_of(any_backend_db)
        assert [cat for cat, _ in result] == [
            "API", "LIB", "LIN", "ORM", "QLA"]

    def test_api_category_has_no_features(self, any_backend_db):
        result = dict(result_of(any_backend_db))
        assert result["API"] == []

    def test_paper_shape_holds(self, any_backend_db):
        result = dict(result_of(any_backend_db))
        assert "respects list order" in result["LIB"]
        assert "supports data nesting" in result["LIN"]
        assert "supports data nesting" in result["ORM"]
        assert "avoids query avalanches" in result["QLA"]

    def test_nub_removed_duplicates(self, any_backend_db):
        for _cat, meanings in result_of(any_backend_db):
            assert len(meanings) == len(set(meanings))

    def test_two_queries(self, paper_db):
        compiled = paper_db.compile(running_example_query(paper_db))
        assert compiled.query_count == 2

    def test_dsh_features_from_figure_one(self, paper_db):
        # Figure 1 gives DSH all of: list, nest, comp, aval, type, SQL!
        result = dict(result_of(paper_db))
        lib = set(result["LIB"])  # DSH and HaskellDB together
        assert {"respects list order", "supports data nesting",
                "avoids query avalanches",
                "is statically type-checked",
                "guarantees translation to SQL",
                "has compositional syntax and semantics"} <= lib


class TestAlternativeFormulations:
    def test_fluent_combinator_formulation(self, paper_db):
        from repro import concat_map, fst, group_with, nub, the, tup
        facilities = paper_db.table("facilities")
        features = paper_db.table("features")
        meanings = paper_db.table("meanings")

        def descr(f):
            return concat_map(
                lambda m: meanings.filter(lambda me: me[0] == m[1])
                                  .map(lambda me: me[1]),
                features.filter(lambda ft: ft[0] == f))

        q = group_with(lambda r: r[0], facilities).map(
            lambda g: tup(the(g.map(fst)),
                          nub(concat_map(lambda r: descr(r[1]), g))))
        assert q.ty.show() == "[(String, [String])]"
        fluent = paper_db.run(q)
        quoted = result_of(paper_db)
        assert ([(c, sorted(m)) for c, m in fluent]
                == [(c, sorted(m)) for c, m in quoted])

    def test_pyq_formulation(self, paper_db):
        from repro import pyq
        features = paper_db.table("features")
        meanings = paper_db.table("meanings")
        q = pyq("[m for (f2, m) in meanings"
                " for (fac, f) in features"
                " if f == f2 and fac == x]",
                meanings=meanings, features=features, x="DSH")
        assert sorted(paper_db.run(q)) == sorted([
            "respects list order", "supports data nesting",
            "has compositional syntax and semantics",
            "avoids query avalanches", "is statically type-checked",
            "guarantees translation to SQL"])
