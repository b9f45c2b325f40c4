"""Property: avalanche safety (the paper's headline guarantee).

"It is exclusively the number of list constructors [.] in the program's
result type that determines the number of queries contained in the
emitted relational query bundle" (Section 3.2) -- for every random
program, and independently of the database instance size.
"""

from hypothesis import given

from .support import prop_settings

from repro import Connection, fmap
from repro.core import compile_exp
from repro.ftypes import ListT, count_list_constructors

from .strategies import any_query, int_list_query, nested_query

SETTINGS = prop_settings(40)


class TestBundleSizeEqualsListConstructors:
    @SETTINGS
    @given(int_list_query())
    def test_flat(self, q):
        assert compile_exp(q.exp).size == 1 == count_list_constructors(q.ty)

    @SETTINGS
    @given(nested_query())
    def test_nested(self, q):
        assert compile_exp(q.exp).size == 2 == count_list_constructors(q.ty)

    @SETTINGS
    @given(any_query())
    def test_any_list_result(self, q):
        bundle = compile_exp(q.exp)
        counted = count_list_constructors(q.ty)
        if isinstance(q.ty, ListT):
            assert bundle.size == counted
        else:
            # scalar and tuple results need one extra query for the
            # (single) top-level row
            assert bundle.size == counted + 1


class TestDataIndependence:
    @prop_settings(15)
    @given(nested_query())
    def test_same_program_same_bundle_for_any_instance(self, q):
        """The compiled artefact -- including the generated SQL script,
        temporary-table steps and all -- is identical regardless of how
        much data the tables hold."""
        texts = []
        for rows in (0, 3, 50):
            db = Connection(backend="sqlite")
            db.create_table("t", [("n", int)], [(i,) for i in range(rows)])
            inner = fmap(lambda x: q, db.table("t"))
            compiled = db.compile(inner)
            texts.append(tuple(db.backend.describe_prepared(
                db.backend.prepare_bundle(compiled.bundle))))
        assert texts[0] == texts[1] == texts[2]
        assert len(texts[0]) == count_list_constructors(ListT(q.ty))
