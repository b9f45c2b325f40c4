"""The join-graph-isolation normal form on the programs the paper is
about: same meaning, one term (hence one plan) whichever front end wrote
it, intermediates the size of the result, and a compile-time refusal
when the rewrite breaks its own contract."""

import re

import pytest

from repro import Connection, fmap, table, to_q
from repro.algebra import node_count
from examples.workloads import (
    avalanche_dataset,
    orders_dataset,
    running_example_variants,
)
from repro.core import bundle as bundle_module
from repro.core.bundle import compile_exp
from repro.errors import CompilationError
from repro.expr import (
    LitE,
    TupleE,
    TupleElemE,
    VarE,
    normalize,
    pretty,
    substitute,
)
from repro.ftypes import IntT, TupleT

from ..backends.test_sql_scaling import nested_orders_query
from ..conftest import BACKENDS, check_normal_form


class TestCorpus:
    @pytest.mark.parametrize("front_end", ["qc", "pyq", "fluent"])
    def test_running_example_keeps_its_meaning(self, paper_db, front_end):
        q = running_example_variants(paper_db)[front_end]
        normal = check_normal_form(q.exp, paper_db.catalog)
        assert normal is not q.exp

    def test_front_ends_normalise_to_one_term(self, paper_db):
        # qc differs from these two only outside the comprehension: it
        # maps ``snd`` over the group before iterating it
        variants = running_example_variants(paper_db)
        assert (_shape(normalize(variants["pyq"].exp))
                == _shape(normalize(variants["fluent"].exp)))
        assert _shape(variants["pyq"].exp) != _shape(variants["fluent"].exp)

    def test_single_generator_programs_are_left_alone(self):
        db = Connection(catalog=orders_dataset(8))
        q = nested_orders_query(db)
        assert check_normal_form(q.exp, db.catalog) is q.exp


def _shape(exp) -> str:
    """``pretty`` with binder names and equality orientation erased."""
    text = re.sub(r"x\d+", "x", pretty(exp))
    return re.sub(r"\((x[.\d]*) == (x[.\d]*)\)",
                  lambda m: "(%s == %s)" % tuple(sorted(m.groups())), text)


class TestConvergence:
    """At 100 categories the three front ends compile to the same plan
    shape, and no operator's output outgrows the data."""

    CATALOG = avalanche_dataset(100)
    INPUT_ROWS = 100 + 200 + 64

    def test_equal_plans_equal_results_result_sized_peaks(self):
        sizes, results = {}, {}
        for backend in BACKENDS:
            for name in ("qc", "pyq", "fluent"):
                db = Connection(backend=backend, catalog=self.CATALOG)
                q = running_example_variants(db)[name]
                sizes[name] = [node_count(query.plan)
                               for query in db.compile(q).bundle.queries]
                report = db.explain(q, analyze=True).analyze
                results[backend, name] = db.run(q)
                budget = 4 * (self.INPUT_ROWS + report.rows)
                for profile in report.queries:
                    # no per-operator data for a sqlite statement
                    # whose every step an earlier one built
                    if profile.ops:
                        assert profile.peak_rows <= budget
            assert sizes["qc"] == sizes["pyq"] == sizes["fluent"]
        assert len({repr(r) for r in results.values()}) == 1

    def test_the_switch_disables_the_normal_form_too(self, monkeypatch):
        db = Connection(catalog=self.CATALOG)
        exp = running_example_variants(db)["pyq"].exp
        isolated = compile_exp(exp)

        def refuse(e):
            raise AssertionError("normalize ran with decorrelate=False")
        monkeypatch.setattr(bundle_module, "normalize", refuse)
        naive = compile_exp(exp, decorrelate=False)
        assert ([node_count(q.plan) for q in naive.queries]
                != [node_count(q.plan) for q in isolated.queries])


class TestContractIsEnforced:
    XS = table("xs", [("a", int)])

    def test_type_change_is_refused_at_compile_time(self, monkeypatch):
        monkeypatch.setattr(bundle_module, "normalize",
                            lambda e: to_q([1.5]).exp)
        with pytest.raises(CompilationError, match="join-graph isolation"):
            compile_exp(self.XS.exp)

    def test_captured_variable_is_refused_at_compile_time(self, monkeypatch):
        monkeypatch.setattr(bundle_module, "normalize",
                            lambda e: VarE("leaked", e.ty))
        with pytest.raises(CompilationError, match="free variables"):
            compile_exp(self.XS.exp)


class TestSubstitute:
    T = VarE("t", TupleT((IntT, IntT)))

    def test_projection_of_a_substituted_pair_reduces(self):
        x, y = VarE("x", IntT), VarE("y", IntT)
        e = TupleElemE(self.T, 1)
        assert substitute(e, {"t": TupleE((x, y))}) is y

    def test_untouched_expression_is_returned_itself(self):
        e = TupleElemE(self.T, 0)
        assert substitute(e, {"u": LitE(1, IntT)}) is e

    def test_rebound_name_is_not_replaced(self):
        lam = fmap(lambda v: v + 1, to_q([1])).exp.args[0]
        assert substitute(lam, {lam.param: LitE(7, IntT)}) is lam
