"""Property: inferred plan properties hold on materialized relations.

The inference engine (``repro.analysis.properties``) claims its ``keys``,
``constants``, ``card``, ``dense`` and ``order`` judgements are sound
for every instance.  This suite compiles random well-typed pipelines --
optimized, and as the lifter left them, where the numbering chains the
order facts are about still stand -- executes the bundle on the
in-memory engine with one memo for the whole bundle (so every
intermediate DAG node's relation is retained), and checks each
judgement against the actual rows -- a falsifier for the analysis layer
the same way ``test_differential`` falsifies the backends.
"""

from hypothesis import given

from examples.workloads import raw_bundle
from repro import Connection, concat_map, nub, number, sort_with_desc, tup
from repro.algebra import TableScan, postorder
from repro.analysis import infer_properties
from repro.backends.engine.evaluate import Engine
from repro.runtime import Catalog

from ..programs import programs
from .support import pair_rows, prop_settings

CATALOG = Catalog()
SETTINGS = prop_settings(30)


def dense_ranks(by_values: list, directions: list) -> dict:
    """value tuple -> its dense rank under the ``asc``/``desc`` order."""
    distinct = list(set(by_values))
    for i in reversed(range(len(directions))):  # stable, minor key first
        distinct.sort(key=lambda t: t[i], reverse=directions[i] == "desc")
    return {value: rank for rank, value in enumerate(distinct, start=1)}


def check_inference(program):
    q = program.query
    for optimize in (True, False):
        audit(q, optimize)


def audit(q, optimize, catalog=CATALOG):
    """Compile, materialize every node, and audit all inferred facts."""
    bundle = (Connection(catalog=catalog).compile(q).bundle if optimize
              else raw_bundle(q))
    engine = Engine(catalog)
    values = {}
    props_memo, schemas = {}, {}
    for query in bundle.queries:
        engine.execute(query.plan, values=values)
        infer_properties(query.plan, props_memo, schemas)

    audited = 0
    for nid, rel in values.items():
        props = props_memo.get(nid)
        if props is None:
            continue
        audited += 1
        idx = {c: i for i, c in enumerate(rel.cols)}

        assert props.card.contains(rel.nrows), (
            f"cardinality bound {props.card.show()} excludes the actual "
            f"{rel.nrows} rows")
        for col, want in props.constants.items():
            assert all(v == want for v in rel.columns[idx[col]]), (
                f"column {col!r} inferred constant {want!r} but varies")
        for key in props.keys:
            cols = sorted(key)
            if cols:
                proj = list(zip(*(rel.columns[idx[c]] for c in cols)))
            else:
                proj = [()] * rel.nrows
            assert len(set(proj)) == len(proj), (
                f"inferred key {{{', '.join(cols)}}} has duplicate "
                f"projections")
        for col, part in props.dense:
            groups: dict = {}
            pcols = sorted(part)
            for r in range(rel.nrows):
                gk = tuple(rel.columns[idx[c]][r] for c in pcols)
                groups.setdefault(gk, []).append(rel.columns[idx[col]][r])
            for gk, vals in groups.items():
                assert sorted(vals) == list(range(1, len(vals) + 1)), (
                    f"column {col!r} inferred dense per "
                    f"{{{', '.join(pcols)}}} but group {gk!r} holds {vals}")
        for col, by, part in props.order:
            pcols = sorted(part)
            groups = {}
            for r in range(rel.nrows):
                gk = tuple(rel.columns[idx[c]][r] for c in pcols)
                groups.setdefault(gk, []).append(
                    (tuple(rel.columns[idx[c]][r] for c, _ in by),
                     rel.columns[idx[col]][r]))
            for gk, pairs in groups.items():
                want = dense_ranks([v for v, _ in pairs], [d for _, d in by])
                assert all(rank == want[v] for v, rank in pairs), (
                    f"column {col!r} inferred the dense rank of {by} per "
                    f"{{{', '.join(pcols)}}} but group {gk!r} holds {pairs}")
    assert audited > 0


class TestPropertyInference:
    @SETTINGS
    @given(programs("pipeline"))
    def test_flat_pipelines(self, program):
        check_inference(program)

    @SETTINGS
    @given(programs("nested"))
    def test_nested_pipelines(self, program):
        check_inference(program)

    @prop_settings(20)
    @given(programs("any"))
    def test_mixed_shapes(self, program):
        check_inference(program)


class TestScanFacts:
    """The positional scan's key / dense-from-1 facts (and the
    keys a least position gives a ``nub``) on generated base tables --
    empty, duplicate-heavy, with whole duplicate rows."""

    @SETTINGS
    @given(pair_rows(), pair_rows())
    def test_positions_of_generated_tables(self, t_rows, u_rows):
        catalog = Catalog()
        for name, rows in (("t", t_rows), ("u", u_rows)):
            catalog.create_table(name, [("k", int), ("v", int)], rows)
        db = Connection(catalog=catalog)
        t, u = db.table("t"), db.table("u")
        programs = (
            number(t), nub(t), sort_with_desc(lambda r: r[1], t),
            concat_map(lambda r: u.filter(lambda s: s[0] == r[0]).map(
                lambda s: tup(r[1], s[1])), t))
        for q in programs:
            for optimize in (True, False):
                audit(q, optimize, catalog)
        # ... and the audit had the facts to falsify
        raw = raw_bundle(number(t))
        [scan] = [n for n in postorder(raw.queries[0].plan)
                  if isinstance(n, TableScan)]
        facts = infer_properties(scan)
        assert facts.has_key({scan.pos[0]}) and facts.is_dense(scan.pos[0], ())
        assert not facts.order
