"""The plan-shape scaling gate, without a clock.

The engine counts the rows every operator emits; their sum over one run
is the work the *plan* makes any backend do -- the same number on every
machine.  With join-graph isolation the running example's intermediates
are the size of its result, so doubling the data at most (a little more
than) doubles that sum: before, ``loop x meanings`` and the late
``feat == feat2`` filter moved 64 rows per facility and feature through
25 operators (3.39 M rows at 800 categories for 1 993 result rows).
"""

from repro import Connection, pyq, qc
from repro.algebra import postorder
from examples.workloads import (
    avalanche_dataset,
    orders_dataset,
    running_example_query,
)

from .test_sql_scaling import nested_orders_query

#: Allowed growth of the summed operator output per doubling of the data.
MAX_GROWTH = 2.1

FLAT_JOIN = ("(c, m)", ("(c, f)", "fac"), ("(f2, ft)", "feat"),
             ("(ft2, m)", "mean"), "f == f2 and ft == ft2")


def flat_join(db: Connection, front_end: str):
    """facilities x features x meanings with both join predicates in one
    trailing guard: no nesting, three generators."""
    head, *gens, guard = FLAT_JOIN
    if front_end == "qc":
        src = "[%s | %s, %s]" % (
            head, ", ".join(f"{pat} <- {t}" for pat, t in gens), guard)
        quote = qc
    else:
        src = "[%s %s if %s]" % (
            head, " ".join(f"for {pat} in {t}" for pat, t in gens), guard)
        quote = pyq
    return quote(src, fac=db.table("facilities"), feat=db.table("features"),
                 mean=db.table("meanings"))


def operator_rows(db: Connection, q) -> int:
    """Rows emitted by all operators of all bundle queries in one run."""
    report = db.explain(q, analyze=True).analyze
    return sum(op.rows_out for profile in report.queries
               for op in profile.ops)


def test_running_example_rows_grow_linearly():
    sizes = (50, 100, 200)
    counts = []
    for size in sizes:
        db = Connection(catalog=avalanche_dataset(size))
        counts.append(operator_rows(db, running_example_query(db)))
    for small, large in zip(counts, counts[1:]):
        assert large <= MAX_GROWTH * small, (
            f"superlinear plan: {dict(zip(sizes, counts))} operator rows")
    # ~77 operators over 664 input and ~600 result rows: 15.5 operator
    # rows per data row (537 with the data-sized intermediates)
    assert counts[-1] <= 25 * (664 + 600)


def test_flat_join_costs_the_same_through_either_front_end():
    db = Connection(catalog=avalanche_dataset(50))
    via_qc = operator_rows(db, flat_join(db, "qc"))
    via_pyq = operator_rows(db, flat_join(db, "pyq"))
    assert db.run(flat_join(db, "qc")) == db.run(flat_join(db, "pyq"))
    # pyq leaves the guard around the whole product (492 k rows as
    # written); the normal form places it like qc's
    assert via_pyq <= 2 * via_qc
    assert via_qc <= 40 * (50 + 100 + 64)


def test_nested_orders_rows_follow_the_shared_spine():
    """Nested orders groups its customers once for all three queries of
    its bundle; a plan node shared by several queries runs once, so it
    counts once here."""
    sizes = (50, 100, 200)
    counts = []
    for size in sizes:
        catalog = orders_dataset(size)
        db = Connection(catalog=catalog)
        q = nested_orders_query(db)
        report = db.explain(q, analyze=True).analyze
        rows = {}
        for profile, query in zip(report.queries, db.compile(q).bundle.queries):
            nodes = list(postorder(query.plan))
            rows.update((id(nodes[op.ref]), op.rows_out)
                        for op in profile.ops)
        counts.append(sum(rows.values()))
    for small, large in zip(counts, counts[1:]):
        assert large <= MAX_GROWTH * small, (
            f"superlinear plan: {dict(zip(sizes, counts))} operator rows")
    data_rows = sum(len(catalog.rows(t)) for t in catalog.table_names())
    # 48 operators and no numbering of the line items: 5.6 operator rows
    # per input + result row (8.9 with one spine per query, 80 operators)
    assert counts[-1] <= 6.5 * (data_rows + report.rows)
