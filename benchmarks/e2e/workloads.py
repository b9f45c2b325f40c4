"""The benchmark's own inputs: data generators, programs, references.

Everything the four workloads run lives here and nowhere else -- no
import from ``repro.bench``, ``tests/`` or ``examples/`` -- so a later
PR that edits those cannot change what the benchmark measures.  The
program under test receives only the generated rows; ``--seed`` feeds
the generators and the ``paper_mix_engine`` program order.

Generators keep every *count* independent of the seed (rows per table,
group sizes as a multiset, result rows up to nub collisions): the seed
decides which customer gets which order count, which features a
facility has, every price and month -- never how much work there is.
Timings of two seeds are therefore comparable, which the driver's
ten-seed spread check relies on.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Any, Callable

from repro import (
    Connection,
    all_q,
    and_q,
    any_q,
    append,
    cat_maybes,
    concat_map,
    cond,
    cons,
    drop,
    drop_while,
    favg,
    fmap,
    fst,
    fsum,
    group_with,
    head,
    index,
    just,
    last,
    lefts,
    left,
    length,
    maximum_q,
    minimum_q,
    nothing,
    nub,
    null,
    number,
    or_q,
    pyq,
    qc,
    queryable,
    reverse,
    right,
    rights,
    sort_with,
    sort_with_desc,
    table_for,
    take,
    take_while,
    the,
    to_q,
    tup,
    unzip_q,
    zip_q,
)
from repro.ftypes import IntT, StringT
from repro.runtime import Catalog
from repro.semantics import Interpreter

def make_catalog(tables: dict) -> Catalog:
    """``tables``: name -> (declared schema, rows in declared order)."""
    catalog = Catalog()
    for name, (schema, rows) in tables.items():
        catalog.create_table(name, schema, rows)
    return catalog


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------

#: Figure 1 of the paper, verbatim.
FIG1_FACILITIES = [
    ("SQL", "QLA"), ("ODBC", "API"), ("LINQ", "LIN"), ("Links", "LIN"),
    ("Rails", "ORM"), ("DSH", "LIB"), ("ADO.NET", "ORM"),
    ("Kleisli", "QLA"), ("HaskellDB", "LIB"),
]
FIG1_MEANINGS = [
    ("list", "respects list order"),
    ("nest", "supports data nesting"),
    ("aval", "avoids query avalanches"),
    ("type", "is statically type-checked"),
    ("SQL!", "guarantees translation to SQL"),
    ("maps", "admits user-defined object mappings"),
    ("comp", "has compositional syntax and semantics"),
]
FIG1_FEATURES = [
    ("SQL", "aval"), ("SQL", "type"), ("SQL", "SQL!"),
    ("LINQ", "nest"), ("LINQ", "comp"), ("LINQ", "type"),
    ("Links", "comp"), ("Links", "type"), ("Links", "SQL!"),
    ("Rails", "nest"), ("Rails", "maps"),
    ("DSH", "list"), ("DSH", "nest"), ("DSH", "comp"),
    ("DSH", "aval"), ("DSH", "type"), ("DSH", "SQL!"),
    ("ADO.NET", "maps"), ("ADO.NET", "comp"), ("ADO.NET", "type"),
    ("Kleisli", "list"), ("Kleisli", "nest"), ("Kleisli", "comp"),
    ("Kleisli", "type"),
    ("HaskellDB", "comp"), ("HaskellDB", "type"), ("HaskellDB", "SQL!"),
]

_FACILITIES_SCHEMA = [("fac", str), ("cat", str)]
_FEATURES_SCHEMA = [("fac", str), ("feature", str)]
_MEANINGS_SCHEMA = [("feature", str), ("meaning", str)]

N_MEANINGS = 64
FEATURES_PER_FACILITY = 2


def avalanche_tables(n_categories: int, seed: int) -> dict:
    """The Table 1 instance, scaled by the number of distinct categories.

    A quarter of the categories (which ones: the seed) hold two
    facilities, the rest one; every facility has two of the 64 features
    (which ones: the seed).  ``features x meanings`` is the large
    intermediate (2.5 * 64 rows per category).
    """
    rng = random.Random(seed)
    meanings = [(f"feat{i:05d}", f"meaning of feature {i:05d}")
                for i in range(N_MEANINGS)]
    doubled = set(rng.sample(range(n_categories), n_categories // 4))
    facilities, features = [], []
    for c in range(n_categories):
        for f in range(2 if c in doubled else 1):
            fac = f"fac{c:07d}_{f}"
            facilities.append((fac, f"cat{c:07d}"))
            for feat, _ in rng.sample(meanings, FEATURES_PER_FACILITY):
                features.append((fac, feat))
    return {"facilities": (_FACILITIES_SCHEMA, facilities),
            "features": (_FEATURES_SCHEMA, features),
            "meanings": (_MEANINGS_SCHEMA, meanings)}


def _dealt(rng: random.Random, cycle: list, n: int) -> list:
    """``n`` values cycling through ``cycle``, dealt in seeded order: the
    multiset is fixed by ``n`` alone, the assignment by the seed."""
    values = [cycle[i % len(cycle)] for i in range(n)]
    rng.shuffle(values)
    return values


def orders_tables(n_customers: int, seed: int) -> dict:
    """customers / orders / lineitems: 0-5 orders per customer, 1-4 line
    items per order, three balanced regions."""
    rng = random.Random(seed)
    regions = _dealt(rng, ["APAC", "EU", "US"], n_customers)
    order_counts = _dealt(rng, [0, 1, 2, 3, 4, 5], n_customers)
    item_counts = _dealt(rng, [1, 2, 3, 4], sum(order_counts))
    customers, orders, items = [], [], []
    for cid in range(n_customers):
        customers.append((cid, f"customer{cid:05d}", regions[cid]))
        for _ in range(order_counts[cid]):
            oid = len(orders)
            orders.append((oid, cid, rng.randint(1, 12)))
            for line in range(item_counts[oid]):
                items.append((oid, line, round(rng.uniform(1.0, 500.0), 2)))
    return {"customers": ([("cid", int), ("name", str), ("region", str)],
                          customers),
            "orders": ([("oid", int), ("cid", int), ("month", int)], orders),
            "lineitems": ([("oid", int), ("line", int), ("price", float)],
                          items)}


def paper_mix_tables(copies: int, seed: int) -> dict:
    """``copies`` disjoint copies of the Figure 1 tables (copy 0 is the
    paper's, verbatim; later copies suffix every key with ``~k``) plus the
    orders schema at 8 customers per copy."""
    def tag(s: str, k: int) -> str:
        return s if k == 0 else f"{s}~{k}"

    ks = range(copies)
    tables = {
        "facilities": (_FACILITIES_SCHEMA,
                       [(tag(f, k), tag(c, k))
                        for k in ks for f, c in FIG1_FACILITIES]),
        "features": (_FEATURES_SCHEMA,
                     [(tag(f, k), tag(x, k))
                      for k in ks for f, x in FIG1_FEATURES]),
        "meanings": (_MEANINGS_SCHEMA,
                     [(tag(x, k), tag(m, k))
                      for k in ks for x, m in FIG1_MEANINGS]),
    }
    tables.update(orders_tables(8 * copies, seed))
    return tables


# ----------------------------------------------------------------------
# programs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Program:
    name: str
    #: Which part of the language the program covers.
    family: str
    #: Why it is in the corpus.
    why: str
    #: Hand-written result type: fixes the bundle size the avalanche
    #: check expects, independently of the compiler.
    result_type: str
    build: Callable[[Connection], Any]

    @property
    def expected_queries(self) -> int:
        """One query per ``[.]`` in the result type, plus one carrier
        query when the result is not itself a list (Section 3.2)."""
        lists = self.result_type.count("[")
        return lists if self.result_type.startswith("[") else lists + 1


def _running_example_qc(db):
    facilities = db.table("facilities")
    features = db.table("features")
    meanings = db.table("meanings")

    def descr_facility(f):
        return qc("[mean | (feat, mean) <- meanings,"
                  " (fac, feat2) <- features,"
                  " feat == feat2 and fac == f]",
                  meanings=meanings, features=features, f=f)

    return qc("[(the(cat), nub(concatMap(descr, fac)))"
              " | (cat, fac) <- facilities, then group by cat]",
              facilities=facilities, descr=descr_facility)


def _running_example_fluent(db):
    facilities = db.table("facilities")
    features = db.table("features")
    meanings = db.table("meanings")

    def descr(f):
        return concat_map(
            lambda me: features.filter(
                lambda ft: (ft[1] == me[0]) & (ft[0] == f))
            .map(lambda ft: me[1]),
            meanings)

    return group_with(lambda r: r[0], facilities).map(
        lambda g: tup(the(g.map(fst)),
                      nub(concat_map(lambda r: descr(r[1]), g))))


def _running_example_pyq(db):
    facilities = db.table("facilities")
    features = db.table("features")
    meanings = db.table("meanings")

    def descr(f):
        return pyq("[mean for (feat, mean) in meanings"
                   " for (fac, feat2) in features"
                   " if feat == feat2 and fac == f]",
                   meanings=meanings, features=features, f=f)

    return pyq("[(the([cat for (cat, fac) in g]),"
               "  nub([m for (cat, fac) in g for m in descr(fac)]))"
               " for g in groups]",
               groups=group_with(lambda r: r[0], facilities),
               descr=descr, the=the, nub=nub)


def _nested_orders(db):
    customers = db.table("customers")    # rows: (cid, name, region)
    orders = db.table("orders")          # rows: (cid, month, oid)
    lineitems = db.table("lineitems")    # rows: (line, oid, price)

    def order_totals(cid):
        customer_orders = pyq(
            "[oid for (cid2, month, oid) in orders if cid2 == cid]",
            orders=orders, cid=cid)
        return fmap(
            lambda oid: fsum(pyq(
                "[price for (line, oid2, price) in lineitems"
                " if oid2 == oid]", lineitems=lineitems, oid=oid)),
            customer_orders)

    return fmap(
        lambda g: tup(
            the(fmap(lambda c: c[2], g)),
            fmap(lambda c: tup(c[1], order_totals(c[0])), g)),
        group_with(lambda c: c[2], customers))


#: Figure 5's operands at 64 elements: a fixed dense vector and every
#: fourth index of it as the sparse one (program constants, not data).
DOTP_DENSE = [round(((i * 37) % 64) / 8.0 - 4.0, 3) for i in range(64)]
DOTP_SPARSE = [(i, round(((i * 11) % 16) / 4.0 - 2.0, 2))
               for i in range(0, 64, 4)]


def _dotp(db):
    v = to_q(DOTP_DENSE)
    return fsum(fmap(lambda p: p[1] * index(v, p[0]), to_q(DOTP_SPARSE)))


@queryable
@dataclasses.dataclass
class Facility:
    fac: str
    cat: str


_INTS = [5, 3, 8, 1, 9, 2, 7, 3, 5, 6]
_WORDS = ["nest", "list", "aval", "type"]


def _mk(name, family, result_type, why, build) -> Program:
    return Program(name, family, why, result_type, build)


RUNNING_EXAMPLE = _mk(
    "running_example_qc", "paper: Section 2, qc quasi-quoter",
    "[(String, [String])]",
    "the paper's running example and only quantitative subject (Table 1)",
    _running_example_qc)

NESTED_ORDERS = _mk(
    "nested_orders", "paper: nested data, 3-level result",
    "[(String, [(String, [Double])])]",
    "the motivating nested report; numeric keys, aggregates, 3 queries",
    _nested_orders)

#: The 24-program corpus of ``paper_mix_engine``.
CORPUS: tuple[Program, ...] = (
    RUNNING_EXAMPLE,
    _mk("running_example_fluent", "paper: Section 2, combinators",
        "[(String, [String])]",
        "same program through the fluent front end: no parser, all lambdas",
        _running_example_fluent),
    _mk("running_example_pyq", "paper: Section 2, pyq",
        "[(String, [String])]",
        "same program through the Python-syntax front end (ast desugaring)",
        _running_example_pyq),
    NESTED_ORDERS,
    _mk("dotp", "paper: Figure 5, sparse dot product", "Double",
        "literal lists, positional indexing as a join on pos, scalar result",
        _dotp),
    _mk("map_filter", "map, filter", "[String]",
        "the two most common combinators, on strings",
        lambda db: db.table("features")
        .filter(lambda r: r[1] == "type")
        .map(lambda r: r[0].upper())),
    _mk("concat_map", "concatMap", "[(String, String)]",
        "a correlated inner list flattened: the join-graph isolation path",
        lambda db: concat_map(
            lambda f: db.table("features")
            .filter(lambda r: r[0] == f[1])
            .map(lambda r: tup(f[0], r[1])),
            db.table("facilities"))),
    _mk("sort_asc_desc", "sort_with asc/desc", "([String], [String])",
        "order by a computed key both ways; ties keep list order",
        lambda db: tup(
            sort_with(lambda m: m[1].strlen(), db.table("meanings"))
            .map(fst),
            sort_with_desc(lambda m: m[1].strlen(), db.table("meanings"))
            .map(fst))),
    _mk("group_with", "group_with", "[(String, Int)]",
        "grouping with a per-group aggregate",
        lambda db: group_with(lambda r: r[0], db.table("features"))
        .map(lambda g: tup(the(g.map(fst)), length(g)))),
    _mk("nub", "nub", "[String]",
        "duplicate elimination that keeps first occurrences in order",
        lambda db: nub(db.table("features").map(lambda r: r[1]))),
    _mk("zip_unzip", "zip/unzip", "([Int], [String])",
        "positional pairing and its inverse",
        lambda db: unzip_q(zip_q(to_q(_INTS),
                                 db.table("facilities").map(fst)))),
    _mk("take_drop", "take/drop", "[String]",
        "positional slicing on the pos encoding",
        lambda db: take(4, drop(2, db.table("facilities").map(
            lambda r: r[1])))),
    _mk("take_drop_while", "take_while/drop_while", "([Int], [Int])",
        "prefix predicates: the first failing position splits the list",
        lambda db: tup(take_while(lambda x: x != 9, to_q(_INTS)),
                       drop_while(lambda x: x != 9, to_q(_INTS)))),
    _mk("number_reverse", "number, reverse", "[(String, Int)]",
        "explicit positions and order inversion",
        lambda db: reverse(number(db.table("meanings").map(fst)))),
    _mk("append_cons", "append/cons", "[String]",
        "list construction from literals and a table",
        lambda db: cons("first", append(to_q(_WORDS),
                                        db.table("meanings").map(fst)))),
    _mk("head_last_the_index", "head/last/the/!!",
        "(String, String, String, Int)",
        "the partial functions, all defined here, in one scalar tuple",
        lambda db: tup(head(db.table("facilities").map(fst)),
                       last(db.table("facilities").map(fst)),
                       the(fmap(lambda x: "same", to_q(_INTS))),
                       index(to_q(_INTS), 4))),
    _mk("length_null", "length/null", "[(String, Int, Bool)]",
        "per-element sizes of correlated inner lists, some of them empty",
        lambda db: db.table("facilities").map(
            lambda f: tup(
                f[1],
                length(db.table("features").filter(lambda r: r[0] == f[1])),
                null(db.table("features").filter(lambda r: r[0] == f[1]))))),
    _mk("aggregates", "sum/avg/max/min", "(Double, Double, Double, Double)",
        "the four numeric folds over one float column",
        lambda db: tup(
            fsum(db.table("lineitems").map(lambda r: r[2])),
            favg(db.table("lineitems").map(lambda r: r[2])),
            maximum_q(db.table("lineitems").map(lambda r: r[2])),
            minimum_q(db.table("lineitems").map(lambda r: r[2])))),
    _mk("quantifiers", "and/or/all/any", "(Bool, Bool, Bool, Bool)",
        "the boolean folds and quantifiers",
        lambda db: tup(
            and_q(db.table("orders").map(lambda r: r[1] >= 1)),
            or_q(db.table("orders").map(lambda r: r[1] > 12)),
            all_q(lambda x: x > 0, to_q(_INTS)),
            any_q(lambda x: x == 7, to_q(_INTS)))),
    _mk("cond", "cond", "[(Int, String)]",
        "a conditional per element, nested two deep",
        lambda db: db.table("orders").map(
            lambda r: tup(r[2], cond(r[1] <= 4, "early",
                                     cond(r[1] <= 8, "mid", "late"))))),
    _mk("nested_tuples", "nested-tuple projection",
        "[((Int, String), (String, (Int, Int)))]",
        "tuple layouts wider and deeper than the flat pair",
        lambda db: db.table("customers").map(
            lambda c: tup(tup(c[0], c[1]),
                          tup(c[2], tup(c[0] * 2, c[0] % 3))))),
    _mk("queryable_record", "@queryable record", "[String]",
        "field access by name through a record-typed table",
        lambda db: table_for(Facility, "facilities")
        .filter(lambda f: f.cat == "LIB").map(lambda f: f.fac)),
    _mk("maybe", "Maybe", "[Int]",
        "the sum-type extension: tag + padded payload, catMaybes",
        lambda db: cat_maybes(fmap(
            lambda x: cond(x % 2 == 0, just(x * 10), nothing(IntT)),
            to_q(_INTS)))),
    _mk("either", "Either", "([Int], [String])",
        "two-sided sums split back into two lists",
        lambda db: (lambda es: tup(lefts(es), rights(es)))(fmap(
            lambda x: cond(x > 4, left(x, StringT), right("small", IntT)),
            to_q(_INTS)))),
)


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------

def running_example_reference(tables: dict) -> list:
    """``[(cat, nub [mean | ...])]`` in time linear in the three tables
    (plus a sort per facility over its handful of meanings).

    Lists follow the catalog's canonical order -- rows sorted by the
    alphabetically ordered column tuple -- so ``facilities`` iterates by
    ``(cat, fac)`` and the comprehension's outer generator by
    ``(feature, meaning)``, its inner one by ``(fac, feature)``.
    """
    meanings = sorted((feat, mean) for feat, mean in tables["meanings"][1])
    meanings_of: dict[str, list[tuple[int, str]]] = {}
    for pos, (feat, mean) in enumerate(meanings):
        meanings_of.setdefault(feat, []).append((pos, mean))
    features_of: dict[str, list[str]] = {}
    for fac, feat in sorted(tables["features"][1]):
        features_of.setdefault(fac, []).append(feat)
    by_cat: dict[str, list[str]] = {}
    for cat, fac in sorted((c, f) for f, c in tables["facilities"][1]):
        by_cat.setdefault(cat, []).append(fac)
    result = []
    for cat in sorted(by_cat):
        seen: dict[str, None] = {}
        for fac in by_cat[cat]:
            hits = [(pos, j, mean)
                    for j, feat in enumerate(features_of.get(fac, ()))
                    for pos, mean in meanings_of.get(feat, ())]
            for _, _, mean in sorted(hits):
                seen.setdefault(mean)
        result.append((cat, list(seen)))
    return result


def nested_orders_reference(tables: dict) -> list:
    """``[(region, [(name, [order total])])]`` with dict-indexed joins."""
    prices_of: dict[int, list[float]] = {}
    for line, oid, price in sorted(
            (ln, o, p) for o, ln, p in tables["lineitems"][1]):
        prices_of.setdefault(oid, []).append(price)
    orders_of: dict[int, list[int]] = {}
    for cid, _month, oid in sorted(
            (c, m, o) for o, c, m in tables["orders"][1]):
        orders_of.setdefault(cid, []).append(oid)
    by_region: dict[str, list] = {}
    for cid, name, region in sorted(tables["customers"][1]):
        totals = []
        for oid in orders_of.get(cid, ()):
            total = 0.0
            for price in prices_of.get(oid, ()):
                total += price
            totals.append(total)
        by_region.setdefault(region, []).append((name, totals))
    return [(region, by_region[region]) for region in sorted(by_region)]


def interpreter_reference(program: Program, catalog: Catalog) -> Any:
    """The list-prelude semantics of ``program`` over ``catalog``: the
    independent in-heap interpreter, which shares the front end with the
    compiler but none of lifting, algebra, optimizer or backends."""
    return Interpreter(catalog).run(
        program.build(Connection(catalog=catalog)).exp)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    backend: str
    #: Three instance sizes, x2 apart; metrics are reported at the last.
    sizes: tuple[int, int, int]
    size_unit: str
    make_tables: Callable[[int, int], dict]
    programs: tuple[Program, ...]
    #: Linear-time reference, or ``None`` to use the interpreter at every
    #: size (only affordable on tiny data).
    reference: "Callable[[dict], Any] | None"
    #: Instance size at which the hand-written reference is itself
    #: checked against the interpreter (nested loops: seconds at a few
    #: dozen categories, minutes beyond).
    crosscheck_size: int = 0


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "table1_engine",
        "paper's running example on the in-memory engine: engine execute "
        "is ~all of the run (large string intermediates); compile and SQL "
        "layers idle",
        "engine", (200, 400, 800), "categories", avalanche_tables,
        (RUNNING_EXAMPLE,), running_example_reference, crosscheck_size=20),
    Workload(
        "table1_sqlite",
        "same program on generated SQL + sqlite, the paper's actual "
        "target: sqlite execute is >99% of the run and superlinear; "
        "compile counts must equal table1_engine",
        "sqlite", (5, 10, 20), "categories", avalanche_tables,
        (RUNNING_EXAMPLE,), running_example_reference, crosscheck_size=20),
    Workload(
        "orders_sqlite",
        "nested-orders report on sqlite: numeric keys, grouped sums, 3 "
        "statements, largest result; shows what a SQL rewrite tuned on "
        "table1_sqlite costs elsewhere",
        "sqlite", (200, 400, 800), "customers", orders_tables,
        (NESTED_ORDERS,), nested_orders_reference, crosscheck_size=60),
    Workload(
        "paper_mix_engine",
        "24 small programs on tiny tables: front end, optimizer, plan "
        "cache, obs and per-operator fixed cost dominate; the compile "
        "layers' workload and the engine's small-data control",
        "engine", (1, 2, 4), "copies", paper_mix_tables,
        CORPUS, None),
)


def workload_by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(name)


def program_order(workload: Workload, seed: int) -> list[Program]:
    """The order in which one pass runs the workload's programs."""
    programs = list(workload.programs)
    random.Random(seed).shuffle(programs)
    return programs
