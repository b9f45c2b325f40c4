"""Shared fixtures: the paper's demo dataset and per-backend connections."""

from __future__ import annotations

import functools
import importlib.util
import math
import pathlib
import struct
import sys

import pytest

from examples.workloads import numbers_dataset, paper_dataset, run_raw
from repro import Connection, fmap, to_q
from repro.errors import FerryError, PartialFunctionError
from repro.expr import free_vars, normalize
from repro.obs import ExecutionRecord
from repro.runtime import Catalog
from repro.semantics import Interpreter

BACKENDS = ("engine", "sqlite")


@functools.cache
def e2e_workloads():
    """``benchmarks/e2e/workloads.py`` as a module: the end-to-end
    benchmark's own programs and generators (it imports nothing but
    ``repro``), for the tests that pin what those programs compile to."""
    path = (pathlib.Path(__file__).resolve().parents[1]
            / "benchmarks" / "e2e" / "workloads.py")
    spec = importlib.util.spec_from_file_location("e2e_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def pytest_collection_modifyitems(config, items):
    """Every test without an explicit suite marker is tier-1, so CI can
    select the fast deterministic suite with ``-m tier1`` (equivalently
    ``-m "not property and not bench"``)."""
    for item in items:
        if ("property" not in item.keywords
                and "bench" not in item.keywords):
            item.add_marker(pytest.mark.tier1)


@pytest.fixture()
def paper_catalog() -> Catalog:
    """The Figure 1 tables (facilities / features / meanings)."""
    return paper_dataset()


@pytest.fixture()
def paper_db(paper_catalog) -> Connection:
    """Default (engine) connection over the paper dataset."""
    return Connection(catalog=paper_catalog)


@pytest.fixture(params=BACKENDS)
def any_backend_db(request, paper_catalog) -> Connection:
    """The paper dataset on each backend in turn."""
    return Connection(backend=request.param, catalog=paper_catalog)


@pytest.fixture()
def nums_db() -> Connection:
    """A small shuffled-integers table (0..9)."""
    return Connection(catalog=numbers_dataset(10))


@pytest.fixture()
def oracle(paper_catalog) -> Interpreter:
    """The reference interpreter over the paper dataset."""
    return Interpreter(paper_catalog)


def execution_record(fingerprint: "str | None", duration: float,
                     **fields) -> ExecutionRecord:
    """A record as ``Connection`` would publish it (kind ``run`` on the
    engine unless ``fields`` say otherwise), for feeding the views
    directly."""
    defaults = dict(kind="run", backend="engine", started_at=0.0)
    return ExecutionRecord(fingerprint=fingerprint, duration=duration,
                           **{**defaults, **fields})


def feature_meanings_query(db: Connection):
    """Facility -> feature -> meanings over the paper dataset: a
    ``[[[String]]]`` result, hence a 3-query bundle."""
    facilities, features, meanings = (
        db.table(t) for t in ("facilities", "features", "meanings"))
    return fmap(
        lambda f: fmap(
            lambda g: meanings.filter(lambda m: m[0] == g[1]).map(
                lambda m: m[1]),
            features.filter(lambda g: g[0] == f[1])),
        facilities)


def map_chain(n: int):
    """``[1, 2, 3]`` under ``n`` nested maps of ``x + 1``: a program
    (and a plan) ``n`` levels deep."""
    q = to_q([1, 2, 3])
    for _ in range(n):
        q = fmap(lambda x: x + 1, q)
    return q


def check_normal_form(exp, catalog: Catalog, expected=None):
    """The normaliser's contract on one program: same value under the
    list-prelude semantics, same type, no new free variable, and a fixed
    point.  Returns the normal form."""
    if expected is None:
        expected = Interpreter(catalog).run(exp)
    normal = normalize(exp)
    assert same(Interpreter(catalog).run(normal), expected)
    assert normal.ty == exp.ty
    assert free_vars(normal) <= free_vars(exp)
    assert normalize(normal) is normal
    return normal


def same(a, b) -> bool:
    """Whether two outcomes are one value: atoms of one type (``True`` is
    not ``1``), floats by bit pattern (every NaN is one value, and
    ``-0.0`` is not ``0.0``), lists and tuples element by element."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return (math.isnan(a) and math.isnan(b)
                or struct.pack("<d", a) == struct.pack("<d", b))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


def outcome(run):
    """``("value", v)``, or ``("error", cls)`` for the ``FerryError``
    subclass ``run()`` raised."""
    try:
        return "value", run()
    except FerryError as err:
        return "error", type(err)


def run_all_ways(q, catalog: Catalog, backends=BACKENDS, raw=({},),
                 lazy_partial: bool = False):
    """The differential driver: evaluate ``q`` on the reference
    interpreter, on each of ``backends`` and through each ``raw`` leg
    (keyword arguments of ``run_raw``; the default runs the unoptimized
    plans on the engine), assert that every executor returns the
    interpreter's value or raises its ``FerryError`` subclass, and
    return that value (or class).  A value also goes through the
    normal-form check.

    With ``lazy_partial``, where the interpreter raises
    ``PartialFunctionError`` the executors only have to agree with each
    other: the interpreter is strict, and the compiled plans evaluate a
    partial operation only where a result needs it (a division whose
    value nothing reads is pruned; ``maximum []`` under iteration drops
    its row, open in the ROADMAP).
    """
    expected = outcome(lambda: Interpreter(catalog).run(q.exp))
    if expected[0] == "value":
        check_normal_form(q.exp, catalog, expected[1])
    got = {backend: outcome(
        lambda: Connection(backend=backend, catalog=catalog).run(q))
        for backend in backends}
    got.update({f"raw {leg}": outcome(lambda: run_raw(q, catalog, **leg))
                for leg in raw})
    if lazy_partial and expected == ("error", PartialFunctionError):
        expected = got[backends[0]]
    for executor, actual in got.items():
        assert same(actual, expected), (
            f"{executor} disagrees with the reference semantics:\n"
            f"  expected {expected!r}\n  actual   {actual!r}")
    return expected[1]
