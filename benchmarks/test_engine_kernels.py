"""Vectorized engine kernels vs. the seed's row-at-a-time interpreter.

The engine backend evaluates algebra plans column at a time (MonetDB/MIL
style): parallel column lists, whole-column kernels built from C-level
primitives (``map``, ``itertools.compress``, ``dict.fromkeys``).  This
file measures the hot kernels against faithful in-file copies of the
seed's row-at-a-time implementations (tuple-building hash joins,
``setdefault`` grouping) over identical inputs:

* the join and grouped-aggregation hot paths must be at least **2x**
  faster than the seed kernels (measured ~2.4x / ~3.5x locally);
* every other operator gets a pytest-benchmark hook so per-kernel
  latencies land in CI's benchmark output;
* the Table 1 avalanche workload runs end-to-end on the engine at three
  scales (the bundle stays at 2 queries while per-operator cost grows).
"""

import random
import time
from operator import itemgetter

import pytest

from repro.algebra import (
    BinApp,
    Distinct,
    EqJoin,
    GroupAggr,
    LitTable,
    RowNum,
    Select,
    SemiJoin,
)
from repro.backends.engine.evaluate import Engine
from examples.workloads import run_dsh
from repro.ftypes import BoolT, DoubleT, IntT
from repro.runtime.catalog import Catalog

#: Acceptance bar for the join/group hot paths (ISSUE acceptance
#: criterion); locally ~2.4x (join) and ~3.5x (group).
MIN_KERNEL_SPEEDUP = 2.0


def best_of(f, repeats=7):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        f()
        best = min(best, time.perf_counter() - t0)
    return best


# ----------------------------------------------------------------------
# workload: a fact table joined against a keyed dimension table
# ----------------------------------------------------------------------

def _tables(n_rows: int, n_keys: int):
    """(fact, dim) row lists; every fact key hits the dimension (the
    compiler's spine-join shape)."""
    rng = random.Random(5)
    fact = [(rng.randrange(n_keys), i, float(i % 97), i % 7, i * 3,
             float(i) / 2)
            for i in range(n_rows)]
    dim = [(k, k * 2, f"name{k}") for k in range(n_keys)]
    return fact, dim


FACT_SCHEMA = (("k", IntT), ("a", IntT), ("v", DoubleT), ("g", IntT),
               ("x", IntT), ("y", DoubleT))
DIM_SCHEMA = (("k2", IntT), ("b", IntT), ("s", IntT))


@pytest.fixture(scope="module")
def kernel_env():
    """Engine + pre-evaluated literal inputs at benchmark scale.

    Deliberately NOT shrunk under ``--quick``: a kernel iteration is
    ~10ms, and at small scale fixed per-kernel overhead drowns the
    signal the 2x asserts measure."""
    n_rows = 30000
    n_keys = n_rows // 10
    fact, dim = _tables(n_rows, n_keys)
    lit_fact = LitTable(tuple(fact), FACT_SCHEMA)
    lit_dim = LitTable(tuple(dim), DIM_SCHEMA)
    engine = Engine(Catalog())
    memo = {}
    memo[id(lit_fact)] = engine._eval(lit_fact, memo)
    memo[id(lit_dim)] = engine._eval(lit_dim, memo)
    return {"engine": engine, "memo": memo, "fact": fact, "dim": dim,
            "lit_fact": lit_fact, "lit_dim": lit_dim, "n_rows": n_rows}


# ----------------------------------------------------------------------
# the seed's row-at-a-time kernels, copied faithfully (the baseline)
# ----------------------------------------------------------------------

def seed_eqjoin(lrows, rrows, lidx=0, ridx=0):
    lkey, rkey = itemgetter(lidx), itemgetter(ridx)
    buckets = {}
    for rr in rrows:
        buckets.setdefault(rkey(rr), []).append(rr)
    rows = []
    empty = []
    for lr in lrows:
        for rr in buckets.get(lkey(lr), empty):
            rows.append(lr + rr)
    return rows


def seed_group_sum_count(rows, gidx=(0,), vidx=2):
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row[i] for i in gidx), []).append(row)
    out = []
    for key, members in groups.items():
        values = [m[vidx] for m in members]
        out.append(key + (sum(values), len(members)))
    return out


def seed_select(rows, mask_idx):
    return [row for row in rows if row[mask_idx]]


def seed_distinct(rows):
    seen = set()
    out = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            out.append(row)
    return out


# ----------------------------------------------------------------------
# hot-path speedup asserts (the tentpole's acceptance criterion)
# ----------------------------------------------------------------------

class TestKernelSpeedups:
    def test_join_kernel_2x_over_seed(self, kernel_env):
        env = kernel_env
        join = EqJoin(env["lit_fact"], env["lit_dim"], (("k", "k2"),))
        columnar = best_of(lambda: env["engine"]._eval(join, env["memo"]))
        seed = best_of(lambda: seed_eqjoin(env["fact"], env["dim"]))

        rel = env["engine"]._eval(join, env["memo"])
        assert sorted(zip(*rel.columns)) == sorted(
            seed_eqjoin(env["fact"], env["dim"]))

        speedup = seed / columnar
        assert speedup >= MIN_KERNEL_SPEEDUP, (
            f"columnar join {columnar * 1e3:.2f}ms vs seed "
            f"{seed * 1e3:.2f}ms: only {speedup:.2f}x")

    def test_group_kernel_2x_over_seed(self, kernel_env):
        env = kernel_env
        grp = GroupAggr(env["lit_fact"], ("k",),
                        (("sum", "v", "s"), ("count", None, "c")))
        columnar = best_of(lambda: env["engine"]._eval(grp, env["memo"]))
        seed = best_of(lambda: seed_group_sum_count(env["fact"]))

        rel = env["engine"]._eval(grp, env["memo"])
        assert sorted(zip(*rel.columns)) == sorted(
            seed_group_sum_count(env["fact"]))

        speedup = seed / columnar
        assert speedup >= MIN_KERNEL_SPEEDUP, (
            f"columnar group {columnar * 1e3:.2f}ms vs seed "
            f"{seed * 1e3:.2f}ms: only {speedup:.2f}x")


# ----------------------------------------------------------------------
# per-operator kernel latencies (pytest-benchmark hooks)
# ----------------------------------------------------------------------

class TestPerOperatorKernels:
    def _mask_env(self, env):
        """fact extended with a Boolean mask column (a != 0 mod 3)."""
        mask = BinApp(env["lit_fact"], "eq", "g",
                      _const(0), "m")
        env["memo"].setdefault(id(mask),
                               env["engine"]._eval(mask, env["memo"]))
        return mask

    def test_select_kernel(self, benchmark, kernel_env):
        env = kernel_env
        mask = self._mask_env(env)
        node = Select(mask, "m")
        rel = benchmark(lambda: env["engine"]._eval(node, env["memo"]))
        assert rel.nrows == sum(
            1 for row in env["fact"] if row[3] == 0)

    def test_distinct_kernel(self, benchmark, kernel_env):
        env = kernel_env
        node = Distinct(env["lit_dim"])
        rel = benchmark(lambda: env["engine"]._eval(node, env["memo"]))
        assert rel.nrows == len(env["dim"])

    def test_semijoin_kernel(self, benchmark, kernel_env):
        env = kernel_env
        node = SemiJoin(env["lit_fact"], env["lit_dim"], (("k", "k2"),))
        rel = benchmark(lambda: env["engine"]._eval(node, env["memo"]))
        assert rel.nrows == env["n_rows"]  # every key hits

    def test_rownum_kernel(self, benchmark, kernel_env):
        env = kernel_env
        node = RowNum(env["lit_fact"], "rn", (("a", "asc"),), ("g",))
        rel = benchmark(lambda: env["engine"]._eval(node, env["memo"]))
        assert max(rel.column("rn")) <= env["n_rows"]

    def test_binapp_kernel(self, benchmark, kernel_env):
        env = kernel_env
        node = BinApp(env["lit_fact"], "mul", "v", "a", "out")
        rel = benchmark(lambda: env["engine"]._eval(node, env["memo"]))
        assert rel.nrows == env["n_rows"]


def _const(value):
    from repro.algebra import Const
    return Const(value, IntT)


# ----------------------------------------------------------------------
# avalanche scaling: end-to-end engine runtime at three instance sizes
# ----------------------------------------------------------------------

class TestAvalancheScaling:
    def test_engine_scaling(self, benchmark, avalanche_catalog):
        n, catalog = avalanche_catalog
        result, queries = benchmark(lambda: run_dsh(catalog, "engine"))
        assert len(result) == n
        assert queries == 2  # bundle size fixed regardless of scale

