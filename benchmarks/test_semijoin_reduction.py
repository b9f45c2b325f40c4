"""Ablation: the self-join elimination on vs. off (Table 1 workload).

The loop-lifted running example re-derives surrogate keys by joining a
relation back to the numbered relation it descends from, on the key
that numbers it; the ``selfjoin_elim`` rewrite replaces each such join
by the columns carried along.  This bench quantifies the payoff on the
paper's avalanche workload: plan sizes, rewrite fire counts, and
end-to-end execution time with the rewrite enabled and disabled (the
rule is patched out; nothing prices a candidate, so there is no cost
model to bend).  (The file keeps the name of the ``semijoin_reduce``
family the rewrite came from; its ``Project(EqJoin) -> SemiJoin`` shape
was deleted after the audit in EXPERIMENTS.md: 3 fires on the
24-program corpus, no operator row saved.)
"""

import time

import repro.optimizer.rewrites.properties as properties
from repro import Connection
from repro.algebra import node_count
from repro.bench.table1 import running_example_query
from repro.bench.workloads import avalanche_dataset

CATALOG = avalanche_dataset(200)


def best_of(f, repeats=5):
    """Minimum wall-clock of ``repeats`` calls (noise-robust)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        f()
        times.append(time.perf_counter() - t0)
    return min(times)


def compiled(monkeypatch, reduce_enabled):
    """A fresh connection + compiled running example, with the
    self-join elimination optionally knocked out at compile time
    (prepared statements are immune to later patching)."""
    with monkeypatch.context() as m:
        if not reduce_enabled:
            m.setattr(properties, "_selfjoin_elim",
                      lambda node, store, shared: None)
        db = Connection(catalog=CATALOG)
        query = running_example_query(db)
        cold = db.compile(query)  # cold: carries pass_stats
        return db.prepare(query), cold


class TestPlanShapes:
    def test_reduction_fires_and_shrinks_plans(self, monkeypatch):
        _, with_reduce = compiled(monkeypatch, reduce_enabled=True)
        _, without = compiled(monkeypatch, reduce_enabled=False)
        fired = with_reduce.pass_stats.rewrites_fired.get(
            "selfjoin_elim", 0)
        assert fired > 0, "rewrite never fired on the running example"
        assert without.pass_stats.rewrites_fired.get(
            "selfjoin_elim", 0) == 0
        size = lambda c: sum(node_count(q.plan)  # noqa: E731
                             for q in c.bundle.queries)
        assert size(with_reduce) < size(without)

    def test_results_identical(self, monkeypatch):
        on, _ = compiled(monkeypatch, reduce_enabled=True)
        off, _ = compiled(monkeypatch, reduce_enabled=False)
        assert on.execute() == off.execute()


class TestRuntime:
    def test_reduction_wins_on_the_avalanche_workload(self, monkeypatch):
        on, _ = compiled(monkeypatch, reduce_enabled=True)
        off, _ = compiled(monkeypatch, reduce_enabled=False)
        fast = best_of(on.execute)
        slow = best_of(off.execute)
        # The rewrite must never make execution slower; the measured win
        # locally is ~1.3x (6 of the bundle's 13 joins go).
        assert slow / fast > 0.95, (
            f"self-join elimination slowed execution: "
            f"{fast * 1e3:.2f}ms with vs {slow * 1e3:.2f}ms without")
