"""Ablation: the cost of the relational order encoding (Section 4.1).

DSH pays for list-order preservation by maintaining the dense ``pos``
column through every operation (extra ROW_NUMBER steps); LINQ-style
systems skip that and return rows in arbitrary order.  The bench
measures (a) an order-heavy DSH pipeline, (b) the same pipeline with the
order-sensitive steps removed, and (c) the order-oblivious LINQ baseline
doing the equivalent flat work -- quantifying what "respects list order"
costs.
"""


from repro import Connection, fmap, ffilter, reverse, sort_with
from examples.comparisons import LinqSession
from examples.workloads import numbers_dataset

N = 4000
CATALOG = numbers_dataset(N)


class TestOrderMaintenance:
    def test_order_heavy_pipeline(self, benchmark):
        """filter + map + sort + reverse: four pos-renumbering steps."""
        db = Connection(catalog=CATALOG)
        nums = db.table("nums")
        q = reverse(sort_with(lambda x: x % 97,
                              fmap(lambda x: x * 3,
                                   ffilter(lambda x: x % 2 == 0, nums))))
        result = benchmark(lambda: db.run(q))
        assert len(result) == N // 2

    def test_order_light_pipeline(self, benchmark):
        """the same data volume without the order-sensitive steps."""
        db = Connection(catalog=CATALOG)
        nums = db.table("nums")
        q = fmap(lambda x: x * 3, ffilter(lambda x: x % 2 == 0, nums))
        result = benchmark(lambda: db.run(q))
        assert len(result) == N // 2

    def test_linq_order_oblivious(self, benchmark):
        """the LINQ baseline: one SQL statement, no order guarantee."""
        session = LinqSession(CATALOG)

        def run():
            return [row["n"] * 3 for row in session.table("nums")
                    if row["n"] % 2 == 0]

        result = benchmark(run)
        assert len(result) == N // 2
