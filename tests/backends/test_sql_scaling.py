"""The SQL path's scaling gate, without a clock.

SQLite's progress handler can fire on every virtual-machine instruction,
so counting its calls during one warm ``Connection.run`` measures the
work the generated SQL makes the database do -- the same number on every
machine and on every run.  Doubling the data must at most (a little more
than) double it: before shared plan nodes became temporary tables the
running example grew 4.0x per doubling (53.6 M instructions at 20
categories), two materialised CTEs joined by nested loops.
"""

import pytest

from repro import Connection, fmap, fsum, group_with, pyq, the, tup
from examples.workloads import (
    avalanche_dataset,
    orders_dataset,
    running_example_query,
)

#: Allowed growth of the instruction count per doubling of the data.
MAX_GROWTH = 2.3


def nested_orders_query(db: Connection):
    """Region -> customers -> per-order totals (examples/nested_orders.py):
    a 3-query bundle with numeric keys and grouped sums."""
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


def vm_instructions(db: Connection, q) -> int:
    """VM instructions of one warm ``run``, counted one by one."""
    db.run(q)  # loads the catalog, fills the plan cache
    count = 0

    def tick() -> int:
        nonlocal count
        count += 1
        return 0

    conn = db.backend._conn
    conn.set_progress_handler(tick, 1)
    try:
        db.run(q)
    finally:
        conn.set_progress_handler(None, 1)
    return count


@pytest.mark.parametrize("dataset, build, sizes", [
    (avalanche_dataset, running_example_query, (10, 20, 40)),
    (orders_dataset, nested_orders_query, (100, 200, 400)),
], ids=["running_example", "nested_orders"])
def test_vm_instructions_grow_linearly(dataset, build, sizes):
    counts = []
    for size in sizes:
        db = Connection(backend="sqlite", catalog=dataset(size))
        counts.append(vm_instructions(db, build(db)))
    for small, large in zip(counts, counts[1:]):
        assert large <= MAX_GROWTH * small, (
            f"superlinear SQL: {dict(zip(sizes, counts))} VM instructions")


def test_running_example_instruction_budget():
    db = Connection(backend="sqlite", catalog=avalanche_dataset(20))
    assert vm_instructions(db, running_example_query(db)) <= 2_000_000
