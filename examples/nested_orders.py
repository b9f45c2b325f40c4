#!/usr/bin/env python3
"""Nested-data analytics over a customers/orders/lineitems schema.

The paper's motivation: programs over *arbitrarily nested* data should
run inside the database, not in the application heap.  This example
builds a three-level nested report -- per region, per customer, the
customer's order totals -- as one query whose bundle size (3) is fixed
by its result type ``[(String, [(String, [Double])])]``, no matter how
many customers there are.  Records (dataclasses) give named field
access; the Python comprehension front-end ``pyq`` expresses the inner
joins.
"""

import dataclasses
import pprint

from repro import Connection, fmap, fsum, group_with, pyq, queryable, the, tup
from workloads import orders_dataset
from repro.ftypes import count_list_constructors


@queryable
@dataclasses.dataclass
class Customer:
    cid: int
    name: str
    region: str


def main() -> None:
    db = Connection(catalog=orders_dataset(n_customers=40))
    customers = db.table("customers")    # rows: (cid, name, region)
    orders = db.table("orders")          # rows: (cid, month, oid)
    lineitems = db.table("lineitems")    # rows: (line, oid, price)

    def order_totals(cid):
        """Per order of this customer: the total line-item value."""
        customer_orders = pyq(
            "[oid for (cid2, month, oid) in orders if cid2 == cid]",
            orders=orders, cid=cid)
        return fmap(
            lambda oid: fsum(pyq(
                "[price for (line, oid2, price) in lineitems"
                " if oid2 == oid]", lineitems=lineitems, oid=oid)),
            customer_orders)

    report = fmap(
        lambda g: tup(
            the(fmap(lambda c: c[2], g)),          # region
            fmap(lambda c: tup(c[1], order_totals(c[0])), g)),
        group_with(lambda c: c[2], customers))

    compiled = db.compile(report)
    print(f"result type : {report.ty.show()}")
    print(f"bundle size : {compiled.query_count} queries "
          f"(= {count_list_constructors(report.ty)} list constructors)\n")

    result = db.run(report)
    for region, members in result:
        spend = sum(sum(totals) for _, totals in members)
        print(f"{region}: {len(members)} customers, "
              f"total spend {spend:,.2f}")
    region, members = result[0]
    print(f"\nfirst region ({region}), first three customers:")
    pprint.pprint(members[:3])

    # the same shape, any instance size: avalanche safety in action
    for n in (5, 80):
        other = Connection(catalog=orders_dataset(n_customers=n))
        # rebuild against the other catalog
        other_customers = other.table("customers")
        q = group_with(lambda c: c[2], other_customers)
        assert other.compile(q).query_count == 2
    print("\nbundle size is independent of the number of customers ✓")


if __name__ == "__main__":
    main()
