"""Ablation: nested-data representation (Section 4.2).

The paper contrasts two encodings of nesting:

* **DSH/Ferry**: surrogate keys -- inner lists live in a separate table
  joined by foreign key ("can readily benefit from relational indexes");
* **DPH**: ``(offset, length)`` descriptors over one flat data array --
  locality-preserving, ideal in-heap, but on a relational backend it
  "would ultimately lead to range queries of the form
  ``x.pos BETWEEN offset AND offset + length`` -- a workable but less
  efficient alternative".

The bench computes per-segment sums over the same nested data three ways:
the loop-lifted surrogate-join plan, DPH's segmented sum over
descriptors, and the BETWEEN-style range-scan simulation.
"""

import pytest

from repro import Connection, fmap, fsum, group_with
from examples.workloads import numbers_dataset
from examples.comparisons import from_list, sum_s

N = 3000
GROUPS = 60


@pytest.fixture(scope="session")
def nested_data():
    values = list(range(N))
    segments = [[v for v in values if v % GROUPS == g]
                for g in range(GROUPS)]
    return segments


class TestSegmentedSums:
    def test_surrogate_joins(self, benchmark, nested_data):
        """DSH: group on the database, sum per group -- surrogates link
        the outer and inner queries."""
        db = Connection(catalog=numbers_dataset(N))
        q = fmap(fsum, group_with(lambda x: x % GROUPS, db.table("nums")))
        result = benchmark(lambda: db.run(q))
        assert sorted(result) == sorted(sum(s) for s in nested_data)

    def test_dph_descriptors(self, benchmark, nested_data):
        """DPH: one flat data array + (offset, length) descriptors."""
        arr = from_list(nested_data)
        result = benchmark(lambda: sum_s(arr).values)
        assert sorted(result) == sorted(sum(s) for s in nested_data)

    def test_between_range_scans(self, benchmark, nested_data):
        """The BETWEEN simulation: per segment, scan the flat array for
        offset <= pos < offset + length (what descriptor-based nesting
        costs on a backend without positional indexes)."""
        flat = [v for seg in nested_data for v in seg]
        bounds = []
        offset = 0
        for seg in nested_data:
            bounds.append((offset, len(seg)))
            offset += len(seg)

        def run():
            out = []
            for off, ln in bounds:
                total = 0
                for pos, v in enumerate(flat):  # the range *scan*
                    if off <= pos < off + ln:
                        total += v
                out.append(total)
            return out

        result = benchmark(run)
        assert sorted(result) == sorted(sum(s) for s in nested_data)
