"""Figure 5/6: sparse-vector multiplication, three ways.

The paper uses ``dotp`` to exhibit the DPH/DSH correspondence.  This
bench runs the same program as (a) a scalar Python loop (the Figure 5
comprehension, reference), (b) the vectorised DPH pipeline of Figure 6
(left), and (c) the loop-lifted DSH query of Figure 6 (right) on the
in-memory algebra engine; all three must produce the same value.
"""

import pytest

from repro import Connection
from examples.comparisons import dotp_comprehension, dotp_vectorised, from_list
from examples.workloads import dotp_query, sparse_vector

SIZES = (256, 2048)


@pytest.fixture(scope="session", params=SIZES)
def workload(request):
    n = request.param
    sv, v = sparse_vector(n, density=0.2, seed=n)
    return n, sv, v


class TestDotProduct:
    def test_scalar_comprehension(self, benchmark, workload):
        _, sv, v = workload
        benchmark(lambda: dotp_comprehension(sv, v))

    def test_dph_vectorised(self, benchmark, workload):
        _, sv, v = workload
        sv_arr, v_arr = from_list(sv), from_list(v)
        result = benchmark(lambda: dotp_vectorised(sv_arr, v_arr))
        assert result == pytest.approx(dotp_comprehension(sv, v))

    def test_dsh_loop_lifted(self, benchmark, workload):
        _, sv, v = workload
        db = Connection()
        q = dotp_query(sv, v)
        compiled = db.compile(q)
        assert compiled.query_count == 1

        def run():
            return db.run(q)

        result = benchmark(run)
        assert result == pytest.approx(dotp_comprehension(sv, v))
