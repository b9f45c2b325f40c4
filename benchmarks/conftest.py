"""Shared benchmark fixtures, the ``--quick`` switch, and the
trajectory recorder.

``--quick`` shrinks the suite to CI scale: only the smallest avalanche
instance runs (the full-scale experiment lives in
``examples/avalanche_table1.py``).

Every session that executes at least one benchmark also emits
``BENCH_10.json`` at the repo root: one record per benchmark test
(outcome + wall time), any named measurements tests published through
the ``bench_record`` fixture (kernel speedups), plus the delta of the
process-wide ``repro.obs.METRICS`` registry over the session, so CI can
archive how the numbers move commit over commit.
"""

import json
import pathlib
import time

import pytest

from repro.bench.workloads import avalanche_dataset, paper_dataset
from repro.obs import METRICS

_HERE = pathlib.Path(__file__).parent
_TRAJECTORY = _HERE.parent / "BENCH_10.json"


def pytest_addoption(parser):
    parser.addoption(
        "--quick", action="store_true", default=False,
        help="benchmark suite at CI scale (smallest instances only)")


def pytest_collection_modifyitems(config, items):
    """Everything under benchmarks/ carries the ``bench`` marker (the
    hook sees the whole session's items, so filter by path)."""
    for item in items:
        if _HERE in pathlib.Path(item.fspath).parents:
            item.add_marker(pytest.mark.bench)


def pytest_configure(config):
    config.pluginmanager.register(_TrajectoryRecorder(config),
                                  "ferry-bench-trajectory")


@pytest.fixture(scope="session")
def paper_catalog():
    return paper_dataset()


@pytest.fixture(scope="session", params=(50, 200, 800))
def avalanche_catalog(request):
    """Table 1 instances, scaled to benchmark time (the harness in
    ``examples/avalanche_table1.py`` runs the full-scale experiment)."""
    if request.param > 50 and request.config.getoption("--quick", False):
        pytest.skip("--quick runs the smallest instance only")
    return request.param, avalanche_dataset(request.param)


@pytest.fixture
def bench_record(request):
    """Publish named measurements into the ``BENCH_10.json`` trajectory.

    ``bench_record(name, **values)`` stores a dict of numbers under
    ``name`` (e.g. ``bench_record("join_kernel", speedup=3.4)``); the
    recorder dumps all of them under the file's ``"records"`` key.
    """
    recorder = request.config.pluginmanager.get_plugin(
        "ferry-bench-trajectory")

    def record(name: str, **values):
        recorder.records[name] = values

    return record


class _TrajectoryRecorder:
    """Writes ``BENCH_10.json``: per-benchmark outcomes and timings,
    named measurements, plus the session's METRICS counter deltas."""

    def __init__(self, config):
        self.quick = bool(config.getoption("--quick", False))
        self.started_at = time.time()
        self.metrics_before = METRICS.snapshot()
        self.results: list[dict] = []
        self.records: dict[str, dict] = {}

    def pytest_runtest_logreport(self, report):
        if report.when != "call":
            return
        if "benchmarks/" not in report.nodeid.replace("\\", "/"):
            return
        self.results.append({
            "nodeid": report.nodeid,
            "outcome": report.outcome,
            "duration": report.duration,
        })

    def pytest_sessionfinish(self, session, exitstatus):
        if not self.results:
            return  # no benchmark ran; leave any existing file alone
        after = METRICS.snapshot()
        deltas = {
            name: after[name] - self.metrics_before.get(name, 0)
            for name in after
            if not isinstance(after[name], dict)
            and after[name] != self.metrics_before.get(name, 0)
        }
        _TRAJECTORY.write_text(json.dumps({
            "schema": "ferry-bench-trajectory/2",
            "generated_at": time.time(),
            "quick": self.quick,
            "wall_time": time.time() - self.started_at,
            "benchmarks": sorted(self.results,
                                 key=lambda r: r["nodeid"]),
            "records": dict(sorted(self.records.items())),
            "metrics_delta": dict(sorted(deltas.items())),
        }, indent=2, sort_keys=True) + "\n")
