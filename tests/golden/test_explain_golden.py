"""Golden tests: committed codegen output for the paper's running example.

The expected algebra pretty-print, SQL text, MIL program, and engine
schedule for the Section 2 running example live under
``tests/golden/data/``.  Any codegen or optimizer change that alters the
emitted artifacts shows up here as a reviewable text diff instead of a
silent behaviour shift.

To regenerate after an intentional change:

    UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/golden -q

then review the diff of ``tests/golden/data`` before committing.
"""

import difflib
import os
import pathlib
import re

import pytest

from repro import Connection
from examples.workloads import paper_dataset, running_example_query

DATA = pathlib.Path(__file__).parent / "data"
UPDATE = os.environ.get("UPDATE_GOLDENS") == "1"


def render(backend: str) -> str:
    """The golden text for one backend: per-query header, algebra plan,
    and the backend's generated artifact."""
    db = Connection(backend=backend, catalog=paper_dataset())
    report = db.explain(running_example_query(db))
    chunks = [f"result type: {report.result_type}",
              f"bundle size: {report.bundle_size}"]
    for q in report.queries:
        chunks.append(q.header)
        chunks.append("[algebra]")
        chunks.append(q.plan)
        chunks.append(f"[{backend} artifact]")
        chunks.append(q.artifact or "(none)")
    return "\n".join(chunks) + "\n"


def check_golden(name: str, actual: str) -> None:
    path = DATA / f"{name}.txt"
    if UPDATE:
        path.write_text(actual)
        return
    assert path.exists(), (
        f"missing golden file {path}; regenerate with UPDATE_GOLDENS=1")
    expected = path.read_text()
    if actual != expected:
        diff = "\n".join(difflib.unified_diff(
            expected.splitlines(), actual.splitlines(),
            fromfile=f"golden/{name}", tofile="actual", lineterm=""))
        pytest.fail(
            f"codegen drifted from the committed golden for {name!r}.\n"
            f"If the change is intentional, regenerate with "
            f"UPDATE_GOLDENS=1 and commit the diff.\n{diff}")


@pytest.mark.parametrize("backend", ["engine", "sqlite", "mil"])
def test_running_example_explain_matches_golden(backend):
    check_golden(f"running_example_{backend}", render(backend))


def _normalize_timings(text: str) -> str:
    """Mask the non-deterministic parts of an analyze render (wall times
    and the percentages derived from them); rows, refs, and widths stay
    exact."""
    text = re.sub(r"\b\d+\.\d{3} ms", "T ms", text)
    return re.sub(r"\b\d+\.\d% ", "P% ", text)


def render_analyze(backend: str) -> str:
    """The golden text for one backend's EXPLAIN ANALYZE: the annotated
    per-query plans with timings masked."""
    db = Connection(backend=backend, catalog=paper_dataset())
    report = db.explain(running_example_query(db), analyze=True)
    return _normalize_timings(report.analyze.render()) + "\n"


@pytest.mark.parametrize("backend", ["engine", "sqlite", "mil"])
def test_running_example_analyze_matches_golden(backend):
    check_golden(f"analyze_running_example_{backend}",
                 render_analyze(backend))


def test_goldens_agree_on_the_algebra_plans():
    """The algebra section is backend-independent: every golden file must
    embed the identical optimized plans."""
    def plans(name):
        text = (DATA / f"{name}.txt").read_text()
        keep, keeping = [], False
        for line in text.splitlines():
            if line == "[algebra]":
                keeping = True
                continue
            if line.startswith("[") and line.endswith("artifact]"):
                keeping = False
                continue
            if keeping:
                keep.append(line)
        return keep
    engine = plans("running_example_engine")
    assert engine == plans("running_example_sqlite")
    assert engine == plans("running_example_mil")
    assert any("TableScan" in line for line in engine)
