"""Smoke test of the demos: each one runs to completion.

Demo 02 prints every trace event and the CSV of the worked example, so its
stdout is pinned to a golden file, which covers filling the quiet cycles
between logged ones end to end.  Demo 04 is not run here: it writes its CSVs under
``demos/output/``; the tier-1 workflow runs all five demos after the tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = {"02_min_sort_walkthrough": ROOT / "tests" / "golden" / "02_min_sort_walkthrough.txt"}


@pytest.mark.parametrize("demo", [
    "01_stream_generation", "02_min_sort_walkthrough",
    "03_architecture_comparison", "05_cost_trends",
])
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, f"demos/{demo}.py"], cwd=ROOT, capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    if demo in GOLDEN:
        assert done.stdout == GOLDEN[demo].read_text(encoding="utf-8")
