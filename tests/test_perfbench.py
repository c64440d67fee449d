"""The benchmark's own self-test, run as part of the suite.

``perfbench/run.py --self-test`` checks that every workload's gate counts a
wrong sorter as failed, that an op leaves no span wrapper behind, and that
the generator-step and comparator counts read off the trace equal the real
calls.  It relies on the package keeping its shape: ``run`` and ``__init__``
in each engine class's own body, ``FsmGenerator.step`` and ``max_bit``
called once per in-play unit per search cycle and looked up at call time,
and the public engine classes built by name in ``bench``, ``cli`` and the
``sort_*`` helpers.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_test_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads(done.stdout)
    assert report == dict.fromkeys(("mc_bench", "wide_sort", "tie_drain", "network"), "ok")
