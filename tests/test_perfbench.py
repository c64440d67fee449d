"""The benchmark's own self-test, run as part of the suite.

``perfbench/run.py --self-test`` checks that every workload's gate counts a
wrong sorter as failed, that an op leaves no span wrapper behind, and that
the generator-step and comparator counts read off the trace equal the real
calls.  That last check makes this test tier-1's only check that ``run()``
makes one ``FsmGenerator.step`` or ``max_bit`` call per in-play unit per
search cycle; ``test_engine_trace.py`` counts the calls of ``tick()``, the
reference model, and checks ``run()`` by its outputs and trace.  It relies
on the package keeping its shape: ``run`` and ``__init__`` in each engine
class's own body, ``FsmGenerator.step`` and ``max_bit`` called once per
in-play unit per search cycle and looked up at call time, no package name
but ``max_sorter.max_bit`` bound to ``operator.ge`` (the counting stand-in
replaces ``max_bit`` under every name bound to it, so a call through any
other would count as a compare), the public engine classes looked up in
``bench.ENGINES`` by ``bench`` and ``cli`` and bound as ``sort_ascending =
MinSortEngine.sort`` and ``sort_descending = MaxSortEngine.sort``, and ``build_bitonic_network`` looked up by name at
each call, so that the ``batcher.build`` span counts every request for a
network even though the network is cached.  The per-layer counts read one
drain cycle per event of ``CycleTrace.events``, a new list built from the
records on each read.  So the wrong-output probe, which edits the events
after ``run()``, edits a copy: it is caught by the flipped value it also
writes into the outputs, which each gate compares with ``sorted()`` (``sort
--check`` exits 2 on ``wide_sort``, the sorted check fails on ``tie_drain``,
and ``run_bench(check=True)`` compares outputs on ``mc_bench``).  The
wrong-cycles probe appends its late record through ``CycleTrace.append``, so
``total_cycles()`` and every reader count the extra cycle.
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
