"""Self-test of the benchmark's gates, so that they cannot pass vacuously.

Each probe swaps a package function for a sorter that is wrong in one known
way, runs one op and expects it to be counted as failed:

* ``wrong_output``: the engines (or one Batcher mode) report one value with
  its low bit flipped, coherently in their outputs and in their trace.
* ``wrong_cycles``: the engines sort correctly but take one drain cycle more
  than the closed form allows.  ``mc_bench`` has no probe of this kind: its
  gate is ``run_bench(check=True)``, which compares detection cycles only.

Every benchmark run probes its own workload before it measures.  The full
self-test (``python3 perfbench/run.py --self-test``) also shows that an op
leaves no span wrapper installed, traced or not, and that the step and
compare counts read off the trace equal the calls actually made.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io

import layers
from workloads import run_op

ENGINE_CLASSES = (("min_sorter", "MinSortEngine"), ("max_sorter", "MaxSortEngine"))


def _wrong_value_run(run):
    def wrong(self):
        outputs = run(self)
        events = self.trace.events
        k = next(i for i, e in enumerate(events) if e.writes)
        (address, value), = events[k].writes
        bad = value ^ 1
        # a min sorter that read bad would have detected it at bad + 1;
        # a max sorter at 2**m - bad
        shift = bad - value if self.arch == "min" else value - bad
        events[k] = dataclasses.replace(events[k], writes=((address, bad),),
                                        elapsed=events[k].elapsed + shift)
        outputs[address] = bad
        return outputs
    return wrong


def _extra_cycle_run(run):
    def slow(self):
        outputs = run(self)
        last = self.trace.events[-1]
        self.trace.append(dataclasses.replace(last, cycle=last.cycle + 1, writes=()))
        return outputs
    return slow


def _flip_first(fn):
    def wrong(*args):
        out = list(fn(*args))
        out[0] ^= 1
        return out
    return wrong


def _flip_first_stream(fn):
    def wrong(*args):
        out = list(fn(*args))
        bits = out[0].bits
        out[0] = type(out[0])((1 - bits[0],) + bits[1:])
        return out
    return wrong


def _engines(make):
    return [(mod, f"{cls}.run", make) for mod, cls in ENGINE_CLASSES]


PROBES = {
    "mc_bench": {"wrong_output": _engines(_wrong_value_run)},
    "wide_sort": {"wrong_output": _engines(_wrong_value_run),
                  "wrong_cycles": _engines(_extra_cycle_run)},
    "tie_drain": {"wrong_output": _engines(_wrong_value_run),
                  "wrong_cycles": _engines(_extra_cycle_run)},
    "network": {"wrong_output.serial": [("batcher", "batcher_sort", _flip_first)],
                "wrong_output.streams": [("batcher", "sort_streams", _flip_first_stream)],
                "wrong_output.batch": [("batcher", "batcher_sort_batch", _flip_first)]},
}


def probe(wl, pkg, inp) -> dict[str, str | None]:
    """Run one op under each wrong sorter; map probe -> failure it was counted for.

    A ``None`` value means the wrong op passed the gate: the gate is vacuous.
    """
    caught = {}
    for name, replacements in PROBES[wl.name].items():
        # the CLI's own --check reports the wrong sort on stderr; keep it quiet
        with layers.patched(pkg, replacements), contextlib.redirect_stderr(io.StringIO()):
            caught[name] = run_op(wl, pkg, inp)[2]
    return caught


def _counting(counter):
    def make(fn):
        def counted(*args):
            counter[0] += 1
            return fn(*args)
        return counted
    return make


def self_test(wl, pkg, inp) -> list[str]:
    """Every check of the gates for one workload; returns the problems found."""
    problems = [f"probe {name} was not counted as failed"
                for name, failure in probe(wl, pkg, inp).items() if failure is None]
    if run_op(wl, pkg, inp)[2] is not None or layers.installed_wrappers(pkg):
        problems.append("untraced op failed or left wrappers installed")
    tracer = layers.Tracer(pkg)
    steps, compares = [0], [0]
    with layers.patched(pkg, [("generators", "FsmGenerator.step", _counting(steps)),
                              ("max_sorter", "max_bit", _counting(compares))]):
        with tracer.installed():
            failure = run_op(wl, pkg, inp)[2]
    if failure is not None or layers.installed_wrappers(pkg):
        problems.append(f"traced op failed ({failure}) or left wrappers installed")
    totals = layers.RoundTotals()
    totals.add(tracer.spans, 1.0)
    derived = totals.counts()
    for key, actual in (("generators.steps", steps[0]), ("max_sorter.compares", compares[0])):
        if derived[key] != actual:
            problems.append(f"{key} read off the trace is {derived[key]}, calls were {actual}")
    return problems
