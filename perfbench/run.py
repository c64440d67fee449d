"""Host-time benchmark of the unarysort simulators.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout; the package is imported from
``src/`` and nothing is installed.  One process, one client, no threads: a
closed loop in which the next op starts only after the previous one has
finished.  Every op is checked before its time counts; a failed op is
counted and not timed.

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
Every host time is scaled to a reference speed; see ``reference.py``.
``--trace 1`` alternates untraced and traced ops over whole rounds of the
workload's op list and reports the per-layer metrics.  The last line of
standard output is the result as JSON; the line before it records the
environment and the sample counts.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import layers
import reference
import selftest
from workloads import WORKLOADS, run_op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 6  # set-up is timed in this process and in this many fresh ones


def import_package():
    """Import unarysort from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "unarysort" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'unarysort'}; "
                         "run from the root of a unarysort checkout")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("unarysort")
    for name in ("bench", "cli"):  # the two modules the package does not import
        importlib.import_module(f"unarysort.{name}")
    if Path(pkg.__file__).resolve().parent != (SRC / "unarysort").resolve():
        raise SystemExit(f"perfbench: imported unarysort from {pkg.__file__}, not {SRC}")
    return pkg


def setup(wl, seed: int, workdir: Path):
    """Import, generate the inputs and run one checked warm-up op.

    Returns the package, the inputs, the set-up time at reference speed
    and the warm-up failure, if any.
    """
    kernels = [reference.kernel() for _ in range(3)]
    start = perf_counter()
    pkg = import_package()
    inputs = wl.make_inputs(seed, workdir)
    failure = run_op(wl, pkg, inputs[0])[2]
    seconds = perf_counter() - start
    kernels += [reference.kernel() for _ in range(3)]
    return pkg, inputs, seconds * reference.REF_S / statistics.median(kernels), failure


def setup_sample(wl, seed: int) -> float:
    """Set-up time of a fresh process."""
    done = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", wl.name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def percentile(samples: list[float], q: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(pkg, seed: int, wl) -> dict:
    import numpy
    return dict(git_sha=git_sha(), python=platform.python_version(),
                numpy=numpy.__version__, unarysort=pkg.__version__,
                platform=platform.platform(), cpu_count=os.cpu_count(),
                base_seed=seed, workload=wl.name, shape=wl.shape)


def untraced(wl, pkg, inputs, seconds: float, seed: int):
    """Closed loop until the deadline, with set-up probes spread over it.

    Returns, per checked op, its time at reference speed and its raw time;
    then the attempts, the failures and the set-up samples.  The probes run
    between ops, so no op is timed across one.
    """
    ops, attempted, failures, setups = [], 0, [], []
    start = perf_counter()
    deadline = start + seconds
    probe_at = [start + seconds * (i + 0.5) / SETUP_PROBES for i in range(SETUP_PROBES)]
    speed = reference.Speed()
    while attempted == 0 or perf_counter() < deadline:
        if probe_at and perf_counter() >= probe_at[0]:
            probe_at.pop(0)
            setups.append(setup_sample(wl, seed))
            speed.reset()
        raw, scaled, failure = run_op(wl, pkg, inputs[attempted % len(inputs)], speed)
        attempted += 1
        if failure:
            failures.append(failure)
        else:
            ops.append((scaled, raw))
    setups += [setup_sample(wl, seed) for _ in probe_at]
    return ops, attempted, failures, setups


def end_to_end(wl, pkg, inputs, args, setup_s: float):
    ops, attempted, failures, setups = untraced(wl, pkg, inputs, args.seconds, args.seed)
    setups.append(setup_s)
    latencies = [scaled for scaled, _ in ops]
    raw = [seconds for _, seconds in ops]
    values = {
        "ops_per_s": (len(ops) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    info = dict(latency_samples=len(ops), setup_samples=setups,
                raw_latency_p50_ms=statistics.median(raw) * 1e3,
                raw_latency_p90_ms=percentile(raw, 90) * 1e3)
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, attempted, failures, info


def traced(wl, pkg, inputs, seconds: float):
    """Whole rounds of the op list, each op once untraced and once traced."""
    tracer = layers.Tracer(pkg)
    rounds, plain, spanned, attempted, failures = [], [], [], 0, []
    deadline = perf_counter() + seconds
    speed = reference.Speed()
    while not rounds or perf_counter() < deadline:
        totals = layers.RoundTotals()
        for k, inp in enumerate(inputs[:wl.round_ops]):
            # alternate which goes first so neither side always runs warm
            for with_spans in ((False, True) if k % 2 == 0 else (True, False)):
                attempted += 1
                tracer.spans.clear()
                if with_spans:
                    with tracer.installed():
                        raw, scaled, failure = run_op(wl, pkg, inp, speed)
                else:
                    raw, scaled, failure = run_op(wl, pkg, inp, speed)
                if failure:
                    failures.append(failure)
                    continue
                (spanned if with_spans else plain).append(scaled)
                totals.add(tracer.spans, scaled / raw)
        rounds.append(totals)
    tracer.spans.clear()
    overhead = statistics.median(spanned) / statistics.median(plain) - 1
    metrics, drift = layers.summarise(rounds, overhead)
    failures += [f"count {k} differs between rounds" for k in drift]
    return metrics, attempted, failures, dict(rounds=len(rounds), round_ops=wl.round_ops,
                                              untraced_ops=len(plain), traced_ops=len(spanned))


def scratch_dir():
    """A scratch directory inside the checkout, removed on exit."""
    return tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT)


def measure(args) -> dict:
    wl = WORKLOADS[args.workload]
    with scratch_dir() as workdir:
        pkg, inputs, setup_s, warmup_failure = setup(wl, args.seed, Path(workdir))
        problems = [f"warm-up op failed: {warmup_failure}"] if warmup_failure else []
        caught = selftest.probe(wl, pkg, inputs[0])
        problems += [f"probe {name} passed the gate" for name, f in caught.items() if f is None]
        problems += [f"wrapper installed: {w}" for w in layers.installed_wrappers(pkg)]
        if args.trace:
            metrics, attempted, failures, info = traced(wl, pkg, inputs, args.seconds)
        else:
            metrics, attempted, failures, info = end_to_end(wl, pkg, inputs, args, setup_s)
        problems += [f"wrapper left installed: {w}" for w in layers.installed_wrappers(pkg)]
    info.update(self_test={k: "counted as failed" if v else "PASSED THE GATE"
                           for k, v in caught.items()})
    print(json.dumps(dict(environment=environment(pkg, args.seed, wl), run=info)))
    for message in problems + sorted(set(failures))[:5]:
        print(f"perfbench: {message}", file=sys.stderr)
    return dict(correct=not problems and not failures, attempted=attempted,
                failed=len(failures), metrics=metrics)


def setup_probe(args) -> None:
    with scratch_dir() as workdir:
        _, _, setup_s, failure = setup(WORKLOADS[args.workload], args.seed, Path(workdir))
    if failure:
        raise SystemExit(f"perfbench: warm-up op failed: {failure}")
    print(json.dumps({"setup_s": setup_s}))


def run_self_test() -> int:
    pkg = import_package()
    with scratch_dir() as workdir:
        report = {wl.name: selftest.self_test(wl, pkg, wl.make_inputs(1, Path(workdir))[0]) or "ok"
                  for wl in WORKLOADS.values()}
    print(json.dumps(report, indent=2))
    return 0 if all(v == "ok" for v in report.values()) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that every gate catches a wrong sorter, then exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.self_test:
        return run_self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        setup_probe(args)
        return 0
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
