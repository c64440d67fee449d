"""The benchmark's four workloads: inputs, the timed steps of an op, and its check.

Every workload is a closed loop with one client: the next op starts only
after the previous one has finished and been checked.  Inputs come from the
benchmark seed alone; the package only sees the generated values.

Alternating single-architecture ops would give two latency clusters of equal
size (a min sort and a max sort of the same input differ by 15-30%), and
the median of such a mix falls in the gap between them and jumps from run to
run.  So one op of ``mc_bench``, ``wide_sort`` and ``tie_drain`` runs both
architectures back to back on the same input: ascending, then descending.

Ops look every package name up at call time (``pkg.bench.run_bench``, not a
name bound at import) so that the traced run's span wrappers are the ones
called.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

ARCHS = ("min", "max")
POOL = 32  # distinct op inputs per run; the loop cycles through them


def _sorted_check(arch: str, values: list[int], outputs: list[int]) -> str | None:
    expected = sorted(values, reverse=(arch == "max"))
    if list(outputs) != expected:
        return f"{arch} output is not sorted({'desc' if arch == 'max' else 'asc'})"
    return None


def closed_form_cycles(arch: str, values: list[int], width: int) -> int:
    """Simulated cycles of a full iterative sort: search plus one write per input."""
    if arch == "min":
        return max(values) + 1 + len(values)
    return (1 << width) - min(values) + len(values)


def _cycles_check(arch: str, values: list[int], width: int, cycles: int) -> str | None:
    expected = closed_form_cycles(arch, values, width)
    if cycles != expected:
        return f"{arch} took {cycles} simulated cycles, closed form gives {expected}"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    shape: dict           # N, m and the input distribution, recorded with results
    round_ops: int        # ops per traced round; per-layer figures are per round
    make_inputs: Callable[[int, Path], list]
    steps: tuple[Callable[[Any, Any], Any], ...]  # an op runs these in order
    check: Callable[[Any, list], str | None]      # gets the steps' results


def run_op(wl: Workload, pkg, inp, speed=None):
    """Time one op step by step, then check it.

    Returns ``(seconds, seconds at reference speed, None)``, or
    ``(None, None, failure)``.  Given a ``reference.Speed``, the reference
    kernel runs after every step and scales that step's time.
    """
    results, raw, scaled = [], 0.0, 0.0
    for step in wl.steps:
        start = perf_counter()
        try:
            results.append(step(pkg, inp))
        except Exception as exc:  # any op error is a counted failure, not a crash
            return None, None, f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        raw += seconds
        scaled += seconds * (speed.scale() if speed else 1.0)
    failure = wl.check(inp, results)
    return (None, None, failure) if failure else (raw, scaled, None)


# mc_bench ---------------------------------------------------------------

# 25 trials per architecture, so an op runs 50 trials in all
MC = dict(n=8, m=8, dist="gaussian", mu=128.0, sigma=32.0, trials=25)


def _mc_inputs(seed: int, workdir: Path) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(1 << 31) for _ in range(POOL)]


def _mc_step(arch: str, pkg, bench_seed: int):
    return pkg.bench.run_bench(pkg.bench.BenchConfig(arch=arch, seed=bench_seed, **MC),
                               check=True)


def _mc_check(bench_seed: int, results) -> str | None:
    # run_bench(check=True) raises OracleMismatch on any trial whose detection
    # cycles differ from the sorted-sample closed form; here only the shape
    for result in results:
        if len(result.mean_cycles) != MC["n"] or result.config.trials != MC["trials"]:
            return "run_bench returned a result of the wrong shape"
    return None


# wide_sort --------------------------------------------------------------

# N=32 and m=11 rather than N=64 and m=12: that op took ~130 ms even at
# reference speed, too few ops per run for a steady p90
WIDE_N, WIDE_M = 32, 11


@dataclass(frozen=True)
class WideInput:
    values: list[int]
    input_path: str
    paths: dict  # arch -> (output csv, trace csv)


def _wide_inputs(seed: int, workdir: Path) -> list[WideInput]:
    rng = random.Random(seed)
    out = {arch: (str(workdir / f"out_{arch}.csv"), str(workdir / f"trace_{arch}.csv"))
           for arch in ARCHS}
    inputs = []
    for k in range(POOL):
        values = [rng.randrange(1 << WIDE_M) for _ in range(WIDE_N)]
        path = workdir / f"input_{k}.csv"
        path.write_text(",".join(map(str, values)) + "\n", encoding="utf-8")
        inputs.append(WideInput(values, str(path), out))
    return inputs


def _wide_step(arch: str, pkg, inp: WideInput) -> int:
    output, trace = inp.paths[arch]
    return pkg.cli.main(["sort", "--input", inp.input_path, "--arch", arch,
                         "--m", str(WIDE_M), "--output", output, "--trace", trace, "--check"])


def _wide_check(inp: WideInput, codes: list[int]) -> str | None:
    if codes != [0] * len(ARCHS):
        return f"cli exit codes {codes}"
    for arch in ARCHS:
        output, trace = (Path(p) for p in inp.paths[arch])
        text = output.read_text(encoding="utf-8").strip()
        rows = trace.read_text(encoding="utf-8").splitlines()[1:]
        # the next op writes fresh files: on ext4, truncating and rewriting a
        # file makes close() start writeback, which put disk stalls in the tail
        output.unlink()
        trace.unlink()
        err = _sorted_check(arch, inp.values, [int(f) for f in text.split(",")])
        if err:
            return err
        cycles = sum(1 for row in rows if row.split(",")[2] != "idle")
        err = _cycles_check(arch, inp.values, WIDE_M, cycles)
        if err:
            return err
    return None


# tie_drain --------------------------------------------------------------

TIE_N, TIE_M = 256, 4


def _tie_inputs(seed: int, workdir: Path) -> list[list[int]]:
    rng = random.Random(seed)
    return [[rng.randrange(1 << TIE_M) for _ in range(TIE_N)] for _ in range(POOL)]


def _tie_ascending(pkg, values: list[int]):
    return pkg.sort_ascending(values, TIE_M)


def _tie_descending(pkg, values: list[int]):
    return pkg.sort_descending(values, TIE_M)


def _tie_check(values: list[int], results) -> str | None:
    for arch, (outputs, trace) in zip(ARCHS, results):
        err = _sorted_check(arch, values, outputs)
        if err:
            return err
        cycles = sum(1 for e in trace.events if e.phase.value != "idle")
        err = _cycles_check(arch, values, TIE_M, cycles)
        if err:
            return err
    return None


# network ----------------------------------------------------------------

NET_N, NET_M = 16, 8          # bit-serial and stream modes
# whole-stream bitmask mode; at m=16 each lane is a 64-Kibit integer, and that
# memory traffic gave the op a tail that followed host noise, not the program
BATCH_N, BATCH_M = 256, 12


def _net_inputs(seed: int, workdir: Path) -> list[tuple[list[int], list[int]]]:
    rng = random.Random(seed)
    return [([rng.randrange(1 << NET_M) for _ in range(NET_N)],
             [rng.randrange(1 << BATCH_M) for _ in range(BATCH_N)])
            for _ in range(POOL)]


def _net_serial(pkg, inp):
    return pkg.batcher_sort(inp[0], NET_M)


def _net_streams(pkg, inp):
    network = pkg.build_bitonic_network(NET_N)
    streams = pkg.sort_streams(network, [pkg.encode_right_aligned(v, NET_M) for v in inp[0]])
    return [pkg.decode(s).value for s in streams]


def _net_batch(pkg, inp):
    return pkg.batcher_sort_batch(inp[1], BATCH_M)


def _net_check(inp, results) -> str | None:
    small, large = inp
    serial, decoded, batch = results
    for mode, got, values in (("batcher_sort", serial, small),
                              ("sort_streams", decoded, small),
                              ("batcher_sort_batch", batch, large)):
        if list(got) != sorted(values):
            return f"{mode} output is not sorted(values)"
    return None


# why each workload exists: BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc_bench",
            dict(MC, archs="min+max per op"),
            8, _mc_inputs, tuple(partial(_mc_step, arch) for arch in ARCHS), _mc_check,
        ),
        Workload(
            "wide_sort",
            dict(n=WIDE_N, m=WIDE_M, dist="uniform 0..2047", archs="min+max per op",
                 path="cli.main sort --trace --check"),
            8, _wide_inputs, tuple(partial(_wide_step, arch) for arch in ARCHS), _wide_check,
        ),
        Workload(
            "tie_drain",
            dict(n=TIE_N, m=TIE_M, dist="uniform 0..15", archs="min+max per op"),
            32, _tie_inputs, (_tie_ascending, _tie_descending), _tie_check,
        ),
        Workload(
            "network",
            dict(n=f"{NET_N} (serial, streams), {BATCH_N} (batch)",
                 m=f"{NET_M}, {BATCH_M}", dist="uniform"),
            8, _net_inputs, (_net_serial, _net_streams, _net_batch), _net_check,
        ),
    )
}
