"""Seeded cycle-count benchmarks over random input distributions.

For each trial a fresh input vector is sampled, the chosen engine runs it,
and the generation cycle at which the n-th extreme is detected is read off
the trace.  Results aggregate to (mean, std) per output rank.  Trial i uses
seed ``base_seed + i``, so trials are independent and the aggregate is
reproducible regardless of execution order.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bitstream import MAX_WIDTH
from .max_sorter import MaxSortEngine
from .min_sorter import MinSortEngine
from .trace import CycleTrace


class OracleMismatch(Exception):
    """Engine-measured detection cycles disagree with the sorted-sample oracle."""


@dataclass(frozen=True)
class BenchConfig:
    arch: str = "min"          # "min" or "max"
    n: int = 8
    m: int = 8
    dist: str = "gaussian"     # "gaussian", "uniform", or "file"
    mu: float = 128.0
    sigma: float = 32.0
    trials: int = 1000
    seed: int = 1
    input_path: str | None = None

    def __post_init__(self):
        if self.arch not in ("min", "max"):
            raise ValueError(f"bench supports arch 'min' or 'max', got {self.arch!r}")
        if self.dist not in ("gaussian", "uniform", "file"):
            raise ValueError(f"unknown distribution {self.dist!r}")
        if self.dist == "file" and not self.input_path:
            raise ValueError("file distribution needs an input path")
        if self.n < 2:
            raise ValueError("need at least two inputs")
        if not 1 <= self.m <= MAX_WIDTH:
            raise ValueError(f"width must be in 1..{MAX_WIDTH}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValueError(f"mu and sigma must be finite, got {self.mu} and {self.sigma}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")


def sample_trial(cfg: BenchConfig, trial: int) -> list[int]:
    """Input vector for one trial; values quantized and clamped to range."""
    rng = np.random.default_rng(cfg.seed + trial)
    top = (1 << cfg.m) - 1
    if cfg.dist == "gaussian":
        raw = rng.normal(cfg.mu, cfg.sigma, cfg.n)
        return [int(v) for v in np.clip(np.rint(raw), 0, top).astype(np.int64)]
    if cfg.dist == "uniform":
        return [int(v) for v in rng.integers(0, top + 1, cfg.n)]
    raise ValueError("file trials are loaded, not sampled")


def load_trials(path: str | Path) -> list[list[int]]:
    """One input vector per CSV row; rows become trials."""
    vectors = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            vectors.append([int(field) for field in line.split(",")])
    if not vectors:
        raise ValueError(f"no input vectors in {path}")
    return vectors


def detection_cycles(trace: CycleTrace) -> list[int]:
    """Generation cycle at which each output rank was detected."""
    return [event.elapsed for event in trace.events for _ in event.writes]


def _run_engine(cfg: BenchConfig, values: list[int]) -> list[int]:
    engine_cls = MinSortEngine if cfg.arch == "min" else MaxSortEngine
    engine = engine_cls(values, cfg.m)
    engine.run()
    return detection_cycles(engine.trace)


def oracle_cycles(cfg: BenchConfig, values: list[int]) -> list[int]:
    """Independent prediction from a reference sort of the sample.

    The min engine detects value v at cycle v + 1; the max engine at
    2**m - v.
    """
    if cfg.arch == "min":
        return [v + 1 for v in sorted(values)]
    return [(1 << cfg.m) - v for v in sorted(values, reverse=True)]


@dataclass
class BenchResult:
    config: BenchConfig
    mean_cycles: list[float]   # indexed by output rank
    std_cycles: list[float]

    def csv_rows(self) -> list[str]:
        rows = ["rank,mean_cycles,std_cycles"]
        for rank, (mean, std) in enumerate(zip(self.mean_cycles, self.std_cycles)):
            rows.append(f"{rank},{mean:.6f},{std:.6f}")
        return rows

    def metadata(self) -> dict:
        meta = asdict(self.config)
        meta["version"] = __version__
        meta["rng"] = "numpy default_rng (PCG64), trial i seeded with seed + i"
        return meta


def run_bench(cfg: BenchConfig, check: bool = False) -> BenchResult:
    """Run all trials; with ``check`` every trial is verified against the oracle."""
    if cfg.dist == "file":
        trials = load_trials(cfg.input_path)
        for vec in trials:
            if len(vec) != len(trials[0]):
                raise ValueError("all input rows must have the same length")
        cfg = BenchConfig(**{**asdict(cfg), "n": len(trials[0]),
                             "trials": len(trials)})
    else:
        trials = [sample_trial(cfg, i) for i in range(cfg.trials)]

    cycles = np.empty((len(trials), cfg.n), dtype=np.int64)
    for i, values in enumerate(trials):
        measured = _run_engine(cfg, values)
        if check:
            expected = oracle_cycles(cfg, values)
            if measured != expected:
                raise OracleMismatch(
                    f"trial {i}: measured {measured} != oracle {expected}"
                )
        cycles[i] = measured
    return BenchResult(
        config=cfg,
        mean_cycles=[float(v) for v in cycles.mean(axis=0)],
        std_cycles=[float(v) for v in cycles.std(axis=0)],
    )


def write_bench_csv(result: BenchResult, path: str | Path) -> None:
    """Write the CSV table plus a JSON metadata sidecar (<path>.meta.json)."""
    path = Path(path)
    path.write_text("\n".join(result.csv_rows()) + "\n", encoding="utf-8")
    sidecar = path.with_suffix(path.suffix + ".meta.json")
    sidecar.write_text(
        json.dumps(result.metadata(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
