"""Seeded cycle-count benchmarks over random input distributions.

For each trial a fresh input vector is sampled, the chosen engine runs it,
and the generation cycle at which the n-th extreme is detected is read off
the trace.  Results aggregate to (mean, std) per output rank.  Trial i uses
seed ``base_seed + i``, so trials are independent and the aggregate is
reproducible regardless of execution order.

numpy (PCG64 sampling, the cycle matrix and its mean and std) is imported
inside ``sample_trial`` and ``run_bench`` alone, so importing this module,
and every CLI command but ``bench``, runs without loading it.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from . import __version__
from .bitstream import MAX_SORT_INPUTS, check_width, is_int_in
from .max_sorter import MaxSortEngine
from .min_sorter import MinSortEngine
from .trace import CycleTrace

# the one place where an arch name becomes an engine class
ENGINES = {"min": MinSortEngine, "max": MaxSortEngine}
DISTS = ("gaussian", "uniform")
# a run holds a trials x n matrix of int64 cycles: 78 MiB at MAX_TRIALS and
# n = MAX_SORT_INPUTS, the cap of every sorter
MAX_TRIALS = 10_000         # ten times the default
# trials sampled back to back between engine runs, so a run holds at most
# one block besides the cycle matrix; over 1000 trials larger blocks were
# not measurably faster than 64 (README, Speed)
SAMPLE_BLOCK = 64
# the only characters allowed around a field, and the only ones in a blank row
BLANKS = " \t"


class OracleMismatch(Exception):
    """A result disagrees with its reference: a sort, or the cycle oracle."""


@dataclass(frozen=True)
class BenchConfig:
    arch: str = "min"          # a key of ENGINES
    n: int = 8
    m: int = 8
    dist: str = "gaussian"     # one of DISTS
    mu: float = 128.0
    sigma: float = 32.0
    trials: int = 1000
    seed: int = 1
    input_path: str | None = None  # set: its rows are the trials, none sampled

    def __post_init__(self):
        if self.arch not in ENGINES:
            raise ValueError(f"bench supports arch 'min' or 'max', got {self.arch!r}")
        if self.dist not in DISTS:
            raise ValueError(f"unknown distribution {self.dist!r}")
        if not is_int_in(self.n, 2, MAX_SORT_INPUTS):
            raise ValueError(f"n must be in 2..{MAX_SORT_INPUTS}, got {self.n}")
        check_width(self.m)
        if not is_int_in(self.trials, 1, MAX_TRIALS):
            raise ValueError(f"trials must be in 1..{MAX_TRIALS}, got {self.trials}")
        if not is_int_in(self.seed, 0, math.inf):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed}")
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValueError(f"mu and sigma must be finite, got {self.mu} and {self.sigma}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")


def sample_trial(cfg: BenchConfig, trial: int) -> list[int]:
    """Input vector for one trial; values quantized and clamped to range."""
    import numpy as np  # loaded by the bench alone (module docstring)

    rng = np.random.default_rng(cfg.seed + trial)
    top = (1 << cfg.m) - 1
    if cfg.dist == "gaussian":
        raw = rng.normal(cfg.mu, cfg.sigma, cfg.n)
        return np.clip(np.rint(raw), 0, top).astype(np.int64).tolist()
    return rng.integers(0, top + 1, cfg.n).tolist()


def _sampled(cfg: BenchConfig):
    """Every trial's input vector in order, sampled SAMPLE_BLOCK at a time."""
    for start in range(0, cfg.trials, SAMPLE_BLOCK):
        stop = min(start + SAMPLE_BLOCK, cfg.trials)
        yield from [sample_trial(cfg, i) for i in range(start, stop)]


def parse_int(field: str) -> int:
    """One field: ASCII digits with optional spaces or tabs around them."""
    digits = field.strip(BLANKS)
    if digits.isascii() and digits.isdigit():
        try:
            return int(digits)
        except ValueError:  # more digits than int() converts
            pass
    raise ValueError(f"not an integer: {digits!r}")


def parse_ints(text: str, source: str) -> list[int]:
    """The integers in a comma-separated list of ``parse_int`` fields; an
    error names ``source`` (a file and line, or a flag) and the bad field."""
    try:
        return [parse_int(field) for field in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def load_trials(path: str | Path) -> list[list[int]]:
    """One input vector per CSV row (a non-blank line); rows become trials."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading BOM is dropped
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text") from None
    except OSError as exc:  # name the file, as write_files does
        raise OSError(f"cannot read {path}: {exc.strerror}") from exc
    vectors = []
    # read_text has turned "\r\n" and "\r" into "\n", the only row break
    for number, line in enumerate(text.split("\n"), start=1):
        if line.strip(BLANKS):
            vectors.append(parse_ints(line, f"{path} line {number}"))
    if not vectors:
        raise ValueError(f"no input vectors in {path}")
    return vectors


def detection_cycles(trace: CycleTrace) -> list[int]:
    """Generation cycle at which each output rank was detected; gaps write nothing."""
    return [record.elapsed for record in trace.records for _ in record.writes]


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
        meta = asdict(self.config)  # less the fields that did not shape the run
        meta["version"] = __version__
        if self.config.input_path is not None:  # samples nothing
            del meta["dist"], meta["mu"], meta["sigma"], meta["seed"]
            return meta
        del meta["input_path"]  # reads no file
        meta["rng"] = "numpy default_rng (PCG64), trial i seeded with seed + i"
        if self.config.dist != "gaussian":  # the only one that reads mu and sigma
            del meta["mu"], meta["sigma"]
        return meta


def run_bench(cfg: BenchConfig, check: bool = False) -> BenchResult:
    """Run all trials; with ``check`` each trial's detection cycles are verified
    against the oracle, and then its outputs against a reference sort."""
    import numpy as np

    if cfg.input_path is not None:
        trials = load_trials(cfg.input_path)
        for row, vec in enumerate(trials, start=1):
            if len(vec) != len(trials[0]):
                noun = "value" if len(vec) == 1 else "values"
                raise ValueError(f"{cfg.input_path}: row {row} has {len(vec)} {noun}, "
                                 f"row 1 has {len(trials[0])}")
        try:  # the caps hold for a file's rows and columns too
            cfg = replace(cfg, n=len(trials[0]), trials=len(trials))
        except ValueError as exc:
            raise ValueError(f"{cfg.input_path}: {exc}") from None
    else:
        trials = _sampled(cfg)

    cycles = np.empty((cfg.trials, cfg.n), dtype=np.int64)
    sort = ENGINES[cfg.arch].sort
    for i, values in enumerate(trials):
        try:
            outputs, trace = sort(values, cfg.m)
        except ValueError as exc:  # the engine checks the words; name a file's row
            if cfg.input_path is not None:
                raise ValueError(f"{cfg.input_path}: row {i + 1}: {exc}") from None
            raise
        measured = detection_cycles(trace)
        if check:
            expected = oracle_cycles(cfg, values)
            if measured != expected:
                raise OracleMismatch(
                    f"trial {i}: measured {measured} != oracle {expected}"
                )
            reference = sorted(values, reverse=cfg.arch == "max")
            if outputs != reference:
                raise OracleMismatch(f"trial {i}: sorted {outputs} != {reference}")
        cycles[i] = measured
    return BenchResult(
        config=cfg,
        mean_cycles=[float(v) for v in cycles.mean(axis=0)],
        std_cycles=[float(v) for v in cycles.std(axis=0)],
    )


def write_files(texts: Sequence[tuple[str | Path, str]]) -> None:
    """Write each (path, text) pair, all of them or none.

    Each text goes to a temporary file in its target's directory first; the
    temporary files replace their targets only once every write succeeded,
    so a failed command leaves no partial output behind.  A symlink is
    followed: the file it names is replaced and the link stays.  A FIFO, a
    device or a symlink loop is refused before anything is written.
    """
    # refuse bad targets before writing anything: os.replace onto a
    # directory fails only after the targets before it were replaced, two
    # spellings of one file would share a temporary file, and a FIFO or a
    # device replaced by a file would never reach its reader
    targets: dict[Path, str | Path] = {}  # resolved target -> path as given, in order
    for path, _ in texts:
        target = Path(os.path.realpath(path))  # a loop resolves to the link itself
        if target in targets:
            raise ValueError(f"cannot write {path}: {targets[target]} names the same file")
        if target.is_dir():
            raise IsADirectoryError(f"cannot write {path}: is a directory")
        if os.path.lexists(target) and not target.is_file():
            raise ValueError(f"cannot write {path}: not a regular file")
        targets[target] = path
    temps: list[Path] = []
    try:
        for target, (path, text) in zip(targets, texts):
            temps.append(target.with_name(f".{target.name}.{os.getpid()}.tmp"))
            try:
                temps[-1].write_text(text, encoding="utf-8")
            except OSError as exc:  # name the target, not the temporary file
                raise OSError(f"cannot write {path}: {exc.strerror}") from exc
        for temp, target in zip(temps, targets):
            os.replace(temp, target)
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)
        raise


def write_bench_csv(result: BenchResult, path: str | Path) -> None:
    """Write the CSV table plus a JSON metadata sidecar (<path>.meta.json),
    both or neither."""
    write_files([
        (path, "\n".join(result.csv_rows()) + "\n"),
        (f"{path}.meta.json",
         json.dumps(result.metadata(), indent=2, sort_keys=True) + "\n"),
    ])
