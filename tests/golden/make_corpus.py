"""Write the golden corpus: CLI outputs and demo stdout, byte for byte.

Usage::

    python tests/golden/make_corpus.py OUTDIR [--entry-point]

Each case runs with ``OUTDIR`` as its working directory, so the paths a
command records (the ``bench --dist file`` sidecar holds its input path)
are the same wherever the corpus is written.  The input files are written
first and are part of the corpus.  A case's stdout, if it prints anything,
goes to ``<case>.stdout``; the files it writes keep the names it gives them.  A
file larger than ``DIGEST_ABOVE`` bytes is replaced by its SHA-256 line in
``SHA256SUMS`` (the ``sha256sum`` format), so the corpus stays small and
every other file shows a readable diff.

By default each command runs in process through ``unarysort.cli.main`` and
each demo through ``runpy``; ``--entry-point`` runs the installed
``unarysort`` command and each demo in a fresh interpreter instead.
``tests/test_golden.py`` writes the corpus from this case list and compares
it with ``tests/golden/corpus/``.  To regenerate after an intended output
change: ``PYTHONPATH=src python tests/golden/make_corpus.py tests/golden/corpus``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DIGEST_ABOVE = 16 * 1024
MANIFEST = "SHA256SUMS"

INPUTS = {
    # the worked example: two equal minima detected together, then the 6
    "example.csv": "4,6,4",
    # 32 distinct values spread over 0..2047
    "wide32.csv": ",".join(str((i * 797 + 113) % 2048) for i in range(32)),
    # 64 values in 0..3: four tie groups of 16 writes each
    "ties64.csv": ",".join(str(i * 7 % 4) for i in range(64)),
    # 1024 distinct values, one per tie group
    "distinct1024.csv": ",".join(str(i * 611 % 1024) for i in range(1024)),
    # four trials of eight values, one per row
    "trials.csv": "\n".join(",".join(str((r * 37 + c * 53) % 256) for c in range(8))
                            for r in range(4)),
}

# (case name, argv); a name starting with "demo_" runs demos/<rest>.py
CASES = [
    *[(f"sort_{arch}_{stem}",
       ["sort", "--arch", arch, "--input", f"{stem}.csv", "--m", m,
        "--output", f"sort_{arch}_{stem}.csv", "--trace", f"sort_{arch}_{stem}.trace.csv",
        "--check"])
      for stem, m in (("example", "3"), ("wide32", "11"), ("ties64", "2"), ("distinct1024", "10"))
      for arch in ("min", "max")],
    ("bench_default", ["bench", "--check", "--output", "bench_default.csv"]),
    *[(f"bench_uniform_{arch}",
       ["bench", "--arch", arch, "--dist", "uniform", "--n", "64", "--m", "4",
        "--trials", "200", "--check", "--output", f"bench_uniform_{arch}.csv"])
      for arch in ("min", "max")],
    *[(f"bench_file_{arch}",
       ["bench", "--arch", arch, "--dist", "file", "--input", "trials.csv",
        "--check", "--output", f"bench_file_{arch}.csv"])
      for arch in ("min", "max")],
    ("compare_wide32", ["compare", "--input", "wide32.csv", "--m", "11", "--check"]),
    ("cost", ["cost"]),
    *[(f"network_{n}", ["network", "--n", str(n)]) for n in (2, 16, 64)],
    # the shortest stream, the worked example's width, and the widest --m
    *[(f"generate_{v}_m{m}", ["generate", str(v), "--m", str(m)])
      for v, m in ((0, 1), (5, 3), (40000, 16))],
    *[(f"demo_{demo}", []) for demo in
      ("01_stream_generation", "02_min_sort_walkthrough", "03_architecture_comparison",
       "05_cost_trends")],
]


def _in_process(name: str, argv: list[str]) -> str:
    from unarysort import cli  # here, so that --entry-point needs no src/ on the path

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if name.startswith("demo_"):
            runpy.run_path(str(ROOT / "demos" / f"{name[5:]}.py"), run_name="__main__")
        else:
            status = cli.main(argv)
            if status:
                raise RuntimeError(f"{name}: exit {status}")
    return out.getvalue()


def _entry_point(name: str, argv: list[str]) -> str:
    if name.startswith("demo_"):
        argv = [sys.executable, str(ROOT / "demos" / f"{name[5:]}.py")]
    else:
        argv = ["unarysort", *argv]
    # stderr is not captured, so a failing case shows its message
    return subprocess.run(argv, stdout=subprocess.PIPE, encoding="utf-8", check=True).stdout


def generate(outdir: Path, entry_point: bool = False) -> None:
    """Write every input and case output into ``outdir``, then digest the big files."""
    outdir = Path(outdir).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in INPUTS.items():
        (outdir / name).write_text(text + "\n", encoding="utf-8")
    run = _entry_point if entry_point else _in_process
    cwd = os.getcwd()
    os.chdir(outdir)
    try:
        for name, argv in CASES:
            stdout = run(name, argv)
            if stdout:
                (outdir / f"{name}.stdout").write_text(stdout, encoding="utf-8")
    finally:
        os.chdir(cwd)
    digests = []
    for path in sorted(outdir.iterdir()):
        if path.stat().st_size > DIGEST_ABOVE:
            digests.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n")
            path.unlink()
    (outdir / MANIFEST).write_text("".join(digests), encoding="utf-8")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--entry-point", action="store_true",
                        help="run the installed unarysort command and fresh interpreters")
    args = parser.parse_args(argv)
    generate(args.outdir, args.entry_point)


if __name__ == "__main__":
    main()
