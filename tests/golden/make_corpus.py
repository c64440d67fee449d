"""Write the golden corpus: CLI outputs, refusals and demo stdout, byte for byte.

Usage::

    python tests/golden/make_corpus.py OUTDIR [--entry-point]

Each case runs with ``OUTDIR`` as its working directory, so the paths a
command records (a ``bench --input`` sidecar holds its input path)
are the same wherever the corpus is written.  The input files are written
first and are part of the corpus.  A case's stdout, if it prints anything,
goes to ``<case>.stdout``, its stderr, if any, to ``<case>.stderr``, and a
non-zero exit status to ``<case>.exit``; the files it writes keep the names
it gives them, so the corpus's listing shows that a refusal wrote nothing.
A file larger than ``DIGEST_ABOVE`` bytes is replaced by its SHA-256 line in
``SHA256SUMS`` (the ``sha256sum`` format), so the corpus stays small and
every other file shows a readable diff.

By default each command runs in process through ``unarysort.cli.main`` and
each demo through ``runpy``; ``--entry-point`` runs the installed
``unarysort`` command and each demo in a fresh interpreter instead.
``tests/test_golden.py`` writes the corpus from this case list and compares
it with ``tests/golden/corpus/``.  ``OUTDIR`` must be empty or missing, so
that no file of a dropped case stays behind.  To regenerate after an
intended output change::

    rm -r tests/golden/corpus &&
        PYTHONPATH=src python tests/golden/make_corpus.py tests/golden/corpus
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

# (name, field) of each field the grammar refuses in a file: a row ends only
# at a newline, and only spaces and tabs are blank
FIELDS = (("arabic_indic", "\u0663"), ("underscore", "1_000"), ("plus", "+5"), ("minus", "-1"),
          ("hex", "0x7"), ("form_feed", "4\x0c6"), ("line_separator", "4\u20286"),
          ("no_break_space", "4\xa0"))

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
    # --- the inputs of the one-invocation successes and refusals below ---
    "eight.csv": "4,6,4,0,7,1,2,2",
    "empty.csv": "",
    # a search of about 2^32 cycles at m=32, for min and for max
    "over_budget.csv": "4294967295,1",
    "widest16.csv": "65535,0,3",
    # a 6-cycle search at m=32: admission follows the search length, not the width
    "wide_min.csv": "5,3",
    "wide_max.csv": "4294967295,4294967290",
    "blanks.csv": " 7 ,\t2\t, 5",
    "bad_field.csv": "2,3\n1,x",
    # a spreadsheet's "CSV UTF-8" export starts with U+FEFF
    "plain.csv": "5,1,3,0\n2,2,7,6",
    "bom.csv": "\ufeff5,1,3,0\n2,2,7,6",
    "later_bom.csv": "5,1,3,0\n\ufeff2,2,7,6",
    **{f"field_{name}.csv": f"2,{field}" for name, field in FIELDS},
    "bad_row.csv": "1,2,3\n4,,6",
    "unequal_rows.csv": "1,2,3\n4,5,6\n\n7,0",
    "short_row.csv": "1,2,3\n4",
    "one_value_rows.csv": "3\n\n5",
    "unrepresentable.csv": "1,2\n\n3,100",
    # 1024 values in {0, 1}, the most inputs a benchmark run takes: two wide tie
    # groups, each the head of in_play (kept in detection order) when it fires
    # and removed in one slice (distinct1024.csv has one value per group)
    "binary1024.csv": ",".join(str(i % 3 % 2) for i in range(1024)),
    # the most inputs a network takes, then past the cap
    "batcher1024.csv": ",".join(str(5 * i % 8) for i in range(1024)),
    **{f"ones{n}.csv": ",".join(["1"] * n) for n in (1025, 2048)},
}

# the commands that read an input file, with the flag that names it last
READERS = {
    "sort": ["sort", "--m", "3", "--input"],
    "compare": ["compare", "--m", "3", "--check", "--input"],
    "bench": ["bench", "--m", "3", "--check", "--input"],
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
       ["bench", "--arch", arch, "--input", "trials.csv", "--check",
        "--output", f"bench_file_{arch}.csv"])
      for arch in ("min", "max")],
    ("compare_wide32", ["compare", "--input", "wide32.csv", "--m", "11", "--check"]),
    ("cost", ["cost"]),
    # N = 1025 is past the 1024 cap, which is checked before the power-of-two rule
    *[(f"network_{n}", ["network", "--n", str(n)]) for n in (2, 8, 16, 64, 1025)],
    # the shortest stream, the worked example's width, and the widest --m;
    # then a value past the width, and one width past the widest
    *[(f"generate_{v}_m{m}", ["generate", str(v), "--m", str(m)])
      for v, m in ((0, 1), (5, 3), (40000, 16), (9, 3), (5, 17))],
    *[(f"demo_{demo}", []) for demo in
      ("01_stream_generation", "02_min_sort_walkthrough", "03_architecture_comparison",
       "05_cost_trends")],
    # --- one invocation on a fixed input: the small successes, then the
    # refusals (exit 1, one "error: " line on stderr and no file written) ---
    ("generate_blanks_5_m3", ["generate", " 5 ", "--m", "\t3"]),  # generate_5_m3's stdout
    *[(f"sort_{arch}", ["sort", "--input", "example.csv", "--arch", arch, "--m", "3"])
      for arch in ("min", "max")],
    ("sort_batcher", ["sort", "--input", "eight.csv", "--arch", "batcher", "--m", "3"]),
    ("sort_batcher_1024", ["sort", "--input", "batcher1024.csv", "--arch", "batcher", "--m", "3",
                           "--output", "sort_batcher_1024.csv"]),
    # the widest words at m=16, and m=32 where the search is short
    *[(f"sort_{arch}_{stem}", ["sort", "--input", f"{path}.csv", "--arch", arch, "--m", m,
                               "--check"])
      for arch in ("min", "max")
      for stem, path, m in (("widest16", "widest16", "16"), ("wide_m32", f"wide_{arch}", "32"))],
    ("sort_blanks", ["sort", "--input", "blanks.csv", "--m", "3"]),
    *[(f"sort_{arch}_binary1024", ["sort", "--input", "binary1024.csv", "--arch", arch,
                                   "--m", "1", "--check"])
      for arch in ("min", "max")],
    # a leading BOM is dropped (each *_bom stdout is its *_plain one); a later one is refused
    *[(f"{command}_{stem}", [*argv, f"{stem}.csv"])
      for command, argv in READERS.items() for stem in ("plain", "bom", "later_bom")],
    ("bench_stdout", ["bench", "--n", "4", "--m", "4", "--mu", "8", "--sigma", "2",
                      "--trials", "20", "--seed", "3"]),
    # a negative decimal after a space is a value, not an option
    ("bench_mu_negative_exponent", ["bench", "--trials", "3", "--n", "4", "--m", "4",
                                    "--mu", "-1e1", "--check"]),
    ("cost_default_grid", ["cost", "--n", "8,16,32,64,128,256", "--m", "8,16,32"]),  # cost's stdout
    ("cost_8_8", ["cost", "--n", "8", "--m", "8"]),
    *[(f"{command}_{name}", [*argv, path]) for command, argv in READERS.items()
      for name, path in (("missing_input", "nope.csv"), ("directory_input", "."))],
    ("sort_empty", ["sort", "--input", "empty.csv", "--m", "3"]),
    ("sort_bad_field", ["sort", "--input", "bad_field.csv", "--m", "3"]),
    *[(f"sort_field_{name}", ["sort", "--input", f"field_{name}.csv", "--m", "16"])
      for name, _ in FIELDS],
    *[(f"sort_{arch}_over_budget", ["sort", "--input", "over_budget.csv", "--arch", arch,
                                    "--m", "32", "--output", f"sort_{arch}_over_budget.csv",
                                    "--trace", f"sort_{arch}_over_budget.trace.csv"])
      for arch in ("min", "max")],
    ("sort_unwritable_trace", ["sort", "--input", "example.csv", "--m", "3",
                               "--output", "sort_unwritable_trace.csv",
                               "--trace", "missing/trace.csv"]),
    *[(f"sort_same_file{suffix}", ["sort", "--input", "example.csv", "--m", "3",
                                   "--output", f"{prefix}sort_same_file{suffix}.csv",
                                   "--trace", f"sort_same_file{suffix}.csv"])
      for prefix, suffix in (("", ""), ("./", "_dotted"))],
    ("sort_batcher_trace", ["sort", "--input", "eight.csv", "--arch", "batcher", "--m", "3",
                            "--output", "sort_batcher_trace.csv",
                            "--trace", "sort_batcher_trace.trace.csv"]),
    # an input count that is no power of two, or past the 1024 cap (checked first)
    ("sort_batcher_3", ["sort", "--input", "example.csv", "--arch", "batcher", "--m", "3"]),
    ("cost_3_3", ["cost", "--n", "3", "--m", "3"]),  # sort_batcher_3's refusal
    ("compare_3", ["compare", "--input", "example.csv", "--m", "3"]),
    *[(f"{command}_{n}", [*argv, "--input", f"ones{n}.csv", "--m", "3"])
      for command, argv in (("sort_batcher", ["sort", "--arch", "batcher",
                                              "--output", "sort_batcher_past_cap.csv"]),
                            ("compare", ["compare"]))
      for n in (1025, 2048)],
    # the min and max sorters take the same count cap, checked before any unit runs
    *[(f"sort_{arch}_1025", ["sort", "--arch", arch, "--input", "ones1025.csv", "--m", "3",
                             "--output", f"sort_{arch}_1025.csv"])
      for arch in ("min", "max")],
    ("compare_over_budget", ["compare", "--input", "over_budget.csv", "--m", "32"]),
    ("bench_over_budget", ["bench", "--n", "2", "--m", "32", "--mu", "4e9", "--sigma", "0",
                           "--trials", "1"]),
    ("bench_n1", ["bench", "--n", "1", "--m", "4"]),
    ("bench_trials_10001", ["bench", "--trials", "10001"]),
    # a plain message naming the parameter, not an internal numpy error
    *[(f"bench_{flag}_{name}", ["bench", "--trials", "2", f"--{flag}", value])
      for flag, name, value in (("mu", "nan", "nan"), ("mu", "inf", "inf"),
                                ("mu", "arabic_indic", "\u0663"), ("sigma", "negative", "-1"),
                                ("seed", "negative", "-3"))],
    ("bench_sigma_negative_exponent", ["bench", "--trials", "3", "--n", "4", "--sigma", "-1e1"]),
    ("generate_arabic_indic", ["generate", "\u0663"]),
    ("generate_not_a_number", ["generate", "not-a-number"]),
    # an empty path names the working directory: refused, never read as "no path"
    ("sort_empty_output_path", ["sort", "--input", "example.csv", "--m", "3", "--output", ""]),
    ("sort_empty_trace_path", ["sort", "--input", "example.csv", "--m", "3", "--trace", ""]),
    ("cost_empty_output_path", ["cost", "--output", ""]),
    ("bench_empty_output_path", ["bench", "--trials", "2", "--output", ""]),
    ("bench_empty_input_path", ["bench", "--input", "", "--trials", "2"]),
    *[(f"bench_{stem}", ["bench", "--input", f"{stem}.csv", "--m", "3"])
      for stem in ("bad_row", "unequal_rows", "short_row", "one_value_rows")],
    *[(f"bench_{arch}_unrepresentable",
       ["bench", "--input", "unrepresentable.csv", "--m", "4", "--arch", arch])
      for arch in ("min", "max")],
    ("cost_empty_entry", ["cost", "--n", ",8"]),
    ("cost_signed_entry", ["cost", "--n", "8", "--m", "+8"]),
    ("cost_n_past_float_range", ["cost", "--n", f"8,{2**1100}", "--m", "8",
                                 "--output", "cost_n_past_float_range.csv"]),
]


def _in_process(name: str, argv: list[str]) -> tuple[int, str, str]:
    from unarysort import cli  # here, so that --entry-point needs no src/ on the path

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if name.startswith("demo_"):
            runpy.run_path(str(ROOT / "demos" / f"{name[5:]}.py"), run_name="__main__")
            status = 0
        else:
            status = cli.main(argv)
    return status, out.getvalue(), err.getvalue()


def _entry_point(name: str, argv: list[str]) -> tuple[int, str, str]:
    if name.startswith("demo_"):
        argv = [sys.executable, str(ROOT / "demos" / f"{name[5:]}.py")]
    else:
        argv = ["unarysort", *argv]
    # the corpus is UTF-8 text whatever the locale (stderr may quote a \u0663)
    done = subprocess.run(argv, capture_output=True, encoding="utf-8",
                          env={**os.environ, "PYTHONIOENCODING": "utf-8"})
    return done.returncode, done.stdout, done.stderr


def generate(outdir: Path, entry_point: bool = False) -> None:
    """Write every input and case output into ``outdir``, then digest the big files."""
    outdir = Path(outdir).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    if any(outdir.iterdir()):
        raise FileExistsError(f"{outdir} is not empty; remove it first")
    for name, text in INPUTS.items():
        (outdir / name).write_text(text + "\n", encoding="utf-8")
    run = _entry_point if entry_point else _in_process
    cwd = os.getcwd()
    os.chdir(outdir)
    try:
        for name, argv in CASES:
            status, stdout, stderr = run(name, argv)
            for suffix, text in (("exit", f"{status}\n" if status else ""),
                                 ("stdout", stdout), ("stderr", stderr)):
                if text:
                    (outdir / f"{name}.{suffix}").write_text(text, encoding="utf-8")
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
