"""Command-line harness: generate, sort, bench, cost, compare, network.

Every number argument has a field grammar, with optional spaces or tabs
around the field: an integer is ASCII digits, as in a CSV field, and
``bench --mu/--sigma`` are decimals (an optional ``-``, ASCII digits with at
most one ``.``, and an optional exponent such as ``e-3``).  Exit status: 0
on success; 1 when an argument or an input is refused, with one ``error: ``
line on stderr and no usage block; 2 when a ``--check`` oracle comparison
fails.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections.abc import Sequence
from dataclasses import asdict, fields

from .batcher import batcher_sort, build_bitonic_network
from .bench import (
    BLANKS,
    DISTS,
    ENGINES,
    MAX_TRIALS,
    BenchConfig,
    OracleMismatch,
    load_trials,
    parse_int,
    parse_ints,
    run_bench,
    write_bench_csv,
    write_files,
)
from .bitstream import MAX_SORT_INPUTS, MAX_STREAM_WIDTH, emission_str, written_str
from .cost import TABLE_M, TABLE_N, cost_table
from .generators import counter_generate, fsm_generate

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MISMATCH = 2

DECIMAL = re.compile(r"[ \t]*-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?[ \t]*")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-1e3" or "-5." after a space as an option, not a
        # value; a "-" then a digit, or "-." then a digit, is a number here
        self._negative_number_matcher = re.compile(r"-\.?[0-9]")

    # argparse prints usage and exits with status 2 on a bad argument; this
    # harness reserves 2 for oracle mismatches, and main reports every
    # refusal as one line with status 1
    def error(self, message):
        raise ValueError(message)


def _integer(field: str) -> int:
    # argparse rewords a type's ValueError but keeps this message, after the name
    try:
        return parse_int(field)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _decimal(field: str) -> float:
    if not DECIMAL.fullmatch(field):
        raise argparse.ArgumentTypeError(f"not a number: {field.strip(BLANKS)!r}")
    return float(field)


def _read_values(path: str) -> list[int]:
    # all fields in the file form one input vector; rows are formatting only
    return [value for row in load_trials(path) for value in row]


def _write_or_print(
    text: str, output: str | None, others: Sequence[tuple[str, str]] = ()
) -> None:
    """Write ``text`` to ``output`` (stdout if none) and each (path, text)
    of ``others``; no file is written unless every file write succeeds."""
    write_files([*others, (output, text)] if output is not None else others)
    if output is None:
        sys.stdout.write(text)


def cmd_generate(args) -> int:
    fsm = fsm_generate(args.value, args.m)
    counter = counter_generate(args.value, args.m)
    print(f"value {args.value} width {args.m} stream length {len(fsm)}")
    print(f"fsm      emission={emission_str(fsm)} written={written_str(fsm)}")
    print(f"counter  emission={emission_str(counter)} written={written_str(counter)}")
    return EXIT_OK


def cmd_sort(args) -> int:
    if args.trace is not None and args.arch == "batcher":
        raise ValueError("--trace requires an iterative engine (min or max)")
    values = _read_values(args.input)
    if args.arch == "batcher":
        outputs = batcher_sort(values, args.m)
    else:
        outputs, trace = ENGINES[args.arch].sort(values, args.m)
    if args.check:
        expected = sorted(values, reverse=(args.arch == "max"))
        if outputs != expected:
            raise OracleMismatch(f"{outputs} != {expected}")
    traces = () if args.trace is None else [
        (args.trace, "\n".join(trace.csv_rows()) + "\n")]
    _write_or_print(",".join(str(v) for v in outputs) + "\n", args.output, traces)
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = BenchConfig(**{f.name: getattr(args, f.name) for f in fields(BenchConfig)})
    result = run_bench(cfg, check=args.check)
    if args.output is not None:
        write_bench_csv(result, args.output)
    else:
        print("\n".join(result.csv_rows()))
    return EXIT_OK


def cmd_cost(args) -> int:
    ns = tuple(parse_ints(args.n, "--n"))
    ms = tuple(parse_ints(args.m, "--m"))
    rows = cost_table(ns, ms)
    lines = ["n,m,min_sorter,max_sorter,batcher,cas_blocks,ordering_ok"]
    for row in rows:
        lines.append(
            f"{row['n']},{row['m']},{row['min_sorter']:.1f},{row['max_sorter']:.1f},"
            f"{row['batcher']:.1f},{row['cas_blocks']},{row['ordering_ok']}"
        )
    _write_or_print("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def cmd_compare(args) -> int:
    values = _read_values(args.input)
    # first: the network refuses an N that is out of range or not a power
    # of two, and is fast
    network = batcher_sort(values, args.m)
    ascending, _ = ENGINES["min"].sort(values, args.m)
    descending, _ = ENGINES["max"].sort(values, args.m)
    agree = ascending == list(reversed(descending)) == network
    # compared before anything is printed, so a failed check prints nothing
    if args.check and not (agree and ascending == sorted(values)):
        raise OracleMismatch("architectures disagree")
    print(f"input:      {values}")
    print(f"min engine: {ascending}")
    print(f"max engine: {descending}")
    print(f"batcher:    {network}")
    print(f"agreement:  {agree}")
    return EXIT_OK


def cmd_network(args) -> int:
    print(build_bitonic_network(args.n).describe())
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="unarysort", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="print both generators' streams")
    p.add_argument("value", type=_integer)
    p.add_argument("--m", type=_integer, default=3,
                   help=f"data width in bits, at most {MAX_STREAM_WIDTH}")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("sort", help="sort a CSV of integers")
    p.add_argument("--input", required=True, help="CSV file of unsigned integers")
    p.add_argument("--arch", choices=(*ENGINES, "batcher"), default="min")
    p.add_argument("--m", type=_integer, default=8)
    p.add_argument("--output", help="write sorted CSV here instead of stdout")
    p.add_argument("--trace", help="write the cycle trace CSV here")
    p.add_argument("--check", action="store_true",
                   help="verify against a reference sort; exit 2 on mismatch")
    p.set_defaults(func=cmd_sort)

    p = sub.add_parser("bench", help="cycle-count benchmark over random inputs")
    p.add_argument("--arch", choices=ENGINES)
    p.add_argument("--n", type=_integer, help=f"inputs per trial, 2 to {MAX_SORT_INPUTS}")
    p.add_argument("--m", type=_integer)
    p.add_argument("--dist", choices=DISTS)
    p.add_argument("--mu", type=_decimal)
    p.add_argument("--sigma", type=_decimal)
    p.add_argument("--trials", type=_integer, help=f"trial count, 1 to {MAX_TRIALS}")
    p.add_argument("--seed", type=_integer)
    p.add_argument("--input", dest="input_path", metavar="INPUT",
                   help="CSV of input vectors, one trial per row; nothing is sampled")
    p.add_argument("--output", help="CSV path; a .meta.json sidecar is written too")
    p.add_argument("--check", action="store_true",
                   help="verify every trial against the sorted-sample oracle")
    p.set_defaults(func=cmd_bench, **asdict(BenchConfig()))

    p = sub.add_parser("cost", help="structural cost table over an (N, M) grid")
    p.add_argument("--n", default=",".join(map(str, TABLE_N)), help="comma list of N")
    p.add_argument("--m", default=",".join(map(str, TABLE_M)), help="comma list of M")
    p.add_argument("--output")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("compare", help="run all three architectures on one input")
    p.add_argument("--input", required=True)
    p.add_argument("--m", type=_integer, default=8)
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("network", help="dump a bitonic CAS network")
    p.add_argument("--n", type=_integer, default=8,
                   help=f"input count, a power of two up to {MAX_SORT_INPUTS}")
    p.set_defaults(func=cmd_network)

    return parser


# built once: parse_args leaves the parser unchanged, so every call shares it
PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = PARSER.parse_args(argv)
        return args.func(args)
    except OracleMismatch as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
