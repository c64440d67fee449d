import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unarysort import bench, cli
from unarysort.bench import BenchConfig
from unarysort.max_sorter import MaxSortEngine
from unarysort.min_sorter import MinSortEngine

# fields the CSV grammar refuses: a digit of another script, an underscore,
# a sign, a hex prefix, a list, a blank, more digits than int() converts, and
# a blank that is neither a space nor a tab
BAD_FIELDS = ["\u0663", "1_0", "+5", "-1", "0x7", "8,16", "", "1" * 4301, "7\xa0"]
BAD_FIELD_IDS = ["arabic-indic", "underscore", "plus", "minus", "hex", "list",
                 "blank", "4301-digits", "no-break-space"]

# every integer argument, in an argv that is valid but for that field (None)
INTEGER_ARGUMENTS = [
    ("value", ["generate", None]),
    ("--m", ["generate", "4", "--m", None]),
    ("--m", ["sort", "--input", "in.csv", "--m", None]),
    ("--m", ["bench", "--trials", "2", "--m", None]),
    ("--n", ["bench", "--trials", "2", "--n", None]),
    ("--trials", ["bench", "--trials", None]),
    ("--seed", ["bench", "--trials", "2", "--seed", None]),
    ("--m", ["compare", "--input", "in.csv", "--m", None]),
    ("--n", ["network", "--n", None]),
]

# fields the decimal grammar refuses: those of BAD_FIELDS that are no
# decimal either, non-finite names, two points, a bare point, a bare exponent
BAD_DECIMALS = ["\u0663", "1_0", "+5", "0x7", "8,16", "", "1\xa0", "nan", "inf", "1.2.3",
                ".", "1e"]
BAD_DECIMAL_IDS = ["arabic-indic", "underscore", "plus", "hex", "list", "blank",
                   "no-break-space", "nan", "inf", "two-points", "point", "bare-exponent"]
DECIMAL_ARGUMENTS = [
    ("--mu", ["bench", "--trials", "2", "--mu", None]),
    ("--sigma", ["bench", "--trials", "2", "--sigma", None]),
]


run = cli.main


def fresh_python(args):
    """Run a new interpreter that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, encoding="utf-8", timeout=120,
        env={**os.environ, "PYTHONPATH": path, "PYTHONIOENCODING": "utf-8"},
    )


def assert_one_error_line(err):
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err


class UnsortingEngine:
    """Stands in for an engine class and returns its input unsorted."""

    def __init__(self, values, width):
        self.values = list(values)
        self.trace = None

    def run(self):
        return self.values


class TestGenerate:
    """Each generator's stream holds ``value`` ones in ``2**m`` bits, and its
    written stream is its emission reversed; the corpus holds the refusals."""

    def streams(self, capsys, value, m):
        assert run(["generate", str(value), "--m", str(m)]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header == f"value {value} width {m} stream length {2 ** m}"
        assert [row.split()[0] for row in rows] == ["fsm", "counter"]
        for row in rows:
            emission, written = (field.split("=")[1] for field in row.split()[1:])
            assert len(emission) == 2 ** m and emission.count("1") == value
            assert written == emission[::-1]
        return rows

    def test_prints_both_generators(self, capsys):
        assert self.streams(capsys, 5, 3) == ["fsm      emission=11111000 written=00011111",
                                              "counter  emission=00011111 written=11111000"]

    def test_zero(self, capsys):
        self.streams(capsys, 0, 1)

    def test_widest_allowed(self, capsys):
        self.streams(capsys, 40000, 16)


class TestArguments:
    @pytest.mark.parametrize("field", BAD_FIELDS, ids=BAD_FIELD_IDS)
    @pytest.mark.parametrize("name, argv", INTEGER_ARGUMENTS,
                             ids=[f"{a[0]} {n}" for n, a in INTEGER_ARGUMENTS])
    def test_integer_argument_takes_one_csv_field(
        self, tmp_path, monkeypatch, capsys, name, argv, field
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in.csv").write_text("4,6,4,0\n")
        assert run([field if arg is None else arg for arg in argv]) == 1
        assert capsys.readouterr() == (
            "", f"error: argument {name}: not an integer: {field!r}\n")

    @pytest.mark.parametrize("field", BAD_DECIMALS, ids=BAD_DECIMAL_IDS)
    @pytest.mark.parametrize("name, argv", DECIMAL_ARGUMENTS,
                             ids=[name for name, _ in DECIMAL_ARGUMENTS])
    def test_decimal_argument_takes_one_decimal_field(self, capsys, name, argv, field):
        assert run([field if arg is None else arg for arg in argv]) == 1
        assert capsys.readouterr() == ("", f"error: argument {name}: not a number: {field!r}\n")

    @pytest.mark.parametrize("field", ["12.5", "-3", "4e9", "0", " 5. ", "\t.5E-1", "1e400",
                                       "-1e3", "-5.", "-1.5E-1"])
    def test_decimal_grammar_accepts(self, field):
        assert cli.PARSER.parse_args(["bench", "--mu", field]).mu == float(field)

    @pytest.mark.parametrize("argv, name", [
        ([], "command"),
        (["frob"], "frob"),
        (["sort"], "--input"),
        (["compare", "--m", "3"], "--input"),
        (["sort", "--input", "in.csv", "--arch", "bogus"], "--arch"),
        (["generate", "4", "--bogus"], "--bogus"),
    ], ids=["no-command", "bad-command", "sort-no-input", "compare-no-input",
            "bad-arch", "unknown-flag"])
    def test_refusal_is_one_error_line_without_usage(self, capsys, argv, name):
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert_one_error_line(err)
        assert name in err and "usage" not in err

    def test_arch_choices_come_from_the_engine_table(self):
        commands = next(action.choices for action in cli.PARSER._actions
                        if isinstance(action, argparse._SubParsersAction))
        sort_archs, bench_archs = (
            next(action.choices for action in commands[name]._actions if action.dest == "arch")
            for name in ("sort", "bench"))
        assert tuple(sort_archs) == (*bench.ENGINES, "batcher")
        assert list(bench_archs) == list(bench.ENGINES)

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["sort", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: unarysort sort")

    def test_main_parses_with_the_parser_built_at_import(self, monkeypatch, capsys):
        def refuse():
            raise AssertionError("build_parser called after import")

        monkeypatch.setattr(cli, "build_parser", refuse)
        assert run(["generate", "4", "--m", "3"]) == 0
        assert run(["network", "--n", "4"]) == 0
        assert run(["cost", "--n", "4", "--m", "3"]) == 0
        assert run(["generate", "\u0663"]) == 1
        assert capsys.readouterr().err == "error: argument value: not an integer: '\u0663'\n"

    @pytest.mark.parametrize("argv", [[], ["generate", "\u0663"]], ids=["empty", "bad-value"])
    def test_module_entry_point_exits_one(self, argv):
        done = fresh_python(["-m", "unarysort.cli", *argv])
        assert (done.returncode, done.stdout) == (1, "")
        assert_one_error_line(done.stderr)


class TestSort:
    def sorts(self, tmp_path, capsys, arch, values, m):
        path = tmp_path / "in.csv"
        path.write_text(",".join(map(str, values)) + "\n")
        assert run(["sort", "--input", str(path), "--m", str(m), "--arch", arch]) == 0
        return [int(field) for field in capsys.readouterr().out.split(",")]

    def test_min_sort(self, tmp_path, capsys):
        assert self.sorts(tmp_path, capsys, "min", [4, 6, 4], 3) == [4, 4, 6]

    def test_max_sort(self, tmp_path, capsys):
        assert self.sorts(tmp_path, capsys, "max", [4, 6, 4], 3) == [6, 4, 4]

    def test_batcher_sort(self, tmp_path, capsys):
        values = [4, 6, 4, 0, 7, 1, 2, 2]
        assert self.sorts(tmp_path, capsys, "batcher", values, 3) == sorted(values)

    def test_check_mismatch_exits_two(self, tmp_path, monkeypatch, capsys):
        # the check comes before any output: a failed one prints and writes nothing
        monkeypatch.setitem(bench.ENGINES, "min", UnsortingEngine)
        path = tmp_path / "in.csv"
        path.write_text("3,1,2\n")
        argv = ["sort", "--input", str(path), "--m", "2", "--check"]
        assert run(argv) == 2
        assert capsys.readouterr() == ("", "check failed: [3, 1, 2] != [1, 2, 3]\n")
        assert run([*argv, "--output", str(tmp_path / "out.csv"),
                    "--trace", str(tmp_path / "trace.csv")]) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["in.csv"]

    def test_non_utf8_input_names_file(self, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_bytes(b"4,6,\xff\n")
        assert run(["sort", "--input", str(path), "--m", "3"]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: not UTF-8 text\n")

    def test_batcher_at_width_32(self, tmp_path, capsys):
        # the network is not bound by the search budget, and runs by spans
        path = tmp_path / "in.csv"
        path.write_text("4294967295,1\n")
        start = time.perf_counter()
        assert run(["sort", "--input", str(path), "--arch", "batcher", "--m", "32",
                    "--check"]) == 0
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().out == "1,4294967295\n"

    def test_output_directory_leaves_no_trace(self, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_text("4,6,4\n")
        out, trace = tmp_path / "out", tmp_path / "trace.csv"
        out.mkdir()
        assert run(["sort", "--input", str(path), "--m", "3",
                    "--output", str(out), "--trace", str(trace)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {out}: is a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "out"]
        assert not any(out.iterdir())

    def test_output_and_trace_replace_old_files(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("4,6,4\n")
        out, trace = tmp_path / "out.csv", tmp_path / "trace.csv"
        out.write_text("stale\n")
        trace.write_text("stale\n")
        assert run(["sort", "--input", str(path), "--m", "3",
                    "--output", str(out), "--trace", str(trace)]) == 0
        assert out.read_text() == "4,4,6\n"
        assert len(trace.read_text().splitlines()) == 11
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "out.csv", "trace.csv"]

    def test_output_through_a_symlink_replaces_its_target(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("4,6,4\n")
        (tmp_path / "data").mkdir()
        target, link = tmp_path / "data" / "out.csv", tmp_path / "link.csv"
        target.write_text("stale\n")
        link.symlink_to(target)
        assert run(["sort", "--input", str(path), "--m", "3", "--output", str(link)]) == 0
        assert link.is_symlink() and link.readlink() == target
        assert target.read_text() == "4,4,6\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["data", "in.csv", "link.csv",
                                                               "out.csv"]

    def test_output_refuses_a_fifo(self, tmp_path, capsys):
        # replaced by a file, a FIFO would never reach its reader
        path = tmp_path / "in.csv"
        path.write_text("4,6,4\n")
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        assert run(["sort", "--input", str(path), "--m", "3", "--output", str(pipe)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {pipe}: not a regular file\n"
        assert pipe.is_fifo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "pipe"]

    def test_output_through_a_symlink_loop_is_refused(self, tmp_path, capsys):
        # a loop names no file to replace; some Pythons raise on resolving it
        path = tmp_path / "in.csv"
        path.write_text("4,6,4\n")
        loop, out = tmp_path / "loop.csv", tmp_path / "out.csv"
        loop.symlink_to(loop)
        for outputs in (["--output", loop], ["--output", out, "--trace", loop]):
            assert run(["sort", "--input", str(path), "--m", "3", *map(str, outputs)]) == 1
            assert capsys.readouterr().err == f"error: cannot write {loop}: not a regular file\n"
            assert loop.is_symlink() and loop.readlink() == loop
            assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "loop.csv"]


class TestBench:
    def test_defaults_are_bench_configs(self):
        args = cli.build_parser().parse_args(["bench"])
        defaults = asdict(BenchConfig())
        assert {name: getattr(args, name) for name in defaults} == defaults
        assert [type(getattr(args, name)) for name in defaults] == [
            type(value) for value in defaults.values()
        ]

    def test_check_mismatch_exits_two(self, monkeypatch, capsys):
        # a max engine detects at 2**m - v, never where the min oracle expects
        monkeypatch.setitem(bench.ENGINES, "min", MaxSortEngine)
        assert run(["bench", "--n", "4", "--m", "4", "--trials", "3",
                    "--mu", "8", "--sigma", "3", "--check"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("check failed: trial 0: measured [")

    @pytest.mark.parametrize("engine_cls", [MinSortEngine, MaxSortEngine], ids=["min", "max"])
    def test_check_compares_the_sorted_outputs(self, monkeypatch, capsys, engine_cls):
        # each output one too large: the detection cycles stay right
        value = engine_cls._value
        monkeypatch.setattr(engine_cls, "_value", lambda engine: value(engine) + 1)
        assert run(["bench", "--arch", engine_cls.arch, "--trials", "20", "--check"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("check failed: trial 0: sorted ["), err

    def test_unwritable_sidecar_leaves_no_output(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        (tmp_path / "b.csv.meta.json").mkdir()
        assert run(["bench", "--n", "4", "--m", "4", "--trials", "5",
                    "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.csv.meta.json"]
        assert not any((tmp_path / "b.csv.meta.json").iterdir())

    @pytest.mark.parametrize("flag, cap", [("--n", bench.MAX_N),
                                           ("--trials", bench.MAX_TRIALS)])
    def test_caps_are_checked_before_any_sampling(self, monkeypatch, capsys, flag, cap):
        def sampled(cfg, trial):
            raise ValueError("sampled")

        monkeypatch.setattr(bench, "sample_trial", sampled)
        assert run(["bench", flag, str(cap)]) == 1
        assert capsys.readouterr() == ("", "error: sampled\n")
        assert run(["bench", flag, str(cap + 1)]) == 1
        low = 2 if flag == "--n" else 1
        assert capsys.readouterr() == (
            "", f"error: {flag[2:]} must be in {low}..{cap}, got {cap + 1}\n")

    def test_non_utf8_input_names_file(self, tmp_path, capsys):
        path = tmp_path / "vectors.csv"
        path.write_bytes(b"1,2\n\xff,3\n")
        assert run(["bench", "--input", str(path), "--m", "3"]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: not UTF-8 text\n")


class TestCompare:
    def test_agreement(self, tmp_path, capsys):
        values = [(113 + 797 * i) % 2048 for i in range(32)]
        path = tmp_path / "in.csv"
        path.write_text(",".join(map(str, values)) + "\n")
        assert run(["compare", "--input", str(path), "--m", "11", "--check"]) == 0
        rows = (line.split(":", 1) for line in capsys.readouterr().out.splitlines())
        assert {name: row.strip() for name, row in rows} == {
            "input": str(values), "min engine": str(sorted(values)),
            "max engine": str(sorted(values, reverse=True)), "batcher": str(sorted(values)),
            "agreement": "True"}

    def test_check_mismatch_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(bench.ENGINES, "min", UnsortingEngine)
        path = tmp_path / "in.csv"
        path.write_text("4,6,4,0,7,1,2,2\n")
        assert run(["compare", "--input", str(path), "--m", "3", "--check"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "check failed: architectures disagree\n"
        assert "agreement" not in captured.out

    def test_input_count_checked_before_any_engine_runs(self, tmp_path, monkeypatch, capsys):
        def refuse(values, width):
            raise AssertionError("an engine ran before the input count was checked")

        monkeypatch.setitem(bench.ENGINES, "min", refuse)
        monkeypatch.setitem(bench.ENGINES, "max", refuse)
        path = tmp_path / "in.csv"
        path.write_text("65535,0,3\n")
        assert run(["compare", "--input", str(path), "--m", "16"]) == 1
        assert capsys.readouterr() == (
            "", "error: input count must be a power of two >= 2, got 3\n")


class TestNetwork:
    def test_dump(self, capsys):
        # by the 0-1 principle the dumped stages sort every input if they
        # sort every input of zeros and ones
        assert run(["network", "--n", "8"]) == 0
        header, *stages = capsys.readouterr().out.splitlines()
        assert header == "inputs=8 stages=6 cas=24" and len(stages) == 6
        cas = [[(int(i), int(j), order) for i, j, order in
                (pair.strip("()").split(",") for pair in stage.split(": ")[1].split())]
               for stage in stages]
        assert sum(map(len, cas)) == 24
        for word in range(2 ** 8):
            lane = [word >> bit & 1 for bit in range(8)]
            for stage in cas:
                for i, j, order in stage:
                    low, high = sorted((lane[i], lane[j]))
                    lane[i], lane[j] = (low, high) if order == "asc" else (high, low)
            assert lane == sorted(lane), word

    def test_largest_allowed(self, capsys):
        # not in the corpus: its 400 kB dump would add a SHA256SUMS line
        assert run(["network", "--n", str(cli.MAX_NETWORK_INPUTS)]) == 0
        assert capsys.readouterr().out.startswith("inputs=1024 stages=55 cas=28160\n")


class TestNumpyIsLoadedByBenchAlone:
    """numpy is a dependency of ``bench`` alone: every other command, and the
    import of the package, runs in an interpreter that cannot load it."""

    def test_every_other_command_runs_with_numpy_blocked(self, tmp_path):
        (tmp_path / "in.csv").write_text("4,6,4,0\n")
        argvs = [["generate", "4", "--m", "3"], ["cost", "--n", "8", "--m", "8"],
                 ["compare", "--input", "in.csv", "--m", "3"], ["network", "--n", "4"]]
        for arch in ("min", "max", "batcher"):
            trace = [] if arch == "batcher" else ["--trace", f"{arch}.trace.csv"]
            argvs.append(["sort", "--input", "in.csv", "--m", "3", "--arch", arch,
                          "--output", f"{arch}.csv", *trace])
        done = fresh_python(["-c", (
            "import contextlib, io, json, os, sys\n"
            "sys.modules['numpy'] = None  # an import of numpy now raises\n"
            "from unarysort import cli\n"
            "os.chdir(sys.argv[1])\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]\n"
            "print(json.dumps(codes))"), str(tmp_path), json.dumps(argvs)])
        assert (done.returncode, done.stdout, done.stderr) == (
            0, json.dumps([0] * len(argvs)) + "\n", "")
        for arch, expected in (("min", "0,4,4,6"), ("max", "6,4,4,0"), ("batcher", "0,4,4,6")):
            assert (tmp_path / f"{arch}.csv").read_text() == expected + "\n"
        assert sorted(p.name for p in tmp_path.glob("*.trace.csv")) == [
            "max.trace.csv", "min.trace.csv"]

    def test_bench_loads_numpy_on_first_use(self):
        done = fresh_python(["-c", (
            "import contextlib, io, sys\n"
            "from unarysort import cli\n"
            "before = 'numpy' in sys.modules\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['bench', '--trials', '3', '--check'])\n"
            "print(before, code, 'numpy' in sys.modules)")])
        assert (done.returncode, done.stdout, done.stderr) == (0, "False 0 True\n", "")


# --- the whole contract, over generated argument lists and input files ---

def mostly(usual, rare):
    """``usual`` in about three draws of four, else ``rare``."""
    return st.sampled_from([usual, usual, usual, rare]).flatmap(lambda strategy: strategy)


HUGE = str(2**1100)
REFUSED = st.sampled_from(BAD_FIELDS)
WIDTHS = mostly(st.integers(1, 16), st.integers(-1, 40)).map(str)
INPUTS = st.just("in.csv")
# a field with the value it reads as: blanks around it are allowed, and a
# huge value passes the grammar but not the width check
GOOD_FIELD = st.builds(
    lambda before, value, after: (f"{before}{value}{after}", value),
    st.sampled_from(["", " ", "\t"]),
    mostly(st.integers(0, 15),
           st.integers(16, 300) | st.sampled_from([2**16 - 1, 2**32 - 1, 2**64, 10**30])),
    st.sampled_from(["", " ", "\t"]),
)
# "8,16" is two good fields inside a file
FILE_BAD_FIELDS = [f for f in BAD_FIELDS if f != "8,16"]


@st.composite
def input_files(draw):
    """(bytes, values): rows mostly of one length, blank rows among them,
    and at most one flaw; values is None when the file is no valid vector."""
    size = draw(st.sampled_from([2, 4, 1]))
    row = st.lists(GOOD_FIELD, min_size=size, max_size=size) | st.lists(GOOD_FIELD, max_size=4)
    rows = draw(st.lists(row, min_size=1, max_size=3))
    flaw = draw(mostly(st.none(), st.sampled_from(["bom", "non-utf8", "bad-field"])))
    if flaw == "bad-field" and any(rows):
        row = draw(st.sampled_from([row for row in rows if row]))
        row[draw(st.integers(0, len(row) - 1))] = (
            draw(st.sampled_from(FILE_BAD_FIELDS)), None)
    blank = st.sampled_from(["", " \t"])
    texts = [",".join(text for text, _ in row) or draw(blank) for row in rows]
    values = [v for row, text in zip(rows, texts) if text.strip() for _, v in row]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    data = newline.join(texts).encode() + draw(st.sampled_from([b"", newline.encode()]))
    if flaw == "bom":  # dropped on reading, so the file stays valid
        data = b"\xef\xbb\xbf" + data
    if flaw == "non-utf8":
        data += b"\xff"
    if flaw == "non-utf8" or not values or None in values:
        values = None
    return data, values


@st.composite
def invocations(draw):
    """One subcommand's argv with each value from its working range (out of
    range ones included); in about one draw of four, one value is then
    swapped for one that the grammar, the choices or the file system refuse."""
    command = draw(st.sampled_from(["sort", "compare", "bench", "generate", "cost",
                                    "network"]))
    argv, swaps = [command], []

    def add(flag, good=None, bad=REFUSED, optional=True):
        if optional and draw(st.booleans()):
            return
        if flag:
            argv.append(flag)
        if good is not None:
            argv.append(draw(good))
            swaps.append((len(argv) - 1, bad))

    if command == "generate":
        add(None, mostly(st.integers(0, 20).map(str), st.just(HUGE)), optional=False)
        add("--m", WIDTHS)
    if command in ("sort", "compare"):
        add("--input", INPUTS, st.sampled_from(["missing.csv", "."]), optional=False)
        add("--m", WIDTHS)
    if command == "sort":
        add("--arch", st.sampled_from(["min", "max", "batcher"]), st.just("bogus"))
        add("--output", st.just("out.csv"), st.just("."))
        add("--trace", st.just("trace.csv"), st.just("out.csv"))
    if command == "bench":
        # a run costs the product of --n and --trials, so they come from small
        # ranges (--trials would default to 1000); one past each cap is refused
        add("--trials", st.integers(1, 3).map(str), REFUSED | st.sampled_from(["0", "10001"]),
            optional=False)
        add("--n", st.integers(2, 5).map(str), REFUSED | st.sampled_from(["0", "1", "1025"]))
        add("--m", WIDTHS)
        add("--arch", st.sampled_from(["min", "max"]), st.just("bogus"))
        add("--dist", st.sampled_from(["gaussian", "uniform"]), st.just("file"))
        add("--input", INPUTS, st.just("missing.csv"))
        add("--mu", st.sampled_from(["8", "128", "1e300"]),
            st.sampled_from(["nan", "inf", "\u0663", "1_0"]))
        add("--sigma", st.sampled_from(["2", "0"]), st.sampled_from(["-1", "nan", "\u0663", "1_0"]))
        add("--seed", mostly(st.integers(0, 2**70).map(str), st.just(HUGE)))
        add("--output", st.just("out.csv"), st.just("."))
    if command == "cost":
        cost_n = st.integers(2, 300) | st.sampled_from([1024, 2**32, 2**32 + 1, 2**1100])
        add("--n", st.lists(cost_n.map(str), min_size=1, max_size=3).map(",".join))
        add("--m", st.lists(WIDTHS, min_size=1, max_size=3).map(",".join))
        add("--output", st.just("out.csv"), st.just("."))
    if command in ("sort", "bench", "compare"):
        add("--check")
    if command == "network":
        add("--n", mostly(st.integers(-1, 1100).map(str),
                          st.sampled_from(["2", "64", "1024", HUGE])))
    if swaps and draw(mostly(st.just(False), st.just(True))):
        index, bad = draw(st.sampled_from(swaps))
        argv[index] = draw(bad)
    return argv


@settings(max_examples=200)
@given(invocations(), input_files())
def test_every_invocation_keeps_the_cli_contract(argv, input_file):
    data, values = input_file
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            Path("in.csv").write_bytes(data)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            left = sorted(os.listdir())
            written = Path("out.csv").read_text() if "out.csv" in left else None
        finally:
            os.chdir(cwd)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == ""
    elif code == 1:
        assert_one_error_line(err)
    else:
        assert code == 2 and "--check" in argv and err.startswith("check failed: ")
    if code:
        assert left == ["in.csv"]
    if argv[:3] == ["sort", "--input", "in.csv"]:
        if values is None:
            assert code == 1
        if code == 0:
            expected = sorted(values, reverse="max" in argv)
            printed = written if "--output" in argv else out
            assert printed == ",".join(map(str, expected)) + "\n"
