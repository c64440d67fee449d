import contextlib
import errno
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
from unarysort.trace import CSV_HEADER

# fields the CSV grammar refuses: a digit of another script, an underscore,
# a sign, a hex prefix, a list, a blank, and more digits than int() converts
BAD_FIELDS = ["\u0663", "1_0", "+5", "-1", "0x7", "8,16", "", "1" * 4301]
BAD_FIELD_IDS = ["arabic-indic", "underscore", "plus", "minus", "hex", "list",
                 "blank", "4301-digits"]

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
BAD_DECIMALS = ["\u0663", "1_0", "+5", "0x7", "8,16", "", "nan", "inf", "1.2.3", ".", "1e"]
BAD_DECIMAL_IDS = ["arabic-indic", "underscore", "plus", "hex", "list", "blank", "nan",
                   "inf", "two-points", "point", "bare-exponent"]
DECIMAL_ARGUMENTS = [
    ("--mu", ["bench", "--trials", "2", "--mu", None]),
    ("--sigma", ["bench", "--trials", "2", "--sigma", None]),
]


def run(argv):
    return cli.main(argv)


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
    def test_prints_both_generators(self, capsys):
        assert run(["generate", "4", "--m", "3"]) == 0
        out = capsys.readouterr().out
        assert "fsm      emission=11110000 written=00001111" in out
        assert "counter  emission=00001111 written=11110000" in out

    def test_zero(self, capsys):
        assert run(["generate", "0", "--m", "3"]) == 0
        assert "emission=00000000" in capsys.readouterr().out

    def test_out_of_range_is_validation_error(self, capsys):
        assert run(["generate", "9", "--m", "3"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_argument_exits_one(self):
        assert run(["generate", "not-a-number"]) == 1

    def test_widest_allowed(self, capsys):
        assert run(["generate", "5", "--m", str(cli.MAX_GENERATE_WIDTH)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "fsm      emission=" + "1" * 5 + "0" * 65531 + " written=" + (
            "0" * 65531 + "1" * 5)

    def test_too_wide_exits_one_and_prints_nothing(self, capsys):
        assert run(["generate", "5", "--m", str(cli.MAX_GENERATE_WIDTH + 1)]) == 1
        assert capsys.readouterr() == ("", "error: --m must be at most 16, got 17\n")


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

    @pytest.mark.parametrize("field", ["12.5", "-3", "4e9", "0", " 5. ", "\t.5E-1", "1e400"])
    def test_decimal_grammar_accepts(self, field):
        assert cli.PARSER.parse_args(["bench", "--mu", field]).mu == float(field)

    def test_blanks_around_an_integer_argument_are_allowed(self, capsys):
        assert run(["generate", " 4 ", "--m", "\t3"]) == 0
        out = capsys.readouterr().out
        assert run(["generate", "4", "--m", "3"]) == 0
        assert capsys.readouterr().out == out

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
    def test_min_sort(self, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_text("4,6,4\n")
        assert run(["sort", "--input", str(path), "--arch", "min", "--m", "3"]) == 0
        assert capsys.readouterr().out.strip() == "4,4,6"

    def test_max_sort(self, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_text("4,6,4\n")
        assert run(["sort", "--input", str(path), "--arch", "max", "--m", "3"]) == 0
        assert capsys.readouterr().out.strip() == "6,4,4"

    def test_batcher_sort(self, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_text("4,6,4,0,7,1,2,2\n")
        assert run(
            ["sort", "--input", str(path), "--arch", "batcher", "--m", "3"]
        ) == 0
        assert capsys.readouterr().out.strip() == "0,1,2,2,4,4,6,7"

    def test_trace_file(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("4,6,4\n")
        trace = tmp_path / "trace.csv"
        for arch in ("min", "max"):
            # the golden corpus pins its bytes (sort_<arch>_example.trace.csv)
            assert run(["sort", "--input", str(path), "--arch", arch, "--m", "3",
                        "--trace", str(trace)]) == 0
            assert trace.read_text(encoding="utf-8").startswith(CSV_HEADER + "\n"), arch

    def test_check_passes(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("3,1,2\n")
        assert run(["sort", "--input", str(path), "--m", "2", "--check"]) == 0

    def test_check_mismatch_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "MinSortEngine", UnsortingEngine)
        path = tmp_path / "in.csv"
        path.write_text("3,1,2\n")
        assert run(["sort", "--input", str(path), "--m", "2", "--check"]) == 2
        assert capsys.readouterr().err == "check failed: [3, 1, 2] != [1, 2, 3]\n"

    def test_empty_file_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_text("\n")
        assert run(["sort", "--input", str(path), "--m", "3"]) == 1

    @pytest.mark.parametrize("arch", ["min", "max"])
    def test_over_budget_search_exits_one_and_writes_nothing(
        self, tmp_path, capsys, arch
    ):
        path = tmp_path / "in.csv"
        path.write_text("4294967295,1\n")
        assert run(["sort", "--input", str(path), "--arch", arch, "--m", "32",
                    "--output", str(tmp_path / "o"), "--trace", str(tmp_path / "t")]) == 1
        assert capsys.readouterr().err == (
            "error: search needs more than 65536 generation cycles at width 32; "
            "widths up to 16 fit\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]

    @pytest.mark.parametrize("arch", ["min", "max"])
    def test_widest_in_budget_input_sorts(self, tmp_path, capsys, arch):
        path = tmp_path / "in.csv"
        path.write_text("65535,0,3\n")
        assert run(["sort", "--input", str(path), "--arch", arch, "--m", "16",
                    "--check"]) == 0
        expected = "0,3,65535" if arch == "min" else "65535,3,0"
        assert capsys.readouterr().out == expected + "\n"

    @pytest.mark.parametrize("arch, text, expected", [
        ("min", "5,3", "3,5"),
        ("max", "4294967295,4294967290", "4294967295,4294967290"),
    ], ids=["min", "max"])
    def test_wide_input_within_budget_sorts(
        self, tmp_path, capsys, arch, text, expected
    ):
        # admission follows the search length (6 cycles here), not the width
        path = tmp_path / "in.csv"
        path.write_text(text + "\n")
        assert run(["sort", "--input", str(path), "--arch", arch, "--m", "32",
                    "--check"]) == 0
        assert capsys.readouterr() == (expected + "\n", "")

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

    def test_missing_file_is_validation_error(self, tmp_path):
        assert run(["sort", "--input", str(tmp_path / "nope.csv"), "--m", "3"]) == 1

    def test_output_file(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("2,1\n")
        out = tmp_path / "out.csv"
        run(["sort", "--input", str(path), "--m", "2", "--output", str(out)])
        assert out.read_text() == "1,2\n"

    def test_unwritable_trace_leaves_no_output(self, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_text("4,6,4\n")
        out = tmp_path / "out.csv"
        trace = tmp_path / "missing" / "trace.csv"
        assert run(["sort", "--input", str(path), "--m", "3",
                    "--output", str(out), "--trace", str(trace)]) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {trace}: No such file or directory\n"

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

    @pytest.mark.parametrize("output", ["o.csv", "./o.csv"])
    def test_output_and_trace_naming_one_file_refused(
        self, tmp_path, monkeypatch, capsys, output
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in.csv").write_text("4,6,4\n")
        assert run(["sort", "--input", "in.csv", "--m", "3",
                    "--output", output, "--trace", "o.csv"]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {output}: o.csv names the same file\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]

    def test_non_integer_field_names_file_and_field(self, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_text("2,3\n1,x\n")
        assert run(["sort", "--input", str(path), "--m", "3"]) == 1
        assert capsys.readouterr().err == (
            f"error: {path} line 2: not an integer: 'x'\n"
        )

    @pytest.mark.parametrize("argv", [
        ["sort", "--m", "3"],
        ["compare", "--m", "3", "--check"],
        ["bench", "--dist", "file", "--n", "4", "--m", "3", "--check"],
    ], ids=["sort", "compare", "bench"])
    def test_leading_bom_is_dropped_and_a_later_one_refused(self, tmp_path, capsys, argv):
        # a spreadsheet's "CSV UTF-8" export starts with U+FEFF
        plain, bom, later = tmp_path / "plain.csv", tmp_path / "bom.csv", tmp_path / "later.csv"
        plain.write_text("5,1,3,0\n2,2,7,6\n", encoding="utf-8")
        bom.write_text("\ufeff5,1,3,0\n2,2,7,6\n", encoding="utf-8")
        later.write_text("5,1,3,0\n\ufeff2,2,7,6\n", encoding="utf-8")
        assert run(argv + ["--input", str(plain)]) == 0
        expected = capsys.readouterr()
        assert run(argv + ["--input", str(bom)]) == 0
        assert capsys.readouterr() == expected
        assert run(argv + ["--input", str(later)]) == 1
        assert capsys.readouterr() == (
            "", f"error: {later} line 2: not an integer: '\\ufeff2'\n")

    @pytest.mark.parametrize("field", ["\u0663", "1_000", "+5", "-1", "0x7"])
    def test_only_ascii_digit_fields_are_integers(self, tmp_path, capsys, field):
        path = tmp_path / "in.csv"
        path.write_text(f"2,{field}\n", encoding="utf-8")
        assert run(["sort", "--input", str(path), "--m", "16"]) == 1
        assert capsys.readouterr() == (
            "", f"error: {path} line 1: not an integer: {field!r}\n")

    def test_blanks_around_a_field_are_allowed(self, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_text(" 7 ,\t2\t, 5\n")
        assert run(["sort", "--input", str(path), "--m", "3"]) == 0
        assert capsys.readouterr() == ("2,5,7\n", "")

    def test_batcher_trace_rejected_before_sorting(self, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_text("4,6,4,0\n")
        out, trace = tmp_path / "out.csv", tmp_path / "trace.csv"
        assert run(["sort", "--input", str(path), "--arch", "batcher", "--m", "3",
                    "--output", str(out), "--trace", str(trace)]) == 1
        assert "--trace requires" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv"]

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
        monkeypatch.setattr(bench, "MinSortEngine", MaxSortEngine)
        assert run(["bench", "--n", "4", "--m", "4", "--trials", "3",
                    "--mu", "8", "--sigma", "3", "--check"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("check failed: trial 0: measured [")

    def test_over_budget_search_exits_one(self, capsys):
        assert run(["bench", "--n", "2", "--m", "32", "--mu", "4e9", "--sigma", "0",
                    "--trials", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: search needs more than 65536")

    def test_csv_to_stdout(self, capsys):
        assert run(
            ["bench", "--n", "4", "--m", "4", "--mu", "8", "--sigma", "2",
             "--trials", "20", "--seed", "3"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "rank,mean_cycles,std_cycles"
        assert len(lines) == 5

    def test_deterministic_output_files(self, tmp_path):
        args = ["bench", "--n", "4", "--m", "5", "--trials", "50", "--seed", "11",
                "--mu", "16", "--sigma", "4"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(args + ["--output", str(a)])
        run(args + ["--output", str(b)])
        assert a.read_bytes() == b.read_bytes()
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert meta["trials"] == 50

    def test_unwritable_sidecar_leaves_no_output(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        (tmp_path / "b.csv.meta.json").mkdir()
        assert run(["bench", "--n", "4", "--m", "4", "--trials", "5",
                    "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot write ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.csv.meta.json"]
        assert not any((tmp_path / "b.csv.meta.json").iterdir())

    def test_check_flag(self):
        assert run(
            ["bench", "--n", "4", "--m", "4", "--trials", "10", "--seed", "1",
             "--mu", "8", "--sigma", "3", "--check"]
        ) == 0

    def test_validation_error(self, capsys):
        assert run(["bench", "--n", "1", "--m", "4"]) == 1

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

    @pytest.mark.parametrize(
        "flags",
        [["--mu", "nan"], ["--mu", "inf"], ["--sigma", "-1"], ["--seed", "-3"]],
    )
    def test_bad_distribution_parameters_exit_one(self, flags, capsys):
        assert run(["bench", "--trials", "2"] + flags) == 1
        err = capsys.readouterr().err
        # a plain message naming the parameter, not an internal numpy error
        assert err.startswith("error: ") and flags[0][2:] in err

    def test_bad_row_in_input_file(self, tmp_path, capsys):
        path = tmp_path / "vectors.csv"
        path.write_text("1,2,3\n4,,6\n")
        assert run(["bench", "--dist", "file", "--input", str(path),
                    "--m", "3"]) == 1
        assert capsys.readouterr().err == (
            f"error: {path} line 2: not an integer: ''\n"
        )

    def test_input_without_file_dist_is_refused(self, tmp_path, capsys):
        path = tmp_path / "vectors.csv"
        path.write_text("1,2\n")
        assert run(["bench", "--input", str(path), "--trials", "2"]) == 1
        assert capsys.readouterr() == (
            "", "error: dist 'file' and an input path go together\n")

    def test_non_utf8_input_names_file(self, tmp_path, capsys):
        path = tmp_path / "vectors.csv"
        path.write_bytes(b"1,2\n\xff,3\n")
        assert run(["bench", "--dist", "file", "--input", str(path), "--m", "3"]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: not UTF-8 text\n")

    def test_unequal_rows_name_file_and_row(self, tmp_path, capsys):
        path = tmp_path / "vectors.csv"
        for text, message in [("1,2,3\n4,5,6\n\n7,0\n", "row 3 has 2 values, row 1 has 3"),
                              ("1,2,3\n4\n", "row 2 has 1 value, row 1 has 3")]:
            path.write_text(text)
            assert run(["bench", "--dist", "file", "--input", str(path), "--m", "3"]) == 1
            assert capsys.readouterr() == ("", f"error: {path}: {message}\n")

    def test_one_value_rows_name_file_and_row(self, tmp_path, capsys):
        path = tmp_path / "vectors.csv"
        path.write_text("3\n\n5\n")
        assert run(["bench", "--dist", "file", "--input", str(path), "--m", "3"]) == 1
        assert capsys.readouterr() == (
            "", f"error: {path}: row 1 has 1 value, need at least 2\n")

    @pytest.mark.parametrize("arch", ["min", "max"])
    def test_unrepresentable_value_names_file_and_row(self, tmp_path, capsys, arch):
        path = tmp_path / "vectors.csv"
        path.write_text("1,2\n\n3,100\n")
        assert run(["bench", "--dist", "file", "--input", str(path), "--m", "4",
                    "--arch", arch]) == 1
        assert capsys.readouterr() == (
            "", f"error: {path}: row 2: value 100 not representable in 4 bits\n")


class TestCost:
    def test_default_grid(self, capsys):
        assert run(["cost"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("n,m,")
        assert len(lines) == 19  # header + 6x3 grid
        run(["cost", "--n", "8,16,32,64,128,256", "--m", "8,16,32"])
        assert capsys.readouterr().out == out

    def test_empty_entry_names_flag(self, capsys):
        assert run(["cost", "--n", ",8"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --n: not an integer: ''\n"

    def test_signed_entry_names_flag(self, capsys):
        assert run(["cost", "--n", "8", "--m", "+8"]) == 1
        assert capsys.readouterr() == ("", "error: --m: not an integer: '+8'\n")

    def test_input_count_past_the_float_range_is_refused(self, tmp_path, capsys):
        n = 2**1100
        out = tmp_path / "cost.csv"
        assert run(["cost", "--n", f"8,{n}", "--m", "8", "--output", str(out)]) == 1
        assert capsys.readouterr() == (
            "", f"error: input count must be in 2..4294967296, got {n}\n")
        assert not out.exists()

    def test_batcher_input_count_refused_as_in_sort(self, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_text("4,6,4\n")
        assert run(["sort", "--input", str(path), "--arch", "batcher", "--m", "3"]) == 1
        refusal = capsys.readouterr()
        assert run(["cost", "--n", "3", "--m", "3"]) == 1
        assert capsys.readouterr() == refusal == (
            "", "error: input count must be a power of two >= 2, got 3\n")

    def test_single_cell(self, capsys):
        assert run(["cost", "--n", "8", "--m", "8"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_batcher_column_has_cas_counts(self, capsys):
        run(["cost"])
        out = capsys.readouterr().out
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert {int(r[5]) for r in rows} == {24, 80, 240, 672, 1792, 4608}


class TestCompare:
    def test_agreement(self, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_text("4,6,4,0,7,1,2,2\n")
        assert run(["compare", "--input", str(path), "--m", "3", "--check"]) == 0
        assert "agreement:  True" in capsys.readouterr().out

    def test_check_mismatch_exits_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "MinSortEngine", UnsortingEngine)
        path = tmp_path / "in.csv"
        path.write_text("4,6,4,0,7,1,2,2\n")
        assert run(["compare", "--input", str(path), "--m", "3", "--check"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "check failed: architectures disagree\n"
        assert "agreement" not in captured.out

    def test_non_power_of_two_fails_validation(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("4,6,4\n")
        assert run(["compare", "--input", str(path), "--m", "3"]) == 1

    def test_input_count_checked_before_any_engine_runs(self, tmp_path, monkeypatch, capsys):
        def refuse(values, width):
            raise AssertionError("an engine ran before the input count was checked")

        monkeypatch.setattr(cli, "MinSortEngine", refuse)
        monkeypatch.setattr(cli, "MaxSortEngine", refuse)
        path = tmp_path / "in.csv"
        path.write_text("65535,0,3\n")
        assert run(["compare", "--input", str(path), "--m", "16"]) == 1
        assert capsys.readouterr() == (
            "", "error: input count must be a power of two >= 2, got 3\n")

    def test_over_budget_search_exits_one(self, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_text("4294967295,1\n")
        assert run(["compare", "--input", str(path), "--m", "32"]) == 1
        assert capsys.readouterr() == ("", (
            "error: search needs more than 65536 generation cycles at width 32; "
            "widths up to 16 fit\n"))


class TestNetwork:
    def test_dump(self, capsys):
        assert run(["network", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("inputs=8 stages=6 cas=24")

    def test_largest_allowed(self, capsys):
        assert run(["network", "--n", str(cli.MAX_NETWORK_INPUTS)]) == 0
        assert capsys.readouterr().out.startswith("inputs=1024 stages=55 cas=28160\n")

    def test_too_large_exits_one_and_prints_nothing(self, capsys):
        # checked before the power-of-two rule
        assert run(["network", "--n", str(cli.MAX_NETWORK_INPUTS + 1)]) == 1
        assert capsys.readouterr() == ("", "error: --n must be at most 1024, got 1025\n")


@pytest.mark.parametrize("argv", [
    ["sort", "--m", "3", "--input"],
    ["compare", "--m", "3", "--input"],
    ["bench", "--dist", "file", "--input"],
], ids=["sort", "compare", "bench"])
def test_unreadable_input_names_the_file(tmp_path, capsys, argv):
    for path, code in [(tmp_path / "nope.csv", errno.ENOENT), (tmp_path, errno.EISDIR)]:
        assert run([*argv, str(path)]) == 1
        assert capsys.readouterr() == (
            "", f"error: cannot read {path}: {os.strerror(code)}\n")


def test_batcher_input_count_is_capped(tmp_path, capsys):
    # a network's memory grows as N*log2(N)**2; the cap is checked before
    # the power-of-two rule, and a refusal writes no file
    path, out = tmp_path / "in.csv", tmp_path / "out.csv"
    values = [(5 * i) % 8 for i in range(1024)]
    path.write_text(",".join(map(str, values)) + "\n")
    assert run(["sort", "--input", str(path), "--arch", "batcher", "--m", "3",
                "--output", str(out)]) == 0
    assert out.read_text() == ",".join(map(str, sorted(values))) + "\n"
    out.unlink()
    for n in (1025, 2048):
        path.write_text(",".join(["1"] * n) + "\n")
        for argv in (["sort", "--arch", "batcher", "--output", str(out)], ["compare"]):
            assert run([*argv, "--input", str(path), "--m", "3"]) == 1
            assert capsys.readouterr() == (
                "", f"error: input count must be at most 1024, got {n}\n")
    assert not out.exists()


class TestNumpyIsLoadedByBenchAlone:
    """numpy is a dependency of ``bench`` alone: every other command, and the
    import of the package, runs in an interpreter that cannot load it."""

    def test_importing_the_package_leaves_numpy_unloaded(self):
        done = fresh_python(["-c", (
            "import sys, unarysort, unarysort.bench, unarysort.cli\n"
            "print('numpy' in sys.modules)")])
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")

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
    if flaw == "bom":
        data = b"\xef\xbb\xbf" + data
    if flaw == "non-utf8":
        data += b"\xff"
    if flaw in ("bom", "non-utf8") or not values or None in values:
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
        if draw(st.booleans()):
            add("--dist", st.just("file"), st.just("gaussian"), optional=False)
            add("--input", INPUTS, st.just("missing.csv"), optional=False)
        else:
            add("--dist", st.sampled_from(["gaussian", "uniform"]), st.just("file"))
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
