import json
import time
from dataclasses import asdict

import pytest

from unarysort import bench, cli
from unarysort.bench import BenchConfig
from unarysort.max_sorter import MaxSortEngine


def run(argv):
    return cli.main(argv)


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
        with pytest.raises(SystemExit) as exc:
            run(["generate", "not-a-number"])
        assert exc.value.code == 1

    def test_widest_allowed(self, capsys):
        assert run(["generate", "5", "--m", str(cli.MAX_GENERATE_WIDTH)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "fsm      emission=" + "1" * 5 + "0" * 65531 + " written=" + (
            "0" * 65531 + "1" * 5)

    def test_too_wide_exits_one_and_prints_nothing(self, capsys):
        assert run(["generate", "5", "--m", str(cli.MAX_GENERATE_WIDTH + 1)]) == 1
        assert capsys.readouterr() == ("", "error: --m must be at most 16, got 17\n")


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
        run(["sort", "--input", str(path), "--m", "3", "--trace", str(trace)])
        lines = trace.read_text().splitlines()
        assert lines[0] == "arch,cycle,state,detected_count,detected_indices,writes"
        assert len(lines) == 11

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
