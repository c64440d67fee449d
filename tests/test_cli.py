import json

import pytest

from unarysort import cli


def run(argv):
    return cli.main(argv)


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
        class BrokenEngine:
            def __init__(self, values, width):
                self.values = list(values)
                self.trace = None

            def run(self):
                return self.values  # never sorts

        monkeypatch.setattr(cli, "MinSortEngine", BrokenEngine)
        path = tmp_path / "in.csv"
        path.write_text("3,1,2\n")
        assert run(["sort", "--input", str(path), "--m", "2", "--check"]) == 2
        assert "check failed" in capsys.readouterr().err

    def test_empty_file_is_validation_error(self, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_text("\n")
        assert run(["sort", "--input", str(path), "--m", "3"]) == 1

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

    def test_check_flag(self):
        assert run(
            ["bench", "--n", "4", "--m", "4", "--trials", "10", "--seed", "1",
             "--mu", "8", "--sigma", "3", "--check"]
        ) == 0

    def test_validation_error(self, capsys):
        assert run(["bench", "--n", "1", "--m", "4"]) == 1

    @pytest.mark.parametrize(
        "flags", [["--mu", "nan"], ["--mu", "inf"], ["--sigma", "-1"]]
    )
    def test_bad_distribution_parameters_exit_one(self, flags, capsys):
        assert run(["bench", "--trials", "2"] + flags) == 1
        err = capsys.readouterr().err
        # a plain message naming the parameter, not an internal numpy error
        assert err.startswith("error: ") and "sigma" in err


class TestCost:
    def test_default_grid(self, capsys):
        assert run(["cost"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("n,m,")
        assert len(lines) == 19  # header + 6x3 grid

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

    def test_non_power_of_two_fails_validation(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text("4,6,4\n")
        assert run(["compare", "--input", str(path), "--m", "3"]) == 1


class TestNetwork:
    def test_dump(self, capsys):
        assert run(["network", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("inputs=8 stages=6 cas=24")
