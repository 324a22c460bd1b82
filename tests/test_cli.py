"""End-to-end tests of the command-line interface via cli_dispatch."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import cappedproj
from cappedproj import CSV_COLUMNS, METHODS
from cappedproj import cli
from cappedproj.cli import cli_dispatch, format_vector, read_vector, write_vector


@pytest.fixture
def vec_file(tmp_path):
    # the typographic minus is deliberate: pasted vectors often carry it
    path = tmp_path / "vec.txt"
    path.write_text("0.3 −0.2 1.5\n")
    return str(path)


@pytest.fixture
def not_utf8_file(tmp_path):
    # a UTF-16 byte-order mark: not valid UTF-8
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe0\x00.\x005\x00")
    return str(path)


class TestReadWriteVector:
    def test_whitespace_newline_and_comment_handling(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("# a comment\n0.5\t 1e-3\n-2.25\n\n# trailing\n")
        npt.assert_array_equal(read_vector(path), [0.5, 1e-3, -2.25])

    def test_comment_after_numbers(self, tmp_path, capsys):
        path = tmp_path / "v.txt"
        path.write_text("0.3 -0.2 1.5  # y\n")
        assert cli_dispatch(["project", "--s", "2", "--input", str(path)]) == 0
        assert capsys.readouterr().out == "0.75 0.25 1\n"

    def test_unicode_minus(self, vec_file):
        npt.assert_array_equal(read_vector(vec_file), [0.3, -0.2, 1.5])

    def test_round_trip(self, tmp_path):
        path = tmp_path / "v.txt"
        x = np.array([0.1, -1.0 / 3.0, 2.0**-40])
        write_vector(path, x, comment="test vector")
        npt.assert_array_equal(read_vector(path), x)

    def test_format_vector_defaults(self):
        assert format_vector(np.array([0.75, 0.25, 1.0])) == "0.75 0.25 1"
        assert format_vector(np.array([1.0 / 3.0]), digits=3) == "0.333"


class TestProject:
    def test_golden_three_point(self, vec_file, capsys):
        assert cli_dispatch(["project", "--s", "2", "--input", vec_file]) == 0
        assert capsys.readouterr().out == "0.75 0.25 1\n"

    def test_digits_flag(self, vec_file, capsys):
        assert cli_dispatch(["project", "--s", "2", "--input", vec_file, "--digits", "2"]) == 0
        assert capsys.readouterr().out == "0.75 0.25 1\n"

    def test_negative_digits_exits_2(self, vec_file, capsys):
        code = cli_dispatch(["project", "--s", "2", "--input", vec_file, "--digits", "-1"])
        assert code == 2
        assert "digits must be an integer >= 0" in capsys.readouterr().err
        assert cli_dispatch(["project", "--s", "2", "--input", vec_file, "--digits", "0"]) == 0
        assert capsys.readouterr().out == "0.8 0.2 1\n"

    def test_infeasible_target_exits_3(self, vec_file, capsys):
        assert cli_dispatch(["project", "--s", "-1", "--input", vec_file]) == 3
        assert "infeasible" in capsys.readouterr().err

    def test_unrepresentable_answer_exits_3(self, tmp_path, capsys):
        # the projection [0, 0.5] is not 1e17 + gamma for any double gamma
        path = tmp_path / "v.txt"
        path.write_text("0.1 1e17\n")
        assert cli_dispatch(["project", "--s", "0.5", "--input", str(path)]) == 3
        assert "fails the optimality sign tests" in capsys.readouterr().err

    def test_cap_flag(self, tmp_path, capsys):
        path = tmp_path / "v.txt"
        path.write_text("0.6 0.6\n")
        assert cli_dispatch(["project", "--s", "1", "--cap", "0.5", "--input", str(path)]) == 0
        assert capsys.readouterr().out == "0.5 0.5\n"

    def test_output_file(self, vec_file, tmp_path, capsys):
        out = tmp_path / "x.txt"
        code = cli_dispatch(["project", "--s", "2", "--input", vec_file, "--output", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        npt.assert_array_equal(read_vector(out), [0.75, 0.25, 1.0])

    def test_missing_file_exits_4(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.txt")
        assert cli_dispatch(["project", "--s", "1", "--input", missing]) == 4
        assert "error" in capsys.readouterr().err

    def test_unparsable_file_exits_4(self, tmp_path, capsys):
        path = tmp_path / "junk.txt"
        path.write_text("0.3 pineapple 1.5\n")
        assert cli_dispatch(["project", "--s", "1", "--input", str(path)]) == 4
        assert "pineapple" in capsys.readouterr().err

    def test_not_utf8_file_exits_4(self, not_utf8_file, capsys):
        assert cli_dispatch(["project", "--s", "0", "--input", not_utf8_file]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read") and err.count("\n") == 1

    def test_output_into_a_missing_directory_exits_4(self, vec_file, tmp_path, capsys):
        out = tmp_path / "missing" / "x.txt"
        code = cli_dispatch(["project", "--s", "2", "--input", vec_file, "--output", str(out)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.err.startswith("error: cannot write") and captured.out == ""


class TestVerify:
    def test_exact_output_verifies(self, tmp_path, capsys):
        # README's vector, and the same vector at a cap far below the
        # classification slack's 1e-7
        for cap in (1.0, 1e-9):
            vec, out = tmp_path / "vec.txt", tmp_path / "x.txt"
            write_vector(vec, cap * np.array([0.3, -0.2, 1.5]))
            instance = ["--s", repr(2 * cap), "--cap", repr(cap)]
            project = ["project", *instance, "--input", str(vec), "--output", str(out)]
            assert cli_dispatch(project) == 0
            code = cli_dispatch(["verify", *instance, "--input", str(out), "--against", str(vec)])
            captured = capsys.readouterr().out
            assert code == 0, cap
            assert "passed true" in captured
            assert "stationarity_residual" in captured
            assert "sum_residual" in captured

    def test_corrupted_candidate_fails(self, vec_file, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.9 0.1 1.0\n")
        code = cli_dispatch(["verify", "--s", "2", "--input", str(bad), "--against", vec_file])
        assert code == 1
        assert "passed false" in capsys.readouterr().out

    def test_tol_flag_loosens_the_gate(self, vec_file, tmp_path, capsys):
        near = tmp_path / "near.txt"
        near.write_text("0.7501 0.2499 1.0\n")
        strict = cli_dispatch(
            ["verify", "--s", "2", "--input", str(near), "--against", vec_file]
        )
        loose = cli_dispatch(
            ["verify", "--s", "2", "--input", str(near), "--against", vec_file, "--tol", "0.01"]
        )
        capsys.readouterr()
        assert strict == 1 and loose == 0


    def test_interior_value_next_to_the_cap_verifies(self, tmp_path, capsys):
        # project's answer has 1 - 4e-8 in the interior, inside the 1e-7
        # classification slack of the cap; verify must still accept it
        y = tmp_path / "y.txt"
        write_vector(y, [0.5, 1.0 - 4e-8, -2.0])
        out = tmp_path / "x.txt"
        s = repr(1.5 - 4e-8)
        assert cli_dispatch(["project", "--s", s, "--input", str(y), "--output", str(out)]) == 0
        code = cli_dispatch(["verify", "--s", s, "--input", str(out), "--against", str(y)])
        assert code == 0
        assert "passed true" in capsys.readouterr().out

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_a_non_finite_candidate_fails_with_nothing_on_stderr(
        self, vec_file, tmp_path, capsys, bad
    ):
        # the pass meets 0 * inf; the report shows it, and no warning is
        # printed (the suite turns one into an error)
        x = tmp_path / "x.txt"
        x.write_text(f"0.75\n{bad}\n1\n")
        code = cli_dispatch(["verify", "--s", "2", "--input", str(x), "--against", vec_file])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        assert "passed false" in captured.out

    def test_a_finite_candidate_that_overflows_against_y_fails_with_nothing_on_stderr(
        self, tmp_path, capsys
    ):
        # x - y overflows to inf on the first coordinate; the report shows
        # it, and no numpy warning is printed
        x, y = tmp_path / "x.txt", tmp_path / "y.txt"
        write_vector(x, [1.7e308, 0.5, 0.5])
        write_vector(y, [-1.7e308, 0.5, 0.2])
        code = cli_dispatch(["verify", "--s", "1", "--input", str(x), "--against", str(y)])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        assert "passed false" in captured.out

    @pytest.mark.parametrize("tol", ["-1", "0", "nan"])
    def test_bad_tol_exits_3(self, vec_file, tmp_path, capsys, tol):
        out = tmp_path / "x.txt"
        cli_dispatch(["project", "--s", "2", "--input", vec_file, "--output", str(out)])
        verify = ["verify", "--s", "2", "--input", str(out), "--against", vec_file]
        assert cli_dispatch(verify + ["--tol", tol]) == 3
        captured = capsys.readouterr()
        assert "tol" in captured.err and "passed" not in captured.out

    def test_cap_flag(self, vec_file, tmp_path, capsys):
        out = tmp_path / "x.txt"
        project = ["project", "--s", "2", "--cap", "2", "--input", vec_file]
        assert cli_dispatch(project + ["--output", str(out)]) == 0
        npt.assert_allclose(read_vector(out), [0.4, 0.0, 1.6], atol=1e-15)
        verify = ["verify", "--s", "2", "--input", str(out), "--against", vec_file]
        assert cli_dispatch(verify + ["--cap", "2"]) == 0
        assert "passed true" in capsys.readouterr().out
        assert cli_dispatch(verify) == 1
        assert "passed false" in capsys.readouterr().out

    def test_not_utf8_against_file_exits_4(self, vec_file, not_utf8_file, capsys):
        code = cli_dispatch(["verify", "--s", "2", "--input", vec_file, "--against", not_utf8_file])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.err.startswith("error: cannot read") and "passed" not in captured.out


class TestCompare:
    def test_all_methods_run(self, vec_file, capsys):
        code = cli_dispatch(
            ["compare", "--s", "2", "--input", vec_file, "--methods", ",".join(METHODS)]
        )
        out = capsys.readouterr().out
        assert code == 0
        for token in (*METHODS, "max_diff_vs_exact"):
            assert token in out

    def test_cap_flag(self, vec_file, capsys):
        code = cli_dispatch(
            ["compare", "--s", "2", "--cap", "2", "--input", vec_file,
             "--methods", ",".join(METHODS)]
        )
        rows = capsys.readouterr().out.splitlines()[1:]
        assert code == 0
        diffs = {row.split()[0]: float(row.split()[-1]) for row in rows}
        assert set(diffs) == set(METHODS)
        assert max(diffs.values()) <= 1e-6, diffs

    def test_unknown_method_exits_2(self, vec_file, capsys):
        code = cli_dispatch(
            ["compare", "--s", "2", "--input", vec_file, "--methods", "gradient-descent"]
        )
        capsys.readouterr()
        assert code == 2

    def test_infinite_tol_exits_3(self, vec_file, capsys):
        # at tol=inf the iterative methods would stop after one step as converged
        code = cli_dispatch(["compare", "--s", "2", "--input", vec_file, "--tol", "inf"])
        captured = capsys.readouterr()
        assert code == 3
        assert "tol" in captured.err and captured.out == ""


def _rows_without_times(path):
    # a bench CSV's rows, header first, each without its wall time
    column = CSV_COLUMNS.index("wall_time_seconds")
    with open(path, newline="") as fh:
        rows = csv.reader(line for line in fh if not line.startswith("#"))
        return [row[:column] + row[column + 1:] for row in rows]


class TestBench:
    def test_writes_csv_and_summary(self, tmp_path, capsys):
        csv_path = tmp_path / "bench.csv"
        code = cli_dispatch(
            ["bench", "--sizes", "6,9", "--reps", "2", "--methods", "exact,oracle",
             "--seed", "3", "--csv", str(csv_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "wrote 8 records" in out
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "# generator=philox4x64-10 base_seed=3"
        assert len(lines) == 2 + 8

    def test_deterministic_non_time_columns(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["bench", "--sizes", "10,14", "--reps", "3", "--seed", "11"]
        assert cli_dispatch(args + ["--csv", str(a)]) == 0
        assert cli_dispatch(args + ["--csv", str(b)]) == 0
        capsys.readouterr()
        assert _rows_without_times(a) == _rows_without_times(b)

    def test_oracle_beyond_capacity_exits_3(self, tmp_path, capsys):
        code = cli_dispatch(
            ["bench", "--sizes", "50", "--methods", "oracle", "--csv", str(tmp_path / "x.csv")]
        )
        capsys.readouterr()
        assert code == 3

    def test_unwritable_csv_exits_4(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.csv"
        code = cli_dispatch(["bench", "--sizes", "6", "--reps", "1", "--csv", str(path)])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("error: cannot write") and err.count("\n") == 1

    def test_negative_seed_exits_3_and_writes_no_file(self, tmp_path, capsys):
        path = tmp_path / "new.csv"
        code = cli_dispatch(["bench", "--sizes", "6", "--seed", "-1", "--csv", str(path)])
        assert code == 3
        assert "base_seed" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize(
        "flags", [["--sizes", "1,x"], ["--methods", ","]], ids=["sizes", "methods"]
    )
    def test_bad_list_exits_2(self, tmp_path, capsys, flags):
        assert cli_dispatch(["bench", *flags, "--csv", str(tmp_path / "x.csv")]) == 2
        assert f"argument {flags[0]}: expected" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


    def test_unwritable_csv_fails_before_the_grid_runs(self, tmp_path, capsys, monkeypatch):
        def no_run(plan):
            raise AssertionError("the grid ran before the CSV path was checked")

        monkeypatch.setattr(cli, "run_benchmark", no_run)
        path = tmp_path / "missing" / "x.csv"
        assert cli_dispatch(["bench", "--csv", str(path)]) == 4
        assert capsys.readouterr().err.startswith("error: cannot write")


class TestGen:
    def test_generates_projectable_instance(self, tmp_path, capsys):
        path = tmp_path / "inst.txt"
        assert cli_dispatch(["gen", "--d", "7", "--seed", "21", "--output", str(path)]) == 0
        message = capsys.readouterr().out
        assert "D=7 seed=21" in message
        header = path.read_text().splitlines()[0]
        assert header.startswith("# D=7 seed=21 s=")
        assert "generator=philox4x64-10" in header
        s = header.split("s=")[1].split()[0]
        assert cli_dispatch(["project", "--s", s, "--input", str(path)]) == 0
        x = np.array([float(v) for v in capsys.readouterr().out.split()])
        assert abs(x.sum() - float(s)) <= 1e-9

    def test_deterministic_files(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        cli_dispatch(["gen", "--d", "5", "--seed", "9", "--output", str(p1)])
        cli_dispatch(["gen", "--d", "5", "--seed", "9", "--output", str(p2)])
        capsys.readouterr()
        assert p1.read_text() == p2.read_text()

    def test_bad_dimension_exits_3(self, tmp_path, capsys):
        code = cli_dispatch(["gen", "--d", "0", "--seed", "1", "--output", str(tmp_path / "x")])
        capsys.readouterr()
        assert code == 3


class TestDispatchBasics:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert cli_dispatch(["explode"]) == 2
        capsys.readouterr()

    def test_missing_required_flag_exits_2(self, vec_file, capsys):
        assert cli_dispatch(["project", "--input", vec_file]) == 2
        capsys.readouterr()

    def test_no_arguments_exits_2(self, capsys):
        assert cli_dispatch([]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("s, code", [("2", 0), ("4", 3)], ids=["solved", "infeasible"])
    def test_module_entry_point_exits_with_the_dispatch_code(self, vec_file, s, code):
        # main() hands cli_dispatch's return value to sys.exit
        src = str(Path(cappedproj.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        run = subprocess.run(
            [sys.executable, "-m", "cappedproj.cli", "project", "--s", s, "--input", vec_file],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath},
            timeout=60,
        )
        assert run.returncode == code, run.stderr
        if code == 0:
            assert run.stdout == "0.75 0.25 1\n"
        else:
            assert run.stderr.startswith("error:") and "infeasible" in run.stderr
