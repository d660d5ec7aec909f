import csv
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lahoc import BasisConfig, BasisConstructionError, build_rule, cli, ocp_model, openblas, sham_engine
from lahoc.cli import main
from lahoc.oracle_bvp import ComparisonResult
from lahoc.sham_engine import OperatorSingularError


def run_cli(tmp_path, *extra):
    out = tmp_path / "out"
    argv = list(extra) + ["--out", str(out)]
    return main(argv), out


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestSingleRun:
    def test_builtin_solve_writes_artifacts(self, tmp_path):
        code, out = run_cli(
            tmp_path, "--builtin", "tp31", "--n", "40", "--beta", "6",
            "--hbar", "-0.6", "--orders", "80", "--tol", "1e-11",
        )
        assert code == 0
        summary = (out / "summary.txt").read_text()
        assert "termination: Converged" in summary
        assert "cost:" in summary

        rows = read_csv(out / "trajectories.csv")
        assert len(rows) == 6  # the builtin report-time table
        assert set(rows[0]) == {
            "time", "x1", "x2", "lambda1", "lambda2", "u1", "u2"
        }
        # identity weights: u = -lambda columnwise
        for row in rows:
            assert float(row["u1"]) == pytest.approx(-float(row["lambda1"]), rel=1e-9)

        conv = read_csv(out / "convergence.csv")
        assert set(conv[0]) == {"order", "tail_norm", "cost"}
        tails = [float(r["tail_norm"]) for r in conv]
        assert tails[-1] < 1e-11

    def test_max_order_termination_exits_zero(self, tmp_path):
        code, out = run_cli(
            tmp_path, "--builtin", "tp31", "--n", "40", "--beta", "6",
            "--hbar", "-0.6", "--orders", "3",
        )
        assert code == 0
        assert "termination: MaxOrder" in (out / "summary.txt").read_text()

    def test_diverged_run_exits_two(self, tmp_path):
        # crossover-band configuration known to blow up
        code, out = run_cli(
            tmp_path, "--builtin", "tp31", "--n", "30", "--beta", "1",
            "--hbar", "-0.6", "--orders", "50",
        )
        assert code == 2
        assert "termination: Diverged" in (out / "summary.txt").read_text()

    def test_custom_report_times(self, tmp_path):
        code, out = run_cli(
            tmp_path, "--builtin", "tp31", "--n", "30", "--beta", "6",
            "--orders", "40", "--times", "0.5,1.0,2.0",
        )
        assert code == 0
        rows = read_csv(out / "trajectories.csv")
        assert [float(r["time"]) for r in rows] == [0.5, 1.0, 2.0]

    def test_gamma_reported_with_lipschitz(self, tmp_path):
        code, out = run_cli(
            tmp_path, "--builtin", "tp31", "--n", "30", "--beta", "6",
            "--orders", "40", "--lipschitz", "1.0",
        )
        assert code == 0
        assert "gamma diagnostic:" in (out / "summary.txt").read_text()


class TestBadInput:
    def test_zero_hbar_exits_one(self, tmp_path):
        code, _ = run_cli(tmp_path, "--builtin", "tp31", "--hbar", "0.0")
        assert code == 1

    def test_small_n_exits_one(self, tmp_path):
        code, _ = run_cli(tmp_path, "--builtin", "tp31", "--n", "2")
        assert code == 1

    def test_malformed_problem_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("lahoc-problem v1\nsubsystem\ndim oops\n")
        code, _ = run_cli(tmp_path, "--problem", str(bad))
        assert code == 1
        assert "line 3" in capsys.readouterr().err

    def test_missing_problem_file_exits_one(self, tmp_path):
        code, _ = run_cli(tmp_path, "--problem", str(tmp_path / "nope.txt"))
        assert code == 1

    def test_bad_oracle_mesh_exits_one_before_the_solve(self, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve_ocp ran before the oracle settings were checked")

        monkeypatch.setattr(cli, "solve_ocp", no_solve)
        code, out = run_cli(
            tmp_path, "--builtin", "tp31", "--n", "40", "--beta", "6",
            "--orders", "40", "--compare", "--mesh", "20",
        )
        assert code == 1
        assert single_error_line(capsys)
        assert not (out / "summary.txt").exists()

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_bad_compare_tolerance_exits_one_before_the_solve(
        self, tmp_path, capsys, monkeypatch, tol
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve_ocp ran before --compare-tol was checked")

        monkeypatch.setattr(cli, "solve_ocp", no_solve)
        code, out = run_cli(
            tmp_path, "--builtin", "tp31", "--n", "20", "--beta", "6",
            "--orders", "20", "--compare", "--compare-tol", tol,
        )
        assert code == 1
        assert capsys.readouterr().err.strip() == "error: --compare-tol must be non-negative"
        assert not (out / "summary.txt").exists()

    @pytest.mark.parametrize(
        "extra",
        [
            ("--builtin", "tp31", "--times", "1,abc"),
            ("--builtin", "tp31", "--sweep", "gamma=1,2"),
            ("--builtin", "tp31", "--sweep", "hbar="),
            ("--problem", "missing.txt"),
            ("--builtin", "tp31", "--n", "abc"),
            ("--builtin", "tp31", "--problem", "x"),
            ("--n", "20"),
            ("--builtin", "tp99"),
        ],
        ids=[
            "times", "sweep-axis", "empty-sweep", "missing-file",
            "bad-int", "two-sources", "no-source", "unknown-builtin",
        ],
    )
    def test_every_input_error_prints_one_error_line(self, tmp_path, capsys, extra):
        code, _ = run_cli(tmp_path, *extra)
        assert code == 1
        assert single_error_line(capsys)

    def test_removed_num_times_flag_is_rejected(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "--builtin", "tp31", "--num-times", "5")
        assert code == 1
        assert capsys.readouterr().err == "error: unrecognized arguments: --num-times 5\n"

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: lahoc")


ONE_SUBSYSTEM = """lahoc-problem v1
subsystem
dim 1
inputs 1
A 1
B 1
Q 1
R 1
x0 0.5
f 0 -1 : 3
"""


class TestBadProblemData:
    @pytest.mark.parametrize(
        "line, bad, message",
        [
            ("x0 0.5", "x0 nan", "line 2: x0 must be finite"),
            ("f 0 -1 : 3", "f 0 nan : 3", "line 10: monomial coefficient must be finite, got nan"),
            ("dim 1", "dim -1", "line 3: dim must be >= 1, got -1"),
            ("dim 1", "dim 0", "line 3: dim must be >= 1, got 0"),
            ("inputs 1", "inputs 0", "line 4: inputs must be >= 1, got 0"),
            ("Q 1", "Q nan", "line 2: q_mat must be finite"),
            ("A 1", "A inf", "line 2: a_mat must be finite"),
        ],
        ids=["x0-nan", "f-nan", "dim-minus-1", "dim-0", "inputs-0", "Q-nan", "A-inf"],
    )
    def test_exits_one_with_one_error_line_and_no_output(
        self, tmp_path, capsys, line, bad, message
    ):
        path = tmp_path / "bad.txt"
        path.write_text(ONE_SUBSYSTEM.replace(line, bad))
        code, out = run_cli(tmp_path, "--problem", str(path), "--n", "20", "--beta", "2")
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: {message}\n"
        assert captured.out == ""
        assert not out.exists()


class TestLipschitz:
    @pytest.mark.parametrize("value", ["nan", "-3", "inf"])
    def test_bad_value_exits_one_before_the_solve(self, tmp_path, capsys, monkeypatch, value):
        def no_solve(*args, **kwargs):
            raise AssertionError("solve_ocp ran before --lipschitz was checked")

        monkeypatch.setattr(cli, "solve_ocp", no_solve)
        code, out = run_cli(tmp_path, "--builtin", "tp31", "--n", "20", "--lipschitz", value)
        assert code == 1
        assert capsys.readouterr().err.strip() == (
            "error: --lipschitz must be finite and non-negative"
        )
        assert not (out / "summary.txt").exists()

    def test_zero_is_accepted(self, tmp_path):
        code, out = run_cli(
            tmp_path, "--builtin", "tp31", "--n", "30", "--beta", "6",
            "--orders", "40", "--lipschitz", "0",
        )
        assert code == 0
        assert "gamma diagnostic: " in (out / "summary.txt").read_text()


class TestReportTimes:
    """Report times and --t-end are checked whether or not --compare is given:
    a Laguerre interpolant read at a negative time is an extrapolation, not a
    solution value."""

    @staticmethod
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_ocp ran before the report times were checked")

    @pytest.mark.parametrize("compare", [(), ("--compare",)], ids=["alone", "compare"])
    @pytest.mark.parametrize("times", ["-1,0.5", "0.5,-1e-9"])
    def test_negative_times_exit_one_before_the_solve(
        self, tmp_path, capsys, monkeypatch, times, compare
    ):
        monkeypatch.setattr(cli, "solve_ocp", self.no_solve)
        code, out = run_cli(
            tmp_path, "--builtin", "tp31", "--n", "20", "--beta", "6", f"--times={times}", *compare
        )
        assert code == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --times values must be non-negative\n")
        assert not out.exists()

    @pytest.mark.parametrize("compare", [(), ("--compare",)], ids=["alone", "compare"])
    @pytest.mark.parametrize("t_end", ["nan", "-5", "0", "inf"])
    def test_bad_horizon_exits_one_before_the_solve(
        self, tmp_path, capsys, monkeypatch, t_end, compare
    ):
        # a problem file's default report times are spread over [0, t_end]
        monkeypatch.setattr(cli, "solve_ocp", self.no_solve)
        path = tmp_path / "one.txt"
        path.write_text(ONE_SUBSYSTEM)
        code, out = run_cli(tmp_path, "--problem", str(path), "--n", "20", "--t-end", t_end, *compare)
        assert code == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --t-end must be finite and positive\n")
        assert not out.exists()

    def test_zero_is_a_report_time(self, tmp_path):
        code, out = run_cli(
            tmp_path, "--builtin", "tp31", "--n", "20", "--beta", "6", "--orders", "20",
            "--times=0,0.5",
        )
        assert code == 0
        rows = read_csv(out / "trajectories.csv")
        assert [float(r["time"]) for r in rows] == [0.0, 0.5]
        assert float(rows[0]["x2"]) == pytest.approx(0.8, abs=1e-12)


class TestCompareMode:
    def test_against_oracle_within_tolerance(self, tmp_path):
        code, out = run_cli(
            tmp_path, "--builtin", "tp31", "--n", "100", "--beta", "1",
            "--hbar", "-0.6", "--orders", "100", "--compare",
            "--mesh", "2000", "--compare-tol", "1e-4",
        )
        assert code == 0
        summary = (out / "summary.txt").read_text()
        assert "max deviation vs oracle:" in summary
        dev = float(
            [l for l in summary.splitlines() if "max deviation" in l][0].split(":")[1]
        )
        assert dev < 1e-4

    def test_failed_comparison_exits_three(self, tmp_path):
        # an intentionally coarse run cannot match the oracle tightly
        code, out = run_cli(
            tmp_path, "--builtin", "tp31", "--n", "100", "--beta", "1",
            "--hbar", "-0.6", "--orders", "100", "--compare",
            "--mesh", "2000", "--compare-tol", "1e-12",
        )
        assert code == 3
        assert "comparison FAILED" in (out / "summary.txt").read_text()


class TestSweep:
    def test_hbar_sweep_csv(self, tmp_path):
        code, out = run_cli(
            tmp_path, "--builtin", "tp31", "--n", "40", "--beta", "6",
            "--orders", "80", "--tol", "1e-12",
            "--sweep", "hbar=-1.0,-0.6,-0.2",
        )
        assert code == 0
        rows = read_csv(out / "sweep.csv")
        assert [r["hbar"] for r in rows] == ["-1.0", "-0.6", "-0.2"]
        converged = [r for r in rows if r["termination"] == "Converged"]
        assert len(converged) >= 2
        costs = [float(r["cost"]) for r in converged]
        assert max(costs) - min(costs) < 1e-6

    def test_unknown_axis_exits_one(self, tmp_path):
        code, _ = run_cli(
            tmp_path, "--builtin", "tp31", "--sweep", "gamma=1,2"
        )
        assert code == 1

    def test_bad_values_exit_one(self, tmp_path):
        code, _ = run_cli(
            tmp_path, "--builtin", "tp31", "--sweep", "hbar=a,b"
        )
        assert code == 1

    def test_per_value_failures_recorded_not_fatal(self, tmp_path):
        code, out = run_cli(
            tmp_path, "--builtin", "tp31", "--n", "40", "--beta", "6",
            "--orders", "40", "--sweep", "hbar=-0.6,0.0",
        )
        assert code == 0
        rows = read_csv(out / "sweep.csv")
        assert rows[0]["termination"] in ("Converged", "MaxOrder")
        assert rows[1]["termination"] == "error: hbar = 0 freezes the homotopy"

    @pytest.mark.parametrize("value", ["1e400", "nan", "4.5"])
    def test_non_integer_n_exits_one(self, tmp_path, capsys, value):
        code, out = run_cli(tmp_path, "--builtin", "tp31", "--sweep", f"n=20,{value}")
        assert code == 1
        assert single_error_line(capsys)
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize("value", ["20", "20.0", "2e1"])
    def test_n_rows_are_labelled_with_the_integer(self, tmp_path, capsys, value):
        code, out = run_cli(
            tmp_path, "--builtin", "tp31", "--beta", "6", "--orders", "5", "--sweep", f"n={value}"
        )
        assert code == 0
        assert [r["n"] for r in read_csv(out / "sweep.csv")] == ["20"]
        assert capsys.readouterr().out.startswith("20, ")

    def test_basis_error_becomes_a_row(self, tmp_path):
        code, out = run_cli(tmp_path, "--builtin", "tp31", "--sweep", "n=20,400")
        assert code == 0
        rows = read_csv(out / "sweep.csv")
        assert len(rows) == 2
        assert not rows[0]["termination"].startswith("error")
        assert rows[1]["termination"].startswith("error: ")

    def test_error_text_with_a_comma_stays_in_one_field(self, tmp_path):
        with pytest.raises(BasisConstructionError) as info:
            build_rule(BasisConfig(beta=1.0, n_order=400))
        assert "," in str(info.value)
        code, out = run_cli(tmp_path, "--builtin", "tp31", "--sweep", "n=400")
        assert code == 0
        (row,) = read_csv(out / "sweep.csv")
        assert list(row) == ["n", "termination", "orders_used", "final_tail_norm", "cost"]
        assert row["termination"] == f"error: {info.value}"

    def test_rows_make_no_interpolate_call(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a sweep row interpolated")

        monkeypatch.setattr(sham_engine, "interpolate", refuse)
        monkeypatch.setattr(ocp_model, "interpolate", refuse)
        code, out = run_cli(
            tmp_path, "--builtin", "tp31", "--beta", "6", "--orders", "40", "--sweep", "n=20,40"
        )
        assert code == 0
        assert len(read_csv(out / "sweep.csv")) == 2

    def test_rows_without_report_times_write_the_same_bytes(self, tmp_path, monkeypatch):
        argv = (
            "--builtin", "tp31", "--beta", "6", "--orders", "150", "--tol", "1e-13",
            "--sweep", "n=20,30,40,50,60,70,80,90,100,110,120",
        )
        code, rows_only = run_cli(tmp_path / "rows_only", *argv)
        assert code == 0

        def at_the_nodes(problem, config, report_times=None):
            return ocp_model.solve_ocp(problem, config)

        monkeypatch.setattr(cli, "solve_ocp", at_the_nodes)
        code, at_nodes = run_cli(tmp_path / "at_nodes", *argv)
        assert code == 0
        assert (rows_only / "sweep.csv").read_bytes() == (at_nodes / "sweep.csv").read_bytes()

    def test_unexpected_errors_propagate(self, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("unexpected keyword")

        monkeypatch.setattr(cli, "solve_ocp", broken)
        with pytest.raises(TypeError):
            run_cli(tmp_path, "--builtin", "tp31", "--sweep", "n=20")


def single_error_line(capsys):
    """One `error:` line on stderr and nothing on stdout."""
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    return captured.out == "" and len(err) == 1 and err[0].startswith("error:")


class TestNonFiniteInput:
    @pytest.mark.parametrize("flag", ["--hbar", "--tol"])
    def test_nan_solver_parameter_exits_one(self, tmp_path, capsys, flag):
        code, _ = run_cli(tmp_path, "--builtin", "tp31", "--n", "20", flag, "nan")
        assert code == 1
        assert single_error_line(capsys)

    def test_nan_report_time_exits_one(self, tmp_path, capsys):
        code, _ = run_cli(
            tmp_path, "--builtin", "tp31", "--n", "40", "--beta", "6",
            "--orders", "30", "--times", "nan,1", "--compare",
        )
        assert code == 1
        assert single_error_line(capsys)

    @pytest.mark.parametrize("t_end", ["nan", "inf"])
    def test_non_finite_oracle_horizon_exits_one(self, tmp_path, capsys, t_end):
        code, out = run_cli(
            tmp_path, "--builtin", "tp31", "--n", "40", "--beta", "6",
            "--orders", "40", "--compare", "--t-end", t_end,
        )
        assert code == 1
        assert single_error_line(capsys)
        assert not (out / "summary.txt").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--mesh", "20", "error: --mesh (mesh intervals) must be >= 50"),
            ("--t-end", "nan", "error: --t-end must be finite and positive"),
        ],
    )
    def test_oracle_errors_name_the_flag(self, tmp_path, capsys, flag, value, message):
        code, _ = run_cli(
            tmp_path, "--builtin", "tp31", "--n", "40", "--beta", "6",
            "--orders", "40", "--compare", flag, value,
        )
        assert code == 1
        assert capsys.readouterr().err.strip() == message

    def test_nan_deviation_fails_comparison(self, tmp_path, monkeypatch):
        # an oracle comparison that yields NaN must not pass the tolerance gate
        monkeypatch.setattr(cli, "solve_truncated", lambda spec, cfg: None)
        monkeypatch.setattr(
            cli, "compare",
            lambda a, b, times: ComparisonResult(np.array([np.nan, 0.0]), np.array([1.0, 1.0])),
        )
        code, out = run_cli(
            tmp_path, "--builtin", "tp31", "--n", "40", "--beta", "6",
            "--orders", "30", "--compare",
        )
        assert code == 3
        assert "comparison FAILED" in (out / "summary.txt").read_text()


class TestSolverErrors:
    def test_basis_construction_error_exits_one(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "--builtin", "tp31", "--n", "400")
        assert code == 1
        assert single_error_line(capsys)

    def test_singular_operator_exits_one(self, tmp_path, capsys, monkeypatch):
        def singular(*args, **kwargs):
            raise OperatorSingularError("singular operator for n=4, grid=21")

        monkeypatch.setattr(cli, "solve_ocp", singular)
        code, _ = run_cli(tmp_path, "--builtin", "tp31", "--n", "20")
        assert code == 1
        assert single_error_line(capsys)


# Runs `main` in a fresh interpreter and prints, as JSON, its exit code and
# the bundled OpenBLAS thread counts before `main`, inside `solve_ocp` and after.
BLAS_THREADS_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from lahoc import cli, openblas
before, inside = openblas.thread_counts(), []
solve = cli.solve_ocp
cli.solve_ocp = lambda *a, **k: inside.append(openblas.thread_counts()) or solve(*a, **k)
code = cli.main(["--builtin", "tp31", "--n", "20", "--beta", "6", "--orders", "10",
                 "--out", sys.argv[2]])
print(json.dumps([code, before, inside, openblas.thread_counts()]))
"""


class TestBlasThreads:
    @pytest.mark.parametrize("variable", [None, "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MKL_NUM_THREADS"])
    def test_main_runs_one_thread_unless_a_variable_sets_the_count(self, tmp_path, variable):
        env = {k: v for k, v in os.environ.items() if k not in openblas.THREAD_VARIABLES}
        if variable is not None:
            env[variable] = "2"
        src = Path(__file__).resolve().parents[1] / "src"
        run = subprocess.run([sys.executable, "-c", BLAS_THREADS_PROBE, str(src), str(tmp_path)],
                             env=env, capture_output=True, text=True, check=True, timeout=120)
        code, before, inside, after = json.loads(run.stdout.splitlines()[-1])
        if not before:
            pytest.skip("NumPy and SciPy bundle no OpenBLAS whose thread count can be read")
        assert code == 0
        assert inside == [[1] * len(before) if variable is None else before]
        assert after == before


def readme_cli_lines() -> list[str]:
    """Every `lahoc ...` command in README's code blocks, continuation lines joined."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    commands, in_block, pending = [], False, ""
    for raw in readme.read_text().splitlines():
        if raw.startswith("```"):
            in_block, pending = not in_block, ""
            continue
        if not in_block:
            continue
        line = pending + raw.strip()
        if line.endswith("\\"):
            pending = line[:-1]
            continue
        pending = ""
        if line.startswith("lahoc "):
            commands.append(line)
    return commands


def test_readme_cli_examples_parse():
    commands = readme_cli_lines()
    assert len(commands) >= 8
    parser = cli._build_parser()
    for line in commands:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except (SystemExit, cli.InputError):
            pytest.fail(f"README example does not parse: {line}")
