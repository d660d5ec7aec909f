import csv
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from lahoc import (
    BasisConfig,
    BasisConstructionError,
    MeshTrajectory,
    TruncationConfig,
    build_rule,
    builtin_problem_31,
    cli,
    derive_tpbvp,
    ocp_model,
    openblas,
    sham_engine,
    solve_truncated,
)
from lahoc.cli import main
from lahoc.oracle_bvp import ComparisonResult, NewtonError
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
        (h_line,) = [l for l in summary.splitlines() if l.startswith("max |H| at nodes: ")]
        assert float(h_line.split(": ")[1]) < 1e-3

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
            ("--builtin", "tp31", "--lipschitz", "1"),
        ],
        ids=[
            "times", "sweep-axis", "empty-sweep", "missing-file",
            "bad-int", "two-sources", "no-source", "unknown-builtin", "removed-lipschitz",
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
    def test_an_empty_list_exits_one_before_the_solve(self, tmp_path, capsys, monkeypatch, compare):
        # `--times=` is a given, empty list, not the builtin table times
        monkeypatch.setattr(cli, "solve_ocp", self.no_solve)
        code, out = run_cli(
            tmp_path, "--builtin", "tp31", "--n", "20", "--beta", "6", "--orders", "5", "--times=",
            *compare,
        )
        assert code == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: bad --times value\n")
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

    @pytest.mark.parametrize(
        "extra, message",
        [
            # tp31 at N=100, beta=1 (t_N = 376.94) wrote x1 = 4.6e90 at t = 500
            (("--builtin", "tp31", "--times", "0.5,500"),
             "--times: query times must lie in [0, t_N] = [0, 376.936]"),
            # t_N = 34.19 at N=20, beta=2: below tp32's last table time 38.855 ...
            (("--builtin", "tp32", "--n", "20", "--beta", "2"),
             "the builtin table times (set --times): query times must lie in [0, t_N] = [0, 34.1885]"),
            # ... and below a problem file's default last report time, --t-end = 40
            (("--problem", "PROBLEM", "--n", "20", "--beta", "2"),
             "the default report times, up to --t-end: query times must lie in [0, t_N] = [0, 34.1885]"),
        ],
        ids=["times", "builtin-table", "problem-default"],
    )
    def test_times_past_the_grid_exit_one_without_output(self, tmp_path, capsys, extra, message):
        path = tmp_path / "one.txt"
        path.write_text(ONE_SUBSYSTEM)
        code, out = run_cli(tmp_path, *[str(path) if a == "PROBLEM" else a for a in extra])
        assert code == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
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

    def test_summary_counts_the_oracle_band_solves(self, tmp_path):
        code, out = run_cli(
            tmp_path, "--builtin", "tp31", "--n", "40", "--beta", "6", "--orders", "60",
            "--compare", "--mesh", "400", "--compare-tol", "1",
        )
        assert code == 0
        oracle = solve_truncated(derive_tpbvp(builtin_problem_31()),
                                 TruncationConfig(t_end=40.0, mesh_points=400))
        lines = [l for l in (out / "summary.txt").read_text().splitlines()
                 if l.startswith("oracle band solves:")]
        assert lines == [f"oracle band solves: {oracle.newton_iters} "
                         f"({oracle.factorizations} factorizations)"]
        assert oracle.newton_iters > oracle.factorizations == 2

    def test_the_oracle_solves_the_system_the_solver_solved(self, tmp_path, monkeypatch):
        # one derivation per verified solve: the spec `run_sham` solved is the
        # object `solve_truncated` is given
        solved, checked = [], []
        run_sham, solve = ocp_model.run_sham, cli.solve_truncated

        def recording_run_sham(spec, config):
            solved.append(spec)
            return run_sham(spec, config)

        def recording_solve(spec, cfg):
            checked.append(spec)
            return solve(spec, cfg)

        monkeypatch.setattr(ocp_model, "run_sham", recording_run_sham)
        monkeypatch.setattr(cli, "solve_truncated", recording_solve)
        code, _ = run_cli(
            tmp_path, "--builtin", "tp31", "--n", "40", "--beta", "6", "--orders", "60",
            "--compare", "--mesh", "200", "--compare-tol", "1",
        )
        assert code == 0
        assert len(solved) == len(checked) == 1 and checked[0] is solved[0]

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

    @pytest.mark.parametrize(
        "options, message",
        [
            (("--compare", "--compare-tol", "1e-30"), "--compare does not apply to a sweep"),
            (("--times=-1,0.5",), "--times does not apply to a sweep"),
            (("--times=0.5",), "--times does not apply to a sweep"),
            (("--t-end", "nan"), "--t-end must be finite and positive"),
            (("--t-end", "-5"), "--t-end must be finite and positive"),
        ],
        ids=["compare", "negative-times", "times", "nan-horizon", "negative-horizon"],
    )
    def test_options_a_row_does_not_use_exit_one_before_any_row(
        self, tmp_path, capsys, monkeypatch, options, message
    ):
        # a sweep compares no row and writes none at report times, so these
        # options would be dropped without a word; --t-end is checked as in a single run
        def no_solve(*args, **kwargs):
            raise AssertionError("a sweep row was solved")

        monkeypatch.setattr(cli, "solve_ocp", no_solve)
        code, out = run_cli(
            tmp_path, "--builtin", "tp31", "--n", "20", "--beta", "6", "--orders", "5",
            "--sweep", "hbar=-0.6", *options,
        )
        assert code == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert not out.exists()

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
        oracle = MeshTrajectory(np.array([0.0, 1.0]), np.zeros((4, 2)), np.zeros((4, 2)))
        monkeypatch.setattr(cli, "solve_truncated", lambda spec, cfg: oracle)
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

    def test_rejected_rule_leaves_no_output_directory(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "--builtin", "tp31", "--n", "3000")
        assert code == 1
        assert capsys.readouterr().err == "error: invalid weights for N=3000, beta=1.0\n"
        assert not out.exists()

    def test_singular_operator_exits_one(self, tmp_path, capsys, monkeypatch):
        def singular(*args, **kwargs):
            raise OperatorSingularError("singular operator for n=4, grid=21")

        monkeypatch.setattr(cli, "solve_ocp", singular)
        code, _ = run_cli(tmp_path, "--builtin", "tp31", "--n", "20")
        assert code == 1
        assert single_error_line(capsys)

    def test_an_oracle_out_of_memory_exits_one_with_one_line(self, tmp_path, capsys, monkeypatch):
        # as NumPy fails to allocate the mesh of `--mesh 1000000000000`; no
        # test allocates a real huge array
        def out_of_memory(spec, cfg):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000001,)")

        monkeypatch.setattr(cli, "solve_truncated", out_of_memory)
        code, out = run_cli(
            tmp_path, "--builtin", "tp31", "--n", "20", "--beta", "6", "--orders", "5", "--compare",
            "--mesh", "1000000000000",
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: out of memory: Unable to allocate 7.28 TiB for an array with shape "
            "(1000000000001,)\n"
        )
        # the oracle runs before any file is written
        assert not out.exists()

    def test_a_failed_oracle_exits_three_and_writes_the_solver_files(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_convergence(spec, cfg):
            raise NewtonError("no convergence")

        monkeypatch.setattr(cli, "solve_truncated", no_convergence)
        code, out = run_cli(
            tmp_path, "--builtin", "tp31", "--n", "40", "--beta", "6", "--orders", "40",
            "--compare",
        )
        assert code == 3
        assert len(read_csv(out / "trajectories.csv")) == 6
        assert len(read_csv(out / "convergence.csv")) == 41
        summary = (out / "summary.txt").read_text().splitlines()
        assert summary[-1] == "oracle: failed (no convergence)"
        assert capsys.readouterr().out.splitlines() == summary

    def test_a_degree_past_the_cap_fails_fast(self, tmp_path, capsys):
        # the recurrences alone took 5 s at N = 20000 before the cap
        start = time.perf_counter()
        code, out = run_cli(tmp_path, "--builtin", "tp31", "--n", "20000")
        assert code == 1
        assert capsys.readouterr().err == "error: invalid weights for N=20000, beta=1.0\n"
        assert not out.exists()
        code, out = run_cli(tmp_path, "--builtin", "tp31", "--sweep", "n=200000")
        assert code == 0
        (row,) = read_csv(out / "sweep.csv")
        assert row["termination"] == "error: invalid weights for N=200000, beta=1.0"
        assert time.perf_counter() - start < 1.0

    def test_the_first_degree_whose_cost_overflows_exits_one(self, tmp_path, capsys):
        # N = 185 used to end Converged with `cost: inf`: e^(beta t_N) = e^710.67
        code, out = run_cli(
            tmp_path, "--builtin", "tp31", "--n", "185", "--beta", "6", "--orders", "150",
            "--tol", "1e-13",
        )
        assert code == 1
        assert capsys.readouterr().err == "error: invalid weights for N=185, beta=6.0\n"
        assert not out.exists()
        code, out = run_cli(
            tmp_path, "--builtin", "tp31", "--beta", "6", "--orders", "150", "--tol", "1e-13",
            "--sweep", "n=184,185",
        )
        assert code == 0
        largest, past = read_csv(out / "sweep.csv")
        assert largest["termination"] == "Converged" and np.isfinite(float(largest["cost"]))
        assert past["termination"] == "error: invalid weights for N=185, beta=6.0"

    def test_overflowing_nodes_are_named(self, tmp_path, capsys):
        # t = x / beta is infinite at beta = 1e-308
        code, out = run_cli(tmp_path, "--builtin", "tp31", "--n", "40", "--beta", "1e-308")
        assert code == 1
        assert capsys.readouterr().err == "error: non-finite nodes for N=40, beta=1e-308\n"
        assert not out.exists()

    def test_r_whose_inverse_overflows_exits_one_with_one_line(self, tmp_path):
        # R = 1e-320 is positive definite but its inverse is inf in sigma; a
        # fresh interpreter shows any NumPy warning printed before the error
        path = tmp_path / "tiny_r.txt"
        path.write_text(ONE_SUBSYSTEM.replace("R 1\n", "R 1e-320\n"))
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run(
            [sys.executable, "-m", "lahoc.cli", "--problem", str(path), "--n", "20", "--beta", "2",
             "--orders", "5", "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 1
        assert run.stdout == ""
        assert run.stderr.startswith("error: operator has a zero or non-finite row")
        assert len(run.stderr.splitlines()) == 1
        assert not (tmp_path / "out").exists()


# Runs `main` in a fresh interpreter and prints, as JSON, its exit code and
# the bundled OpenBLAS thread count before `main`, inside `solve_ocp` and after.
BLAS_THREADS_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from lahoc import cli, openblas
before, inside = openblas.numpy_threads(), []
solve = cli.solve_ocp
cli.solve_ocp = lambda *a, **k: inside.append(openblas.numpy_threads()) or solve(*a, **k)
code = cli.main(["--builtin", "tp31", "--n", "20", "--beta", "6", "--orders", "10",
                 "--out", sys.argv[2]])
print(json.dumps([code, before, inside, openblas.numpy_threads()]))
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
        assert code == 0
        assert inside == [1 if variable is None else before]
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
