"""Command-line front-end: run the spectral homotopy solver and/or the
truncated-domain oracle on a builtin or file-defined problem and write
trajectory, convergence, and summary artifacts.

Exit codes: 0 solver finished (converged or order budget reached), 1 bad
input, 2 series diverged, 3 oracle comparison beyond tolerance.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

from . import openblas
from .laguerre_basis import BasisConfig, BasisConstructionError, build_rule
from .ocp_model import (
    BUILTIN_PROBLEMS,
    BUILTIN_REPORT_TIMES,
    OCProblem,
    ProblemFormatError,
    load_problem,
    solve_ocp,
)
from .oracle_bvp import MIN_MESH_POINTS, NewtonError, TruncationConfig, compare, solve_truncated
from .sham_engine import OperatorSingularError, SolverConfig, Termination

_FMT = "{:.8e}"  # 9 significant digits, scientific


class InputError(Exception):
    """Bad command-line input: `main` prints the message and exits 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="lahoc",
        description="Solve infinite-horizon optimal control problems by Laguerre "
        "spectral homotopy, optionally cross-checked against a truncated-domain "
        "collocation oracle.",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", choices=sorted(BUILTIN_PROBLEMS), help="builtin problem name")
    src.add_argument("--problem", type=Path, help="problem definition file (lahoc-problem v1)")
    p.add_argument("--n", type=int, default=100, help="highest polynomial degree (>= 4)")
    p.add_argument("--beta", type=float, default=1.0, help="Laguerre scaling parameter")
    p.add_argument("--hbar", type=float, default=-0.6, help="convergence-control parameter")
    p.add_argument("--orders", type=int, default=20, help="maximum homotopy order")
    p.add_argument("--tol", type=float, default=1e-12, help="tail-norm stopping tolerance")
    p.add_argument("--compare", action="store_true", help="also run the oracle and compare")
    p.add_argument("--compare-tol", type=float, default=1e-4,
                   help="max allowed deviation vs the oracle (exit 3 beyond it)")
    p.add_argument("--t-end", type=float, default=40.0,
                   help="oracle truncation horizon, and for --problem the last "
                   "default report time")
    p.add_argument("--mesh", type=int, default=2000, help="oracle mesh intervals")
    p.add_argument("--times", type=str, default=None,
                   help="comma-separated report times (default: the builtin table "
                   "times; for --problem, 20 geometric times over [t_end/1000, t_end])")
    p.add_argument("--out", type=Path, default=Path("lahoc_out"), help="output directory")
    p.add_argument("--sweep", type=str, default=None,
                   help="sweep axis, e.g. hbar=-1.0,-0.6,-0.2 or n=40,80,120 or beta=0.5,1")
    return p


def _horizon(args) -> float:
    # --t-end sets a problem file's default report times as well as the oracle's horizon
    if not 0 < args.t_end < np.inf:  # NaN fails too
        raise InputError("--t-end must be finite and positive")
    return args.t_end


def _report_times(args, t_n: float) -> np.ndarray:
    t_end = _horizon(args)
    if args.times is not None:  # `--times=` too: an empty list is a bad value
        source = "--times"
        try:
            times = np.array([float(v) for v in args.times.split(",")])
        except ValueError:
            raise InputError("bad --times value") from None
        if not np.all(np.isfinite(times)):
            raise InputError("--times values must be finite")
        if times.min() < 0:
            raise InputError("--times values must be non-negative")
    elif args.builtin:
        source = "the builtin table times (set --times)"
        times = np.array(BUILTIN_REPORT_TIMES[args.builtin])
    else:
        source = "the default report times, up to --t-end"
        times = np.geomspace(t_end / 1000.0, t_end, 20)
    if args.compare and times.max() > t_end:
        raise InputError(f"report times must lie in [0, {t_end}] when comparing")
    # past t_N the interpolant is an extrapolation: `interpolate` rejects it
    if times.max() > t_n:
        raise InputError(f"{source}: query times must lie in [0, t_N] = [0, {t_n:g}]")
    return times


def _load(args) -> OCProblem:
    if args.builtin:
        return BUILTIN_PROBLEMS[args.builtin]()
    try:
        return load_problem(args.problem)
    except ProblemFormatError as exc:
        raise InputError(f"{args.problem}: {exc}") from exc


def _solver_config(args) -> SolverConfig:
    if args.n < 4:
        raise InputError("--n must be >= 4")
    try:
        basis = BasisConfig(beta=args.beta, n_order=args.n)
        return SolverConfig(hbar=args.hbar, basis=basis, max_order=args.orders,
                            tail_tol=args.tol)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _write_trajectories(path: Path, bundle, n_states: int) -> None:
    header = (
        ["time"]
        + [f"x{i + 1}" for i in range(n_states)]
        + [f"lambda{i + 1}" for i in range(n_states)]
        + [f"u{i + 1}" for i in range(bundle.controls.shape[0])]
    )
    rows = np.column_stack([bundle.times, bundle.states.T, bundle.costates.T, bundle.controls.T])
    np.savetxt(path, rows, fmt="%.8e", delimiter=",", header=",".join(header), comments="")


def _write_convergence(path: Path, bundle) -> None:
    rows = np.column_stack(
        [np.arange(len(bundle.tail_norms)), bundle.tail_norms, bundle.per_order_costs]
    )
    np.savetxt(path, rows, fmt=["%d", "%.8e", "%.8e"], delimiter=",",
               header="order,tail_norm,cost", comments="")


def _run_single(args, problem: OCProblem, config: SolverConfig) -> int:
    # the nodes `solve_ocp` interpolates on, so both checks agree bit for bit
    times = _report_times(args, build_rule(config.basis).nodes[-1])
    oracle_config = None
    if args.compare:
        if args.mesh < MIN_MESH_POINTS:
            raise InputError(f"--mesh (mesh intervals) must be >= {MIN_MESH_POINTS}")
        if not args.compare_tol >= 0:  # NaN fails too
            raise InputError("--compare-tol must be non-negative")
        oracle_config = TruncationConfig(t_end=args.t_end, mesh_points=args.mesh)
    t0 = time.perf_counter()
    bundle = solve_ocp(problem, config, report_times=times)
    solver_seconds = time.perf_counter() - t0

    lines = [
        f"termination: {bundle.termination.value}",
        f"orders used: {len(bundle.tail_norms) - 1}",
        f"final tail norm: {_FMT.format(bundle.tail_norms[-1])}",
        f"cost: {_FMT.format(bundle.cost)}",
        f"max |H| at nodes: {_FMT.format(bundle.max_hamiltonian)}",
        f"solver wall time: {solver_seconds:.3f} s",
    ]

    status = 2 if bundle.termination is Termination.DIVERGED else 0

    if args.compare and status == 0:
        t0 = time.perf_counter()
        try:  # the optimality system the solver solved, not a second derivation
            oracle = solve_truncated(bundle.spec, oracle_config)
        except NewtonError as exc:  # the solver's files are still written
            lines.append(f"oracle: failed ({exc})")
            status = 3
        else:
            oracle_seconds = time.perf_counter() - t0
            result = compare(bundle, oracle, times)
            lines.append(f"oracle wall time: {oracle_seconds:.3f} s")
            lines.append(f"oracle band solves: {oracle.newton_iters} "
                         f"({oracle.factorizations} factorizations)")
            lines.append(f"max deviation vs oracle: {_FMT.format(result.worst())}")
            for r, (dev, tmax) in enumerate(zip(result.max_dev, result.argmax_time)):
                lines.append(f"  component {r}: {_FMT.format(dev)} at t={tmax:g}")
            if not result.worst() <= args.compare_tol:  # a NaN deviation fails too
                lines.append(f"comparison FAILED (tolerance {args.compare_tol:g})")
                status = 3

    # made only now, so that an input the solver rejects, or an oracle that
    # runs out of memory, leaves no directory
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    _write_trajectories(out / "trajectories.csv", bundle, problem.n_states)
    _write_convergence(out / "convergence.csv", bundle)
    _write_summary(out, lines)
    return status


def _write_summary(out: Path, lines: list[str]) -> None:
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)


def _run_sweep(args, problem: OCProblem) -> int:
    # a row is neither compared nor written out at report times
    for option, given in (("--compare", args.compare), ("--times", args.times is not None)):
        if given:
            raise InputError(f"{option} does not apply to a sweep")
    _horizon(args)
    axis, _, values = args.sweep.partition("=")
    axis = axis.strip()
    if axis not in ("hbar", "n", "beta"):
        raise InputError(f"unknown sweep axis {axis!r} (expected hbar, n, or beta)")
    try:
        vals = [float(v) for v in values.split(",") if v.strip()]
    except ValueError:
        raise InputError(f"bad sweep values {values!r}") from None
    if not vals:
        raise InputError("empty sweep axis")
    if axis == "n" and not all(v.is_integer() for v in vals):  # NaN and inf fail too
        raise InputError(f"sweep values of n must be integers, got {values!r}")

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for v in vals:
        run_args = argparse.Namespace(**vars(args))
        if axis == "hbar":
            run_args.hbar = v
        elif axis == "n":
            v = run_args.n = int(v)  # the row reads 20, not 20.0
        else:
            run_args.beta = v
        try:
            config = _solver_config(run_args)
            # a row writes no trajectories, so it asks for none
            bundle = solve_ocp(problem, config, report_times=())
        except (InputError, BasisConstructionError, OperatorSingularError) as exc:
            rows.append((v, f"error: {exc}", "", "", ""))
            continue
        rows.append(
            (
                v,
                bundle.termination.value,
                len(bundle.tail_norms) - 1,
                _FMT.format(bundle.tail_norms[-1]),
                _FMT.format(bundle.cost),
            )
        )

    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([axis, "termination", "orders_used", "final_tail_norm", "cost"])
        writer.writerows(rows)
    for row in rows:
        print(", ".join(str(v) for v in row))
    return 0


def main(argv=None) -> int:
    """Run the command. Unless one of `openblas.THREAD_VARIABLES` is set,
    NumPy's bundled OpenBLAS, which also runs lahoc's LAPACK calls, runs on
    one thread until it returns: more threads than free cores made a tp32
    solve 16 times slower on a shared host (see README), and one thread lets
    the coupled blocks be factored at the same time."""
    with openblas.one_thread_unless_set():
        try:
            args = _build_parser().parse_args(argv)
            # the directory is made only after the solve; a file in its place is known now
            if args.out.exists() and not args.out.is_dir():
                raise InputError(f"--out {args.out} exists and is not a directory")
            problem = _load(args)
            if args.sweep is not None:
                return _run_sweep(args, problem)
            return _run_single(args, problem, _solver_config(args))
        except (InputError, BasisConstructionError, OperatorSingularError, OSError) as exc:
            # an OSError: the problem file could not be read, --out made, or a file in it written
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except MemoryError as exc:  # e.g. an oracle --mesh too large to allocate
            print(f"error: out of memory: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
