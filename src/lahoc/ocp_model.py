"""Interconnected optimal control problems and their Pontryagin boundary value form.

A problem is a list of subsystems (A_i, B_i, Q_i, R_i, polynomial coupling
f_i over the full stacked state, initial state); `OCProblem.blocks` stacks
their matrices block-diagonally once. `derive_tpbvp` produces the
2n-dimensional state/costate system, `optimal_control` applies the stacked
gain u* = -R^{-1} B^T lambda, and `evaluate_cost` and `hamiltonian` read the
running cost 1/2 (x^T Q x + lambda^T S lambda), S = B R^{-1} B^T, from the
derived system alone: along u*, u^T R u = lambda^T S lambda. The
Hamiltonian vanishes along the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .laguerre_basis import BasisRule, interpolate, quadrature_unweighted
from .sham_engine import (
    DecayAtInfinity,
    InitialValue,
    MonomialTerm,
    SolverConfig,
    SystemSpec,
    Termination,
    run_sham,
)


class ProblemFormatError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _check_symmetric_psd(mat: np.ndarray, name: str, strict: bool) -> None:
    if not np.allclose(mat, mat.T, atol=1e-12):
        raise ValueError(f"{name} must be symmetric")
    eigs = np.linalg.eigvalsh(mat)
    if strict and eigs.min() <= 0:
        raise ValueError(f"{name} must be positive definite, min eigenvalue {eigs.min():.3e}")
    if not strict and eigs.min() < -1e-10:
        raise ValueError(f"{name} must be positive semidefinite, min eigenvalue {eigs.min():.3e}")


@dataclass(frozen=True)
class SubsystemSpec:
    """One subsystem: linear dynamics, quadratic cost blocks, polynomial
    coupling over the full stacked state, and its initial state."""

    a_mat: np.ndarray
    b_mat: np.ndarray
    q_mat: np.ndarray
    r_mat: np.ndarray
    f_terms: tuple[tuple[MonomialTerm, ...], ...]  # one list per state row, over the stacked x
    x0: np.ndarray

    def __post_init__(self):
        for name in ("a_mat", "b_mat", "q_mat", "r_mat"):
            object.__setattr__(self, name, np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
        object.__setattr__(self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)))
        object.__setattr__(self, "f_terms", tuple(tuple(row) for row in self.f_terms))
        for name in ("a_mat", "b_mat", "q_mat", "r_mat", "x0"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        ni = self.a_mat.shape[0]
        if self.a_mat.shape != (ni, ni):
            raise ValueError("a_mat must be square")
        if self.b_mat.shape[0] != ni:
            raise ValueError("b_mat row count must match a_mat")
        mi = self.b_mat.shape[1]
        if ni == 0:
            raise ValueError("a subsystem needs at least one state")
        if mi == 0:
            raise ValueError("a subsystem needs at least one input")
        if self.q_mat.shape != (ni, ni) or self.r_mat.shape != (mi, mi):
            raise ValueError("q_mat/r_mat dimensions inconsistent with a_mat/b_mat")
        if self.x0.shape != (ni,):
            raise ValueError("x0 length must match subsystem dimension")
        _check_symmetric_psd(self.q_mat, "q_mat", strict=False)
        _check_symmetric_psd(self.r_mat, "r_mat", strict=True)
        if len(self.f_terms) != ni:
            raise ValueError("f_terms must have one monomial list per state row")

    @property
    def n_states(self) -> int:
        return self.a_mat.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.b_mat.shape[1]


@dataclass(frozen=True)
class OCProblem:
    subsystems: tuple[SubsystemSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "subsystems", tuple(self.subsystems))
        if not self.subsystems:
            raise ValueError("a problem needs at least one subsystem")
        n = self.n_states
        for sub in self.subsystems:
            for row in sub.f_terms:
                for term in row:
                    if len(term.exponents) != n:
                        raise ValueError(
                            f"f monomial exponents length {len(term.exponents)} != stacked dim {n}"
                        )

    @property
    def n_states(self) -> int:
        return sum(s.n_states for s in self.subsystems)

    @property
    def n_inputs(self) -> int:
        return sum(s.n_inputs for s in self.subsystems)

    def stacked_x0(self) -> np.ndarray:
        return np.concatenate([s.x0 for s in self.subsystems])

    @cached_property
    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Block-diagonal (A, B, Q, R) of the stacked state and input."""
        return tuple(
            _block_diag([getattr(s, name) for s in self.subsystems])
            for name in ("a_mat", "b_mat", "q_mat", "r_mat")
        )


def _block_diag(mats: list[np.ndarray]) -> np.ndarray:
    rows = sum(m.shape[0] for m in mats)
    cols = sum(m.shape[1] for m in mats)
    out = np.zeros((rows, cols))
    r = c = 0
    for m in mats:
        out[r : r + m.shape[0], c : c + m.shape[1]] = m
        r += m.shape[0]
        c += m.shape[1]
    return out


def _extend_exponents(exps: tuple[int, ...], total: int) -> tuple[int, ...]:
    return exps + (0,) * (total - len(exps))


def derive_tpbvp(problem: OCProblem) -> SystemSpec:
    """Pontryagin optimality system as a 2n-component SystemSpec.

    The stacked unknown is (x, lambda); the linear matrix moves the Hamiltonian
    dynamics to the left-hand side, states carry the coupling terms f and the
    costates carry the chain-rule interaction sum_j (df_j/dx_k) lambda_j,
    differentiated monomial-by-monomial.
    """
    n = problem.n_states
    a, b, q, r = problem.blocks
    s_mat = b @ np.linalg.inv(r) @ b.T

    sigma = np.zeros((2 * n, 2 * n))
    sigma[:n, :n] = -a
    sigma[:n, n:] = s_mat
    sigma[n:, :n] = q
    sigma[n:, n:] = a.T

    # flatten per-row monomial lists over the stacked state
    f_flat: list[tuple[MonomialTerm, ...]] = []
    for sub in problem.subsystems:
        f_flat.extend(sub.f_terms)

    nonlinear: list[tuple[MonomialTerm, ...]] = []
    for row in f_flat:
        nonlinear.append(
            tuple(
                MonomialTerm(-t.coefficient, _extend_exponents(t.exponents, 2 * n)) for t in row
            )
        )
    for k in range(n):
        psi_terms: list[MonomialTerm] = []
        for l, row in enumerate(f_flat):
            for t in row:
                e_k = t.exponents[k]
                if e_k == 0:
                    continue
                new = list(_extend_exponents(t.exponents, 2 * n))
                new[k] -= 1
                new[n + l] += 1
                psi_terms.append(MonomialTerm(t.coefficient * e_k, tuple(new)))
        nonlinear.append(tuple(psi_terms))

    bc = tuple(InitialValue(v) for v in problem.stacked_x0()) + tuple(
        DecayAtInfinity() for _ in range(n)
    )
    return SystemSpec(dim=2 * n, sigma=sigma, nonlinear=tuple(nonlinear), bc=bc)


def optimal_control(problem: OCProblem, costates: np.ndarray) -> np.ndarray:
    """u = -R^{-1} B^T lambda, the stacked gain, at every column of costates.

    A stack of costate grids, shape (..., n, T), gives a stack of control
    grids in one call; each grid of the stack gets the same bits as alone."""
    costates = np.atleast_2d(np.asarray(costates, dtype=float))
    if costates.shape[-2] != problem.n_states:
        raise ValueError(f"expected {problem.n_states} costate rows, got {costates.shape[-2]}")
    _, b, _, r = problem.blocks
    return np.einsum("ij,...jt->...it", -np.linalg.solve(r, b.T), costates)


def _running_cost(spec: SystemSpec, z: np.ndarray) -> np.ndarray:
    """1/2 (x^T Q x + lambda^T S lambda) at each column of z = (x; lambda),
    shape (..., 2n, T), for a spec from `derive_tpbvp`: Q is sigma[n:, :n]
    and S = B R^-1 B^T is sigma[:n, n:]. With u = -R^-1 B^T lambda,
    u^T R u = lambda^T S lambda, so this is the running cost of the problem."""
    n = spec.dim // 2
    x, lam = z[..., :n, :], z[..., n:, :]
    quadratic = np.einsum("...it,ij,...jt->...t", x, spec.sigma[n:, :n], x)
    quadratic += np.einsum("...it,ij,...jt->...t", lam, spec.sigma[:n, n:], lam)
    return 0.5 * quadratic


def evaluate_cost(spec: SystemSpec, z: np.ndarray, rule: BasisRule) -> float | np.ndarray:
    """Quadratic cost 1/2 integral of (x^T Q x + u^T R u) along the optimal
    control of z = (x; lambda), evaluated with the unweighted node quadrature;
    z must be sampled at the rule's nodes.

    A stack of grids, shape (..., 2n, T), gives an array of costs in one
    call, each equal to its own single call."""
    return quadrature_unweighted(rule, _running_cost(spec, np.atleast_2d(z)))


def hamiltonian(spec: SystemSpec, z: np.ndarray) -> np.ndarray:
    """H = 1/2 x^T Q x + 1/2 lambda^T S lambda + lambda^T x' at each column of
    z = (x; lambda), shape (2n, T), for a spec from `derive_tpbvp`, x' being
    the spec's right-hand side. With u = -R^-1 B^T lambda this is
    1/2 (x^T Q x + u^T R u) + lambda^T (A x + B u + f(x)), which vanishes
    along the optimum of an autonomous problem on an infinite horizon."""
    n = spec.dim // 2
    return _running_cost(spec, z) + np.einsum("it,it->t", z[n:], spec.rhs(z)[:n])


@dataclass
class SolutionBundle:
    """Trajectories at report times plus cost and convergence diagnostics."""

    times: np.ndarray
    states: np.ndarray
    costates: np.ndarray
    controls: np.ndarray
    cost: float
    per_order_costs: list[float]
    tail_norms: list[float]
    termination: Termination
    max_hamiltonian: float  # max |H| over the rule's nodes, at the solution
    solution: np.ndarray  # (states; costates) at the rule's nodes, shape (2n, N+1)
    rule: BasisRule
    spec: SystemSpec  # the optimality system `derive_tpbvp` derived and `run_sham` solved

    def at(self, times) -> np.ndarray:
        """Interpolated (states; costates) stack at times in the grid [0, t_N]."""
        return interpolate(self.rule, self.solution, np.atleast_1d(times))


def solve_ocp(
    problem: OCProblem,
    config: SolverConfig,
    report_times: Sequence[float] | None = None,
) -> SolutionBundle:
    """Run the homotopy solver on the derived optimality system and package
    trajectories, controls, and cost."""
    spec = derive_tpbvp(problem)
    result = run_sham(spec, config)
    n = problem.n_states
    # the cost of every partial sum in one stacked call; the last is the solution's
    per_order_costs = evaluate_cost(spec, result.partial_sums, result.rule).tolist()

    if report_times is None:
        report_times = result.rule.nodes
    times = np.asarray(report_times, dtype=float)
    # no report times, no interpolation: a sweep row asks for none
    traj = result.at(times) if times.size else result.solution[:, :0]
    states = traj[:n]
    costates = traj[n:]
    controls = optimal_control(problem, costates)

    return SolutionBundle(
        times=times,
        states=states,
        costates=costates,
        controls=controls,
        cost=per_order_costs[-1],
        per_order_costs=per_order_costs,
        tail_norms=list(result.tail_norms),
        termination=result.termination,
        max_hamiltonian=float(np.abs(hamiltonian(spec, result.solution)).max()),
        solution=result.solution,
        rule=result.rule,
        spec=spec,
    )


def builtin_problem_31() -> OCProblem:
    """Two coupled scalar subsystems with cubic/quadratic interconnections."""
    sub1 = SubsystemSpec(
        a_mat=[[1.0]], b_mat=[[1.0]], q_mat=[[1.0]], r_mat=[[1.0]],
        f_terms=((MonomialTerm(-1.0, (3, 0)), MonomialTerm(1.0, (0, 2))),),
        x0=[0.0],
    )
    sub2 = SubsystemSpec(
        a_mat=[[-1.0]], b_mat=[[1.0]], q_mat=[[1.0]], r_mat=[[1.0]],
        f_terms=((MonomialTerm(1.0, (1, 1)), MonomialTerm(1.0, (0, 3))),),
        x0=[0.8],
    )
    return OCProblem(subsystems=(sub1, sub2))


def builtin_problem_32() -> OCProblem:
    """Rigid-body attitude regulation: Rodrigues kinematics plus Euler dynamics.

    State ordering (rho_1, rho_2, rho_3, omega_1, omega_2, omega_3); inertia
    diag(10, 6.3, 8.5); identity state and control weights.
    """
    j1, j2, j3 = 10.0, 6.3, 8.5
    a = np.zeros((6, 6))
    a[0:3, 3:6] = 0.5 * np.eye(3)
    b = np.zeros((6, 3))
    b[3:6, :] = np.diag([1.0 / j1, 1.0 / j2, 1.0 / j3])
    q = np.eye(6)
    r = np.eye(3)
    x0 = np.array([0.3735, 0.4115, 0.2521, 0.0, 0.0, 0.0])

    def mono(c, rho=(0, 0, 0), omega=(0, 0, 0)):
        return MonomialTerm(c, tuple(rho) + tuple(omega))

    # kinematics: d(rho_i)/dt = 1/2 omega_i (linear) + 1/2 rho_i (rho . omega)
    f_rho = (
        (mono(0.5, (2, 0, 0), (1, 0, 0)), mono(0.5, (1, 1, 0), (0, 1, 0)), mono(0.5, (1, 0, 1), (0, 0, 1))),
        (mono(0.5, (0, 2, 0), (0, 1, 0)), mono(0.5, (1, 1, 0), (1, 0, 0)), mono(0.5, (0, 1, 1), (0, 0, 1))),
        (mono(0.5, (0, 0, 2), (0, 0, 1)), mono(0.5, (1, 0, 1), (1, 0, 0)), mono(0.5, (0, 1, 1), (0, 1, 0))),
    )
    # dynamics: gyroscopic couplings (J2-J3)/J1 etc.
    f_omega = (
        (mono((j2 - j3) / j1, omega=(0, 1, 1)),),   # -11/50 omega_2 omega_3
        (mono((j3 - j1) / j2, omega=(1, 0, 1)),),   # -5/21  omega_1 omega_3
        (mono((j1 - j2) / j3, omega=(1, 1, 0)),),   # 37/85  omega_1 omega_2
    )
    sub = SubsystemSpec(a_mat=a, b_mat=b, q_mat=q, r_mat=r,
                        f_terms=f_rho + f_omega, x0=x0)
    return OCProblem(subsystems=(sub,))


BUILTIN_PROBLEMS = {
    "tp31": builtin_problem_31,
    "tp32": builtin_problem_32,
}

# report times matching the published comparison tables
BUILTIN_REPORT_TIMES = {
    "tp31": (0.113, 0.494, 1.152, 2.107, 3.389, 5.047),
    "tp32": (0.409, 1.950, 4.663, 8.597, 20.488, 38.855),
}


def _parse_matrix(value: str, line: int) -> np.ndarray:
    try:
        return np.array([float(v) for v in value.split()])
    except ValueError as exc:
        raise ProblemFormatError(line, f"bad numeric list: {value!r}") from exc


def parse_problem(text: str) -> OCProblem:
    """Parse the `lahoc-problem v1` key-value format.

    Per subsystem: `dim`, `inputs`, row-major `A`, `B`, `Q`, `R`, `x0`, each
    at most once, and zero or more
    `f <row> <coefficient> : <exponent list over stacked state>`.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != "lahoc-problem v1":
        raise ProblemFormatError(1, "missing 'lahoc-problem v1' header")

    raw_subs: list[dict] = []
    cur: dict | None = None
    for idx, line in enumerate(lines[1:], start=2):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped == "subsystem":
            cur = {"f": [], "line": idx}
            raw_subs.append(cur)
            continue
        if cur is None:
            raise ProblemFormatError(idx, "expected 'subsystem' before fields")
        key, _, value = stripped.partition(" ")
        if key in ("dim", "inputs", "A", "B", "Q", "R", "x0") and key in cur:
            raise ProblemFormatError(idx, f"repeated key {key!r}")
        if key in ("dim", "inputs"):
            try:
                cur[key] = int(value)
            except ValueError as exc:
                raise ProblemFormatError(idx, f"bad integer for {key}: {value!r}") from exc
            if cur[key] < 1:
                raise ProblemFormatError(idx, f"{key} must be >= 1, got {cur[key]}")
        elif key in ("A", "B", "Q", "R", "x0"):
            cur[key] = (_parse_matrix(value, idx), idx)
        elif key == "f":
            head, sep, tail = value.partition(":")
            if not sep:
                raise ProblemFormatError(idx, "f record needs 'row coeff : exponents'")
            parts = head.split()
            if len(parts) != 2:
                raise ProblemFormatError(idx, "f record needs 'row coeff : exponents'")
            try:
                row = int(parts[0])
                coeff = float(parts[1])
                exps = tuple(int(v) for v in tail.split())
            except ValueError as exc:
                raise ProblemFormatError(idx, f"bad f record: {value!r}") from exc
            cur["f"].append((row, coeff, exps, idx))
        else:
            raise ProblemFormatError(idx, f"unknown key {key!r}")

    if not raw_subs:
        raise ProblemFormatError(len(lines), "no subsystems defined")

    n_total = 0
    for sub in raw_subs:
        if "dim" not in sub:
            raise ProblemFormatError(sub["line"], "subsystem missing 'dim'")
        n_total += sub["dim"]

    subs = []
    for sub in raw_subs:
        ni = sub["dim"]
        mi = sub.get("inputs", ni)
        mats = {}
        shapes = {"A": (ni, ni), "B": (ni, mi), "Q": (ni, ni), "R": (mi, mi), "x0": (ni,)}
        for key, shape in shapes.items():
            if key not in sub:
                raise ProblemFormatError(sub["line"], f"subsystem missing {key!r}")
            flat, lineno = sub[key]
            if flat.size != int(np.prod(shape)):
                raise ProblemFormatError(
                    lineno, f"{key} needs {int(np.prod(shape))} entries, got {flat.size}"
                )
            mats[key] = flat.reshape(shape)
        rows: list[list[MonomialTerm]] = [[] for _ in range(ni)]
        for row, coeff, exps, lineno in sub["f"]:
            if not (0 <= row < ni):
                raise ProblemFormatError(lineno, f"f row {row} out of range for dim {ni}")
            if len(exps) != n_total:
                raise ProblemFormatError(
                    lineno, f"f exponents need {n_total} entries, got {len(exps)}"
                )
            try:
                rows[row].append(MonomialTerm(coeff, exps))
            except ValueError as exc:
                raise ProblemFormatError(lineno, str(exc)) from exc
        try:
            subs.append(
                SubsystemSpec(
                    a_mat=mats["A"], b_mat=mats["B"], q_mat=mats["Q"], r_mat=mats["R"],
                    f_terms=tuple(tuple(r) for r in rows), x0=mats["x0"],
                )
            )
        except ValueError as exc:
            raise ProblemFormatError(sub["line"], str(exc)) from exc

    return OCProblem(subsystems=tuple(subs))


def load_problem(path) -> OCProblem:
    """Parse the UTF-8 problem file at `path`, whatever the locale."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ProblemFormatError(line, f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return parse_problem(text)
