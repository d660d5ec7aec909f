"""Independent truncated-domain solver for the state/costate boundary value problem.

Midpoint-rule collocation on a geometrically graded mesh over [0, t_end] with
a damped Newton iteration and an analytic sparse Jacobian. The decay condition
on costate components is imposed at t_end. Used to cross-validate the spectral
homotopy trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve

from .sham_engine import DecayAtInfinity, InitialValue, MonomialTerm, SystemSpec


class NewtonError(RuntimeError):
    pass


@dataclass(frozen=True)
class TruncationConfig:
    t_end: float = 40.0
    mesh_points: int = 800
    newton_tol: float = 1e-11
    max_newton_iters: int = 30
    damping: float = 1.0
    grading: float = 4.0  # exponential clustering strength near t = 0

    def __post_init__(self):
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if self.mesh_points < 50:
            raise ValueError("mesh_points must be >= 50")
        if self.newton_tol <= 0:
            raise ValueError("newton_tol must be positive")
        if not (0 < self.damping <= 1):
            raise ValueError("damping must lie in (0, 1]")


def graded_mesh(cfg: TruncationConfig) -> np.ndarray:
    """Mesh clustered near t=0 where the trajectories move fastest."""
    tau = np.linspace(0.0, 1.0, cfg.mesh_points + 1)
    a = cfg.grading
    return cfg.t_end * np.expm1(a * tau) / np.expm1(a)


@dataclass
class MeshTrajectory:
    """Trajectories on a truncated mesh, interpolable inside [0, t_end]."""

    times: np.ndarray
    values: np.ndarray  # shape (n, len(times))
    newton_iters: int = 0
    final_residual: float = 0.0

    def at(self, times) -> np.ndarray:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if times.min() < self.times[0] - 1e-12 or times.max() > self.times[-1] + 1e-12:
            raise ValueError(
                f"query times must lie in [{self.times[0]}, {self.times[-1]}]"
            )
        return CubicSpline(self.times, self.values, axis=1)(times)


def _eval_monomials(spec: SystemSpec, z: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """g(z) column-wise; z has shape (n, T)."""
    n, T = z.shape
    out = np.zeros((n, T))
    for r, terms in enumerate(spec.nonlinear):
        for t in terms:
            vals = np.full(T, scale * t.coefficient)
            for c, e in enumerate(t.exponents):
                if e:
                    vals = vals * z[c] ** e
            out[r] += vals
    return out


def _monomial_jacobian(spec: SystemSpec, z: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """dg/dz at each column of z; returns shape (T, n, n)."""
    n, T = z.shape
    jac = np.zeros((T, n, n))
    for r, terms in enumerate(spec.nonlinear):
        for t in terms:
            for c, e in enumerate(t.exponents):
                if e == 0:
                    continue
                vals = np.full(T, scale * t.coefficient * e)
                for c2, e2 in enumerate(t.exponents):
                    p = e2 - 1 if c2 == c else e2
                    if p:
                        vals = vals * z[c2] ** p
                jac[:, r, c] += vals
    return jac


def _rhs(spec: SystemSpec, z: np.ndarray, phi: np.ndarray, scale: float) -> np.ndarray:
    """dz/dt = phi - sigma z - g(z)."""
    return phi - spec.sigma @ z - _eval_monomials(spec, z, scale)


def _residual_and_jacobian(
    spec: SystemSpec,
    times: np.ndarray,
    z: np.ndarray,
    phi_mid: np.ndarray,
    scale: float,
    want_jac: bool,
):
    n = spec.dim
    m = len(times) - 1
    h = np.diff(times)
    zmid = 0.5 * (z[:, :-1] + z[:, 1:])
    f_mid = _rhs(spec, zmid, phi_mid, scale)
    res = np.empty((m + 1) * n)
    # interval residuals occupy rows i*n..(i+1)*n; boundary rows come last
    interval = (z[:, 1:] - z[:, :-1]) - h * f_mid
    res[: m * n] = interval.T.ravel()
    brow = m * n
    bindex = []
    for r, tag in enumerate(spec.bc):
        if isinstance(tag, InitialValue):
            res[brow] = z[r, 0] - tag.value
            bindex.append((brow, r, 0))
        else:
            res[brow] = z[r, -1]
            bindex.append((brow, r, m))
        brow += 1

    if not want_jac:
        return res, None

    jg = _monomial_jacobian(spec, zmid, scale)
    jf = -(spec.sigma[None, :, :] + jg)  # d(rhs)/dz at midpoints, (m, n, n)
    eye = np.eye(n)
    rows, cols, vals = [], [], []
    row_base = np.repeat(np.arange(n), n)
    col_base = np.tile(np.arange(n), n)
    for i in range(m):
        block_l = -eye - 0.5 * h[i] * jf[i]
        block_r = eye - 0.5 * h[i] * jf[i]
        r0 = i * n
        rows.append(r0 + row_base)
        cols.append(i * n + col_base)
        vals.append(block_l.ravel())
        rows.append(r0 + row_base)
        cols.append((i + 1) * n + col_base)
        vals.append(block_r.ravel())
    for brow_i, r, col_t in bindex:
        rows.append(np.array([brow_i]))
        cols.append(np.array([col_t * n + r]))
        vals.append(np.array([1.0]))
    jac = csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=((m + 1) * n, (m + 1) * n),
    )
    return res, jac


def _newton(spec, times, z0, phi_mid, cfg, scale):
    n = spec.dim
    z = z0.copy()
    res, _ = _residual_and_jacobian(spec, times, z, phi_mid, scale, want_jac=False)
    rnorm = np.linalg.norm(res, ord=np.inf)
    for it in range(cfg.max_newton_iters):
        if rnorm < cfg.newton_tol:
            return z, it, rnorm
        _, jac = _residual_and_jacobian(spec, times, z, phi_mid, scale, want_jac=True)
        try:
            delta = spsolve(jac, res)
        except RuntimeError as exc:
            raise NewtonError(f"Jacobian solve failed: {exc}") from exc
        if not np.all(np.isfinite(delta)):
            raise NewtonError("singular Jacobian (non-finite Newton step)")
        step = cfg.damping
        dz = delta.reshape(len(times), n).T
        while True:
            z_try = z - step * dz
            res_try, _ = _residual_and_jacobian(spec, times, z_try, phi_mid, scale, want_jac=False)
            rnorm_try = np.linalg.norm(res_try, ord=np.inf)
            if rnorm_try < (1 - 0.1 * step) * rnorm or step < 1e-4:
                break
            step *= 0.5
        z, res, rnorm = z_try, res_try, rnorm_try
    if rnorm >= cfg.newton_tol:
        raise NewtonError(
            f"no convergence after {cfg.max_newton_iters} iterations, residual {rnorm:.3e}"
        )
    return z, cfg.max_newton_iters, rnorm


def solve_truncated(spec: SystemSpec, cfg: TruncationConfig) -> MeshTrajectory:
    """Solve the boundary value problem on [0, t_end].

    Starts from zero costates with states relaxing linearly to zero; if the
    full Newton iteration fails, retries with the nonlinear terms continued
    from zero to full strength in four steps.
    """
    times = graded_mesh(cfg)
    tmid = 0.5 * (times[:-1] + times[1:])
    if spec.forcing is not None:
        phi_mid = np.asarray(spec.forcing(tmid), dtype=float)
    else:
        phi_mid = np.zeros((spec.dim, len(tmid)))

    z = np.zeros((spec.dim, len(times)))
    ramp = 1.0 - times / cfg.t_end
    for r, tag in enumerate(spec.bc):
        if isinstance(tag, InitialValue):
            z[r] = tag.value * ramp

    try:
        z, iters, rnorm = _newton(spec, times, z, phi_mid, cfg, scale=1.0)
    except NewtonError:
        for scale in (0.25, 0.5, 0.75, 1.0):
            z, iters, rnorm = _newton(spec, times, z, phi_mid, cfg, scale=scale)
    return MeshTrajectory(times, z, newton_iters=iters, final_residual=rnorm)


@dataclass
class ComparisonResult:
    max_dev: np.ndarray       # per-component max |a - b|
    argmax_time: np.ndarray   # the query time attaining each max

    def worst(self) -> float:
        return float(self.max_dev.max())


def compare(traj_a, traj_b, times) -> ComparisonResult:
    """Component-wise max absolute deviation between two trajectories over the
    given times, plus the time attaining each maximum. Both trajectories must
    expose `.at(times) -> (n, len(times))`."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    a = np.atleast_2d(traj_a.at(times))
    b = np.atleast_2d(traj_b.at(times))
    if a.shape != b.shape:
        raise ValueError(f"trajectory shapes differ: {a.shape} vs {b.shape}")
    dev = np.abs(a - b)
    idx = dev.argmax(axis=1)
    return ComparisonResult(dev.max(axis=1), times[idx])

