"""Independent truncated-domain solver for the state/costate boundary value problem.

Midpoint-rule collocation on a geometrically graded mesh over [0, t_end] with
a damped, simplified Newton iteration, by nested iteration on one coarse
mesh: first on a quarter as many intervals, never fewer than MIN_MESH_POINTS,
from the decaying solution of the linear part (for a derived optimality
system, the LQR trajectory and its costates; for an initial-value problem
without one, its forward Euler march), with continuation in the nonlinear
terms if Newton fails there, and then, from the interpolant of that
solution, on the full mesh; if either fails, the same direct solve runs on
the full mesh, unless the coarse mesh was the full one. The decay condition
is imposed at t_end as W z(t_end) = 0, the rows of W spanning the orthogonal
complement of the linear part's decaying eigenvectors (for a derived
optimality system, lambda(t_end) = P x(t_end) with P the Riccati solution of
the linearised problem), or, where the decaying modes do not split off the
initial values, as z = 0 on the decay components. The unknowns are ordered
time-major and the residual rows run initial values, then one block of n
rows per mesh interval, then the decay rows, so the analytic Jacobian is a
band matrix 3n diagonals wide, factored in place with LAPACK's band LU and
solved with again while the steps on it keep contracting the residual.
Trajectories are read between mesh points through the cubic Hermite
interpolant of the mesh values and their slopes f(z), as BVP4C and BVP5C
read theirs. Used to cross-validate the spectral homotopy trajectories.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .openblas import dgbsv, dgbtrs
from .sham_engine import SystemSpec


class NewtonError(RuntimeError):
    """A Newton solve that failed."""


@dataclass
class _Call:
    """What one `solve_truncated` call shares across its meshes and stages:
    the split of its linear part (`_linear_split`), the rows W of its decay
    condition W z(t_end) = 0, one per decaying component of `spec.bc_split`,
    and the band solves it made, fresh or on held factors, with the
    factorizations among them, failed attempts included."""

    spec: InitVar[SystemSpec]
    split: tuple | None = field(init=False)
    end_rows: np.ndarray = field(init=False)
    solves: int = 0
    factorizations: int = 0

    def __post_init__(self, spec):
        initial, decay, _ = spec.bc_split
        self.split = _linear_split(spec)
        self.end_rows = np.eye(spec.dim)[decay]
        if self.split is not None:
            self.end_rows[:, initial] = -self.split[2]


NEWTON_TOL = 1e-11  # infinity norm of the collocation residual
MAX_NEWTON_ITERS = 30  # band solves, fresh or reused
REUSE_CONTRACTION = 0.25  # a reused factorization must cut the residual norm this much
GRADING = 4.0  # exponential clustering strength of the mesh near t = 0
MIN_MESH_POINTS = 50  # mesh intervals: the fewest a config takes, and the coarse mesh's floor


@dataclass(frozen=True)
class TruncationConfig:
    t_end: float = 40.0
    mesh_points: int = 800

    def __post_init__(self):
        if not 0 < self.t_end < np.inf:  # NaN fails too
            raise ValueError("t_end must be finite and positive")
        if self.mesh_points < MIN_MESH_POINTS:
            raise ValueError(f"mesh_points must be >= {MIN_MESH_POINTS}")


def graded_mesh(cfg: TruncationConfig) -> np.ndarray:
    """Mesh clustered near t=0 where the trajectories move fastest."""
    return _graded(cfg.t_end, cfg.mesh_points)


def _graded(t_end: float, intervals: int) -> np.ndarray:
    tau = np.linspace(0.0, 1.0, intervals + 1)
    return t_end * np.expm1(GRADING * tau) / np.expm1(GRADING)


@dataclass
class MeshTrajectory:
    """Trajectories on a truncated mesh, interpolable inside [0, t_end] by
    the C1 cubic Hermite interpolant of the values and `slopes` at the mesh
    points (BVP4C's, Kierzenka & Shampine 2001).

    From `solve_truncated`, the slopes are the ODE's f(z) at the mesh values;
    `newton_iters` is every band solve the solve made: on every mesh it
    tried, in every continuation stage, and in the attempts that failed.
    `factorizations` counts those that factored a Jacobian; the others solved
    on held factors. `final_residual` is the full mesh's."""

    times: np.ndarray
    values: np.ndarray  # shape (n, len(times))
    slopes: np.ndarray  # d values / dt, shape (n, len(times))
    newton_iters: int = 0
    final_residual: float = 0.0
    factorizations: int = 0

    def at(self, times) -> np.ndarray:
        times = np.atleast_1d(np.asarray(times, dtype=float))
        # a NaN fails both comparisons; no query at all passes, and reads (n, 0)
        if not np.all((times >= self.times[0] - 1e-12) & (times <= self.times[-1] + 1e-12)):
            raise ValueError(
                f"query times must lie in [{self.times[0]}, {self.times[-1]}]"
            )
        x, y, s = self.times, self.values.T, self.slopes.T
        # the Hermite basis of each query's interval i in u = (t - x[i]) / h:
        # exactly y[i] at u = 0 and y[i + 1] at u = 1, so at every mesh point
        i = np.clip(np.searchsorted(x, times, side="right") - 1, 0, len(x) - 2)
        h = (x[i + 1] - x[i])[:, None]
        u = (times - x[i])[:, None] / h
        w = u * u * (3 - 2 * u)
        v = 1 - u
        return ((1 - w) * y[i] + w * y[i + 1] + h * u * v * (v * s[i] - u * s[i + 1])).T


def _monomial_jacobian(spec: SystemSpec, z: np.ndarray) -> np.ndarray:
    """dg/dz at each column of z, as a (T, n, n) view of an (n, n, T) array."""
    jac = np.zeros((len(z), *z.shape))
    for r, terms in enumerate(spec.nonlinear):
        for t in terms:
            f = t.factors
            for k, c in enumerate(f):  # a factor repeated e times adds e equal terms
                jac[r, c] += math.prod((z[c2] for c2 in f[:k] + f[k + 1 :]), start=t.coefficient)
    return jac.transpose(2, 0, 1)


def _residual(spec: SystemSpec, times: np.ndarray, z: np.ndarray, end_rows: np.ndarray) -> np.ndarray:
    """Collocation residual: initial-value rows, then n rows per mesh interval,
    then the decay rows at t_end, `end_rows @ z(t_end)`."""
    initial, _, values = spec.bc_split
    h = np.diff(times)
    zmid = 0.5 * (z[:, :-1] + z[:, 1:])
    interval = (z[:, 1:] - z[:, :-1]) - h * spec.rhs(zmid)
    return np.concatenate([z[initial, 0] - values, interval.T.ravel(), end_rows @ z[:, -1]])


def _banded_jacobian(
    spec: SystemSpec, times: np.ndarray, z: np.ndarray, end_rows: np.ndarray
) -> tuple[tuple[int, int], np.ndarray]:
    """Jacobian of `_residual` in the band storage LAPACK's `gbsv` factors in place.

    Unknown (t, r) is column t*n + r. Interval i's rows k0 + i*n + (0..n-1),
    with k0 initial-value rows before them, touch columns i*n .. (i+2)*n - 1,
    so the matrix has l = n - 1 + k0 sub- and u = 2n - 1 - k0 superdiagonals;
    the n - k0 decay rows after them hold `end_rows` in the last n columns,
    at offsets k0 - n + 1 .. n - 1, inside the same band.
    Entry (R, C) is stored at ab[l + u + R - C, C] below l rows of room for
    the pivoted factor, column-major, so that the left and the right n x n
    blocks of all intervals are each one strided view of the storage.
    """
    n = spec.dim
    m = len(times) - 1
    initial = spec.bc_split[0]
    k0 = len(initial)
    l, u = n - 1 + k0, 2 * n - 1 - k0
    h = np.diff(times)
    zmid = 0.5 * (z[:, :-1] + z[:, 1:])
    # -h/2 d(rhs)/dz at the midpoints, (m, n, n), formed in place: interval
    # i's left block is g[i] - I and its right block g[i] + I
    g = _monomial_jacobian(spec, zmid)
    g += spec.sigma
    g *= 0.5 * h[:, None, None]

    ab = np.zeros((2 * l + u + 1, (m + 1) * n), order="F")
    diag = l + u + k0  # band row of the left blocks' diagonals, R - C = k0
    # the left blocks start at (diag, 0), the right ones at (diag - n, n); the
    # view [i, r, c] of a start (row, col) is ab[row + r - c, col + i*n + c]
    s0, s1 = ab.strides
    blocks = dict(shape=(m, n, n), strides=(n * s1, s0, s1 - s0))
    as_strided(ab[diag:], **blocks)[...] = g
    as_strided(ab[diag - n :, n:], **blocks)[...] = g
    ab[diag, : m * n] -= 1.0
    ab[diag - n, n:] += 1.0
    ab[l + u + np.arange(k0) - initial, initial] = 1.0
    j, c = np.indices(end_rows.shape)
    ab[diag + j - c, m * n + c] = end_rows
    return (l, u), ab


def _newton(spec, times, z0, call: _Call):
    """Simplified Newton: each step solves with the band LU of the last
    Jacobian factored, for as long as the steps taken on it contract.

    A reuse step (`dgbtrs` on the held factors) is undamped and keeps them
    only if it cuts the residual's infinity norm to REUSE_CONTRACTION of its
    value or less; one that does not lower the residual is discarded, and the
    Jacobian is factored at the same iterate. Returns (z, residual); every
    band solve, fresh or reused, is added to `call` as it is made."""
    z = z0.copy()
    res = _residual(spec, times, z, call.end_rows)
    rnorm = np.linalg.norm(res, ord=np.inf)
    lu = None  # `dgbtrs` arguments of the held factors; the only reference to them
    for _ in range(MAX_NEWTON_ITERS):
        if rnorm < NEWTON_TOL:
            return z, rnorm
        call.solves += 1
        if lu is None:
            call.factorizations += 1
            z, res, rnorm, lu = _factored_step(spec, times, z, res, rnorm, call.end_rows)
            continue
        delta, _ = dgbtrs(b=res, **lu)
        z_try = z - delta.reshape(len(times), spec.dim).T
        res_try = _residual(spec, times, z_try, call.end_rows)
        rnorm_try = np.linalg.norm(res_try, ord=np.inf)
        if not rnorm_try <= REUSE_CONTRACTION * rnorm:
            lu = None  # freed before the next band is built
        if rnorm_try < rnorm:  # NaN is not
            z, res, rnorm = z_try, res_try, rnorm_try
    if rnorm >= NEWTON_TOL:
        raise NewtonError(f"no convergence after {MAX_NEWTON_ITERS} iterations, residual {rnorm:.3e}")
    return z, rnorm


def _factored_step(spec, times, z, res, rnorm, end_rows):
    """A Newton step on the Jacobian at z, factored by `dgbsv`, with a line
    search from the full step. Returns (z, res, rnorm, factors); the factors
    are the `dgbtrs` arguments if the full step was taken, else None."""
    (l, u), ab = _banded_jacobian(spec, times, z, end_rows)
    lub, piv, delta, info = dgbsv(l, u, ab, res, overwrite_ab=True)
    if info:  # info > 0: a zero pivot
        raise NewtonError(f"Jacobian solve failed: LAPACK gbsv info {info}")
    if not np.all(np.isfinite(delta)):
        raise NewtonError("singular Jacobian (non-finite Newton step)")
    step = 1.0
    dz = delta.reshape(len(times), spec.dim).T
    while True:
        z_try = z - step * dz
        res_try = _residual(spec, times, z_try, end_rows)
        rnorm_try = np.linalg.norm(res_try, ord=np.inf)
        if rnorm_try < (1 - 0.1 * step) * rnorm or step < 1e-4:
            break
        step *= 0.5
    factors = dict(ab=lub, kl=l, ku=u, ipiv=piv) if step == 1.0 else None
    return z_try, res_try, rnorm_try, factors


def _linear_split(spec: SystemSpec) -> tuple | None:
    """The decaying solution of the linear part, dz/dt = -sigma z, that meets
    the initial values: (rates, modes, coupling), the eigenvalues of -sigma
    with negative real part, their eigenvectors scaled by the fit to the
    initial values, and the real matrix M with z[decay] = M z[initial] on
    every such solution. None where there is no such split: a count of
    decaying modes other than of initial values, or a singular fit."""
    initial, decay, values = spec.bc_split
    try:
        rates, modes = np.linalg.eig(-spec.sigma)
        decaying = rates.real < 0
        if np.count_nonzero(decaying) != len(initial):
            return None
        rates, modes = rates[decaying], modes[:, decaying]
        weights = np.linalg.solve(modes[initial], values)
        coupling = np.linalg.solve(modes[initial].T, modes[decay].T).T.real
    except np.linalg.LinAlgError:
        return None
    return rates, modes * weights, coupling


def _linear_start(spec: SystemSpec, times: np.ndarray, split: tuple | None) -> np.ndarray:
    """The decaying solution of the linear part on `times`, from its split
    (`_linear_split`); for a spec from `derive_tpbvp` it is the LQR
    trajectory, with costates P x. Where there is no split, or its values
    are not finite, an initial-value problem (no decay rows) is marched by
    forward Euler on `times`; otherwise, or if the march is not finite, the
    initial values relax linearly to zero and the other components are zero."""
    initial, decay, values = spec.bc_split
    if split is not None:
        rates, modes, _ = split
        z = (modes @ np.exp(np.outer(rates, times))).real
        if np.all(np.isfinite(z)):
            return z
    z = np.zeros((spec.dim, len(times)))
    if not len(decay):  # every component an initial value, in order
        z[:, 0] = values
        with np.errstate(over="ignore", invalid="ignore"):  # a march that blows up is dropped
            for k, h in enumerate(np.diff(times)):
                z[:, k + 1] = z[:, k] + h * spec.rhs(z[:, k])
        if np.all(np.isfinite(z)):
            return z
    z[initial] = np.outer(values, 1.0 - times / times[-1])
    return z


def _solve_direct(spec: SystemSpec, times: np.ndarray, call: _Call):
    """Newton on `times` from the decaying solution of the linear part
    (`_linear_start`); if it fails, the nonlinear terms are continued from
    zero to full strength in four steps, from the same start, each a Newton
    solve of a copy of the spec whose monomial coefficients are scaled.
    Returns the last solve's (z, residual)."""
    z = _linear_start(spec, times, call.split)
    try:
        return _newton(spec, times, z, call)
    except NewtonError:
        pass
    for scale in (0.25, 0.5, 0.75, 1.0):
        nonlinear = tuple(
            tuple(replace(t, coefficient=scale * t.coefficient) for t in eq)
            for eq in spec.nonlinear
        )
        z, rnorm = _newton(replace(spec, nonlinear=nonlinear), times, z, call)
    return z, rnorm


def solve_truncated(spec: SystemSpec, cfg: TruncationConfig) -> MeshTrajectory:
    """Solve the boundary value problem on [0, t_end], by nested iteration.

    The direct solve (`_solve_direct`: Newton from `_linear_start`, then its
    continuation if Newton fails) runs on the graded mesh of
    `max(mesh_points // 4, MIN_MESH_POINTS)` intervals; Newton on the full
    `graded_mesh(cfg)` then starts from the Hermite interpolant of that coarse
    solution, to the same tolerance (usually one step, and none when the two
    meshes are one). If either fails, the direct solve runs on the full mesh,
    so the result is always the full-mesh Newton solution; when the two
    meshes are one, a failed direct solve raises its NewtonError at once.
    The meshes need not be nested. `newton_iters` counts every band solve
    made on both meshes, the failed attempts' and every continuation stage's
    included, and `factorizations` those that factored.
    """
    times = graded_mesh(cfg)
    coarse_points = max(cfg.mesh_points // 4, MIN_MESH_POINTS)
    coarse_times = _graded(cfg.t_end, coarse_points)
    call = _Call(spec)
    try:
        coarse, _ = _solve_direct(spec, coarse_times, call)
        start = MeshTrajectory(coarse_times, coarse, spec.rhs(coarse)).at(times)
        z, rnorm = _newton(spec, times, start, call)
    except NewtonError:
        if coarse_points == cfg.mesh_points:  # the direct solve failed on the full mesh
            raise
        z, rnorm = _solve_direct(spec, times, call)
    return MeshTrajectory(times, z, spec.rhs(z), call.solves, rnorm, call.factorizations)


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
    if not times.size:
        raise ValueError("compare needs at least one time; the time list is empty")
    a = np.atleast_2d(traj_a.at(times))
    b = np.atleast_2d(traj_b.at(times))
    if a.shape != b.shape:
        raise ValueError(f"trajectory shapes differ: {a.shape} vs {b.shape}")
    dev = np.abs(a - b)
    idx = dev.argmax(axis=1)
    return ComparisonResult(dev.max(axis=1), times[idx])

