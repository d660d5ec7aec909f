"""Spectral homotopy iteration for first-order systems with polynomial nonlinearities.

Discretizes n-component systems of the form

    dz_r/dt + sum_k sigma_{r,k} z_k + g_r(z) = 0

on a Laguerre-Radau grid and solves them by the homotopy deformation
recurrence: the collocation operator is built and factorized once, one coupled
block at a time, the order-0 term solves the linear part, and each higher
order is one linear solve against a right-hand side built from truncated
Cauchy products of the previous orders, each extended by one coefficient per
order.
"""

from __future__ import annotations

import enum
import itertools
import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.linalg import lu_factor, lu_solve

# Relative singular-value cutoff for the operator pseudo-inverse.  Singular
# values below this fraction of the largest one correspond to directions the
# collocation matrix cannot resolve in double precision; including them only
# injects noise at the large nodes.
PINV_RCOND = 1e-8

# Condition-number threshold (after row equilibration) deciding between a
# plain LU solve and the truncated pseudo-inverse.  Below it the matrix is
# numerically nonsingular and LU is both backward stable and self-consistent
# (repeated solves against residuals of earlier solves stay at round-off);
# above it the near-null directions must be cut or they flood the large
# nodes with noise that the nonlinear terms then amplify.
COND_SWITCH = 1e15

from . import openblas
from .laguerre_basis import BasisConfig, BasisRule, build_rule, interpolate


class DivergenceError(RuntimeError):
    def __init__(self, order: int, magnitude: float):
        super().__init__(
            f"homotopy series diverged at order {order} (max magnitude {magnitude:.3e})"
        )
        self.order = order
        self.magnitude = magnitude


class OperatorSingularError(RuntimeError):
    pass


@dataclass(frozen=True)
class MonomialTerm:
    """coefficient * prod_c z_c^exponents[c]; degree-0 terms are rejected."""

    coefficient: float
    exponents: tuple[int, ...]

    def __post_init__(self):
        if not math.isfinite(self.coefficient):
            raise ValueError(f"monomial coefficient must be finite, got {self.coefficient}")
        object.__setattr__(self, "exponents", tuple(int(e) for e in self.exponents))
        if any(e < 0 for e in self.exponents):
            raise ValueError(f"negative exponent in {self.exponents}")
        if sum(self.exponents) < 1:
            raise ValueError("monomial total degree must be >= 1")

    @cached_property
    def factors(self) -> tuple[int, ...]:
        """Component index of every factor, each repeated by its exponent."""
        return tuple(c for c, e in enumerate(self.exponents) for _ in range(e))


@dataclass(frozen=True)
class InitialValue:
    value: float


@dataclass(frozen=True)
class DecayAtInfinity:
    pass


BoundaryTag = InitialValue | DecayAtInfinity


@dataclass(frozen=True)
class SystemSpec:
    """Linear coupling sigma, per-equation monomial lists, and one boundary
    tag per component."""

    dim: int
    sigma: np.ndarray
    nonlinear: tuple[tuple[MonomialTerm, ...], ...]
    bc: tuple[BoundaryTag, ...]

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "nonlinear", tuple(tuple(eq) for eq in self.nonlinear))
        object.__setattr__(self, "bc", tuple(self.bc))
        if sigma.shape != (self.dim, self.dim):
            raise ValueError(f"sigma must be {self.dim}x{self.dim}, got {sigma.shape}")
        if len(self.nonlinear) != self.dim or len(self.bc) != self.dim:
            raise ValueError("nonlinear and bc must have one entry per component")
        for eq in self.nonlinear:
            for term in eq:
                if len(term.exponents) != self.dim:
                    raise ValueError(
                        f"monomial exponents length {len(term.exponents)} != dim {self.dim}"
                    )
        if not any(isinstance(tag, InitialValue) for tag in self.bc):
            raise ValueError("at least one component needs an InitialValue tag")


@dataclass(frozen=True)
class SolverConfig:
    hbar: float
    basis: BasisConfig
    max_order: int = 20
    tail_tol: float = 1e-12

    def __post_init__(self):
        if not math.isfinite(self.hbar):
            raise ValueError(f"hbar must be finite, got {self.hbar}")
        if self.hbar == 0:
            raise ValueError("hbar = 0 freezes the homotopy")
        if not (math.isfinite(self.tail_tol) and self.tail_tol > 0):
            raise ValueError(f"tail_tol must be positive and finite, got {self.tail_tol}")
        if self.max_order < 1:
            raise ValueError("max_order must be >= 1")


class HomotopySeries:
    """Per-order grid matrices Z_m (n x N+1 each), their weighted tail norms,
    and the truncated Cauchy products the nonlinear terms read, all in one
    preallocated (capacity, n + chains, N+1) store.

    Rows 0..n-1 of order k hold Z_k. Every further row is a chain: the
    node-wise product of the component series named by a factor sequence
    (c_1, ..., c_L), whose parent is the chain of (c_1, ..., c_{L-1}) (for
    L = 2, the component row of c_1). Coefficient k of a chain is
    P[k] = sum_{i<=k} P_parent[i] * Z_{c_L}[k-i], which reads orders 0..k only,
    so each order adds one coefficient per chain, parents before children.
    The chains of `products` and their prefixes are registered at
    construction, and the table holds no other.

    The chain rows run one depth (chain length) after another. Each depth
    keeps two (capacity, chains at that depth, N+1) histories: its parents'
    coefficients and its last factors' orders. Each order appends one
    gathered slice to each, and one einsum over the two then fills that
    coefficient of the whole depth."""

    def __init__(
        self,
        orders: Sequence[np.ndarray],
        tail_norms: Sequence[float] = (),
        max_order: int | None = None,
        products: Sequence[tuple[int, ...]] = (),
    ):
        if len(orders) == 0:
            raise ValueError("a homotopy series needs its order-0 term")
        capacity = len(orders) if max_order is None else max(len(orders), max_order + 1)
        n, n_points = np.shape(orders[0])
        self._dim = n
        chains = {f[:length]: None for f in products for length in range(2, len(f) + 1)}
        # factor sequence -> store row: the components, then the chains by depth
        self._rows = {(c,): c for c in range(n)}
        self._depths = []  # (store rows, parent rows, last components, histories)
        for _, group in itertools.groupby(sorted(chains, key=len), key=len):
            keys = list(group)
            start = len(self._rows)
            self._rows.update((key, start + i) for i, key in enumerate(keys))
            parents = np.array([self._rows[key[:-1]] for key in keys])
            lasts = np.array([key[-1] for key in keys])
            shape = (capacity, len(keys), n_points)
            rows = slice(start, start + len(keys))
            self._depths.append((rows, parents, lasts, np.empty(shape), np.empty(shape)))
        self._store = np.empty((capacity, len(self._rows), n_points))
        self._store[: len(orders), :n] = orders
        for k in range(len(orders)):
            self._fill_order(k)
        self._count = len(orders)
        self.tail_norms = list(tail_norms)

    @property
    def orders(self) -> np.ndarray:
        """The stored orders, a (count, n, N+1) view."""
        return self._store[: self._count, : self._dim]

    def append(self, z: np.ndarray, norm: float) -> None:
        """Store the next order and fill that coefficient of every chain."""
        if self._count == len(self._store):
            raise ValueError(f"series is full at {self._count} orders")
        self._store[self._count, : self._dim] = z
        self._fill_order(self._count)
        self._count += 1
        self.tail_norms.append(norm)

    def truncate(self, last_order: int) -> None:
        """Keep orders 0..last_order; the orders appended after it refill
        the chain coefficients they replace."""
        if not 0 <= last_order < self._count:
            raise ValueError(f"order {last_order} out of range for {self._count} stored orders")
        self._count = last_order + 1
        del self.tail_norms[self._count :]

    def partial_sum(self, up_to: int | None = None) -> np.ndarray:
        take = self.orders if up_to is None else self.orders[: up_to + 1]
        return np.sum(take, axis=0)

    def _fill_order(self, k: int) -> None:
        s = self._store[k]
        for rows, parents, lasts, parent_history, last_history in self._depths:
            # mode="clip" gathers straight into the history (every row is in range)
            np.take(s, parents, axis=0, out=parent_history[k], mode="clip")
            np.take(s, lasts, axis=0, out=last_history[k], mode="clip")
            np.einsum("icj,icj->cj", parent_history[: k + 1], last_history[k::-1], out=s[rows])

    def product_coefficient(self, factors: tuple[int, ...], k: int) -> np.ndarray:
        """Coefficient k of the node-wise product of the component series
        named by `factors`, a (N+1,) view of the store."""
        if not 0 <= k < self._count:
            raise ValueError(f"coefficient {k} out of range for {self._count} stored orders")
        row = self._rows.get(factors)
        if row is None:
            raise ValueError(f"chain {factors} was not registered at construction")
        return self._store[k, row]


class Termination(enum.Enum):
    CONVERGED = "Converged"
    MAX_ORDER = "MaxOrder"
    DIVERGED = "Diverged"


@dataclass
class BlockOperator:
    """Block collocation operator with boundary rows replaced, factored once
    per coupled block and reused for every deformation order.

    The differentiation-matrix entries grow like the Laguerre-polynomial
    extrema (roughly e^{beta t / 2} at the largest nodes), so the assembled
    operator is extremely ill conditioned in the absolute sense even though
    the discrete solution itself is tame.  A plain LU solve contaminates the
    large-node values with enormous components along near-null directions,
    which then explode under the nonlinear convolution terms.  Row
    equilibration followed by a truncated-SVD pseudo-inverse keeps the
    solution in the numerically determined subspace and restores the tiny
    tail values of the true collocation solution.  When the equilibrated
    operator is numerically nonsingular (condition below COND_SWITCH) a plain
    LU factorization is used instead: it is backward stable and, unlike the
    truncated pseudo-inverse, keeps repeated solves against residuals of its
    own solutions at round-off level.

    The operator is block diagonal over the groups of components that sigma
    couples (see component_groups), and each block is its own unit: one
    entry per block, holding the global rows it owns and its row scales, then
    either its LU factors (`lu`) or its (V_k S_k^-1, U_k^T) pair (`pinv`).
    The condition number and the truncation are still those of the whole
    equilibrated operator, whose SVD is the union of the blocks' SVDs."""

    boundary_rows: np.ndarray
    boundary_values: np.ndarray
    lu: list[tuple] | None = None  # (rows, scale, LU factors) per block
    pinv: list[tuple] | None = None  # (rows, scale, V_k S_k^-1, U_k^T) per block

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        out = np.empty_like(rhs, dtype=float)
        if self.lu is not None:
            for rows, scale, lu in self.lu:
                out[rows] = lu_solve(lu, rhs[rows] / scale)
        else:
            for rows, scale, v_scaled, u_t in self.pinv:
                out[rows] = v_scaled @ (u_t @ (rhs[rows] / scale))
        return out


def assemble_operator(spec: SystemSpec, rule: BasisRule) -> BlockOperator:
    """Build and factor the operator with blocks D + sigma_pp I on the
    diagonal and sigma_pq I off it, one row per component overwritten with
    the boundary condition: the t_0 row for initial values, the t_N row for
    decay at infinity.

    Each coupled block is built, equilibrated and factored alone
    (`_equilibrated_blocks`). With more than one block, more than one usable
    CPU and NumPy's OpenBLAS on one thread, the calling thread and a
    process-wide pool of worker threads take the blocks' SVDs at the same
    time (`_block_svds`); otherwise they run one after another. The condition
    number, the LU / pseudo-inverse choice and the factors are formed on the
    calling thread once every block's spectrum is known, since the cutoff is
    relative to the largest singular value of all blocks."""
    npts = rule.n_points
    brows = np.array([r * npts + (0 if isinstance(tag, InitialValue) else npts - 1)
                      for r, tag in enumerate(spec.bc)])
    bvals = np.array([tag.value if isinstance(tag, InitialValue) else 0.0 for tag in spec.bc],
                     dtype=float)
    blocks = _equilibrated_blocks(spec, rule, brows)
    try:
        svds = _block_svds([block for _, _, block in blocks])
    except np.linalg.LinAlgError as exc:
        raise OperatorSingularError(str(exc)) from exc
    s_max = max(block_s.max() for _, block_s, _ in svds)
    s_min = min(block_s.min() for _, block_s, _ in svds)
    if s_min <= 0.0 or not all(np.isfinite(block_s).all() for _, block_s, _ in svds):
        raise OperatorSingularError(
            f"singular operator for n={spec.dim}, grid={rule.n_points}"
        )
    if s_max / s_min <= COND_SWITCH:
        lu = [(rows, scale, lu_factor(block)) for rows, scale, block in blocks]
        return BlockOperator(brows, bvals, lu=lu)
    pinv = []
    for (rows, scale, _), (u, block_s, vt) in zip(blocks, svds):
        keep = block_s > PINV_RCOND * s_max
        pinv.append((rows, scale, vt[keep].T / block_s[keep], u[:, keep].T))
    return BlockOperator(brows, bvals, pinv=pinv)


def _equilibrated_blocks(
    spec: SystemSpec, rule: BasisRule, boundary_rows: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(global rows, row scales, equilibrated block) of each component group.

    sigma couples only the components of one group and a boundary row keeps
    only its diagonal entry, so the operator is block diagonal over the
    groups: a group's block is I (x) D + sigma_group (x) I, with its
    boundary rows replaced by unit rows, then divided row by row by each
    row's largest magnitude."""
    npts = rule.n_points
    blocks = []
    for group in component_groups(spec.sigma):
        rows = (np.arange(npts) + np.array(group)[:, None] * npts).ravel()
        block = np.kron(np.eye(len(group)), rule.diff)
        block += np.kron(spec.sigma[group][:, group], np.eye(npts))
        local = np.flatnonzero(np.isin(rows, boundary_rows))
        block[local] = 0.0
        block[local, local] = 1.0
        scale = np.abs(block).max(axis=1)
        if scale.min() == 0.0 or not np.all(np.isfinite(scale)):
            raise OperatorSingularError(
                f"operator has a zero or non-finite row for n={spec.dim}, "
                f"grid={rule.n_points}"
            )
        block /= scale[:, None]
        blocks.append((rows, scale, block))
    return blocks


def _block_svds(blocks: list[np.ndarray]) -> list[tuple]:
    """The SVD of each block matrix, in block order.

    With an overlap pool (`_overlap_pool`) the blocks are factored at the
    same time: the calling thread takes the first block, the pool the others,
    and the calling thread then also takes, last first, every block no worker
    has started. A worker runs only np.linalg.svd (LAPACK releases the GIL),
    so no lahoc function runs off the calling thread. An error raised in a
    worker is raised here; if the calling thread's own block raises, that
    error is raised and the workers' results are dropped."""
    svd = np.linalg.svd
    pool = _overlap_pool(len(blocks))
    if pool is None:
        return [svd(block) for block in blocks]
    futures = {i: pool.submit(svd, blocks[i]) for i in range(1, len(blocks))}
    svds = {0: svd(blocks[0])}
    for i in reversed(futures):
        if futures[i].cancel():
            svds[i] = svd(blocks[i])
    return [svds[i] if i in svds else futures[i].result() for i in range(len(blocks))]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_pool = None  # ((process id, threads), ThreadPoolExecutor) of this process


def _overlap_pool(blocks: int):
    """The worker pool that factors coupled blocks beside the calling thread,
    or None, for one block after another, when there is one block, one usable
    CPU, or NumPy's OpenBLAS does not report exactly one thread: the workers'
    SVDs would then compete with OpenBLAS's own threads for the cores.

    The pool is process-wide, created on first use with usable CPUs - 1
    threads, and a call hands it blocks - 1 factorizations, so min(blocks,
    usable CPUs) - 1 workers take part. A pool inherited across fork has no
    threads, so each process id makes its own. A pool of another size is
    replaced, not shut down: a thread still submitting to it is unaffected,
    and its workers exit once it is garbage-collected."""
    global _pool
    if blocks < 2:
        return None
    cpus = _usable_cpus()
    if cpus < 2 or openblas.numpy_threads() != 1:
        return None
    key = (os.getpid(), cpus - 1)
    if _pool is None or _pool[0] != key:
        from concurrent.futures import ThreadPoolExecutor

        _pool = (key, ThreadPoolExecutor(cpus - 1, thread_name_prefix="lahoc-block"))
    return _pool[1]


def component_groups(sigma: np.ndarray) -> list[list[int]]:
    """Connected parts of sigma's coupling graph: p and q are linked when
    sigma[p, q] or sigma[q, p] is nonzero. Each part is sorted, and the parts
    are ordered by their first component."""
    linked = (sigma != 0) | (sigma != 0).T
    groups: list[list[int]] = []
    seen: set[int] = set()
    for first in range(len(sigma)):
        if first in seen:
            continue
        group, frontier = [first], [first]
        seen.add(first)
        while frontier:
            for q in np.flatnonzero(linked[frontier.pop()]).tolist():
                if q not in seen:
                    seen.add(q)
                    group.append(q)
                    frontier.append(q)
        groups.append(sorted(group))
    return groups


def initial_guess(spec: SystemSpec, rule: BasisRule, operator: BlockOperator) -> np.ndarray:
    """Order-0 term: solve the linear part against the boundary values alone."""
    rhs = np.zeros(spec.dim * rule.n_points)
    rhs[operator.boundary_rows] = operator.boundary_values
    return operator.solve(rhs).reshape(spec.dim, rule.n_points)


def cauchy_order_term(series: HomotopySeries, term: MonomialTerm, order: int) -> np.ndarray:
    """Coefficient of q^(order-1) in the monomial applied to the series,
    node-wise, read from the series' chain table."""
    return term.coefficient * series.product_coefficient(term.factors, order - 1)


def deformation_step(
    spec: SystemSpec,
    rule: BasisRule,
    operator: BlockOperator,
    series: HomotopySeries,
    config: SolverConfig,
    order: int,
) -> np.ndarray:
    """One order of the deformation recurrence.

    With the linear operator L taken as the whole linear part and homogeneous
    boundary rows, L[z_m - chi_m z_{m-1}] = hbar (L[z_{m-1}] + Q_{m-1})
    reduces to z_m = chi_m (1 + hbar) z_{m-1} + hbar A^{-1} Q_{m-1}, A being L
    with the boundary rows replaced. At m = 1 the carried L[z_0] vanishes on
    the interior rows because z_0 solved the linear part exactly on this
    grid; for m >= 2, z_{m-1} vanishes at the boundary nodes, so A z_{m-1} is
    L z_{m-1} on the interior rows and zero on the boundary rows, and A^{-1}
    maps it back to z_{m-1}.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    q = np.zeros((spec.dim, rule.n_points))
    for r, terms in enumerate(spec.nonlinear):
        for term in terms:
            q[r] += cauchy_order_term(series, term, order)
    if not np.all(np.isfinite(q)):
        raise DivergenceError(order, float(np.nanmax(np.abs(q))))

    q = q.ravel()
    q[operator.boundary_rows] = 0.0
    step = config.hbar * operator.solve(q).reshape(spec.dim, rule.n_points)
    if order == 1:
        return step
    return (1.0 + config.hbar) * series.orders[order - 1] + step


def tail_norm(rule: BasisRule, z: np.ndarray) -> float:
    """Discrete weighted norm of one order term over all components."""
    return math.sqrt(float(np.sum(rule.weights * np.sum(z * z, axis=0))))


@dataclass
class ShamResult:
    series: HomotopySeries
    rule: BasisRule
    operator: BlockOperator
    solution: np.ndarray  # partial sum at nodes, shape (n, N+1)
    termination: Termination

    @property
    def tail_norms(self) -> list[float]:
        return self.series.tail_norms

    def at(self, times) -> np.ndarray:
        """Interpolate the converged partial sums at arbitrary times."""
        return interpolate(self.rule, self.solution, np.atleast_1d(times))


def run_sham(spec: SystemSpec, config: SolverConfig) -> ShamResult:
    """Build the rule and operator, take the linear initial guess, and iterate
    deformation orders until the weighted tail norm drops below tail_tol."""
    rule = build_rule(config.basis)
    operator = assemble_operator(spec, rule)
    z0 = initial_guess(spec, rule, operator)
    products = [term.factors for terms in spec.nonlinear for term in terms]
    series = HomotopySeries(
        [z0], [tail_norm(rule, z0)], max_order=config.max_order, products=products
    )

    termination = Termination.MAX_ORDER
    best_order = 0
    best_tail = series.tail_norms[0]
    for m in range(1, config.max_order + 1):
        try:
            zm = deformation_step(spec, rule, operator, series, config, m)
        except DivergenceError:
            termination = Termination.DIVERGED
            break
        norm = tail_norm(rule, zm)
        series.append(zm, norm)
        if not math.isfinite(norm) or (best_tail > 0 and norm > 1e6 * best_tail):
            termination = Termination.DIVERGED
            break
        if norm < best_tail:
            best_tail = norm
            best_order = m
        if norm < config.tail_tol:
            termination = Termination.CONVERGED
            break

    if termination is Termination.DIVERGED:
        # keep the best partial sum reached before the blow-up so callers can
        # still inspect the (possibly useful) low-order result
        series.truncate(best_order)

    return ShamResult(series, rule, operator, series.partial_sum(), termination)


def gamma_diagnostic(
    spec: SystemSpec, config: SolverConfig, lipschitz_estimate: float
) -> float:
    """Contraction-ratio diagnostic (N|1 + hbar| + a1 + |hbar| L) / (beta/2 + a0),
    with the auxiliary function H = 1 and the bounds a0, a1 taken from the
    diagonal of sigma.

    Purely informational: the solver never gates on it. Returns NaN when
    beta/2 + a0 <= 0 (the ratio is undefined there).
    """
    diag = np.diag(spec.sigma)
    a0 = float(np.min(diag))
    a1 = float(np.max(np.abs(diag)))
    beta = config.basis.beta
    n = config.basis.n_order
    denom = beta / 2.0 + a0
    if denom <= 0:
        return math.nan
    num = n * abs(1.0 + config.hbar) + a1 + abs(config.hbar) * lipschitz_estimate
    return num / denom
