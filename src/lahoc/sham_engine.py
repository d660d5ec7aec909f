"""Spectral homotopy iteration for first-order systems with polynomial nonlinearities.

Discretizes n-component systems of the form

    dz_r/dt + sum_k sigma_{r,k} z_k + g_r(z) = 0

on a Laguerre-Radau grid and solves them by the homotopy deformation
recurrence: the collocation operator is built and factorized once, one coupled
block at a time, the order-0 term solves the linear part, and each higher
order is one linear solve against a right-hand side built from truncated
Cauchy products of the previous orders, each extended by one coefficient per
order.

Both the series and the system's right-hand side read the monomials through
one chain table (`chain_table`), built once per system (`SystemSpec.chains`):
every factor sequence a monomial needs, and its prefixes, is one row, filled
depth by depth from its parent row and its last component. `SystemSpec.rhs`
fills the table's rows from z and contracts them with the (dim, rows)
coefficient matrix K, whose entry (r, row) sums the coefficients of equation
r's monomials with that factor sequence (a degree-1 monomial lands in its
component's column); the series' store rows are the same rows, per order.
"""

from __future__ import annotations

import enum
import itertools
import math
import os
from dataclasses import dataclass
from functools import cache, cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

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
from .openblas import dbdsdc, dgebrd, dgetrf, dgetrs, dormbr
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


def chain_table(
    dim: int, products: Sequence[tuple[int, ...]]
) -> tuple[dict[tuple[int, ...], int], list[tuple[slice, np.ndarray, np.ndarray]]]:
    """The chain table of `products` and their prefixes: factor sequence ->
    row (the components' rows 0..dim-1, then the chains one depth after
    another), and per depth its rows, its parent rows and its last
    components. The chain (c_1, ..., c_L) is its parent (c_1, ..., c_{L-1})
    times component c_L, node-wise; for L = 2 the parent is c_1's row."""
    chains = {f[:length]: None for f in products for length in range(2, len(f) + 1)}
    rows = {(c,): c for c in range(dim)}
    depths = []
    for _, group in itertools.groupby(sorted(chains, key=len), key=len):
        keys = list(group)
        start = len(rows)
        rows.update((key, start + i) for i, key in enumerate(keys))
        parents = np.array([rows[key[:-1]] for key in keys])
        last = np.array([key[-1] for key in keys])
        depths.append((slice(start, start + len(keys)), parents, last))
    return rows, depths


@dataclass(frozen=True)
class SystemSpec:
    """Linear coupling sigma, per-equation monomial lists, and one boundary
    tag per component, decoded once into `bc_split`."""

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
        if not len(self.bc_split[0]):
            raise ValueError("at least one component needs an InitialValue tag")

    @cached_property
    def bc_split(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(initial, decay, values): the ascending indices of the initial-value
        and of the decaying components, and the initial values, in the order
        of `initial`. The one place the tags are read."""
        is_initial = np.array([isinstance(tag, InitialValue) for tag in self.bc], dtype=bool)
        initial = np.flatnonzero(is_initial)
        values = np.array([self.bc[r].value for r in initial], dtype=float)
        return initial, np.flatnonzero(~is_initial), values

    @cached_property
    def chains(self) -> tuple[dict[tuple[int, ...], int], list[tuple]]:
        """The chain table (`chain_table`) of the monomials' factor sequences,
        built once; `rhs` and the homotopy series both read it."""
        return chain_table(self.dim, [t.factors for eq in self.nonlinear for t in eq])

    @cached_property
    def _coefficients(self) -> np.ndarray:
        """K, the (dim, rows) coefficient matrix over the rows of `chains`."""
        rows, _ = self.chains
        coefficients = np.zeros((self.dim, len(rows)))
        for r, terms in enumerate(self.nonlinear):
            for t in terms:
                coefficients[r, rows[t.factors]] += t.coefficient
        return coefficients

    def rhs(self, z: np.ndarray) -> np.ndarray:
        """dz/dt = -sigma z - g(z), column-wise; z has shape (n,) or (n, T).

        g(z) = K P, P holding z in its first n rows and below them every
        chain's product, one multiply per chain depth."""
        table, depths = self.chains
        products = np.empty((len(table), *z.shape[1:]))
        products[: self.dim] = z
        for rows, parents, last in depths:
            np.multiply(products[parents], z[last], out=products[rows])
        return -(self.sigma @ z) - self._coefficients @ products


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
    """Per-order grid matrices Z_m (n x N+1 each) and the truncated Cauchy
    products the nonlinear terms read, all in one preallocated
    (capacity, n + chains, N+1) store that only grows.

    Rows 0..n-1 of order k hold Z_k. Every further row is a chain: the
    node-wise product of the component series named by a factor sequence
    (c_1, ..., c_L), whose parent is the chain of (c_1, ..., c_{L-1}) (for
    L = 2, the component row of c_1). Coefficient k of a chain is
    P[k] = sum_{i<=k} P_parent[i] * Z_{c_L}[k-i], which reads orders 0..k only,
    so each order adds one coefficient per chain, parents before children.
    The rows are those of the chain table `chains` (`chain_table`, for a
    system `SystemSpec.chains`), fixed at construction; without one the store
    holds the component rows alone.

    The chain rows run one depth (chain length) after another. Each depth
    keeps one (capacity, 2 * chains at that depth, N+1) history: its parents'
    coefficients in the first half of each slice, its last factors' orders
    in the second. Each order appends one slice, gathered from the store by
    one take, and one einsum over the two halves then fills that coefficient
    of the whole depth."""

    def __init__(
        self,
        orders: Sequence[np.ndarray],
        max_order: int | None = None,
        chains: tuple[dict[tuple[int, ...], int], list[tuple]] | None = None,
    ):
        if len(orders) == 0:
            raise ValueError("a homotopy series needs its order-0 term")
        capacity = len(orders) if max_order is None else max(len(orders), max_order + 1)
        n, n_points = np.shape(orders[0])
        self._dim = n
        self._rows, depths = chains or ({(c,): c for c in range(n)}, [])
        self._depths = []  # (store rows, chains, gathered store rows, history)
        for rows, parents, last in depths:
            # parent rows, then last components: one gather fills both halves
            gathered = np.concatenate([parents, last])
            history = np.empty((capacity, len(gathered), n_points))
            self._depths.append((rows, len(parents), gathered, history))
        self._store = np.empty((capacity, len(self._rows), n_points))
        self._store[: len(orders), :n] = orders
        for k in range(len(orders)):
            self._fill_order(k)
        self._count = len(orders)

    @property
    def orders(self) -> np.ndarray:
        """The stored orders, a (count, n, N+1) view."""
        return self._store[: self._count, : self._dim]

    def append(self, z: np.ndarray) -> None:
        """Store the next order and fill that coefficient of every chain."""
        if self._count == len(self._store):
            raise ValueError(f"series is full at {self._count} orders")
        self._store[self._count, : self._dim] = z
        self._fill_order(self._count)
        self._count += 1

    def _fill_order(self, k: int) -> None:
        s = self._store[k]
        for rows, width, gathered, history in self._depths:
            # mode="clip" gathers straight into the history (every row is in range)
            s.take(gathered, axis=0, out=history[k], mode="clip")
            np.einsum("icj,icj->cj", history[: k + 1, :width], history[k::-1, width:], out=s[rows])

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
                block_rhs = rhs[rows]  # a gathered copy, divided in place
                block_rhs /= scale
                out[rows] = dgetrs(*lu, block_rhs)
        else:
            for rows, scale, v_scaled, u_t in self.pinv:
                block_rhs = rhs[rows]
                block_rhs /= scale
                out[rows] = v_scaled @ (u_t @ block_rhs)
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
    relative to the largest singular value of all blocks. A block's SVD
    (`_block_svd`) forms only the singular vectors above the block's own
    cutoff, relative to its own largest singular value; the global cutoff
    keeps all of them or a leading part."""
    initial, decay, values = spec.bc_split
    brows = np.arange(spec.dim) * rule.n_points
    brows[decay] += rule.n_points - 1
    bvals = np.zeros(spec.dim)
    bvals[initial] = values
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
        lu = [(rows, scale, dgetrf(block)) for rows, scale, block in blocks]
        return BlockOperator(brows, bvals, lu=lu)
    pinv = []
    for (rows, scale, _), (u, block_s, vt) in zip(blocks, svds):
        k = np.count_nonzero(block_s > PINV_RCOND * s_max)
        # V_k S_k^-1 Fortran-ordered and U_k^T C-ordered, the layouts the
        # solves' matrix-vector products have always read
        pinv.append((rows, scale, np.divide(vt[:k].T, block_s[:k], order="F"), u[:, :k].T))
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
    diagonal = np.arange(npts)
    blocks = []
    for group in component_groups(spec.sigma):
        rows = (diagonal + np.array(group)[:, None] * npts).ravel()
        size = len(group)
        block = np.kron(np.eye(size), rule.diff)
        # sigma_group (x) I onto the sub-block diagonals alone: an infinite
        # sigma entry meets no zero of I
        block.reshape(size, npts, size, npts)[:, diagonal, :, diagonal] += spec.sigma[group][:, group]
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


def _block_svd(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U_k, s, V_k^T) of the square `block`: all its singular values s,
    descending, and the k leading left and right singular vectors, k
    counting the values above PINV_RCOND times s[0]. These are `dgesdd`'s
    steps, bidiagonal reduction, then the divide-and-conquer SVD of the
    bidiagonal, then the reflectors applied to its singular vectors, so s
    has the bits of `np.linalg.svd`; only the back-transformations run on
    the k kept vectors alone. (`dgesdd` first scales a matrix whose largest
    entry lies outside about [1e-138, 1e138]; an equilibrated block's is 1.)
    U_k is Fortran-ordered n x k, V_k^T Fortran-ordered k x n."""
    reflectors, d, e, tauq, taup = dgebrd(block)
    s, u, vt = dbdsdc(d, e)
    k = np.count_nonzero(s > PINV_RCOND * s[0])
    return dormbr("Q", reflectors, tauq, u[:, :k]), s, dormbr("P", reflectors, taup, vt[:k])


def _block_svds(blocks: list[np.ndarray]) -> list[tuple]:
    """`_block_svd` of each block matrix, in block order.

    With at least two blocks, at least two usable CPUs and NumPy's OpenBLAS
    on one thread, the blocks are factored at the same time: min(blocks,
    usable CPUs) - 1 of them go to this process's worker pool (`_workers`),
    the calling thread takes the others, and it then also takes, last first,
    every handed block no worker has started. Otherwise they run one after
    another; on more OpenBLAS threads, those would compete with the workers
    for the cores. A worker runs only `_block_svd` and the `openblas`
    bindings it calls (ctypes releases the GIL for each LAPACK call), so no
    other lahoc function runs off the calling thread. An error raised
    in a worker is raised here; if one of the calling thread's blocks raises,
    that error is raised and the workers' results are dropped."""
    svd = _block_svd
    cpus = _usable_cpus() if len(blocks) > 1 else 1
    if cpus < 2 or openblas.numpy_threads() != 1:
        return [svd(block) for block in blocks]
    pool = _workers(os.getpid())
    futures = {i: pool.submit(svd, blocks[i]) for i in range(1, min(len(blocks), cpus))}
    svds = {i: svd(block) for i, block in enumerate(blocks) if i not in futures}
    for i in reversed(futures):
        if futures[i].cancel():
            svds[i] = svd(blocks[i])
    return [svds[i] if i in svds else futures[i].result() for i in range(len(blocks))]


@cache
def _workers(pid: int) -> ThreadPoolExecutor:
    """The worker pool of process `pid`, made at first use with usable CPUs - 1
    threads (at least one) and kept for the life of the process. A pool
    inherited across fork has no threads, so each process id has its own.
    Two threads making the first call together may each make a pool; the
    one the cache does not keep is collected after that call, and its
    threads then exit. `concurrent.futures` is imported here, so that
    `import lahoc` loads no thread pool."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max(_usable_cpus() - 1, 1), thread_name_prefix="lahoc-block")


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    # one flat right-hand side, summed row by row through a (dim, N+1) view
    q = np.zeros(spec.dim * rule.n_points)
    for row, terms in zip(q.reshape(spec.dim, rule.n_points), spec.nonlinear):
        for term in terms:
            row += cauchy_order_term(series, term, order)
    if not np.isfinite(q).all():
        raise DivergenceError(order, float(np.nanmax(np.abs(q))))

    q[operator.boundary_rows] = 0.0
    step = operator.solve(q).reshape(spec.dim, rule.n_points)
    step *= config.hbar
    if order > 1:
        # step + (1 + hbar) z_{m-1} has the bits of (1 + hbar) z_{m-1} + step
        step += (1.0 + config.hbar) * series.orders[order - 1]
    return step


def tail_norm(rule: BasisRule, z: np.ndarray) -> float:
    """Discrete weighted norm of one order term over all components."""
    # np.sum's two reductions, without its dispatch
    return math.sqrt(float(np.add.reduce(rule.weights * np.add.reduce(z * z, axis=0))))


@dataclass
class ShamResult:
    """A run's kept orders: all of them, or for a Diverged run orders 0..best,
    the best order being the one of least tail norm. `series` holds every
    order computed, so for a Diverged run also the orders past the best."""

    series: HomotopySeries
    rule: BasisRule
    operator: BlockOperator
    partial_sums: np.ndarray  # sums of orders 0..m at nodes, shape (kept, n, N+1)
    tail_norms: list[float]  # weighted norm of each kept order
    termination: Termination

    @property
    def solution(self) -> np.ndarray:
        """The last partial sum at nodes, shape (n, N+1)."""
        return self.partial_sums[-1]

    def at(self, times) -> np.ndarray:
        """Interpolate the converged partial sums at times in the grid [0, t_N]."""
        return interpolate(self.rule, self.solution, np.atleast_1d(times))


def run_sham(spec: SystemSpec, config: SolverConfig) -> ShamResult:
    """Build the rule and operator, take the linear initial guess, and iterate
    deformation orders until the weighted tail norm drops below tail_tol."""
    rule = build_rule(config.basis)
    operator = assemble_operator(spec, rule)
    z0 = initial_guess(spec, rule, operator)
    series = HomotopySeries([z0], config.max_order, spec.chains)
    tail_norms = [tail_norm(rule, z0)]

    termination = Termination.MAX_ORDER
    best_order = 0
    best_tail = tail_norms[0]
    # an order that overflows ends the run Diverged, by the finiteness tests
    # on its right-hand side and its tail norm, not with a warning
    with np.errstate(over="ignore"):
        for m in range(1, config.max_order + 1):
            try:
                zm = deformation_step(spec, rule, operator, series, config, m)
            except DivergenceError:
                termination = Termination.DIVERGED
                break
            norm = tail_norm(rule, zm)
            series.append(zm)
            tail_norms.append(norm)
            if not math.isfinite(norm) or (best_tail > 0 and norm > 1e6 * best_tail):
                termination = Termination.DIVERGED
                break
            if norm < best_tail:
                best_tail = norm
                best_order = m
            if norm < config.tail_tol:
                termination = Termination.CONVERGED
                break

    # a Diverged run keeps the best partial sum reached before the blow-up,
    # so callers can still inspect the (possibly useful) low-order result
    kept = best_order + 1 if termination is Termination.DIVERGED else len(tail_norms)
    partial_sums = np.cumsum(series.orders[:kept], axis=0)
    return ShamResult(series, rule, operator, partial_sums, tail_norms[:kept], termination)
