"""Modified Laguerre bases on [0, inf).

Provides the Gauss-Laguerre-Radau (GLR) quadrature rule, its pseudo-spectral
differentiation matrix, and barycentric interpolation on the resulting grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .openblas import dsterf


class BasisConstructionError(RuntimeError):
    pass


# From N = 185 on, the largest node x_N = beta t_N (710.67 at N = 185, a
# root of L_N^(1), so the same for every beta) passes ln(DBL_MAX) = 709.78,
# and e^(beta t_N), which quadrature_unweighted divides out of the weights,
# overflows whatever beta; build_rule rejects such a degree before its
# O(N^2) work.
MAX_N_ORDER = 184


class QuadratureOverflowWarning(RuntimeWarning):
    """No longer raised. Its test, beta * t_N > ln 1e15, held for every rule
    with N >= 11 whatever beta (beta * t_N is the largest root of L_N^(1)),
    so it flagged reliable runs too. The class is kept because the benchmark
    harness (perfbench/run.py) filters it by name."""


@dataclass(frozen=True)
class BasisConfig:
    """Scaling parameter beta (units 1/time) and highest degree N."""

    beta: float
    n_order: int

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if self.n_order < 1:
            raise ValueError(f"n_order must be >= 1, got {self.n_order}")


def _genlaguerre_pair(degree: int, alpha: float, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L_{degree-1}^(alpha)(x) and L_degree^(alpha)(x), degree >= 1, from one
    pass of the three-term recurrence."""
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    p = 1.0 + alpha - x
    for k in range(1, degree):
        p, p_prev = ((2 * k + alpha + 1 - x) * p - (k + alpha) * p_prev) / (k + 1), p
    return p_prev, p


def _golub_welsch_nodes(degree: int, alpha: float) -> np.ndarray:
    """Roots of L_degree^(alpha): the eigenvalues of the symmetric Jacobi
    matrix, without its eigenvectors."""
    k = np.arange(degree)
    diag = 2 * k + alpha + 1
    off = np.sqrt((k[:-1] + 1) * (k[:-1] + 1 + alpha))
    return dsterf(diag, off)


def _barycentric_weights(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Barycentric weights w_j = 1 / prod_{k != j} (t_j - t_k) as signed
    mantissa and binary exponent, w_j = m_j 2^{e_j}: the products of
    np.frexp mantissas cannot overflow for Laguerre nodes spread over
    [0, ~4N/beta], and the exponents add exactly."""
    diffs = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diffs, 1.0)
    mant, expo = np.frexp(diffs)
    return 1.0 / np.prod(mant, axis=1), -np.sum(expo, axis=1)


@dataclass(frozen=True, eq=False)
class BasisRule:
    """One discretization: nodes, Christoffel weights, and differentiation matrix.

    Immutable after construction; safe to share across concurrent solver runs.
    """

    config: BasisConfig
    nodes: np.ndarray
    weights: np.ndarray
    diff: np.ndarray
    bary_mant: np.ndarray = field(repr=False)
    bary_exp: np.ndarray = field(repr=False)

    @property
    def n_points(self) -> int:
        return len(self.nodes)


def build_rule(config: BasisConfig) -> BasisRule:
    """Construct the GLR rule for the given configuration.

    Node 0 is pinned at t=0, interior nodes are the zeros of the derivative
    of the degree-(N+1) polynomial (equivalently the order-1 generalized
    Laguerre roots of degree N), located by a symmetric tridiagonal
    eigensolve and polished by one Newton step.
    """
    beta, n = config.beta, config.n_order
    if n > MAX_N_ORDER:
        raise BasisConstructionError(f"invalid weights for N={n}, beta={beta}")
    # past the degree double precision can hold, the recurrences overflow;
    # the node and weight checks below turn that into BasisConstructionError
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            x = _golub_welsch_nodes(n, alpha=1.0)
            # one Newton step on f(x) = L_n^(1)(x), with
            # x f'(x) = n L_n^(1)(x) - (n + 1) L_{n-1}^(1)(x) from the same pass
            f_prev, fx = _genlaguerre_pair(n, 1.0, x)
            dfx = (n * fx - (n + 1) * f_prev) / x
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.where(dfx != 0, fx / dfx, 0.0)
            x = x - step
            nodes = np.concatenate(([0.0], x / beta))
            # L_N and L_{N+1} at every node, shared by the weights and diff
            ln, ln1 = _genlaguerre_pair(n + 1, 0.0, beta * nodes)
            weights = np.empty(n + 1)
            weights[0] = 1.0 / (beta * (n + 1))
            weights[1:] = 1.0 / (beta * (n + 1) * ln[1:] * ln1[1:])
            # inside the errstate: nodes t = x / beta overflow at a tiny beta,
            # and np.diff turns infinite nodes into NaN, which no <= test sees
            finite = np.isfinite(nodes).all()
            repeated = np.any(np.diff(nodes) <= 0)
    except np.linalg.LinAlgError as exc:
        raise BasisConstructionError(
            f"eigen-solve failed for N={n}, beta={beta}: {exc}"
        ) from exc

    if not finite:
        raise BasisConstructionError(f"non-finite nodes for N={n}, beta={beta}")
    if repeated:
        raise BasisConstructionError(f"non-distinct nodes for N={n}, beta={beta}")
    if np.any(weights <= 0) or not np.all(np.isfinite(weights)):
        raise BasisConstructionError(f"invalid weights for N={n}, beta={beta}")

    diff = _diff_matrix(nodes, ln1, config)
    mant, expo = _barycentric_weights(nodes)
    return BasisRule(config, nodes, weights, diff, mant, expo)


def _diff_matrix(nodes: np.ndarray, ln1: np.ndarray, config: BasisConfig) -> np.ndarray:
    """The GLR differentiation matrix, mapping grid values of a degree-N
    polynomial to grid values of its derivative, from the closed-form entries
    in the degree-(N+1) values at the nodes."""
    beta, n = config.beta, config.n_order
    dt = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(dt, 1.0)
    d = (ln1[:, None] / ln1[None, :]) / dt
    np.fill_diagonal(d, beta / 2.0)
    d[0, 0] = -beta * n / 2.0
    return d


def quadrature_unweighted(rule: BasisRule, samples: np.ndarray) -> float | np.ndarray:
    """Approximate the plain integral of a decaying function from its node samples.

    Divides out the Laguerre weight: sum of samples * omega_j * e^{beta t_j}.
    Samples of shape (..., N+1) give one integral per leading index, each
    with the same bits as alone; 1-D samples give a float.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape[-1:] != rule.nodes.shape:
        raise ValueError(f"expected samples of shape (..., {rule.n_points}), got {samples.shape}")
    beta = rule.config.beta
    total = np.sum(samples * (rule.weights * np.exp(beta * rule.nodes)), axis=-1)
    return float(total) if samples.ndim == 1 else total


def interpolate(rule: BasisRule, samples: np.ndarray, t_query) -> float | np.ndarray:
    """Lagrange evaluation of the degree-N interpolant at t_query.

    `samples` holds node values, shape (N+1,) or (rows, N+1); the result has
    one column per query after the sample rows, and a scalar query on 1-D
    samples returns a float. One (queries x nodes) basis matrix serves every
    row. It is the first (modified) barycentric form,
    l_j(t) = l(t) w_j / (t - t_j) with l(t) = prod_k (t - t_k), which has no
    denominator to cancel in the far part of the grid (Higham, IMA J. Numer.
    Anal. 24, 2004). l(t) is taken in log scale, base 2: the product of the
    np.frexp mantissas of t - t_k, and the exact sum of their exponents.
    Queries coinciding with a node return the node sample exactly. Queries
    outside the grid [0, t_N] are rejected: past t_N the interpolant is an
    extrapolation, which grows like t^N.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim not in (1, 2) or samples.shape[-1] != rule.n_points:
        raise ValueError(
            f"expected samples of shape ({rule.n_points},) or (rows, {rule.n_points}), "
            f"got {samples.shape}"
        )
    tq = np.atleast_1d(np.asarray(t_query, dtype=float))
    if not np.all((tq >= 0.0) & (tq <= rule.nodes[-1])):  # NaN fails too
        raise ValueError(f"query times must lie in [0, t_N] = [0, {rule.nodes[-1]:g}]")
    dt = tq[:, None] - rule.nodes[None, :]
    mant, expo = np.frexp(dt)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.ldexp(
            np.prod(mant, axis=1)[:, None] * rule.bary_mant / dt,
            np.sum(expo, axis=1)[:, None] + rule.bary_exp,
        )
    hit = dt == 0
    on_node = hit.any(axis=1)
    terms[on_node] = hit[on_node]
    out = samples @ terms.T
    return float(out[0]) if np.isscalar(t_query) and samples.ndim == 1 else out
