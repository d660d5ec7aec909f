import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lahoc import (
    BasisConfig,
    build_rule,
    eval_laguerre,
    interpolate,
    quadrature_unweighted,
    quadrature_weighted,
)


class TestEvalLaguerre:
    def test_degree_zero_is_one(self):
        assert eval_laguerre(1.0, 0, 3.7) == 1.0

    def test_all_degrees_equal_one_at_origin(self):
        for degree in range(12):
            assert eval_laguerre(2.5, degree, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_matches_scipy_classical_family(self):
        from scipy.special import eval_laguerre as scipy_laguerre

        t = np.linspace(0.0, 12.0, 40)
        for degree in (1, 2, 5, 9, 15):
            ours = eval_laguerre(1.0, degree, t)
            ref = scipy_laguerre(degree, t)
            assert np.abs(ours - ref).max() < 1e-10 * np.abs(ref).max()

    def test_beta_scaling(self):
        # the scaled family is the classical one evaluated at beta * t
        t = np.linspace(0.0, 5.0, 17)
        assert np.allclose(
            eval_laguerre(2.0, 7, t), eval_laguerre(1.0, 7, 2.0 * t), rtol=1e-12
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            eval_laguerre(-1.0, 3, 1.0)
        with pytest.raises(ValueError):
            eval_laguerre(1.0, -1, 1.0)


class TestConfigValidation:
    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            BasisConfig(beta=0.0, n_order=10)
        with pytest.raises(ValueError):
            BasisConfig(beta=-1.0, n_order=10)

    def test_rejects_tiny_order(self):
        with pytest.raises(ValueError):
            BasisConfig(beta=1.0, n_order=0)


class TestNodesAndWeights:
    def test_radau_rule_pins_origin(self):
        rule = build_rule(BasisConfig(beta=1.0, n_order=20))
        assert rule.nodes[0] == 0.0

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n", [4, 11, 40])
    def test_nodes_increasing_nonnegative(self, beta, n):
        rule = build_rule(BasisConfig(beta=beta, n_order=n))
        assert rule.n_points == n + 1
        assert rule.nodes[0] >= 0.0
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
    def test_weights_integrate_the_weight_function(self, beta):
        # integral of e^{-beta t} over [0, inf) is 1/beta
        rule = build_rule(BasisConfig(beta=beta, n_order=25))
        total = quadrature_weighted(rule, np.ones(rule.n_points))
        assert total == pytest.approx(1.0 / beta, rel=1e-13)

    def test_beta_rescales_nodes(self):
        base = build_rule(BasisConfig(beta=1.0, n_order=18))
        fast = build_rule(BasisConfig(beta=4.0, n_order=18))
        assert np.allclose(fast.nodes, base.nodes / 4.0, rtol=1e-12)

    def test_orthogonality_under_discrete_inner_product(self):
        # quadrature of L_i L_j e^{-beta t}: diagonal 1/beta, off-diagonal 0
        beta, n = 1.5, 24
        rule = build_rule(BasisConfig(beta=beta, n_order=n))
        vander = np.array(
            [eval_laguerre(beta, d, rule.nodes) for d in range(n + 1)]
        )
        gram = (vander * rule.weights) @ vander.T
        dev = np.abs(gram - np.eye(n + 1) / beta).max()
        assert dev < 1e-12


class TestWeightedQuadrature:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_monomials_exact_to_degree_2n(self, beta):
        # integral of t^k e^{-beta t} = k! / beta^{k+1}
        n = 12
        rule = build_rule(BasisConfig(beta=beta, n_order=n))
        for k in range(2 * n + 1):
            got = quadrature_weighted(rule, rule.nodes**k)
            exact = math.factorial(k) / beta ** (k + 1)
            assert got == pytest.approx(exact, rel=1e-11), f"k={k}"

    def test_rejects_wrong_sample_count(self):
        rule = build_rule(BasisConfig(beta=1.0, n_order=10))
        with pytest.raises(ValueError):
            quadrature_weighted(rule, np.ones(4))

    @settings(max_examples=30, deadline=None)
    @given(
        coeffs=st.lists(
            st.floats(min_value=-10, max_value=10), min_size=1, max_size=16
        )
    )
    def test_random_polynomials_exact(self, coeffs):
        beta, n = 1.0, 10
        rule = build_rule(BasisConfig(beta=beta, n_order=n))
        coeffs = coeffs[: 2 * n + 1]
        samples = sum(c * rule.nodes**k for k, c in enumerate(coeffs))
        exact = sum(c * math.factorial(k) for k, c in enumerate(coeffs))
        got = quadrature_weighted(rule, np.asarray(samples, dtype=float))
        assert got == pytest.approx(exact, rel=1e-10, abs=1e-10)


class TestUnweightedQuadrature:
    def test_decaying_exponential(self):
        # integral of e^{-2t} over [0, inf) = 1/2
        rule = build_rule(BasisConfig(beta=2.0, n_order=30))
        got = quadrature_unweighted(rule, np.exp(-2.0 * rule.nodes))
        assert got == pytest.approx(0.5, rel=1e-10)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 6.0])
    def test_large_rules_are_accurate_and_do_not_warn(self, beta):
        # e^(beta t_N) = e^376.9 at N=100 whatever beta, and the integral of
        # e^{-beta t} still comes out at round-off
        rule = build_rule(BasisConfig(beta=beta, n_order=100))
        assert rule.config.beta * rule.nodes[-1] > math.log(1e15)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = quadrature_unweighted(rule, np.exp(-beta * rule.nodes))
        assert got == pytest.approx(1.0 / beta, rel=1e-12)

    def test_no_warning_for_small_grids(self):
        rule = build_rule(BasisConfig(beta=1.0, n_order=6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = quadrature_unweighted(rule, np.exp(-rule.nodes))
        assert got == pytest.approx(1.0, rel=1e-12)


class TestDifferentiationMatrix:
    @pytest.mark.parametrize("n, beta", [(1, 1.0), (4, 6.0), (31, 1.0), (100, 0.5)])
    def test_shared_recurrence_gives_the_bits_of_separate_evaluations(self, n, beta):
        # build_rule takes L_N and L_{N+1} from one recurrence pass
        config = BasisConfig(beta=beta, n_order=n)
        rule = build_rule(config)
        t = rule.nodes[1:]
        ln, ln1 = eval_laguerre(beta, n, t), eval_laguerre(beta, n + 1, t)
        assert np.array_equal(rule.weights[1:], 1.0 / (beta * (n + 1) * ln * ln1))

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_monomial_derivatives_small_n_absolute(self, n):
        rule = build_rule(BasisConfig(beta=1.0, n_order=n))
        for k in range(1, n + 1):
            err = np.abs(
                rule.diff @ rule.nodes**k - k * rule.nodes ** (k - 1)
            ).max()
            assert err < 1e-7 * math.factorial(k), f"k={k}"

    @pytest.mark.parametrize("n", [10, 16, 20])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_monomial_derivatives_condition_relative(self, n, beta):
        # errors measured against the per-node round-off scale of the matvec
        rule = build_rule(BasisConfig(beta=beta, n_order=n))
        absd = np.abs(rule.diff)
        for k in range(1, min(n, 10) + 1):
            p = rule.nodes**k
            exact = k * rule.nodes ** (k - 1)
            scale = math.factorial(k) + absd @ p
            rel = (np.abs(rule.diff @ p - exact) / scale).max()
            assert rel < 1e-7, f"k={k}"

    @pytest.mark.parametrize("n", [8, 14, 20])
    def test_second_derivative_via_squaring(self, n):
        rule = build_rule(BasisConfig(beta=1.0, n_order=n))
        absd = np.abs(rule.diff)
        for k in range(2, min(n, 10) + 1):
            p = rule.nodes**k
            exact = k * (k - 1) * rule.nodes ** (k - 2)
            scale = math.factorial(k) + absd @ (absd @ p)
            rel = (np.abs(rule.diff @ (rule.diff @ p) - exact) / scale).max()
            assert rel < 1e-6, f"k={k}"

    @pytest.mark.parametrize("n", [4, 20, 60, 120])
    def test_row_sums_vanish_relative_to_row_scale(self, n):
        # constants differentiate to zero: D @ 1 = 0, measured per row
        rule = build_rule(BasisConfig(beta=1.0, n_order=n))
        row_scale = np.abs(rule.diff).max(axis=1)
        assert (np.abs(rule.diff.sum(axis=1)) / row_scale).max() < 1e-10

    def test_row_sums_absolute_small_n(self):
        rule = build_rule(BasisConfig(beta=1.0, n_order=8))
        assert np.abs(rule.diff.sum(axis=1)).max() < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(
        coeffs=st.lists(
            st.floats(min_value=-5, max_value=5), min_size=2, max_size=12
        )
    )
    def test_random_polynomials_differentiate_exactly(self, coeffs):
        n = 14
        rule = build_rule(BasisConfig(beta=1.0, n_order=n))
        p = sum(c * rule.nodes**k for k, c in enumerate(coeffs))
        dp = sum(
            k * c * rule.nodes ** (k - 1) for k, c in enumerate(coeffs) if k >= 1
        )
        scale = 1.0 + np.abs(rule.diff) @ np.abs(np.asarray(p, dtype=float))
        rel = (np.abs(rule.diff @ p - dp) / scale).max()
        assert rel < 1e-9


class TestInterpolation:
    def test_reproduces_samples_at_nodes(self):
        rule = build_rule(BasisConfig(beta=1.0, n_order=15))
        samples = np.sin(rule.nodes) * np.exp(-rule.nodes)
        got = interpolate(rule, samples, rule.nodes)
        assert np.abs(got - samples).max() < 1e-12

    def test_polynomial_reproduction_off_nodes(self):
        rule = build_rule(BasisConfig(beta=1.0, n_order=12))
        t = np.linspace(0.0, 20.0, 57)
        p_nodes = rule.nodes**3 - 2.0 * rule.nodes + 1.0
        p_t = t**3 - 2.0 * t + 1.0
        got = interpolate(rule, p_nodes, t)
        assert np.abs(got - p_t).max() < 1e-9 * np.abs(p_t).max()

    def test_scalar_query_returns_float(self):
        rule = build_rule(BasisConfig(beta=1.0, n_order=8))
        out = interpolate(rule, np.ones(rule.n_points), 0.5)
        assert isinstance(out, float)
        assert out == pytest.approx(1.0, abs=1e-12)


def interpolate_per_query(rule, samples, t):
    """Reference: the Lagrange form, one query and one sample row at a time,
    each basis polynomial l_j(t) the product of the ratios
    (t - t_k) / (t_j - t_k). Returns the value and its rounding scale
    sum_j |l_j(t) f_j|, which bounds the error of a sum of the basis values
    (Higham, IMA J. Numer. Anal. 24, 2004)."""
    x = rule.nodes
    hit = np.nonzero(t == x)[0]
    if hit.size:
        return samples[hit[0]], 0.0
    spans = x[:, None] - x[None, :]
    np.fill_diagonal(spans, 1.0)
    ratios = (t - x)[None, :] / spans
    np.fill_diagonal(ratios, 1.0)
    basis = np.prod(ratios, axis=1)
    return basis @ samples, np.abs(basis * samples).sum()


def lagrange_exact(nodes, samples, t) -> float:
    """The interpolant at t in exact rational arithmetic on the float nodes,
    samples and query."""
    xs = [Fraction(float(v)) for v in nodes]
    t = Fraction(float(t))
    total = Fraction(0)
    for j, f in enumerate(samples):
        basis = Fraction(float(f))
        for k, x in enumerate(xs):
            if k != j:
                basis *= (t - x) / (xs[j] - x)
        total += basis
    return float(total)


class TestVectorisedInterpolation:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        n=st.integers(4, 60),
        beta=st.sampled_from([0.5, 1.0, 6.0]),
        rows=st.sampled_from([None, 1, 3]),
        n_on=st.integers(0, 5),
        n_off=st.integers(1, 12),
    )
    def test_matches_per_query_loop(self, seed, n, beta, rows, n_on, n_off):
        rule = build_rule(BasisConfig(beta=beta, n_order=n))
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=(n + 1,) if rows is None else (rows, n + 1))
        t = rng.permutation(np.concatenate([
            rng.choice(rule.nodes, size=n_on),
            rng.uniform(0.0, rule.nodes[-1], size=n_off),
        ]))
        got = interpolate(rule, samples, t)
        assert got.shape == samples.shape[:-1] + t.shape

        sample_rows = np.atleast_2d(samples)
        with np.errstate(divide="ignore", invalid="ignore"):
            ref = np.array([[interpolate_per_query(rule, f, tj) for tj in t] for f in sample_rows])
        values, scale = ref[..., 0], ref[..., 1]
        got = np.atleast_2d(got)
        finite = np.isfinite(values)
        assert np.array_equal(np.isfinite(got), finite)
        assert np.all(np.abs(got - values)[finite] <= 1e-13 * scale[finite])
        on_node = np.isin(t, rule.nodes)
        assert np.array_equal(got[:, on_node], values[:, on_node])  # node hits are exact

    @pytest.mark.parametrize("t", [0.0, 0.5, 7.25])
    def test_scalar_query_on_1d_samples_is_a_float(self, t):
        rule = build_rule(BasisConfig(beta=1.0, n_order=20))
        samples = np.cos(rule.nodes)
        got = interpolate(rule, samples, t)
        value, scale = interpolate_per_query(rule, samples, t)
        assert isinstance(got, float)
        assert abs(got - value) <= 1e-13 * scale

    @pytest.mark.parametrize("t", [5.0, 40.0, 76.353, 100.0])
    def test_far_grid_matches_exact_rational_evaluation(self, t):
        # the second barycentric form's denominator cancels out here: it gave
        # 4.19e10 at t = 76.353 (exact -4.49e8) and 4.7e8 at t = 100 (5.78e13)
        rule = build_rule(BasisConfig(beta=1.0, n_order=31))
        samples = np.exp(-0.7 * rule.nodes) * np.cos(rule.nodes)
        exact = lagrange_exact(rule.nodes, samples, t)
        assert abs(interpolate(rule, samples, t) - exact) <= 1e-8 * abs(exact)

    def test_rejects_samples_of_the_wrong_shape(self):
        rule = build_rule(BasisConfig(beta=1.0, n_order=8))
        for shape in [(8,), (2, 8), (2, 2, 9)]:
            with pytest.raises(ValueError):
                interpolate(rule, np.ones(shape), 0.5)
