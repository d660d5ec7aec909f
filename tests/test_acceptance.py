"""End-to-end acceptance gate for the solver.

Each test fixes one externally meaningful claim about the package: published
benchmark values, analytic closed forms, exactness properties of the
discretization, and cross-validation between the two independent solvers.
"""

import math
import time

import numpy as np
import pytest

from lahoc import (
    BasisConfig,
    MonomialTerm,
    OCProblem,
    SolverConfig,
    SubsystemSpec,
    Termination,
    TruncationConfig,
    build_rule,
    builtin_problem_31,
    builtin_problem_32,
    cauchy_order_term,
    derive_tpbvp,
    hamiltonian,
    run_sham,
    solve_ocp,
    solve_truncated,
)
from lahoc.sham_engine import chain_table

from conftest import coupled_linear_spec, linear_decay_spec, series_of


# Published benchmark table for the coupled-scalar problem: (x1, x2, l1, l2)
# at six report times. The printed times are rounded to three decimals, so
# each row is matched over the +-5e-4 rounding radius of its printed time.
TABLE_TIMES = np.array([0.113, 0.494, 1.152, 2.107, 3.389, 5.047])
TABLE_VALUES = np.array([
    [0.013872, 0.689067, 0.388387, 0.557556],
    [0.031434, 0.412872, 0.195039, 0.236820],
    [0.021573, 0.164529, 0.070317, 0.075704],
    [0.006800, 0.042594, 0.017627, 0.018077],
    [0.001168, 0.006943, 0.002852, 0.002887],
    [0.000113, 0.000666, 0.000273, 0.000276],
])

# Published attitude-regulation values: rho components at t = 0.409.
ATTITUDE_TIME = 0.409
ATTITUDE_RHO = np.array([0.371513, 0.408328, 0.251619])


def aligned_row_deviation(result, printed_time, printed_row):
    """Smallest max-abs deviation from the printed row over the rounding
    radius of the printed time (three printed decimals -> +-5e-4)."""
    deltas = np.linspace(-5e-4, 5e-4, 201)
    return min(
        np.abs(result.at([printed_time + d])[:, 0] - printed_row).max()
        for d in deltas
    )


@pytest.fixture(scope="module")
def benchmark_run():
    """The published-table configuration: N=100, hbar=-0.6, run to the solver
    noise floor (the tail plateaus near 7e-11 there, well past the point where
    the trajectory has stopped changing)."""
    spec = derive_tpbvp(builtin_problem_31())
    config = SolverConfig(
        hbar=-0.6,
        basis=BasisConfig(beta=1.0, n_order=100),
        max_order=100,
        tail_tol=1e-12,
    )
    t0 = time.perf_counter()
    result = run_sham(spec, config)
    elapsed = time.perf_counter() - t0
    assert result.termination in (Termination.CONVERGED, Termination.MAX_ORDER)
    return result, elapsed


class TestCriterion1BenchmarkTable:
    def test_reproduces_published_values(self, benchmark_run):
        result, elapsed = benchmark_run
        worst = max(
            aligned_row_deviation(result, t, row)
            for t, row in zip(TABLE_TIMES, TABLE_VALUES)
        )
        assert worst < 5e-6
        assert elapsed < 30.0


class TestCriterion2OracleCrossCheck:
    def test_deviation_below_1e5_at_table_times(self, benchmark_run):
        result, _ = benchmark_run
        spec = derive_tpbvp(builtin_problem_31())
        oracle = solve_truncated(
            spec, TruncationConfig(t_end=40.0, mesh_points=2000)
        )
        dev = np.abs(result.at(TABLE_TIMES) - oracle.at(TABLE_TIMES)).max()
        assert dev < 1e-5


class TestCriterion3AttitudeRegulation:
    def test_published_row_and_oracle_trajectory(self):
        spec = derive_tpbvp(builtin_problem_32())
        config = SolverConfig(
            hbar=-1.0,
            basis=BasisConfig(beta=0.5, n_order=50),
            max_order=20,
            tail_tol=1e-12,
        )
        t0 = time.perf_counter()
        result = run_sham(spec, config)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0

        rho = result.at([ATTITUDE_TIME])[:3, 0]
        assert np.abs(rho - ATTITUDE_RHO).max() < 5e-3

        oracle = solve_truncated(
            spec, TruncationConfig(t_end=40.0, mesh_points=1200)
        )
        t = np.linspace(0.0, 20.0, 400)
        assert np.abs(result.at(t) - oracle.at(t)).max() < 5e-2


class TestCriterion4QuadratureExactness:
    @pytest.mark.parametrize("n", [4, 10, 30])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_random_polynomials_to_degree_2n(self, n, beta):
        rule = build_rule(BasisConfig(beta=beta, n_order=n))
        factorials = [math.factorial(k) for k in range(2 * n + 1)]
        rng = np.random.default_rng(abs(hash((n, beta))) % 2**31)
        for _ in range(50):
            coeffs = rng.uniform(-1.0, 1.0, size=2 * n + 1)
            samples = np.polynomial.polynomial.polyval(rule.nodes, coeffs)
            exact = sum(
                c * factorials[k] / beta ** (k + 1) for k, c in enumerate(coeffs)
            )
            got = float(rule.weights @ samples)
            assert abs(got - exact) <= 1e-10 * max(1.0, abs(exact))


class TestCriterion5DifferentiationMatrix:
    """Derivative exactness on monomials measured against the per-node
    round-off scale of the matrix-vector product (the absolute bounds are not
    representable in float64 once the nodes reach ~60)."""

    @pytest.mark.parametrize("n", [6, 12, 16, 20])
    def test_first_derivative_of_monomials(self, n):
        rule = build_rule(BasisConfig(beta=1.0, n_order=n))
        absd = np.abs(rule.diff)
        for k in range(1, min(n, 10) + 1):
            p = rule.nodes**k
            exact = k * rule.nodes ** (k - 1)
            scale = math.factorial(k) + absd @ p
            assert (np.abs(rule.diff @ p - exact) / scale).max() < 1e-7

    @pytest.mark.parametrize("n", [6, 12, 16, 20])
    def test_squared_matrix_acts_as_second_derivative(self, n):
        rule = build_rule(BasisConfig(beta=1.0, n_order=n))
        absd = np.abs(rule.diff)
        for k in range(2, min(n, 10) + 1):
            p = rule.nodes**k
            exact = k * (k - 1) * rule.nodes ** (k - 2)
            scale = math.factorial(k) + absd @ (absd @ p)
            assert (np.abs(rule.diff @ (rule.diff @ p) - exact) / scale).max() < 1e-6

    @pytest.mark.parametrize("n", [6, 12, 16, 20, 40, 100])
    def test_row_sums_vanish(self, n):
        rule = build_rule(BasisConfig(beta=1.0, n_order=n))
        row_scale = np.abs(rule.diff).max(axis=1)
        assert (np.abs(rule.diff.sum(axis=1)) / row_scale).max() < 1e-10


class TestCriterion6LinearFixedPoint:
    """A purely linear system is solved exactly at order zero; every
    subsequent correction must be round-off. Sampled on both solver branches
    (direct factorization at small N, spectral truncation at large N); the
    crossover band in between has a documented ~5e-12 float64 floor."""

    @pytest.mark.parametrize("n", [8, 12, 16, 20, 60, 80, 100, 120])
    @pytest.mark.parametrize("make_spec", [linear_decay_spec, coupled_linear_spec])
    def test_corrections_stay_at_roundoff(self, n, make_spec):
        config = SolverConfig(
            hbar=-1.0,
            basis=BasisConfig(beta=1.0, n_order=n),
            max_order=5,
            tail_tol=1e-300,
        )
        result = run_sham(make_spec(), config)
        assert result.termination is not Termination.DIVERGED
        assert all(norm <= 1e-12 for norm in result.tail_norms[1:])


class TestCriterion7ScalarLqr:
    """x' = x + u with unit weights: x = e^{-sqrt(2) t},
    lambda = (1 + sqrt(2)) x, J = (1 + sqrt(2)) / 2."""

    @staticmethod
    def make_problem():
        sub = SubsystemSpec(
            a_mat=[[1.0]], b_mat=[[1.0]], q_mat=[[1.0]], r_mat=[[1.0]],
            f_terms=((),), x0=[1.0],
        )
        return OCProblem(subsystems=(sub,))

    def test_homotopy_solver(self):
        config = SolverConfig(
            hbar=-1.0,
            basis=BasisConfig(beta=2.0, n_order=60),
            max_order=10,
            tail_tol=1e-13,
        )
        t = np.linspace(0.0, 8.0, 100)
        bundle = solve_ocp(self.make_problem(), config, report_times=t)
        exact = np.exp(-math.sqrt(2.0) * t)
        assert np.abs(bundle.states[0] - exact).max() < 1e-5
        assert np.abs(bundle.costates[0] - (1 + math.sqrt(2.0)) * exact).max() < 1e-5
        assert bundle.cost == pytest.approx((1 + math.sqrt(2.0)) / 2, abs=1e-5)

    def test_hamiltonian_vanishes_on_the_exact_trajectory(self):
        x = np.exp(-math.sqrt(2.0) * np.linspace(0.0, 8.0, 100))
        z = np.array([x, (1 + math.sqrt(2.0)) * x])
        assert np.abs(hamiltonian(derive_tpbvp(self.make_problem()), z)).max() < 1e-12

    def test_truncated_domain_oracle(self):
        spec = derive_tpbvp(self.make_problem())
        traj = solve_truncated(spec, TruncationConfig(t_end=30.0, mesh_points=2000))
        t = np.linspace(0.0, 8.0, 100)
        exact = np.exp(-math.sqrt(2.0) * t)
        got = traj.at(t)
        assert np.abs(got[0] - exact).max() < 1e-5
        assert np.abs(got[1] - (1 + math.sqrt(2.0)) * exact).max() < 1e-5


class TestCriterion8CostConvergence:
    def test_cost_error_decreases_and_settles(self):
        """|J_N - J_120| over N in {20, 30, ..., 110}: strictly decreasing
        until it first drops below 1e-6, bounded by 1e-6 from then on (the
        remaining wiggle is the ~1e-8 discretization noise floor). Run on a
        compressed grid where every small-N rule can represent the decay."""
        problem = builtin_problem_31()

        def cost_at(n):
            config = SolverConfig(
                hbar=-0.6,
                basis=BasisConfig(beta=6.0, n_order=n),
                max_order=150,
                tail_tol=1e-13,
            )
            return solve_ocp(problem, config, report_times=[1.0]).cost

        t0 = time.perf_counter()
        reference = cost_at(120)
        errors = [abs(cost_at(n) - reference) for n in range(20, 120, 10)]
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0

        assert all(np.isfinite(errors))
        settled = next(i for i, e in enumerate(errors) if e < 1e-6)
        for i in range(settled):
            assert errors[i + 1] < errors[i], f"not decreasing at step {i}: {errors}"
        assert all(e < 1e-6 for e in errors[settled:]), errors
        assert errors[-1] < 1e-6


class TestCriterion9CauchyProductOracle:
    def test_200_randomized_cases_match_brute_force(self):
        rng = np.random.default_rng(2024)
        for case in range(200):
            dim = int(rng.integers(1, 4))
            n_orders = int(rng.integers(1, 7))
            n_pts = int(rng.integers(2, 6))
            orders = [rng.normal(size=(dim, n_pts)) for _ in range(n_orders)]
            exps = tuple(int(e) for e in rng.integers(0, 4, size=dim))
            if sum(exps) < 1:
                exps = (1,) + exps[1:]
            term = MonomialTerm(float(rng.normal()), exps)
            order = int(rng.integers(1, n_orders + 1))
            series = series_of(orders, chain_table(dim, [term.factors]))

            got = cauchy_order_term(series, term, order)
            ref = brute_force_coefficient(series, term, order - 1)
            assert np.abs(got - ref).max() <= 1e-13 * (1.0 + np.abs(ref).max()), (
                f"case {case}"
            )


def brute_force_coefficient(series, term, power):
    """Coefficient of q^power via explicit polynomial multiplication."""
    n_pts = series.orders[0].shape[1]
    poly = [np.full(n_pts, term.coefficient)]
    for comp, exp in enumerate(term.exponents):
        comp_series = [z[comp] for z in series.orders]
        for _ in range(exp):
            new = [
                np.zeros(n_pts)
                for _ in range(len(poly) + len(comp_series) - 1)
            ]
            for i, a in enumerate(poly):
                for j, b in enumerate(comp_series):
                    new[i + j] = new[i + j] + a * b
            poly = new
    return poly[power] if power < len(poly) else np.zeros(n_pts)


class TestCriterion10TimingReport:
    def test_soft_wall_time_report(self, benchmark_run, capsys):
        """Informational only: wall times are hardware-bound and never gated.
        Prints solver-vs-oracle timing for the benchmark-table configuration."""
        _, solver_seconds = benchmark_run
        spec = derive_tpbvp(builtin_problem_31())
        t0 = time.perf_counter()
        solve_truncated(spec, TruncationConfig(t_end=40.0, mesh_points=2000))
        oracle_seconds = time.perf_counter() - t0
        with capsys.disabled():
            print(
                f"\n[timing report] benchmark table configuration: "
                f"spectral homotopy {solver_seconds:.3f} s, "
                f"truncated-domain oracle {oracle_seconds:.3f} s"
            )
        assert solver_seconds > 0 and oracle_seconds > 0
