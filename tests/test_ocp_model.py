import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lahoc import (
    BUILTIN_PROBLEMS,
    BUILTIN_REPORT_TIMES,
    BasisConfig,
    MonomialTerm,
    OCProblem,
    SolverConfig,
    SubsystemSpec,
    Termination,
    build_rule,
    builtin_problem_31,
    builtin_problem_32,
    derive_tpbvp,
    evaluate_cost,
    hamiltonian,
    load_problem,
    optimal_control,
    parse_problem,
    quadrature_unweighted,
    solve_ocp,
)
from lahoc import ocp_model, sham_engine
from lahoc.ocp_model import ProblemFormatError


def eval_system_rhs(spec, z):
    """The stored convention is z' + sigma z + nonlinear = 0, so the
    right-hand side is -(sigma z + nonlinear)."""
    out = spec.sigma @ z
    for r, eq in enumerate(spec.nonlinear):
        for term in eq:
            out[r] += term.coefficient * np.prod(z ** np.array(term.exponents))
    return -out


class TestDeriveTpbvpCoupledScalar:
    """The two-subsystem cubic/quadratic benchmark: check the derived
    state/costate dynamics against the hand-written optimality system."""

    def test_dimensions(self):
        spec = derive_tpbvp(builtin_problem_31())
        assert spec.dim == 4

    def test_dynamics_match_hand_derivation(self):
        spec = derive_tpbvp(builtin_problem_31())
        rng = np.random.default_rng(11)
        for _ in range(20):
            z = rng.normal(size=4)
            x1, x2, l1, l2 = z
            hand = np.array([
                x1 - x1**3 + x2**2 - l1,
                -x2 + x1 * x2 + x2**3 - l2,
                -x1 - l1 + 3 * x1**2 * l1 - x2 * l2,
                -x2 - 2 * x2 * l1 + l2 - (x1 + 3 * x2**2) * l2,
            ])
            assert np.abs(eval_system_rhs(spec, z) - hand).max() < 1e-12


class TestDeriveTpbvpAttitude:
    """Rigid-body attitude benchmark: the 12-dim optimality system derived by
    the generic path must match a finite-difference adjoint construction."""

    def test_dimensions_and_initial_state(self):
        problem = builtin_problem_32()
        assert problem.n_states == 6
        assert problem.n_inputs == 3
        assert np.allclose(
            problem.stacked_x0(), [0.3735, 0.4115, 0.2521, 0.0, 0.0, 0.0]
        )

    def test_dynamics_match_adjoint_construction(self):
        spec = derive_tpbvp(builtin_problem_32())
        assert spec.dim == 12
        j1, j2, j3 = 10.0, 6.3, 8.5

        def drift(x):
            rho, omega = x[0:3], x[3:6]
            drho = 0.5 * (omega + rho * (rho @ omega))
            domega = np.array([
                (j2 - j3) / j1 * omega[1] * omega[2],
                (j3 - j1) / j2 * omega[0] * omega[2],
                (j1 - j2) / j3 * omega[0] * omega[1],
            ])
            return np.concatenate([drho, domega])

        rng = np.random.default_rng(4)
        for _ in range(5):
            z = 0.3 * rng.normal(size=12)
            x, lam = z[:6], z[6:]
            eps = 1e-6
            jac = np.zeros((6, 6))
            for i in range(6):
                e = np.zeros(6)
                e[i] = eps
                jac[:, i] = (drift(x + e) - drift(x - e)) / (2 * eps)
            dx = drift(x) - np.array(
                [0, 0, 0, 1 / j1**2, 1 / j2**2, 1 / j3**2]
            ) * lam
            dlam = -x - jac.T @ lam
            hand = np.concatenate([dx, dlam])
            assert np.abs(eval_system_rhs(spec, z) - hand).max() < 1e-9


class TestOptimalControl:
    def test_identity_weights_negate_costates(self):
        problem = builtin_problem_31()
        lam = np.array([[0.3], [-0.7]])
        u = optimal_control(problem, lam)
        assert np.allclose(u, -lam)

    def test_attitude_control_gains(self):
        # u = -R^{-1} B^T lambda with B rows 1/J_i: gains 1/10, 10/63, 2/17
        problem = builtin_problem_32()
        lam = np.zeros((6, 1))
        lam[3:, 0] = [1.0, 1.0, 1.0]
        u = optimal_control(problem, lam)
        assert np.allclose(u[:, 0], [-1.0 / 10.0, -10.0 / 63.0, -2.0 / 17.0])


class TestScalarLqr:
    """x' = a x + u with unit weights: Riccati gives p = a + mu with
    mu = sqrt(a^2 + 1), and J = p x0^2 / 2, with x(t) = x0 e^{-mu t}."""

    def make_problem(self, a, x0=1.0):
        sub = SubsystemSpec(
            a_mat=[[a]], b_mat=[[1.0]], q_mat=[[1.0]], r_mat=[[1.0]],
            f_terms=((),), x0=[x0],
        )
        return OCProblem(subsystems=(sub,))

    # a = +1 ends Converged on every grid here, but its cost reads 4.04 at
    # N=50, beta=0.5 and 2.2e19 at N=20, beta=1 (ROADMAP item 2)
    @pytest.mark.parametrize("a, n, beta", [
        (-1.0, 40, 2.0),
        (1.0, 100, 1.0),  # the CLI's default grid
        pytest.param(1.0, 50, 0.5, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 2")),
        pytest.param(1.0, 20, 1.0, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 2")),
    ])
    def test_cost_and_trajectory(self, a, n, beta):
        mu = math.sqrt(a * a + 1.0)
        p = a + mu
        cfg = SolverConfig(
            hbar=-1.0, basis=BasisConfig(beta=beta, n_order=n),
            max_order=10, tail_tol=1e-13,
        )
        bundle = solve_ocp(self.make_problem(a), cfg, report_times=np.linspace(0, 5, 40))
        assert bundle.termination is Termination.CONVERGED
        assert bundle.cost == pytest.approx(0.5 * p, rel=1e-9)
        exact = np.exp(-mu * bundle.times)
        assert np.abs(bundle.states[0] - exact).max() < 1e-9
        assert np.abs(bundle.costates[0] - p * exact).max() < 1e-9
        assert np.abs(bundle.controls[0] + p * exact).max() < 1e-9


class TestPaperRunsOnTodaysOperator:
    """Runs today's operator gets wrong (ROADMAP item 2): tp31 reports 4.3408
    at its paper configuration and tp32 1.0162478, and tp31 at N=20, beta=6
    ends Diverged at order 14. Item 2's D-hat operator gave 0.2109402066,
    0.9988147902 and convergence at order 67."""

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
    @pytest.mark.parametrize("make, n, beta, hbar, max_order, reference", [
        (builtin_problem_31, 100, 1.0, -0.6, 100, 0.2109381732),
        (builtin_problem_32, 50, 0.5, -1.0, 20, 0.998814768467),
    ], ids=["tp31", "tp32"])
    def test_cost_at_the_paper_configuration(self, make, n, beta, hbar, max_order, reference):
        cfg = SolverConfig(hbar=hbar, basis=BasisConfig(beta=beta, n_order=n), max_order=max_order)
        bundle = solve_ocp(make(), cfg, report_times=[])
        assert abs(bundle.cost - reference) <= 1e-5

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
    def test_tp31_converges_at_n20_beta6(self):
        cfg = SolverConfig(
            hbar=-0.6, basis=BasisConfig(beta=6.0, n_order=20), max_order=150, tail_tol=1e-13
        )
        bundle = solve_ocp(builtin_problem_31(), cfg, report_times=[])
        assert bundle.termination is Termination.CONVERGED


class TestHamiltonian:
    @pytest.mark.parametrize("name", ["tp31", "tp32"])
    def test_equals_the_state_control_form(self, name):
        # 1/2 (x^T Q x + u^T R u) + lambda^T (A x + B u + f(x)), u = -R^-1 B^T lambda
        problem = BUILTIN_PROBLEMS[name]()
        n = problem.n_states
        z = np.random.default_rng(5).normal(size=(2 * n, 30))
        x, lam = z[:n], z[n:]
        u = optimal_control(problem, lam)
        expected = np.zeros(z.shape[1])
        r = c = 0
        for sub in problem.subsystems:
            xi, li = x[r : r + sub.n_states], lam[r : r + sub.n_states]
            ui = u[c : c + sub.n_inputs]
            f = np.array([
                sum((t.coefficient * np.prod(x ** np.array(t.exponents)[:, None], axis=0)
                     for t in row), np.zeros(z.shape[1]))
                for row in sub.f_terms
            ])
            expected += 0.5 * np.einsum("it,ij,jt->t", xi, sub.q_mat, xi)
            expected += 0.5 * np.einsum("it,ij,jt->t", ui, sub.r_mat, ui)
            expected += np.einsum("it,it->t", li, sub.a_mat @ xi + sub.b_mat @ ui + f)
            r += sub.n_states
            c += sub.n_inputs
        got = hamiltonian(derive_tpbvp(problem), z)
        assert np.abs(got - expected).max() < 1e-12 * np.abs(expected).max()

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.floats(-5.0, 5.0),
        b=st.floats(0.1, 5.0) | st.floats(-5.0, -0.1),
        q=st.floats(0.01, 10.0),
        r=st.floats(0.01, 10.0),
        x0=st.floats(-2.0, 2.0),
    )
    # mu = 89.5: at t = 4.14, x = 1.6e-161 and |H| = 5e-324, one subnormal step
    @example(a=2.5, b=4.0, q=5.0, r=0.01, x0=1.0)
    # a + mu = 3.3e-6: computed as r (a + mu) / b^2, p is 3e-10 off
    @example(a=-4.570581184930598, b=0.1, q=0.01, r=3.28125, x0=1.0)
    def test_vanishes_on_the_scalar_lqr_optimum(self, a, b, q, r, x0):
        # x' = a x + b u: x = x0 e^{-mu t}, mu = sqrt(a^2 + b^2 q / r), lambda = p x
        mu = math.sqrt(a * a + b * b * q / r)
        # the Riccati root r (a + mu) / b^2 = q / (mu - a), in the form that
        # does not cancel: a + mu loses digits when a < 0 and b^2 q / r << a^2
        p = r * (a + mu) / (b * b) if a > 0 else q / (mu - a)
        sub = SubsystemSpec(a_mat=[[a]], b_mat=[[b]], q_mat=[[q]], r_mat=[[r]],
                            f_terms=((),), x0=[x0])
        x = x0 * np.exp(-mu * np.linspace(0.0, min(5.0, 300.0 / mu), 30))
        h = hamiltonian(derive_tpbvp(OCProblem(subsystems=(sub,))), np.array([x, p * x]))
        # the three terms of H: 1/2 q x^2, 1/2 (b^2 / r) lambda^2 and lambda x'
        scale = (0.5 * q + 0.5 * b * b / r * p * p + abs(p) * mu) * x * x
        # where x^2 is subnormal the terms round to multiples of 5e-324, coarser
        # than the relative bound, so only times with a normal x^2 are checked
        normal = x * x >= np.finfo(float).tiny
        assert np.all(np.abs(h[normal]) <= 1e-10 * scale[normal])

    def test_max_over_the_nodes_flags_the_diverged_row(self):
        def row(n):
            cfg = SolverConfig(hbar=-0.6, basis=BasisConfig(beta=6.0, n_order=n),
                               max_order=150, tail_tol=1e-13)
            return solve_ocp(builtin_problem_31(), cfg, report_times=())

        diverged, converged = row(20), row(40)
        assert diverged.termination is Termination.DIVERGED
        assert diverged.max_hamiltonian > 1.0
        assert converged.termination is Termination.CONVERGED
        assert converged.max_hamiltonian < 1e-3


class TestSolutionBundle:
    def test_at_matches_report_samples(self):
        cfg = SolverConfig(
            hbar=-0.6, basis=BasisConfig(beta=6.0, n_order=30),
            max_order=60, tail_tol=1e-11,
        )
        times = [0.1, 0.8, 2.0]
        bundle = solve_ocp(builtin_problem_31(), cfg, report_times=times)
        stacked = bundle.at(times)
        assert np.allclose(stacked[:2], bundle.states, atol=1e-13)
        assert np.allclose(stacked[2:], bundle.costates, atol=1e-13)

    def test_at_rejects_times_past_the_grid(self):
        # t_N = 34.19 at N=20, beta=2: the interpolant is not read past it
        cfg = SolverConfig(hbar=-0.6, basis=BasisConfig(beta=2.0, n_order=20), max_order=5)
        bundle = solve_ocp(builtin_problem_31(), cfg, report_times=[])
        assert bundle.at(bundle.rule.nodes[-1]).shape == (4, 1)
        for times in ([0.5, 40.0], [-1e-9], [math.nan]):
            with pytest.raises(ValueError, match=r"query times must lie in \[0, t_N\]"):
                bundle.at(times)
        with pytest.raises(ValueError, match=r"query times must lie in \[0, t_N\]"):
            solve_ocp(builtin_problem_31(), cfg, report_times=[0.5, 40.0])

    def test_per_order_costs_track_series_length(self):
        cfg = SolverConfig(
            hbar=-0.6, basis=BasisConfig(beta=6.0, n_order=20),
            max_order=15, tail_tol=1e-300,
        )
        bundle = solve_ocp(builtin_problem_31(), cfg, report_times=[1.0])
        assert len(bundle.per_order_costs) == len(bundle.tail_norms) == 16


class TestValidation:
    def test_rejects_indefinite_control_weight(self):
        with pytest.raises(ValueError):
            SubsystemSpec(
                a_mat=[[1.0]], b_mat=[[1.0]], q_mat=[[1.0]], r_mat=[[-1.0]],
                f_terms=((),), x0=[0.0],
            )

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            SubsystemSpec(
                a_mat=[[1.0, 0.0]], b_mat=[[1.0]], q_mat=[[1.0]], r_mat=[[1.0]],
                f_terms=((),), x0=[0.0],
            )

    @pytest.mark.parametrize("name", ["a_mat", "b_mat", "q_mat", "r_mat", "x0"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_data(self, name, bad):
        data = dict(a_mat=[[1.0]], b_mat=[[1.0]], q_mat=[[1.0]], r_mat=[[1.0]], x0=[0.5])
        data[name] = np.full(np.shape(data[name]), bad)
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            SubsystemSpec(f_terms=((),), **data)

    def test_rejects_a_problem_without_subsystems(self):
        with pytest.raises(ValueError, match="^a problem needs at least one subsystem$"):
            OCProblem(subsystems=())

    @pytest.mark.parametrize("n_states, n_inputs, missing", [(0, 1, "state"), (1, 0, "input")])
    def test_rejects_a_subsystem_without_states_or_inputs(self, n_states, n_inputs, missing):
        with pytest.raises(ValueError, match=f"^a subsystem needs at least one {missing}$"):
            SubsystemSpec(
                a_mat=np.zeros((n_states, n_states)), b_mat=np.zeros((n_states, n_inputs)),
                q_mat=np.zeros((n_states, n_states)), r_mat=np.eye(n_inputs),
                f_terms=((),) * n_states, x0=np.zeros(n_states),
            )

    def test_builtin_registry(self):
        assert set(BUILTIN_PROBLEMS) == {"tp31", "tp32"}
        assert set(BUILTIN_REPORT_TIMES) == {"tp31", "tp32"}
        for key, factory in BUILTIN_PROBLEMS.items():
            assert isinstance(factory(), OCProblem)
            assert len(BUILTIN_REPORT_TIMES[key]) == 6


COUPLED_SCALAR_TEXT = """lahoc-problem v1
subsystem
dim 1
inputs 1
A 1
B 1
Q 1
R 1
x0 0
f 0 -1 : 3 0
f 0 1 : 0 2
subsystem
dim 1
inputs 1
A -1
B 1
Q 1
R 1
x0 0.8
f 0 1 : 1 1
f 0 1 : 0 3
"""


class TestParseProblem:
    def test_round_trip_matches_builtin(self):
        parsed = derive_tpbvp(parse_problem(COUPLED_SCALAR_TEXT))
        builtin = derive_tpbvp(builtin_problem_31())
        assert parsed.dim == builtin.dim
        assert np.allclose(parsed.sigma, builtin.sigma)
        rng = np.random.default_rng(2)
        for _ in range(10):
            z = rng.normal(size=4)
            assert np.abs(
                eval_system_rhs(parsed, z) - eval_system_rhs(builtin, z)
            ).max() < 1e-12

    def test_load_problem_from_file(self, tmp_path):
        path = tmp_path / "problem.txt"
        path.write_text(COUPLED_SCALAR_TEXT)
        problem = load_problem(path)
        assert problem.n_states == 2

    def test_missing_header_reports_line_one(self):
        with pytest.raises(ProblemFormatError) as err:
            parse_problem("subsystem\ndim 1\n")
        assert err.value.line == 1

    def test_bad_integer_reports_line(self):
        text = "lahoc-problem v1\nsubsystem\ndim oops\n"
        with pytest.raises(ProblemFormatError) as err:
            parse_problem(text)
        assert err.value.line == 3
        assert "dim" in str(err.value)

    def test_field_before_subsystem_rejected(self):
        with pytest.raises(ProblemFormatError):
            parse_problem("lahoc-problem v1\ndim 1\n")

    def test_wrong_matrix_entry_count_reports_line(self):
        text = (
            "lahoc-problem v1\nsubsystem\ndim 2\ninputs 1\n"
            "A 1 0 0\nB 1 0\nQ 1 0 0 1\nR 1\nx0 0 0\n"
        )
        with pytest.raises(ProblemFormatError) as err:
            parse_problem(text)
        assert err.value.line == 5

    def test_f_row_out_of_range_rejected(self):
        text = COUPLED_SCALAR_TEXT + "f 1 1 : 1 0\n"
        with pytest.raises(ProblemFormatError):
            parse_problem(text)

    def test_comments_and_blank_lines_ignored(self):
        text = COUPLED_SCALAR_TEXT.replace(
            "subsystem\n", "\n# a comment\nsubsystem\n", 1
        )
        assert parse_problem(text).n_states == 2

    def test_missing_field_rejected(self):
        text = "lahoc-problem v1\nsubsystem\ndim 1\nA 1\nB 1\nQ 1\nR 1\n"
        with pytest.raises(ProblemFormatError) as err:
            parse_problem(text)
        assert "x0" in str(err.value)

    def test_no_subsystems_rejected(self):
        with pytest.raises(ProblemFormatError):
            parse_problem("lahoc-problem v1\n")


def general_weights_problem() -> OCProblem:
    """Two linear subsystems with dense, non-diagonal B, Q and R."""
    rng = np.random.default_rng(12)
    subs = []
    for ni, mi in ((3, 2), (2, 3)):
        r = rng.normal(size=(mi, mi))
        q = rng.normal(size=(ni, ni))
        subs.append(SubsystemSpec(
            a_mat=rng.normal(size=(ni, ni)), b_mat=rng.normal(size=(ni, mi)),
            q_mat=q @ q.T, r_mat=r @ r.T + mi * np.eye(mi),
            f_terms=((),) * ni, x0=np.zeros(ni),
        ))
    return OCProblem(tuple(subs))


class TestOneChainTablePerSolve:
    def test_solve_ocp_builds_the_chain_table_once(self, monkeypatch):
        # the series, the right-hand side and the Hamiltonian read one table
        calls = []
        inner = sham_engine.chain_table
        monkeypatch.setattr(
            sham_engine, "chain_table", lambda *args: calls.append(args) or inner(*args)
        )
        cfg = SolverConfig(hbar=-1.0, basis=BasisConfig(beta=0.5, n_order=20), max_order=5)
        solve_ocp(builtin_problem_32(), cfg)
        assert len(calls) == 1


class TestPerOrderCosts:
    @pytest.mark.parametrize("n, max_order", [(40, 100), (20, 150)])
    def test_each_cost_is_the_cost_of_its_partial_sum(self, monkeypatch, n, max_order):
        # N=40 converges; N=20 diverges and keeps only the best partial sum
        runs = []
        inner = ocp_model.run_sham

        def recording(spec, config):
            runs.append(inner(spec, config))
            return runs[-1]

        monkeypatch.setattr(ocp_model, "run_sham", recording)
        problem = builtin_problem_31()
        cfg = SolverConfig(
            hbar=-0.6, basis=BasisConfig(beta=6.0, n_order=n),
            max_order=max_order, tail_tol=1e-13,
        )
        bundle = solve_ocp(problem, cfg, report_times=[1.0])
        (result,) = runs
        series = result.series
        assert len(bundle.per_order_costs) == len(series.orders)
        for m, cost in enumerate(bundle.per_order_costs):
            partial_sum = np.sum(series.orders[: m + 1], axis=0)
            assert cost == evaluate_cost(bundle.spec, partial_sum, result.rule)

    @pytest.mark.parametrize(
        "make, n",
        [(builtin_problem_31, 30), (builtin_problem_32, 17), (general_weights_problem, 60)],
    )
    def test_stacked_calls_give_the_bits_of_single_calls(self, make, n):
        problem = make()
        spec = derive_tpbvp(problem)
        rule = build_rule(BasisConfig(beta=1.0, n_order=n))
        rng = np.random.default_rng(4)
        stack = rng.normal(size=(7, 2 * problem.n_states, n + 1))
        costates = stack[:, problem.n_states :]
        controls = optimal_control(problem, costates)
        costs = evaluate_cost(spec, stack, rule)
        assert controls.shape == (7, problem.n_inputs, n + 1) and costs.shape == (7,)
        for k in range(7):
            single = optimal_control(problem, np.ascontiguousarray(costates[k]))
            assert np.array_equal(controls[k], single)
            assert costs[k] == evaluate_cost(spec, stack[k].copy(), rule)

    @pytest.mark.parametrize("make", [builtin_problem_31, builtin_problem_32, general_weights_problem])
    def test_equals_the_state_control_form(self, make):
        # 1/2 integral of (x^T Q x + u^T R u) per subsystem, u from optimal_control
        problem = make()
        n = problem.n_states
        rule = build_rule(BasisConfig(beta=1.0, n_order=30))
        z = np.random.default_rng(8).normal(size=(5, 2 * n, 31))
        u = optimal_control(problem, z[:, n:])
        integrand = np.zeros((5, 31))
        r = c = 0
        for sub in problem.subsystems:
            x, ui = z[:, r : r + sub.n_states], u[:, c : c + sub.n_inputs]
            integrand += np.einsum("kit,ij,kjt->kt", x, sub.q_mat, x)
            integrand += np.einsum("kit,ij,kjt->kt", ui, sub.r_mat, ui)
            r += sub.n_states
            c += sub.n_inputs
        expected = 0.5 * quadrature_unweighted(rule, integrand)
        got = evaluate_cost(derive_tpbvp(problem), z, rule)
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)
