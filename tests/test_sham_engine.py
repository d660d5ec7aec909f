import dataclasses
import math
import multiprocessing
import os
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from lahoc import (
    BasisConfig,
    DecayAtInfinity,
    HomotopySeries,
    InitialValue,
    MonomialTerm,
    SolverConfig,
    SystemSpec,
    Termination,
    assemble_operator,
    build_rule,
    builtin_problem_31,
    builtin_problem_32,
    cauchy_order_term,
    deformation_step,
    derive_tpbvp,
    initial_guess,
    run_sham,
)
from lahoc import openblas, sham_engine
from lahoc.openblas import dgetrs
from lahoc.oracle_bvp import TruncationConfig, solve_truncated
from lahoc.sham_engine import (
    COND_SWITCH,
    OperatorSingularError,
    chain_table,
    component_groups,
    tail_norm,
)

from conftest import coupled_linear_spec, linear_decay_spec, solver_config


class TestMonomialTerm:
    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            MonomialTerm(1.0, (1, -1))

    def test_rejects_constant_terms(self):
        with pytest.raises(ValueError):
            MonomialTerm(1.0, (0, 0))

    @pytest.mark.parametrize("coefficient", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_coefficients(self, coefficient):
        with pytest.raises(ValueError, match="coefficient must be finite"):
            MonomialTerm(coefficient, (1, 0))


class TestSystemSpecValidation:
    def test_requires_square_sigma(self):
        with pytest.raises(ValueError):
            SystemSpec(
                dim=2,
                sigma=np.zeros((2, 3)),
                nonlinear=((), ()),
                bc=(InitialValue(1.0), DecayAtInfinity()),
            )

    def test_requires_per_component_entries(self):
        with pytest.raises(ValueError):
            SystemSpec(
                dim=2,
                sigma=np.eye(2),
                nonlinear=((),),
                bc=(InitialValue(1.0), DecayAtInfinity()),
            )

    def test_requires_matching_exponent_length(self):
        with pytest.raises(ValueError):
            SystemSpec(
                dim=2,
                sigma=np.eye(2),
                nonlinear=((MonomialTerm(1.0, (1,)),), ()),
                bc=(InitialValue(1.0), DecayAtInfinity()),
            )

    def test_requires_at_least_one_initial_value(self):
        with pytest.raises(ValueError):
            SystemSpec(
                dim=1,
                sigma=np.eye(1),
                nonlinear=((),),
                bc=(DecayAtInfinity(),),
            )


class TestSolverConfigValidation:
    def test_rejects_zero_hbar(self):
        with pytest.raises(ValueError):
            SolverConfig(hbar=0.0, basis=BasisConfig(beta=1.0, n_order=10))

    def test_rejects_nonpositive_tail_tol(self):
        with pytest.raises(ValueError):
            SolverConfig(
                hbar=-1.0, basis=BasisConfig(beta=1.0, n_order=10), tail_tol=0.0
            )

    def test_rejects_zero_max_order(self):
        with pytest.raises(ValueError):
            SolverConfig(
                hbar=-1.0, basis=BasisConfig(beta=1.0, n_order=10), max_order=0
            )


def dense_reference(spec, rule):
    """The textbook assembly: the whole n(N+1)-square operator with blocks
    D + sigma_pp I on the diagonal and sigma_pq I off it, one row per
    component replaced by its boundary condition (the t_0 row for an initial
    value, the t_N row for decay), and its row scales (each row's largest
    magnitude)."""
    n, npts = spec.dim, rule.n_points
    matrix = np.zeros((n * npts, n * npts))
    for p in range(n):
        for q in range(n):
            block = matrix[p * npts : (p + 1) * npts, q * npts : (q + 1) * npts]
            if p == q:
                block[:] = rule.diff + spec.sigma[p, q] * np.eye(npts)
            elif spec.sigma[p, q] != 0.0:
                block[:] = spec.sigma[p, q] * np.eye(npts)
    for r, tag in enumerate(spec.bc):
        row = r * npts + (0 if isinstance(tag, InitialValue) else npts - 1)
        matrix[row] = 0.0
        matrix[row, row] = 1.0
    return matrix, np.abs(matrix).max(axis=1)


def fully_coupled_spec() -> SystemSpec:
    return SystemSpec(
        dim=3,
        sigma=np.full((3, 3), 0.3) + np.diag([1.0, -1.5, 2.0]),
        nonlinear=((), (), ()),
        bc=(InitialValue(1.0), DecayAtInfinity(), InitialValue(-0.5)),
    )


def one_directional_spec() -> SystemSpec:
    """sigma links component 2 to component 0 one way only (groups [0, 2], [1])."""
    sigma = np.diag([1.0, 2.0, 3.0])
    sigma[2, 0] = 0.5
    return SystemSpec(
        dim=3,
        sigma=sigma,
        nonlinear=((), (), ()),
        bc=(InitialValue(1.0), InitialValue(0.5), DecayAtInfinity()),
    )


class TestOperatorAssembly:
    def test_small_systems_factor_with_lu(self):
        rule = build_rule(BasisConfig(beta=1.0, n_order=12))
        op = assemble_operator(linear_decay_spec(), rule)
        assert op.lu is not None and op.pinv is None

    def test_large_systems_use_truncated_pseudoinverse(self):
        rule = build_rule(BasisConfig(beta=1.0, n_order=100))
        op = assemble_operator(derive_tpbvp(builtin_problem_31()), rule)
        assert op.pinv is not None and op.lu is None

    def test_solve_inverts_the_equilibrated_operator(self):
        rule = build_rule(BasisConfig(beta=1.0, n_order=12))
        spec = coupled_linear_spec()
        op = assemble_operator(spec, rule)
        matrix, _ = dense_reference(spec, rule)
        rng = np.random.default_rng(7)
        x = rng.normal(size=matrix.shape[0])
        rhs = matrix @ x
        got = op.solve(rhs)
        assert np.abs(got - x).max() < 1e-9 * np.abs(x).max() + 1e-12

    def test_boundary_rows_replaced(self):
        rule = build_rule(BasisConfig(beta=1.0, n_order=10))
        spec = coupled_linear_spec()
        op = assemble_operator(spec, rule)
        matrix, _ = dense_reference(spec, rule)
        assert len(op.boundary_rows) == spec.dim
        for row in op.boundary_rows:
            unit = np.zeros(matrix.shape[1])
            unit[row] = 1.0
            assert np.array_equal(matrix[row], unit)
        for rows, scale, block in sham_engine._equilibrated_blocks(spec, rule, op.boundary_rows):
            for local in np.flatnonzero(np.isin(rows, op.boundary_rows)):
                assert scale[local] == 1.0
                assert np.array_equal(block[local], np.eye(len(rows))[local])

    def test_boundary_rows_follow_the_split(self):
        # the tags interleave: initial value, decay at infinity, initial value
        spec = fully_coupled_spec()
        initial, decay, values = spec.bc_split
        assert (initial.tolist(), decay.tolist(), values.tolist()) == ([0, 2], [1], [1.0, -0.5])
        rule = build_rule(BasisConfig(beta=1.0, n_order=10))
        npts = rule.n_points
        op = assemble_operator(spec, rule)
        # the t_0 row for an initial value, the t_N row for decay at infinity
        assert op.boundary_rows.tolist() == [0, 2 * npts - 1, 2 * npts]
        assert op.boundary_values.tolist() == [1.0, 0.0, -0.5]

    @pytest.mark.parametrize(
        "make_spec, n, beta",
        [
            (lambda: derive_tpbvp(builtin_problem_31()), 100, 1.0),
            (lambda: derive_tpbvp(builtin_problem_32()), 50, 0.5),
            (fully_coupled_spec, 12, 1.0),
            (one_directional_spec, 12, 1.0),
        ],
        ids=["tp31-N100", "tp32-N50", "fully-coupled", "one-directional"],
    )
    def test_blocks_equal_the_dense_reference(self, make_spec, n, beta):
        # each group's block and row scales are the reference's rows and
        # columns of that group, bit for bit, and the reference has nothing
        # outside the blocks
        spec = make_spec()
        rule = build_rule(BasisConfig(beta=beta, n_order=n))
        matrix, row_scale = dense_reference(spec, rule)
        equilibrated = matrix / row_scale[:, None]
        brows = assemble_operator(spec, rule).boundary_rows
        blocks = sham_engine._equilibrated_blocks(spec, rule, brows)
        assert len(blocks) == len(component_groups(spec.sigma))
        owned = np.zeros(len(matrix), dtype=int)
        for rows, scale, block in blocks:
            assert np.array_equal(scale, row_scale[rows])
            assert np.array_equal(block, equilibrated[np.ix_(rows, rows)])
            outside = np.ones(len(matrix), dtype=bool)
            outside[rows] = False
            assert not matrix[np.ix_(rows, outside)].any()
            owned[rows] += 1
        assert np.all(owned == 1)

    @pytest.mark.parametrize(
        "make_spec, where, value",
        [
            (coupled_linear_spec, (0, 1), math.inf),
            (coupled_linear_spec, (1, 1), math.inf),
            (coupled_linear_spec, (0, 0), math.nan),
            (lambda: decoupled_pair_spec(), (1, 1), -math.inf),
        ],
        ids=["inf-coupling", "inf-diagonal", "nan-diagonal", "second-block"],
    )
    def test_non_finite_sigma_is_a_zero_or_non_finite_row(self, monkeypatch, make_spec, where, value):
        # the row check of the block raises before any factorization is tried
        spec = make_spec()
        sigma = spec.sigma.copy()
        sigma[where] = value
        spec = SystemSpec(dim=spec.dim, sigma=sigma, nonlinear=spec.nonlinear, bc=spec.bc)

        def no_factorization(*args, **kwargs):
            raise AssertionError("factorization reached")

        monkeypatch.setattr(sham_engine, "_block_svd", no_factorization)
        rule = build_rule(BasisConfig(beta=1.0, n_order=12))
        # no NumPy warning first: an infinite sigma_pq never meets a zero of I
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OperatorSingularError, match="zero or non-finite row"):
                assemble_operator(spec, rule)


class TestInitialGuess:
    def test_linear_problem_solved_exactly_at_order_zero(self):
        # for a linear system the order-0 guess is already the collocation
        # solution: e^{-t} for scalar decay, pointwise at the nodes
        rule = build_rule(BasisConfig(beta=1.0, n_order=60))
        spec = linear_decay_spec()
        op = assemble_operator(spec, rule)
        z0 = initial_guess(spec, rule, op)
        assert np.abs(z0[0] - np.exp(-rule.nodes)).max() < 1e-8

    def test_satisfies_initial_condition_exactly(self):
        rule = build_rule(BasisConfig(beta=1.0, n_order=12))
        spec = derive_tpbvp(builtin_problem_31())
        op = assemble_operator(spec, rule)
        z0 = initial_guess(spec, rule, op)
        assert z0[0, 0] == pytest.approx(0.0, abs=1e-13)
        assert z0[1, 0] == pytest.approx(0.8, abs=1e-13)


class TestCauchyProducts:
    @staticmethod
    def brute_force(series, term, order):
        """Coefficient of q^order in prod_c (sum_m Z_c,m q^m)^e_c via explicit
        polynomial multiplication in the embedding parameter."""
        n_pts = series.orders[0].shape[1]
        poly = [np.full(n_pts, term.coefficient)]
        for comp, exp in enumerate(term.exponents):
            comp_series = [z[comp] for z in series.orders]
            for _ in range(exp):
                new = [np.zeros(n_pts) for _ in range(len(poly) + len(comp_series) - 1)]
                for i, a in enumerate(poly):
                    for j, b in enumerate(comp_series):
                        new[i + j] = new[i + j] + a * b
                poly = new
        return poly[order] if order < len(poly) else np.zeros(n_pts)

    def test_matches_brute_force_small_case(self):
        # deformation order m consumes the q^(m-1) coefficient
        rng = np.random.default_rng(3)
        term = MonomialTerm(1.7, (2, 1))
        series = HomotopySeries(
            orders=[rng.normal(size=(2, 5)) for _ in range(4)],
            chains=chain_table(2, [term.factors]),
        )
        for order in range(1, 5):
            got = cauchy_order_term(series, term, order)
            ref = self.brute_force(series, term, order - 1)
            assert np.abs(got - ref).max() < 1e-13 * (1 + np.abs(ref).max())

    def test_linear_term_is_direct_lookup(self):
        rng = np.random.default_rng(5)
        series = HomotopySeries(orders=[rng.normal(size=(3, 4)) for _ in range(3)])
        term = MonomialTerm(-2.0, (0, 1, 0))
        got = cauchy_order_term(series, term, 3)
        assert np.allclose(got, -2.0 * series.orders[2][1], rtol=1e-14)

    def test_rejects_out_of_range_order(self):
        series = HomotopySeries(orders=[np.ones((1, 3))])
        term = MonomialTerm(1.0, (1,))
        with pytest.raises(ValueError):
            cauchy_order_term(series, term, 0)
        with pytest.raises(ValueError):
            cauchy_order_term(series, term, 2)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        exps=st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
            lambda e: sum(e) >= 1
        ),
        order=st.integers(1, 6),
    )
    def test_property_matches_brute_force(self, seed, exps, order):
        rng = np.random.default_rng(seed)
        orders = [rng.normal(size=(2, 3)) for _ in range(6)]
        term = MonomialTerm(float(rng.normal()), exps)
        series = HomotopySeries(orders, chains=chain_table(2, [term.factors]))
        got = cauchy_order_term(series, term, order)
        ref = self.brute_force(series, term, order - 1)
        assert np.abs(got - ref).max() <= 1e-13 * (1 + np.abs(ref).max())


class TestRunSham:
    def test_linear_system_converges_immediately(self):
        result = run_sham(coupled_linear_spec(), solver_config(n=16))
        assert result.termination is Termination.CONVERGED
        # order-0 already solves a linear problem; every correction is noise
        assert all(norm < 1e-12 for norm in result.tail_norms[1:])

    def test_scalar_decay_matches_exponential(self):
        # beta matched to the decay rate keeps the representation efficient
        result = run_sham(
            linear_decay_spec(rate=2.0, x0=0.5), solver_config(beta=2.0, n=40)
        )
        t = np.linspace(0.0, 8.0, 100)
        assert np.abs(result.at(t)[0] - 0.5 * np.exp(-2.0 * t)).max() < 1e-9

    def test_nonlinear_tail_norms_decrease(self):
        spec = derive_tpbvp(builtin_problem_31())
        cfg = solver_config(n=100, hbar=-0.6, max_order=19, tail_tol=1e-300)
        result = run_sham(spec, cfg)
        tails = result.tail_norms
        assert len(tails) == 20
        assert all(b < a for a, b in zip(tails[2:], tails[3:]))

    def test_converged_run_small_residual(self):
        # the converged partial sum nearly annihilates its own deformation
        # right-hand side: one extra step stays near the tail tolerance
        spec = derive_tpbvp(builtin_problem_31())
        cfg = solver_config(beta=6.0, n=40, hbar=-0.6, max_order=100, tail_tol=1e-12)
        result = run_sham(spec, cfg)
        assert result.termination is Termination.CONVERGED
        extra = deformation_step(
            spec, result.rule, result.operator, result.series, cfg,
            len(result.series.orders),
        )
        assert tail_norm(result.rule, extra) < 10 * cfg.tail_tol

    def test_divergence_truncates_to_best_partial_sum(self):
        # a crossover-band configuration where the series is known to blow up
        spec = derive_tpbvp(builtin_problem_31())
        cfg = solver_config(n=30, beta=1.0, hbar=-0.6, max_order=50)
        result = run_sham(spec, cfg)
        assert result.termination is Termination.DIVERGED
        assert np.all(np.isfinite(result.solution))
        assert result.tail_norms[-1] == min(result.tail_norms)

    def test_hbar_insensitivity_of_converged_solution(self):
        spec = derive_tpbvp(builtin_problem_31())
        t = np.linspace(0.0, 6.0, 60)
        sols = []
        for hbar in (-1.0, -0.8, -0.6):
            cfg = solver_config(
                beta=6.0, n=40, hbar=hbar, max_order=150, tail_tol=1e-12
            )
            result = run_sham(spec, cfg)
            assert result.termination is Termination.CONVERGED
            sols.append(result.at(t))
        spread = max(
            np.abs(a - b).max() for a, b in zip(sols, sols[1:])
        )
        assert spread < 1e-6


def test_cond_switch_separates_the_branches():
    # sanity on the constant itself: equilibrated LU below, truncation above
    assert 1e12 < COND_SWITCH < 1e18


class TestSolverConfigRejectsNonFinite:
    @pytest.mark.parametrize("hbar", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_hbar(self, hbar):
        with pytest.raises(ValueError, match="hbar"):
            SolverConfig(hbar=hbar, basis=BasisConfig(beta=1.0, n_order=10))

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_rejects_nonfinite_tail_tol(self, tol):
        with pytest.raises(ValueError, match="tail_tol"):
            SolverConfig(
                hbar=-1.0, basis=BasisConfig(beta=1.0, n_order=10), tail_tol=tol
            )


def random_cubic_spec(seed: int) -> SystemSpec:
    """Three decaying components, each equation with two random monomials of
    degree 2 or 3 over all three components."""
    rng = np.random.default_rng(seed)
    sigma = np.diag([1.0, 1.5, 2.0]) + 0.1 * rng.normal(size=(3, 3))
    nonlinear = []
    for _ in range(3):
        terms = []
        for degree in (2, 3):
            exps = np.zeros(3, dtype=int)
            for comp in rng.integers(0, 3, size=degree):
                exps[comp] += 1
            terms.append(MonomialTerm(float(rng.uniform(-0.3, 0.3)), tuple(exps)))
        nonlinear.append(tuple(terms))
    bc = tuple(InitialValue(float(v)) for v in rng.uniform(0.2, 0.8, size=3))
    return SystemSpec(dim=3, sigma=sigma, nonlinear=tuple(nonlinear), bc=bc)


class TestIncrementalProductsInsideRunSham:
    """Every nonlinear term a run computes, checked against explicit
    polynomial multiplication of the orders the run had stored."""

    @staticmethod
    def checked_run(monkeypatch, spec, cfg):
        calls = []
        inner = sham_engine.cauchy_order_term

        def recording(series, term, order):
            got = inner(series, term, order)
            calls.append((series.orders[:order].copy(), term, order, got))
            return got

        monkeypatch.setattr(sham_engine, "cauchy_order_term", recording)
        result = run_sham(spec, cfg)
        for orders, term, order, got in calls:
            prefix = HomotopySeries(orders=list(orders))
            ref = TestCauchyProducts.brute_force(prefix, term, order - 1)
            assert np.abs(got - ref).max() <= 1e-13 * (1.0 + np.abs(ref).max()), (
                f"{term} at order {order}"
            )
        return result, calls

    def test_tp31_every_order(self, monkeypatch):
        spec = derive_tpbvp(builtin_problem_31())
        cfg = solver_config(beta=6.0, n=20, hbar=-0.6, max_order=150, tail_tol=1e-13)
        result, calls = self.checked_run(monkeypatch, spec, cfg)
        n_terms = sum(len(eq) for eq in spec.nonlinear)
        assert len(calls) >= 10 * n_terms
        # N=20 diverges: the series keeps only the best partial sum
        assert result.termination is Termination.DIVERGED
        assert len(result.series.orders) == len(result.tail_norms)

    def test_random_three_component_cubic(self, monkeypatch):
        spec = random_cubic_spec(11)
        cfg = solver_config(beta=6.0, n=16, hbar=-0.6, max_order=25, tail_tol=1e-300)
        result, calls = self.checked_run(monkeypatch, spec, cfg)
        assert result.termination is Termination.MAX_ORDER
        assert max(order for _, _, order, _ in calls) == 25


class TestNonlinearTermOfTheDeformationStep:
    def test_tp32_equals_the_per_term_sum_of_cauchy_order_terms(self, monkeypatch):
        # 42 monomials over 12 components, 57 chains: the right-hand side
        # deformation_step hands to the solve, against the sum of every
        # monomial's own term with the boundary rows zeroed
        spec = derive_tpbvp(builtin_problem_32())
        cfg = solver_config(beta=0.5, n=50, hbar=-1.0, max_order=6)
        rule = build_rule(cfg.basis)
        op = assemble_operator(spec, rule)
        products = [term.factors for eq in spec.nonlinear for term in eq]
        series = HomotopySeries(
            [initial_guess(spec, rule, op)], max_order=cfg.max_order, chains=spec.chains
        )
        rhs = []
        solve = op.solve
        monkeypatch.setattr(op, "solve", lambda b: rhs.append(b.copy()) or solve(b))
        assert len(products) == 42 and len(series._rows) == spec.dim + 57
        for m in range(1, cfg.max_order + 1):
            got = deformation_step(spec, rule, op, series, cfg, m)
            ref = np.zeros((spec.dim, rule.n_points))
            for r, terms in enumerate(spec.nonlinear):
                for term in terms:
                    ref[r] += cauchy_order_term(series, term, m)
            ref = ref.ravel()
            ref[op.boundary_rows] = 0.0
            assert np.abs(rhs[-1] - ref).max() <= 1e-13 * np.abs(ref).max(), f"order {m}"
            series.append(got, tail_norm(rule, got))
        assert len(rhs) == cfg.max_order


class TestHomotopySeriesStorage:
    def test_truncation_drops_products_that_read_later_orders(self):
        rng = np.random.default_rng(9)
        term = MonomialTerm(1.0, (2, 1))
        series = HomotopySeries(
            orders=[rng.normal(size=(2, 4)) for _ in range(3)],
            max_order=5,
            chains=chain_table(2, [term.factors]),
        )
        cauchy_order_term(series, term, 3)
        series.truncate(0)
        for order in range(1, 6):
            series.append(rng.normal(size=(2, 4)), 1.0)
            got = cauchy_order_term(series, term, order + 1)
            ref = TestCauchyProducts.brute_force(series, term, order)
            assert np.abs(got - ref).max() <= 1e-13 * (1.0 + np.abs(ref).max())

    def test_reading_an_unregistered_chain_raises(self):
        series = HomotopySeries(
            orders=[np.ones((2, 3)), np.ones((2, 3))], chains=chain_table(2, [(0, 0, 1)])
        )
        assert np.array_equal(series.product_coefficient((0, 0), 1), np.full(3, 2.0))
        with pytest.raises(ValueError, match=r"chain \(0, 1\) was not registered"):
            series.product_coefficient((0, 1), 1)
        with pytest.raises(ValueError, match="not registered"):
            cauchy_order_term(series, MonomialTerm(1.0, (1, 1)), 1)

    def test_negative_coefficient_index_raises(self):
        series = HomotopySeries(
            orders=[np.ones((2, 3))], max_order=4, chains=chain_table(2, [(0, 1)])
        )
        for factors in [(0,), (0, 1)]:
            with pytest.raises(ValueError, match="out of range"):
                series.product_coefficient(factors, -1)
            with pytest.raises(ValueError, match="out of range"):
                series.product_coefficient(factors, 1)

    def test_store_is_allocated_once_at_its_final_width(self):
        # chains (0, 0), (0, 0, 1) and (1, 1): shared prefixes are stored once
        rng = np.random.default_rng(4)
        series = HomotopySeries(
            [rng.normal(size=(2, 3))],
            max_order=3,
            chains=chain_table(2, [(0, 0, 1), (0, 0), (1, 1), (1,)]),
        )
        store = series._store
        assert store.shape == (4, 2 + 3, 3)
        for _ in range(3):
            series.append(rng.normal(size=(2, 3)), 1.0)
            series.product_coefficient((0, 0, 1), len(series.orders) - 1)
        assert series._store is store

    def test_preallocated_capacity_is_enforced(self):
        series = HomotopySeries(orders=[np.ones((1, 3))], max_order=1)
        series.append(np.ones((1, 3)), 0.0)
        with pytest.raises(ValueError):
            series.append(np.ones((1, 3)), 0.0)


@st.composite
def random_equations(draw):
    """Per-equation monomial lists over 1-4 components, degrees 1-4. Few
    components and small degrees make monomials share factor prefixes, and
    exponents above 1 repeat factors."""
    n = draw(st.integers(1, 4))
    exponents = st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(
        lambda e: 1 <= sum(e) <= 4
    )
    term = st.builds(MonomialTerm, st.floats(-2.0, 2.0), exponents.map(tuple))
    return n, tuple(tuple(draw(st.lists(term, max_size=4))) for _ in range(n))


def per_order_terms(series, nonlinear, order):
    """Every monomial's coefficient of q^(order-1), stacked in equation order."""
    terms = [term for eq in nonlinear for term in eq]
    got = [cauchy_order_term(series, term, order) for term in terms]
    return np.array(got).reshape(len(terms), series.orders.shape[-1])


def brute_force_terms(series, nonlinear, order):
    terms = [term for eq in nonlinear for term in eq]
    ref = [TestCauchyProducts.brute_force(series, term, order - 1) for term in terms]
    return np.array(ref).reshape(len(terms), series.orders.shape[-1])


def assert_rows_match(got, ref):
    """Each monomial's row within 1e-13 of the brute-force reference, relative
    to that row's largest value."""
    bound = 1e-13 * (1.0 + np.abs(ref).max(axis=1))
    assert np.all(np.abs(got - ref).max(axis=1) <= bound)


def assert_equals_per_chain_einsum(series, chains):
    """Every stored coefficient of every chain equals one einsum over its
    parent's coefficients and its last factor's orders, one chain at a time."""
    for chain in chains:
        last = series.orders[:, chain[-1]]
        for k in range(len(series.orders)):
            parent = np.array([series.product_coefficient(chain[:-1], i) for i in range(k + 1)])
            ref = np.einsum("ij,ij->j", parent, last[k::-1])
            assert np.array_equal(series.product_coefficient(chain, k), ref), f"{chain} at {k}"


class TestChainTable:
    def test_each_depth_equals_the_per_chain_einsum_on_tp32(self):
        # 57 chains of depths 2 and 3 over 12 components: every coefficient, bit
        # for bit, also after a truncation and other orders appended
        spec = derive_tpbvp(builtin_problem_32())
        series = run_sham(spec, solver_config(beta=0.5, n=50, hbar=-1.0, max_order=20)).series
        chains = [key for key in series._rows if len(key) > 1]
        assert len(chains) == 57 and {len(key) for key in chains} == {2, 3}
        assert_equals_per_chain_einsum(series, chains)
        orders = series.orders.copy()
        series.truncate(7)
        for z in orders[8:]:
            series.append(0.5 * z, 1.0)
        assert_equals_per_chain_einsum(series, chains)

    @settings(max_examples=40, deadline=None)
    @given(eqs=random_equations(), seed=st.integers(0, 2**31), cut=st.integers(0, 5))
    def test_per_order_terms_match_brute_force(self, eqs, seed, cut):
        n, nonlinear = eqs
        extra = MonomialTerm(0.5, (2,) + (1,) * (n - 1))  # a chain no equation reads
        products = [term.factors for eq in nonlinear for term in eq] + [extra.factors]
        rng = np.random.default_rng(seed)
        draws = [rng.normal(size=(n, 3)) for _ in range(14)]
        chains = chain_table(n, products)
        series = HomotopySeries(draws[:1], max_order=8, chains=chains)
        for m in range(1, 8):
            series.append(draws[m], 1.0)
            assert_rows_match(
                per_order_terms(series, nonlinear, m), brute_force_terms(series, nonlinear, m)
            )
            if m == 4:
                got = cauchy_order_term(series, extra, 3)
                ref = TestCauchyProducts.brute_force(series, extra, 2)
                assert np.abs(got - ref).max() <= 1e-13 * (1.0 + np.abs(ref).max())

        # truncating and appending other orders gives what a fresh series
        # holding the same orders gives, bit for bit
        series.truncate(cut)
        fresh = HomotopySeries(draws[: cut + 1], max_order=8, chains=chains)
        for m in range(cut + 1, 8):
            series.append(draws[m + 6], 1.0)
            fresh.append(draws[m + 6], 1.0)
        for m in range(1, 9):
            assert np.array_equal(
                per_order_terms(series, nonlinear, m), per_order_terms(fresh, nonlinear, m)
            ), f"order {m}"
            assert np.array_equal(
                cauchy_order_term(series, extra, m), cauchy_order_term(fresh, extra, m)
            ), f"order {m}"


def rhs_term_by_term(spec, z):
    """dz/dt = -sigma z - g(z), g summed one monomial at a time, and the same
    sum over absolute values, the scale its rounding error is relative to."""
    g = np.zeros(z.shape)
    scale = np.abs(spec.sigma) @ np.abs(z)
    for r, terms in enumerate(spec.nonlinear):
        for t in terms:
            term = math.prod((z[c] for c in t.factors), start=t.coefficient)
            g[r] += term
            scale[r] += np.abs(term)
    return -spec.sigma @ z - g, scale


def assert_rhs_matches_term_by_term(spec, z):
    ref, scale = rhs_term_by_term(spec, z)
    got = spec.rhs(z)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-14 * scale)


class TestMonomialTableRhs:
    def test_linear_repeated_shared_and_empty(self):
        # z0 z1^2 in equations 0 and 2, degree-1 terms, a repeated factor z2^3
        # and an equation with no terms
        shared = MonomialTerm(1.5, (1, 2, 0))
        nonlinear = (
            (shared, MonomialTerm(-0.5, (0, 1, 0)), MonomialTerm(0.25, (1, 0, 0))),
            (),
            (MonomialTerm(2.0, (0, 0, 3)), shared),
        )
        spec = SystemSpec(3, np.arange(9.0).reshape(3, 3) / 9, nonlinear, (InitialValue(1.0),) * 3)
        _, depths = spec.chains
        coefficients = spec._coefficients
        # columns: z0, z1, z2, then chains (0, 1), (2, 2), (0, 1, 1), (2, 2, 2)
        assert [len(parents) for _, parents, _ in depths] == [2, 2]
        assert coefficients.shape == (3, 7)
        assert np.array_equal(coefficients[:, :3], [[0.25, -0.5, 0.0], [0, 0, 0], [0, 0, 0]])
        assert np.array_equal(coefficients[1], np.zeros(7))
        rng = np.random.default_rng(3)
        for shape in [(3,), (3, 1), (3, 40)]:
            assert_rhs_matches_term_by_term(spec, rng.normal(size=shape))

    @settings(max_examples=60, deadline=None)
    @given(
        eqs=random_equations(),
        seed=st.integers(0, 2**31),
        columns=st.sampled_from([None, 1, 9]),
        shared=st.booleans(),
    )
    def test_matches_the_term_by_term_sum(self, eqs, seed, columns, shared):
        n, nonlinear = eqs
        if shared and any(nonlinear):
            # the first monomial also read by the last equation
            first = next(eq[0] for eq in nonlinear if eq)
            nonlinear = nonlinear[:-1] + (nonlinear[-1] + (first,),)
        rng = np.random.default_rng(seed)
        spec = SystemSpec(n, rng.normal(size=(n, n)), nonlinear, (InitialValue(1.0),) * n)
        z = rng.normal(size=(n,) if columns is None else (n, columns))
        assert_rhs_matches_term_by_term(spec, z)

    def test_a_replaced_spec_reads_its_own_coefficients(self):
        # the oracle's continuation: a copy of the spec with scaled monomials
        spec = derive_tpbvp(builtin_problem_32())
        z = np.random.default_rng(5).normal(size=(spec.dim, 6))
        before = spec.rhs(z)  # builds the original's table
        scaled = tuple(
            tuple(dataclasses.replace(t, coefficient=0.25 * t.coefficient) for t in eq)
            for eq in spec.nonlinear
        )
        quarter = dataclasses.replace(spec, nonlinear=scaled)
        assert_rhs_matches_term_by_term(quarter, z)
        assert np.abs(quarter.rhs(z) - before).max() > 1e-3
        assert np.array_equal(spec.rhs(z), before)

    def test_sigma_is_read_at_each_call(self):
        spec = saddle_spec()
        z = np.array([[0.5, -1.0], [0.25, 2.0]])
        spec.rhs(z)
        spec.sigma[0, 1] = 4.0
        assert_rhs_matches_term_by_term(spec, z)


def saddle_spec() -> SystemSpec:
    """Two components with cubic/quadratic terms: a stable initial-value
    component and an unstable one pinned by decay at infinity, the shape of a
    state/costate pair."""
    return SystemSpec(
        dim=2,
        sigma=np.array([[1.5, -0.25], [0.5, -2.0]]),
        nonlinear=(
            (MonomialTerm(0.3, (3, 0)), MonomialTerm(0.2, (1, 1))),
            (MonomialTerm(-0.1, (2, 0)),),
        ),
        bc=(InitialValue(0.6), DecayAtInfinity()),
    )


class TestSaddleSystem:
    def test_cubic_system_matches_the_oracle(self):
        # at N=40 the deviation is 1.6e-5 against oracles at mesh 2000, 4000
        # and 8000 alike: the error is the N=40 grid's; at N=60 it is 2.6e-7
        spec = saddle_spec()
        result = run_sham(spec, solver_config(beta=2.0, n=60, hbar=-1.0, max_order=60))
        assert result.termination is Termination.CONVERGED
        oracle = solve_truncated(spec, TruncationConfig(t_end=40.0, mesh_points=2000))
        t = np.linspace(0.0, 10.0, 41)
        assert np.abs(result.at(t) - oracle.at(t)).max() < 1e-5


def plain_recurrence(spec, cfg):
    """run_sham written out plainly: every chain coefficient by its own einsum
    over its parent's coefficients and its last factor's orders, the
    right-hand side summed term by term, the block solve, the deformation
    update and the stopping rules. Returns the kept orders, their tail norms
    and the termination."""
    rule = build_rule(cfg.basis)
    op = assemble_operator(spec, rule)

    def solve(rhs):
        out = np.empty_like(rhs)
        if op.lu is not None:
            for rows, scale, lu in op.lu:
                out[rows] = dgetrs(*lu, rhs[rows] / scale)
        else:
            for rows, scale, v_scaled, u_t in op.pinv:
                out[rows] = v_scaled @ (u_t @ (rhs[rows] / scale))
        return out

    def norm(z):
        return math.sqrt(float(np.sum(rule.weights * np.sum(z * z, axis=0))))

    chains = {}  # factor sequence -> its coefficients so far

    def coefficient(factors, k):
        if len(factors) == 1:
            return orders[k][factors[0]]
        known = chains.setdefault(factors, [])
        while len(known) <= k:
            i = len(known)
            parent = np.array([coefficient(factors[:-1], j) for j in range(i + 1)])
            last = np.array([z[factors[-1]] for z in orders[: i + 1]])
            known.append(np.einsum("ij,ij->j", parent, last[::-1]))
        return known[k]

    rhs = np.zeros(spec.dim * rule.n_points)
    rhs[op.boundary_rows] = op.boundary_values
    orders = [solve(rhs).reshape(spec.dim, rule.n_points)]
    tails = [norm(orders[0])]
    termination, best_order, best_tail = Termination.MAX_ORDER, 0, tails[0]
    for m in range(1, cfg.max_order + 1):
        q = np.zeros((spec.dim, rule.n_points))
        for r, terms in enumerate(spec.nonlinear):
            for term in terms:
                q[r] += term.coefficient * coefficient(term.factors, m - 1)
        if not np.all(np.isfinite(q)):
            termination = Termination.DIVERGED
            break
        q = q.ravel()
        q[op.boundary_rows] = 0.0
        step = cfg.hbar * solve(q).reshape(spec.dim, rule.n_points)
        orders.append(step if m == 1 else (1.0 + cfg.hbar) * orders[m - 1] + step)
        tails.append(norm(orders[m]))
        if not math.isfinite(tails[m]) or (best_tail > 0 and tails[m] > 1e6 * best_tail):
            termination = Termination.DIVERGED
            break
        if tails[m] < best_tail:
            best_tail, best_order = tails[m], m
        if tails[m] < cfg.tail_tol:
            termination = Termination.CONVERGED
            break
    if termination is Termination.DIVERGED:
        del orders[best_order + 1 :], tails[best_order + 1 :]
    return np.array(orders), tails, termination, op


class TestRunShamBitIdentity:
    @pytest.mark.parametrize(
        "spec, cfg, path, termination, kept",
        [
            (derive_tpbvp(builtin_problem_31()),
             solver_config(beta=1.0, n=100, hbar=-0.6, max_order=100), "pinv",
             Termination.MAX_ORDER, 101),
            (saddle_spec(), solver_config(beta=6.0, n=10, hbar=-0.6, max_order=60, tail_tol=1e-13),
             "lu", Termination.CONVERGED, 30),
            # the diverging cost-sweep row keeps its best partial sum, order 14
            (derive_tpbvp(builtin_problem_31()),
             solver_config(beta=6.0, n=20, hbar=-0.6, max_order=150, tail_tol=1e-13), "pinv",
             Termination.DIVERGED, 15),
        ],
        ids=["tp31-paper", "saddle-lu", "tp31-n20-diverged"],
    )
    def test_equals_the_plain_recurrence(self, spec, cfg, path, termination, kept):
        result = run_sham(spec, cfg)
        orders, tails, reference_termination, op = plain_recurrence(spec, cfg)
        assert getattr(op, path) is not None
        assert result.termination is reference_termination is termination
        assert len(tails) == kept
        assert np.array_equal(result.series.orders, orders)
        assert np.array_equal(result.tail_norms, tails)
        assert np.array_equal(result.solution, np.sum(orders, axis=0))


class TestReducedDeformationStep:
    @pytest.mark.parametrize(
        "spec, beta, n, hbar",
        [
            (derive_tpbvp(builtin_problem_31()), 6.0, 10, -0.6),
            (saddle_spec(), 2.0, 16, -1.0),
        ],
        ids=["tp31", "saddle"],
    )
    def test_equals_the_full_recurrence_on_the_lu_path(self, spec, beta, n, hbar):
        # z_m = chi (1+hbar) z_{m-1} + hbar A^{-1} Q_{m-1} against the full form
        # A^{-1}(chi L z_{m-1} + hbar (L z_{m-1} + Q_{m-1})), with
        # L's interior rows read from the dense reference operator.  The two differ
        # by the round-off of A^{-1} A (equilibrated condition about 1e8 for
        # tp31 at N=10), seen at 4.4e-12.
        cfg = solver_config(beta=beta, n=n, hbar=hbar, max_order=12)
        rule = build_rule(cfg.basis)
        op = assemble_operator(spec, rule)
        assert op.lu is not None
        matrix, _ = dense_reference(spec, rule)
        series = HomotopySeries(
            [initial_guess(spec, rule, op)], max_order=cfg.max_order, chains=spec.chains
        )
        for m in range(1, cfg.max_order + 1):
            got = deformation_step(spec, rule, op, series, cfg, m)
            q = np.zeros((spec.dim, rule.n_points))
            for r, terms in enumerate(spec.nonlinear):
                for term in terms:
                    q[r] += cauchy_order_term(series, term, m)
            chi = 0.0 if m == 1 else 1.0
            lz = matrix @ series.orders[m - 1].ravel()
            rhs = chi * lz + hbar * (lz + q.ravel())
            rhs[op.boundary_rows] = 0.0
            full = op.solve(rhs).reshape(got.shape)
            assert np.abs(got - full).max() <= 1e-11 * np.abs(full).max(), f"order {m}"
            series.append(got, tail_norm(rule, got))

    @pytest.mark.parametrize("n", [16, 60], ids=["lu", "pinv"])
    def test_linear_systems_give_exactly_zero_corrections(self, n):
        result = run_sham(coupled_linear_spec(), solver_config(n=n))
        assert (result.operator.lu is not None) == (n == 16)
        assert result.termination is Termination.CONVERGED
        assert np.all(result.series.orders[1:] == 0.0)


class TestComponentGroups:
    def test_known_systems(self):
        assert component_groups(derive_tpbvp(builtin_problem_31()).sigma) == [[0, 2], [1, 3]]
        assert component_groups(derive_tpbvp(builtin_problem_32()).sigma) == [
            [0, 3, 6, 9],
            [1, 4, 7, 10],
            [2, 5, 8, 11],
        ]
        assert component_groups(np.full((5, 5), 0.3)) == [[0, 1, 2, 3, 4]]

    def test_one_directional_links_join_a_group(self):
        # tp32's -A links rho_i to omega_i, but omega_i's row has no rho_i entry
        sigma = derive_tpbvp(builtin_problem_32()).sigma
        assert sigma[0, 3] != 0.0 and sigma[3, 0] == 0.0
        lower = np.diag([1.0, 2.0, 3.0])
        lower[2, 0] = 0.5
        assert component_groups(lower) == [[0, 2], [1]]
        assert component_groups(lower.T) == [[0, 2], [1]]

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_weakly_connected_components(self, sizes, density, seed):
        # random sparse blocks, each link drawn per direction, then the
        # components shuffled so that no group is contiguous
        rng = np.random.default_rng(seed)
        dim = sum(sizes)
        sigma = np.zeros((dim, dim))
        start = 0
        for size in sizes:
            block = slice(start, start + size)
            links = rng.random((size, size)) < density
            sigma[block, block] = np.where(links, rng.normal(size=(size, size)), 0.0)
            start += size
        perm = rng.permutation(dim)
        sigma = sigma[np.ix_(perm, perm)]

        count, labels = connected_components(sigma != 0, directed=True, connection="weak")
        expected = sorted(np.flatnonzero(labels == c).tolist() for c in range(count))
        assert component_groups(sigma) == expected


def whole_matrix_pinv(spec, rule):
    """The pseudo-inverse factors from one SVD of the whole equilibrated
    reference operator, and its row scales."""
    matrix, row_scale = dense_reference(spec, rule)
    u, s, vt = np.linalg.svd(matrix / row_scale[:, None])
    keep = s > sham_engine.PINV_RCOND * s[0]
    return vt[keep].T / s[keep], u[:, keep].T, row_scale


def decoupled_pair_spec() -> SystemSpec:
    """Two uncoupled linear components; at N=8, beta=1 the largest singular
    value of the equilibrated operator comes from the first block and the
    smallest from the second."""
    return SystemSpec(
        dim=2,
        sigma=np.diag([1.0, -0.5]),
        nonlinear=((), ()),
        bc=(InitialValue(1.0), DecayAtInfinity()),
    )


def block_ranks(op):
    return [v_scaled.shape[1] for _, _, v_scaled, _ in op.pinv]


class TestBlockFactorization:
    @pytest.mark.parametrize(
        "problem, n, beta",
        [(builtin_problem_31, 100, 1.0), (builtin_problem_32, 50, 0.5), (builtin_problem_31, 120, 6.0)],
        ids=["tp31-N100-b1", "tp32-N50-b0.5", "tp31-N120-b6"],
    )
    def test_matches_the_whole_matrix_svd(self, problem, n, beta):
        spec = derive_tpbvp(problem())
        rule = build_rule(BasisConfig(beta=beta, n_order=n))
        op = assemble_operator(spec, rule)
        v_scaled, u_t, row_scale = whole_matrix_pinv(spec, rule)
        assert op.pinv is not None
        assert len(op.pinv) == len(component_groups(spec.sigma))
        assert sum(block_ranks(op)) == v_scaled.shape[1]
        rng = np.random.default_rng(n)
        for rhs in rng.normal(size=(5, len(row_scale))):
            ref = v_scaled @ (u_t @ (rhs / row_scale))
            assert np.abs(op.solve(rhs) - ref).max() <= 1e-7 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [50, 12], ids=["pinv", "lu"])
    def test_each_block_keeps_only_its_own_rows(self, n):
        # the factors of a block are (rows of the block) x (its rank), or its
        # own square LU: tp32's three blocks of 4(N+1) rows, not one
        # 12(N+1)-row factorization mostly of zeros
        spec = derive_tpbvp(builtin_problem_32())
        rule = build_rule(BasisConfig(beta=0.5, n_order=n))
        op = assemble_operator(spec, rule)
        groups = component_groups(spec.sigma)
        if n == 12:
            assert op.pinv is None and len(op.lu) == len(groups)
            factors = [(rows, scale, lu.shape, piv.shape) for rows, scale, (lu, piv) in op.lu]
        else:
            assert op.lu is None and len(op.pinv) == len(groups)
            factors = [(rows, scale, v.shape, u_t.T.shape) for rows, scale, v, u_t in op.pinv]
        for (rows, scale, shape, other), group in zip(factors, groups, strict=True):
            assert sorted(rows // rule.n_points) == sorted(group * rule.n_points)
            assert scale.shape == rows.shape
            assert shape[0] == other[0] == len(rows)
            assert shape[1] == (len(rows) if n == 12 else other[1])

    def test_condition_number_is_the_whole_operators(self, monkeypatch):
        # the whole operator's condition number (2.0e4) is above either
        # block's (5.8e3 and 1.9e4)
        spec = decoupled_pair_spec()
        rule = build_rule(BasisConfig(beta=1.0, n_order=8))
        matrix, row_scale = dense_reference(spec, rule)
        s = np.linalg.svd(matrix / row_scale[:, None], compute_uv=False)
        cond = s[0] / s[-1]
        monkeypatch.setattr(sham_engine, "COND_SWITCH", cond * 1.03)
        assert assemble_operator(spec, rule).lu is not None
        monkeypatch.setattr(sham_engine, "COND_SWITCH", cond / 1.03)
        op = assemble_operator(spec, rule)
        assert op.pinv is not None
        v_scaled, u_t, row_scale = whole_matrix_pinv(spec, rule)
        assert sum(block_ranks(op)) == v_scaled.shape[1]
        rhs = np.random.default_rng(3).normal(size=len(row_scale))
        ref = v_scaled @ (u_t @ (rhs / row_scale))
        assert np.abs(op.solve(rhs) - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_truncation_is_relative_to_the_largest_singular_value_of_all(self, monkeypatch):
        # a cutoff that drops a middle singular value of the second block
        # only when it is taken relative to the first block's larger s_max
        spec = decoupled_pair_spec()
        rule = build_rule(BasisConfig(beta=1.0, n_order=8))
        matrix, row_scale = dense_reference(spec, rule)
        equilibrated = matrix / row_scale[:, None]
        s = np.linalg.svd(equilibrated, compute_uv=False)
        second = rule.n_points
        s2 = np.linalg.svd(equilibrated[second:, second:], compute_uv=False)
        assert s2[0] < s[0]
        rcond = s2[len(s2) // 2] / (0.5 * (s2[0] + s[0]))
        monkeypatch.setattr(sham_engine, "COND_SWITCH", 1.0)
        monkeypatch.setattr(sham_engine, "PINV_RCOND", rcond)
        op = assemble_operator(spec, rule)
        v_scaled, u_t, row_scale = whole_matrix_pinv(spec, rule)
        assert v_scaled.shape[0] == 2 * second
        assert sum(block_ranks(op)) == v_scaled.shape[1] == int(np.sum(s > rcond * s[0]))
        rhs = np.random.default_rng(4).normal(size=2 * second)
        ref = v_scaled @ (u_t @ (rhs / row_scale))
        assert np.abs(op.solve(rhs) - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_a_fully_coupled_sigma_takes_one_svd(self, monkeypatch):
        calls = []
        svd = sham_engine._block_svd

        def counted(a):
            calls.append(a.shape)
            return svd(a)

        monkeypatch.setattr(sham_engine, "_block_svd", counted)
        rule = build_rule(BasisConfig(beta=1.0, n_order=12))
        assemble_operator(coupled_linear_spec(), rule)
        assert calls == [(2 * rule.n_points, 2 * rule.n_points)]


USABLE_CPUS = sham_engine._usable_cpus


@pytest.fixture
def overlap(monkeypatch):
    """The conditions under which assembly factors the coupled blocks at the
    same time: two usable CPUs and NumPy's OpenBLAS on one thread. The worker
    pool cache starts empty, and the pool the test made is shut down after it."""
    drop_pool()
    monkeypatch.setattr(sham_engine, "_usable_cpus", lambda: 2)
    with openblas.one_thread():
        yield
    drop_pool()


def drop_pool():
    """Shut down this process's worker pool, if any, joining its threads, so
    that thread counts read later are not racing a pool's exit; then empty
    the cache."""
    if pools_made():
        sham_engine._workers(os.getpid()).shutdown()
    sham_engine._workers.cache_clear()


def pools_made() -> int:
    return sham_engine._workers.cache_info().currsize


def one_block_after_another(monkeypatch):
    monkeypatch.setattr(sham_engine, "_usable_cpus", lambda: 1)


def gate_on_a_worker(svd, fail_in_worker=False, timeout=30.0):
    """A `sham_engine._block_svd` whose calls on the main thread wait (up to
    `timeout`) until a worker thread has entered it, so that a worker factors
    a block however the threads are scheduled. It records the thread of
    every call."""
    entered = threading.Event()

    def gated(a):
        gated.threads.append(threading.current_thread())
        if threading.current_thread() is threading.main_thread():
            entered.wait(timeout)
        else:
            entered.set()
            if fail_in_worker:
                raise np.linalg.LinAlgError("spoiled in a worker")
        return svd(a)

    gated.threads = []
    return gated


def tp31_operator_inputs():
    return derive_tpbvp(builtin_problem_31()), build_rule(BasisConfig(beta=1.0, n_order=100))


class TestOverlappedBlockFactorization:
    @pytest.mark.parametrize(
        "make_spec, n, beta, blocks",
        [
            (lambda: derive_tpbvp(builtin_problem_31()), 100, 1.0, 2),
            (lambda: derive_tpbvp(builtin_problem_32()), 50, 0.5, 3),
            (coupled_linear_spec, 60, 1.0, 1),
        ],
        ids=["tp31", "tp32", "coupled-one-block"],
    )
    def test_is_bit_identical_to_one_block_after_another(
        self, overlap, monkeypatch, make_spec, n, beta, blocks
    ):
        spec = make_spec()
        rule = build_rule(BasisConfig(beta=beta, n_order=n))
        svd = sham_engine._block_svd
        gated = gate_on_a_worker(svd)
        if blocks > 1:
            monkeypatch.setattr(sham_engine, "_block_svd", gated)
        overlapped = assemble_operator(spec, rule)
        monkeypatch.setattr(sham_engine, "_block_svd", svd)
        one_block_after_another(monkeypatch)
        serial = assemble_operator(spec, rule)
        assert overlapped.pinv is not None and len(overlapped.pinv) == len(serial.pinv) == blocks
        for got, ref in zip(overlapped.pinv, serial.pinv):  # (rows, scale, V S^-1, U^T)
            assert all(np.array_equal(a, b) for a, b in zip(got, ref))
        if blocks > 1:
            assert any(t is not threading.main_thread() for t in gated.threads)
        else:
            assert pools_made() == 0

    def test_starts_one_worker_thread_on_two_cpus(self, overlap, monkeypatch):
        monkeypatch.setattr(sham_engine, "_block_svd", gate_on_a_worker(sham_engine._block_svd))
        before = threading.active_count()
        assemble_operator(*tp31_operator_inputs())
        assemble_operator(*tp31_operator_inputs())
        assert threading.active_count() == before + 1

    @pytest.mark.parametrize(
        "case", ["one-block", "one-usable-cpu", "openblas-on-two-threads"]
    )
    def test_falls_back_without_starting_a_thread(self, overlap, monkeypatch, case):
        spec, rule = tp31_operator_inputs()
        if case == "one-block":
            spec = coupled_linear_spec()
        elif case == "one-usable-cpu":
            monkeypatch.setattr(sham_engine, "_usable_cpus", USABLE_CPUS)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:
            monkeypatch.setattr(openblas, "numpy_threads", lambda: 2)
        before = threading.active_count()
        assert assemble_operator(spec, rule).pinv is not None
        assert threading.active_count() == before
        assert pools_made() == 0

    def test_concurrent_callers_get_the_serial_factors(self, overlap, monkeypatch):
        # more calling threads and workers than cores share the pool, with a
        # short switch interval; every caller's factors match the serial ones
        monkeypatch.setattr(sham_engine, "_usable_cpus", lambda: 4)
        spec = derive_tpbvp(builtin_problem_32())
        rule = build_rule(BasisConfig(beta=0.5, n_order=50))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as callers:
                futures = [callers.submit(assemble_operator, spec, rule) for _ in range(8)]
                ops = [f.result(timeout=120.0) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        one_block_after_another(monkeypatch)
        serial = assemble_operator(spec, rule)
        for op in ops:
            for got, ref in zip(op.pinv, serial.pinv, strict=True):
                assert all(np.array_equal(a, b) for a, b in zip(got, ref))

    def test_the_pool_keeps_the_size_it_was_made_with(self, overlap, monkeypatch):
        # made while two CPUs were usable, the pool is reused when four are:
        # a call then hands min(blocks, 4) - 1 = 2 of tp32's three blocks to
        # its one worker, and the calling thread takes any it has not started
        spec = derive_tpbvp(builtin_problem_32())
        rule = build_rule(BasisConfig(beta=0.5, n_order=50))
        svd = sham_engine._block_svd
        monkeypatch.setattr(sham_engine, "_block_svd", gate_on_a_worker(svd))
        assemble_operator(spec, rule)
        pool = sham_engine._workers(os.getpid())
        before = threading.active_count()
        monkeypatch.setattr(sham_engine, "_usable_cpus", lambda: 4)
        gated = gate_on_a_worker(svd)
        monkeypatch.setattr(sham_engine, "_block_svd", gated)
        assert assemble_operator(spec, rule).pinv is not None
        assert sham_engine._workers(os.getpid()) is pool and pools_made() == 1
        assert pool._max_workers == 1
        assert threading.active_count() == before
        assert len(gated.threads) == 3
        assert any(t is not threading.main_thread() for t in gated.threads)

    def test_an_error_in_a_worker_reaches_the_caller(self, overlap, monkeypatch):
        gated = gate_on_a_worker(sham_engine._block_svd, fail_in_worker=True)
        monkeypatch.setattr(sham_engine, "_block_svd", gated)
        with pytest.raises(OperatorSingularError, match="spoiled in a worker"):
            assemble_operator(*tp31_operator_inputs())

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method"
    )
    def test_a_forked_child_factors_on_its_own_workers(self, overlap, monkeypatch):
        # the parent's pool has a thread when the child forks; the child's
        # copy of it has none, so the child must start its own worker
        spec, rule = tp31_operator_inputs()
        svd = sham_engine._block_svd
        monkeypatch.setattr(sham_engine, "_block_svd", gate_on_a_worker(svd))
        assemble_operator(spec, rule)

        def child():
            sham_engine._block_svd = gated = gate_on_a_worker(svd, timeout=20.0)
            assert assemble_operator(spec, rule).pinv is not None
            assert any(t is not threading.main_thread() for t in gated.threads)

        process = multiprocessing.get_context("fork").Process(target=child)
        process.start()
        process.join(timeout=60.0)
        if process.is_alive():
            process.kill()
            process.join()
        assert process.exitcode == 0
