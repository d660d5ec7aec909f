import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.linalg.lapack import dgbsv

from lahoc import (
    DecayAtInfinity,
    InitialValue,
    MeshTrajectory,
    MonomialTerm,
    OCProblem,
    SubsystemSpec,
    SystemSpec,
    TruncationConfig,
    builtin_problem_31,
    builtin_problem_32,
    compare,
    derive_tpbvp,
    oracle_bvp,
    solve_truncated,
)
from lahoc.oracle_bvp import NewtonError, _banded_jacobian, _residual, graded_mesh

from conftest import coupled_linear_spec, linear_decay_spec


class TestTruncationConfig:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TruncationConfig(t_end=0.0)
        with pytest.raises(ValueError):
            TruncationConfig(mesh_points=10)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
    @pytest.mark.parametrize("field", ["t_end"])
    def test_rejects_non_finite_and_zero(self, field, value):
        with pytest.raises(ValueError, match=field):
            TruncationConfig(**{field: value})

    @pytest.mark.parametrize("mesh_points", [49, 0, -1])
    def test_rejects_fewer_than_fifty_intervals(self, mesh_points):
        with pytest.raises(ValueError, match="mesh_points"):
            TruncationConfig(mesh_points=mesh_points)

    def test_defaults_valid(self):
        cfg = TruncationConfig()
        assert cfg.t_end == 40.0 and cfg.mesh_points >= 800

    def test_only_the_horizon_and_the_mesh_are_settings(self):
        assert [f.name for f in fields(TruncationConfig)] == ["t_end", "mesh_points"]


class TestGradedMesh:
    def test_spans_interval_and_increases(self):
        cfg = TruncationConfig(t_end=25.0, mesh_points=200)
        mesh = graded_mesh(cfg)
        assert mesh[0] == 0.0
        assert mesh[-1] == pytest.approx(25.0, rel=1e-14)
        assert len(mesh) == 201
        assert np.all(np.diff(mesh) > 0)

    def test_clusters_near_origin(self):
        cfg = TruncationConfig(t_end=25.0, mesh_points=200)
        mesh = graded_mesh(cfg)
        uniform = 25.0 / 200
        assert mesh[1] - mesh[0] < 0.2 * uniform

    def test_grading_strength_is_four(self):
        cfg = TruncationConfig(t_end=25.0, mesh_points=200)
        mesh = graded_mesh(cfg)
        assert oracle_bvp.GRADING == 4.0
        assert mesh[1] == pytest.approx(25.0 * math.expm1(4.0 / 200) / math.expm1(4.0), rel=1e-14)


class TestLinearSolutions:
    def test_scalar_decay(self):
        traj = solve_truncated(
            linear_decay_spec(), TruncationConfig(t_end=30.0, mesh_points=800)
        )
        t = np.linspace(0.0, 10.0, 200)
        assert np.abs(traj.at(t)[0] - np.exp(-t)).max() < 1e-5
        assert traj.final_residual < 1e-11

    def test_mesh_refinement_improves_accuracy(self):
        t = np.linspace(0.0, 10.0, 200)
        errs = []
        for mesh in (100, 400, 1600):
            traj = solve_truncated(
                linear_decay_spec(), TruncationConfig(t_end=30.0, mesh_points=mesh)
            )
            errs.append(np.abs(traj.at(t)[0] - np.exp(-t)).max())
        assert errs[0] > errs[1] > errs[2]
        # midpoint collocation is second order: 4x mesh -> ~16x error drop
        assert errs[2] < errs[0] / 50

    def test_decay_component_vanishes_at_horizon(self):
        traj = solve_truncated(
            coupled_linear_spec(), TruncationConfig(t_end=30.0, mesh_points=400)
        )
        assert abs(traj.values[1, -1]) < 1e-12
        assert traj.values[0, 0] == pytest.approx(0.7, abs=1e-12)


class TestScalarLqrOracle:
    def test_matches_closed_form(self):
        # x' = x + u, unit weights: x = e^{-sqrt(2) t}, lambda = (1+sqrt(2)) x
        import lahoc

        sub = lahoc.SubsystemSpec(
            a_mat=[[1.0]], b_mat=[[1.0]], q_mat=[[1.0]], r_mat=[[1.0]],
            f_terms=((),), x0=[1.0],
        )
        spec = derive_tpbvp(lahoc.OCProblem(subsystems=(sub,)))
        traj = solve_truncated(spec, TruncationConfig(t_end=30.0, mesh_points=2000))
        t = np.linspace(0.0, 8.0, 100)
        exact = np.exp(-math.sqrt(2.0) * t)
        got = traj.at(t)
        assert np.abs(got[0] - exact).max() < 1e-5
        assert np.abs(got[1] - (1.0 + math.sqrt(2.0)) * exact).max() < 1e-5

    def test_a_short_horizon_keeps_the_infinite_horizon_answer(self):
        # at t_end = 5 / mu the state is still e^-5: lambda(t_end) = 0 would
        # bend the whole trajectory (3.9e-2 off), while the stable-subspace
        # row lambda(t_end) = (1 + mu) x(t_end) leaves only the mesh error
        mu = math.sqrt(2.0)
        traj = solve_truncated(scalar_lqr_spec(1.0, 1.0, 1.0, 1.0, 1.0),
                               TruncationConfig(t_end=5.0 / mu, mesh_points=400))
        x = np.exp(-mu * traj.times)
        assert np.abs(traj.values - np.array([x, (1.0 + mu) * x])).max() < 1e-4


class TestNonlinearBenchmark:
    def test_converges_with_small_residual(self):
        spec = derive_tpbvp(builtin_problem_31())
        cfg = TruncationConfig(t_end=40.0, mesh_points=800)
        traj = solve_truncated(spec, cfg)
        assert traj.final_residual < oracle_bvp.NEWTON_TOL
        assert traj.newton_iters < oracle_bvp.MAX_NEWTON_ITERS
        # initial conditions and decay at the horizon
        assert traj.values[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert traj.values[1, 0] == pytest.approx(0.8, abs=1e-12)
        assert np.abs(traj.values[2:, -1]).max() < 1e-10


def decay_first_spec() -> SystemSpec:
    """Cubic 3-component system whose two decay components come before its
    initial-value component: the boundary rows sit at the band's limits."""
    return SystemSpec(
        dim=3,
        sigma=np.array([[1.0, 0.3, -0.2], [0.1, 2.0, 0.4], [-0.5, 0.2, 1.5]]),
        nonlinear=(
            (MonomialTerm(0.4, (1, 1, 1)),),
            (MonomialTerm(-0.3, (2, 0, 1)), MonomialTerm(0.2, (0, 3, 0))),
            (MonomialTerm(0.5, (0, 1, 2)),),
        ),
        bc=(DecayAtInfinity(), DecayAtInfinity(), InitialValue(0.6)),
    )


def interleaved_spec() -> SystemSpec:
    """Cubic 4-component system whose initial-value and decay components
    alternate, so the boundary rows of both kinds sit between the others."""
    return SystemSpec(
        dim=4,
        sigma=np.array(
            [[1.0, 0.3, 0.0, -0.2], [0.1, -2.0, 0.4, 0.0], [0.0, 0.2, 1.5, 0.3], [-0.5, 0.0, 0.1, -1.2]]
        ),
        nonlinear=(
            (MonomialTerm(0.4, (1, 1, 1, 0)), MonomialTerm(-0.2, (0, 0, 0, 2))),
            (MonomialTerm(-0.3, (2, 0, 1, 0)),),
            (MonomialTerm(0.2, (0, 3, 0, 0)), MonomialTerm(0.1, (1, 0, 0, 1))),
            (MonomialTerm(0.5, (0, 1, 2, 0)),),
        ),
        bc=(InitialValue(0.6), DecayAtInfinity(), InitialValue(-0.3), DecayAtInfinity()),
    )


class TestBoundarySplit:
    @pytest.mark.parametrize("make_spec", [decay_first_spec, interleaved_spec])
    def test_initial_and_end_rows_follow_the_split(self, make_spec):
        # the residual's initial rows, then its decay rows at t_end, one per
        # tag of each kind in component order, whatever order the tags take
        spec = make_spec()
        initial = [r for r, tag in enumerate(spec.bc) if isinstance(tag, InitialValue)]
        decay = [r for r, tag in enumerate(spec.bc) if not isinstance(tag, InitialValue)]
        assert [spec.bc_split[0].tolist(), spec.bc_split[1].tolist()] == [initial, decay]
        end_rows = oracle_bvp._Call(spec).end_rows
        assert np.array_equal(end_rows[:, decay], np.eye(len(decay)))
        times = graded_mesh(TruncationConfig(t_end=5.0, mesh_points=50))
        z = np.random.default_rng(3).standard_normal((spec.dim, len(times)))
        res = _residual(spec, times, z, end_rows)
        values = [spec.bc[r].value for r in initial]
        assert np.array_equal(res[: len(initial)], z[initial, 0] - values)
        assert np.array_equal(res[len(res) - len(decay) :], end_rows @ z[:, -1])


def dense_from_band(bands, ab):
    """The full matrix whose LAPACK `gbsv` band storage is `ab`: entry (R, C)
    at ab[l + u + R - C, C], below l rows of room for the pivoted factor."""
    l, u = bands
    size = ab.shape[1]
    rows, cols = np.indices((size, size))
    diag = l + u + rows - cols
    inside = (diag >= l) & (diag <= 2 * l + u)
    dense = np.zeros((size, size))
    dense[inside] = ab[diag[inside], cols[inside]]
    return dense


def log_band_solves(monkeypatch) -> list[str]:
    """Wrap the oracle's band factorizations (`dgbsv`) and its solves on held
    factors (`dgbtrs`); the returned list names each call, in call order."""
    log = []
    for name in ("dgbsv", "dgbtrs"):
        real = getattr(oracle_bvp, name)

        def logging(*args, _name=name, _real=real, **kwargs):
            log.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(oracle_bvp, name, logging)
    return log


def refactor_every_step_newton(spec, times, z0, count):
    """Newton that factors the band Jacobian at every step: the oracle's
    iteration before it held factors across steps, as the reference. Returns
    `_newton`'s (z, residual), with each band solve added to `count`."""
    n = spec.dim
    z = z0.copy()
    res = _residual(spec, times, z, count.end_rows)
    rnorm = np.linalg.norm(res, ord=np.inf)
    for _ in range(oracle_bvp.MAX_NEWTON_ITERS):
        if rnorm < oracle_bvp.NEWTON_TOL:
            return z, rnorm
        count.solves += 1
        count.factorizations += 1
        (l, u), ab = _banded_jacobian(spec, times, z, count.end_rows)
        *_, delta, info = dgbsv(l, u, ab, res, overwrite_ab=True, overwrite_b=True)
        if info:
            raise NewtonError(f"Jacobian solve failed: LAPACK gbsv info {info}")
        if not np.all(np.isfinite(delta)):
            raise NewtonError("singular Jacobian (non-finite Newton step)")
        step = 1.0
        dz = delta.reshape(len(times), n).T
        while True:
            z_try = z - step * dz
            res_try = _residual(spec, times, z_try, count.end_rows)
            rnorm_try = np.linalg.norm(res_try, ord=np.inf)
            if rnorm_try < (1 - 0.1 * step) * rnorm or step < 1e-4:
                break
            step *= 0.5
        z, res, rnorm = z_try, res_try, rnorm_try
    raise NewtonError("no convergence")


def spoil_first(newton, calls: int):
    """`newton` whose first `calls` calls raise NewtonError without a band solve."""
    made = []

    def spoiled(spec, times, z0, count):
        made.append(1)
        if len(made) <= calls:
            raise NewtonError("spoiled")
        return newton(spec, times, z0, count)

    return spoiled


def reference_solve(monkeypatch, spec, cfg) -> MeshTrajectory:
    with monkeypatch.context() as patch:
        patch.setattr(oracle_bvp, "_newton", refactor_every_step_newton)
        return solve_truncated(spec, cfg)


class TestBandedJacobian:
    @pytest.mark.parametrize(
        "spec",
        [
            derive_tpbvp(builtin_problem_31()),
            derive_tpbvp(builtin_problem_32()),
            decay_first_spec(),
            interleaved_spec(),
        ],
        ids=["tp31", "tp32", "decay_first", "interleaved"],
    )
    def test_matches_central_differences_of_the_residual(self, spec):
        rng = np.random.default_rng(3)
        n = spec.dim
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.6, size=7))])
        m = len(times) - 1
        z = 0.5 * rng.standard_normal((n, m + 1))
        # a continuation step's spec: every monomial coefficient scaled
        nonlinear = tuple(
            tuple(replace(t, coefficient=0.7 * t.coefficient) for t in eq) for eq in spec.nonlinear
        )
        spec = replace(spec, nonlinear=nonlinear)
        end_rows = oracle_bvp._Call(spec).end_rows

        def residual(x):
            return _residual(spec, times, x.reshape(m + 1, n).T, end_rows)

        x = z.T.ravel()  # unknown (t, r) is entry t*n + r
        eps = 1e-6
        fd = np.empty((x.size, x.size))
        for k in range(x.size):
            dx = np.zeros_like(x)
            dx[k] = eps
            fd[:, k] = (residual(x + dx) - residual(x - dx)) / (2 * eps)

        bands, ab = _banded_jacobian(spec, times, z, end_rows)
        l, u = bands
        assert ab.shape == (2 * l + u + 1, x.size) and ab.flags.f_contiguous
        jac = dense_from_band(bands, ab)
        assert np.abs(jac - fd).max() < 1e-7 * max(1.0, np.abs(fd).max())

    def test_is_bit_identical_to_a_dense_reference(self):
        # every entry written one at a time from the residual's definition:
        # the boundary rows, then per interval i the rows k0 + i*n + r with
        # -I - h/2 J_f in the columns of t_i and I - h/2 J_f in those of
        # t_{i+1}, then the decay rows W in the columns of t_end
        spec = interleaved_spec()
        end_rows = oracle_bvp._Call(spec).end_rows
        assert not np.isin(end_rows, [0.0, 1.0]).all()  # not unit rows
        # W's rows are orthogonal to the decaying eigenvectors of -sigma
        rates, vectors = np.linalg.eig(-spec.sigma)
        assert np.abs(end_rows @ vectors[:, rates.real < 0]).max() < 1e-14
        n = spec.dim
        rng = np.random.default_rng(5)
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.6, size=9))])
        m = len(times) - 1
        z = 0.5 * rng.standard_normal((n, m + 1))
        initial = [r for r, tag in enumerate(spec.bc) if isinstance(tag, InitialValue)]
        decay = [r for r in range(n) if r not in initial]
        k0 = len(initial)
        zmid = 0.5 * (z[:, :-1] + z[:, 1:])
        jf = -(spec.sigma + oracle_bvp._monomial_jacobian(spec, zmid))  # (m, n, n)

        dense = np.zeros(((m + 1) * n, (m + 1) * n))
        for j, r in enumerate(initial):
            dense[j, r] = 1.0
        for i in range(m):
            half_h = 0.5 * (times[i + 1] - times[i])
            for r in range(n):
                for c in range(n):
                    unit = 1.0 if r == c else 0.0
                    dense[k0 + i * n + r, i * n + c] = -unit - half_h * jf[i, r, c]
                    dense[k0 + i * n + r, (i + 1) * n + c] = unit - half_h * jf[i, r, c]
        for j in range(len(decay)):
            for c in range(n):
                dense[k0 + m * n + j, m * n + c] = end_rows[j, c]

        bands, ab = _banded_jacobian(spec, times, z, end_rows)
        assert bands == (n - 1 + k0, 2 * n - 1 - k0)
        assert np.array_equal(dense_from_band(bands, ab), dense)
        assert not ab[: bands[0]].any()  # the room gbsv fills stays empty


class TestNewtonSolve:
    @pytest.mark.parametrize(
        "broken, value, message",
        [((slice(None), 7), 0.0, "gbsv info 8"), ((-1, 3), np.nan, "non-finite Newton step")],
        ids=["zero-column", "non-finite"],
    )
    def test_failed_band_solve_raises_newton_error(self, monkeypatch, broken, value, message):
        # a Jacobian with an empty column has a zero pivot, which gbsv reports
        # as info = that column (1-based); a NaN entry ends in a non-finite step
        jacobian = oracle_bvp._banded_jacobian

        def spoiled(*args):
            bands, ab = jacobian(*args)
            ab[broken] = value
            return bands, ab

        monkeypatch.setattr(oracle_bvp, "_banded_jacobian", spoiled)
        with pytest.raises(NewtonError, match=message):
            solve_truncated(coupled_linear_spec(), TruncationConfig(t_end=30.0, mesh_points=100))

    def test_failed_first_solve_falls_back_to_continuation(self, monkeypatch):
        # the first factorization on the coarse mesh reports a zero pivot: its
        # first Newton attempt fails, and the continuation there replaces it
        spec = derive_tpbvp(builtin_problem_31())
        real = oracle_bvp.dgbsv
        calls = []

        def fails_first_on_the_coarse_mesh(l, u, ab, b, **kwargs):
            mesh = ab.shape[1] // spec.dim - 1
            calls.append(mesh)
            if mesh < 400 and calls.count(mesh) == 1:
                return ab, np.zeros(len(b), dtype=np.int32), b, 1  # gbsv's zero pivot
            return real(l, u, ab, b, **kwargs)

        newton = oracle_bvp._newton
        coefficients = []
        meshes = []

        def recording(spec, times, z0, count):
            coefficients.append([t.coefficient for eq in spec.nonlinear for t in eq])
            meshes.append(len(times) - 1)
            return newton(spec, times, z0, count)

        monkeypatch.setattr(oracle_bvp, "dgbsv", fails_first_on_the_coarse_mesh)
        monkeypatch.setattr(oracle_bvp, "_newton", recording)
        band_solves = log_band_solves(monkeypatch)
        traj = solve_truncated(spec, TruncationConfig(t_end=40.0, mesh_points=400))
        assert calls[:2] == [100, 100]
        assert traj.final_residual < oracle_bvp.NEWTON_TOL
        # on the coarse mesh the failed attempt at full strength, then four
        # solves with every coefficient scaled; then one solve at full
        # strength on the fine mesh
        full = np.array([t.coefficient for eq in spec.nonlinear for t in eq])
        scales = [1.0, 0.25, 0.5, 0.75, 1.0, 1.0]
        assert np.array_equal(coefficients, [s * full for s in scales])
        assert meshes == [100] * 5 + [400]
        # every band solve counts: the failed one and each stage's, fresh or
        # on held factors, 23 in all (6 factorizations)
        assert traj.newton_iters == len(band_solves) == 23
        assert traj.factorizations == band_solves.count("dgbsv") == 6

    def test_band_solve_matches_a_dense_solve(self):
        # the Newton step's in-place gbsv against numpy on the dense Jacobian
        spec = interleaved_spec()
        times = graded_mesh(TruncationConfig(t_end=20.0, mesh_points=60))
        z = 0.1 * np.random.default_rng(8).standard_normal((spec.dim, len(times)))
        end_rows = oracle_bvp._Call(spec).end_rows
        res = _residual(spec, times, z, end_rows)
        bands, ab = _banded_jacobian(spec, times, z, end_rows)
        ref = np.linalg.solve(dense_from_band(bands, ab), res)
        *_, delta, info = oracle_bvp.dgbsv(*bands, ab, res, overwrite_ab=True)
        assert info == 0
        assert np.abs(delta - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_linear_system_takes_one_full_step(self, monkeypatch):
        # a full Newton step solves a linear collocation system exactly, so a
        # line search that starts at the full step stops after one iteration,
        # on the quarter mesh and again on the fine one
        newton = oracle_bvp._newton
        steps = []

        def recording(spec, times, z0, count):
            before = count.solves
            result = newton(spec, times, z0, count)
            steps.append((len(times) - 1, count.solves - before))
            return result

        monkeypatch.setattr(oracle_bvp, "_newton", recording)
        traj = solve_truncated(linear_decay_spec(), TruncationConfig(t_end=20.0, mesh_points=200))
        assert steps == [(50, 1), (200, 1)]
        assert traj.newton_iters == 2
        assert traj.final_residual < oracle_bvp.NEWTON_TOL
        assert oracle_bvp.NEWTON_TOL == 1e-11 and oracle_bvp.MAX_NEWTON_ITERS == 30

    @pytest.mark.parametrize(
        "problem, mesh, iters",
        [(builtin_problem_31, 2000, 8 + 1), (builtin_problem_32, 1200, 6 + 1)],
        ids=["tp31", "tp32"],
    )
    def test_newton_iteration_counts(self, monkeypatch, problem, mesh, iters):
        band_solves = log_band_solves(monkeypatch)
        cfg = TruncationConfig(t_end=40.0, mesh_points=mesh)
        traj = solve_truncated(derive_tpbvp(problem()), cfg)
        assert traj.newton_iters == len(band_solves) == iters
        assert traj.final_residual < oracle_bvp.NEWTON_TOL


class TestFactorReuse:
    """`_newton` solves on the band LU of the last factored Jacobian while the
    steps taken on it cut the residual at least fourfold."""

    @pytest.mark.parametrize(
        "spec, t_end, mesh",
        [
            (derive_tpbvp(builtin_problem_31()), 40.0, 2000),
            (derive_tpbvp(builtin_problem_32()), 40.0, 1200),
            (interleaved_spec(), 20.0, 400),
        ],
        ids=["tp31", "tp32", "interleaved"],
    )
    def test_matches_the_refactor_every_step_reference(self, monkeypatch, spec, t_end, mesh):
        cfg = TruncationConfig(t_end=t_end, mesh_points=mesh)
        ref = reference_solve(monkeypatch, spec, cfg)
        band_solves = log_band_solves(monkeypatch)
        traj = solve_truncated(spec, cfg)
        assert band_solves.count("dgbtrs") > 0
        assert np.abs(traj.values - ref.values).max() <= 1e-12 * np.abs(ref.values).max()
        assert max(traj.final_residual, ref.final_residual) < oracle_bvp.NEWTON_TOL

    @pytest.mark.parametrize(
        "problem, mesh, factorizations",
        [(builtin_problem_31, 2000, 4), (builtin_problem_32, 1200, 3)],
        ids=["tp31", "tp32"],
    )
    def test_factors_fewer_times_than_it_solves(self, monkeypatch, problem, mesh, factorizations):
        band_solves = log_band_solves(monkeypatch)
        cfg = TruncationConfig(t_end=40.0, mesh_points=mesh)
        traj = solve_truncated(derive_tpbvp(problem()), cfg)
        assert band_solves.count("dgbsv") <= factorizations
        assert band_solves.count("dgbsv") < traj.newton_iters

    @pytest.mark.parametrize(
        "problem, mesh", [(builtin_problem_31, 2000), (builtin_problem_32, 1200)], ids=["tp31", "tp32"]
    )
    def test_factors_once_per_mesh(self, monkeypatch, problem, mesh):
        # from the linear start the quarter-mesh solve finishes on the factors
        # of its first step, and the fine one takes a single factored step
        spec = derive_tpbvp(problem())
        factored = []  # the mesh intervals of each factored band
        real = oracle_bvp.dgbsv

        def recording(l, u, ab, b, **kwargs):
            factored.append(ab.shape[1] // spec.dim - 1)
            return real(l, u, ab, b, **kwargs)

        monkeypatch.setattr(oracle_bvp, "dgbsv", recording)
        traj = solve_truncated(spec, TruncationConfig(t_end=40.0, mesh_points=mesh))
        assert factored == [mesh // 4, mesh]
        assert traj.factorizations == 2
        assert traj.final_residual < oracle_bvp.NEWTON_TOL

    @pytest.mark.parametrize("scale, held", [(0.1, True), (3.0, False)], ids=["full", "damped"])
    def test_only_a_full_step_holds_its_factors(self, scale, held):
        # the held factors solve the Jacobian they came from, as a dense solve does
        spec = interleaved_spec()
        times = graded_mesh(TruncationConfig(t_end=20.0, mesh_points=60))
        z = scale * np.random.default_rng(8).standard_normal((spec.dim, len(times)))
        end_rows = oracle_bvp._Call(spec).end_rows
        res = _residual(spec, times, z, end_rows)
        rnorm = np.linalg.norm(res, ord=np.inf)
        ref = np.linalg.solve(dense_from_band(*_banded_jacobian(spec, times, z, end_rows)), res)
        z_new, _, _, factors = oracle_bvp._factored_step(spec, times, z, res.copy(), rnorm, end_rows)
        step = np.abs(z - z_new).max() / np.abs(ref).max()
        if not held:
            assert factors is None and step <= 0.5
            return
        assert step == pytest.approx(1.0)
        delta, info = oracle_bvp.dgbtrs(b=res, **factors)
        assert info == 0
        assert np.abs(delta.ravel() - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize(
        "spoil", [lambda x: 10.0 * x, lambda x: np.full_like(x, np.nan)], ids=["too-long", "non-finite"]
    )
    def test_a_step_that_does_not_lower_the_residual_is_refactored(self, monkeypatch, spoil):
        # the first solve on held factors returns a step that raises the
        # residual: it is dropped, and the next step factors the Jacobian at
        # the iterate whose residual that solve was given
        spec = derive_tpbvp(builtin_problem_31())
        cfg = TruncationConfig(t_end=40.0, mesh_points=2000)
        ref = reference_solve(monkeypatch, spec, cfg)
        spoiled = []  # (position in the log, the right-hand side it was given)
        factored_at = []
        dgbtrs = oracle_bvp.dgbtrs
        jacobian = oracle_bvp._banded_jacobian

        def spoils_once(*args, **kwargs):
            x, info = dgbtrs(*args, **kwargs)
            if spoiled:
                return x, info
            # the log wraps this function, so this call is its last entry
            spoiled.append((len(band_solves) - 1, kwargs["b"].copy()))
            return spoil(x), info

        def recording(spec, times, z, end_rows):
            factored_at.append(_residual(spec, times, z, end_rows))
            return jacobian(spec, times, z, end_rows)

        monkeypatch.setattr(oracle_bvp, "dgbtrs", spoils_once)
        monkeypatch.setattr(oracle_bvp, "_banded_jacobian", recording)
        band_solves = log_band_solves(monkeypatch)
        traj = solve_truncated(spec, cfg)
        (position, rhs), = spoiled
        assert band_solves[position : position + 2] == ["dgbtrs", "dgbsv"]
        factorization = band_solves[: position + 1].count("dgbsv")
        assert np.array_equal(factored_at[factorization], rhs)
        assert traj.newton_iters == len(band_solves)
        assert traj.final_residual < oracle_bvp.NEWTON_TOL
        assert np.abs(traj.values - ref.values).max() <= 1e-12 * np.abs(ref.values).max()


def scalar_lqr_spec(a, b, q, r, x0) -> SystemSpec:
    """Optimality system of x' = a x + b u with cost (q x^2 + r u^2) / 2."""
    sub = SubsystemSpec(a_mat=[[a]], b_mat=[[b]], q_mat=[[q]], r_mat=[[r]], f_terms=((),), x0=[x0])
    return derive_tpbvp(OCProblem(subsystems=(sub,)))


def cubic_ivp_spec() -> SystemSpec:
    """x' = x - x^3, x(0) = 0.5: an initial-value problem with no decaying mode."""
    return SystemSpec(dim=1, sigma=[[-1.0]], nonlinear=((MonomialTerm(1.0, (3,)),),),
                      bc=(InitialValue(0.5),))


def ivp_pair_spec() -> SystemSpec:
    """x' = x - x^3 + 0.2 y, y' = -2 y + x^2 from (0.5, 0.3): one growing and
    one decaying mode, two initial values."""
    return SystemSpec(dim=2, sigma=np.array([[-1.0, -0.2], [0.0, 2.0]]),
                      nonlinear=((MonomialTerm(1.0, (3, 0)),), (MonomialTerm(-1.0, (2, 0)),)),
                      bc=(InitialValue(0.5), InitialValue(0.3)))


def stiff_ivp_spec() -> SystemSpec:
    """x' = -50 x - x^3, x(0) = 1: stiff, its one mode decaying."""
    return SystemSpec(dim=1, sigma=[[50.0]], nonlinear=((MonomialTerm(1.0, (3,)),),),
                      bc=(InitialValue(1.0),))


def euler_march(spec, times) -> np.ndarray:
    """Forward Euler on `times` from the initial values of an initial-value
    problem, one step at a time; one that blows up ends in inf or NaN."""
    z = np.zeros((spec.dim, len(times)))
    z[:, 0] = [tag.value for tag in spec.bc]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(times) - 1):
            z[:, k + 1] = z[:, k] + (times[k + 1] - times[k]) * spec.rhs(z[:, k])
    return z


def linear_start(spec, times) -> np.ndarray:
    """Newton's start on `times`, from the split of the spec's linear part."""
    return oracle_bvp._linear_start(spec, times, oracle_bvp._linear_split(spec))


def ramp(spec, times) -> np.ndarray:
    """The start without a decaying split: initial values relaxing linearly
    to zero at the last time, every other component zero."""
    z = np.zeros((spec.dim, len(times)))
    for r, tag in enumerate(spec.bc):
        if isinstance(tag, InitialValue):
            z[r] = tag.value * (1.0 - times / times[-1])
    return z


class TestLinearStart:
    """Newton's start is the decaying solution of dz/dt = -sigma z that meets
    the initial values; where there is none, an initial-value problem's
    forward Euler march, or else the linear ramp."""

    @pytest.mark.parametrize(
        "a, b, q, r, x0",
        [
            (1.0, 1.0, 1.0, 1.0, 1.0),
            (-0.5, 2.0, 0.3, 1.5, -0.8),
            (2.5, 4.0, 5.0, 0.01, 1.0),  # mu = 89.5
            (-4.570581184930598, 0.1, 0.01, 3.28125, 1.0),  # a + mu = 3.3e-6
        ],
    )
    def test_is_the_scalar_lqr_trajectory(self, a, b, q, r, x0):
        # x' = a x + b u: x = x0 e^{-mu t}, mu = sqrt(a^2 + b^2 q / r), lambda = p x,
        # with the Riccati root in the form that does not cancel
        mu = math.sqrt(a * a + b * b * q / r)
        p = r * (a + mu) / (b * b) if a > 0 else q / (mu - a)
        times = graded_mesh(TruncationConfig(t_end=40.0, mesh_points=400))
        x = x0 * np.exp(-mu * times)
        exact = np.array([x, p * x])
        spec = scalar_lqr_spec(a, b, q, r, x0)
        got = linear_start(spec, times)
        assert np.abs(got - exact).max() <= 1e-13 * np.abs(exact).max()

    @pytest.mark.parametrize(
        "spec, t_end",
        [
            (coupled_linear_spec(), 30.0),  # two decaying modes, one initial value
            (decay_first_spec(), 20.0),  # three decaying modes, one initial value
            (  # the one decaying mode has no initial-value component: a singular fit
                SystemSpec(dim=2, sigma=np.diag([-1.0, 1.0]), nonlinear=((), ()),
                           bc=(InitialValue(0.5), DecayAtInfinity())),
                5.0,
            ),
        ],
        ids=["more-decaying-modes", "decay-first", "singular-fit"],
    )
    def test_falls_back_to_the_ramp_and_converges(self, spec, t_end):
        cfg = TruncationConfig(t_end=t_end, mesh_points=200)
        times = graded_mesh(cfg)
        assert np.array_equal(linear_start(spec, times), ramp(spec, times))
        traj = solve_truncated(spec, cfg)
        assert traj.final_residual < oracle_bvp.NEWTON_TOL

    @pytest.mark.parametrize("spec", [cubic_ivp_spec(), ivp_pair_spec()], ids=["no-decaying-mode", "pair"])
    def test_an_initial_value_problem_without_the_split_is_marched(self, spec):
        cfg = TruncationConfig(t_end=10.0, mesh_points=200)
        times = graded_mesh(cfg)
        start = linear_start(spec, times)
        assert np.array_equal(start, euler_march(spec, times))
        assert not np.array_equal(start, ramp(spec, times))
        traj = solve_truncated(spec, cfg)
        assert traj.final_residual < oracle_bvp.NEWTON_TOL

    def test_a_march_that_overflows_falls_back_to_the_ramp_silently(self):
        # x' = x^3 from 2 blows up at t = 1/8; the march overflows to inf and
        # then NaN, and no floating-point warning escapes
        spec = SystemSpec(dim=1, sigma=[[0.0]], nonlinear=((MonomialTerm(-1.0, (3,)),),),
                          bc=(InitialValue(2.0),))
        times = graded_mesh(TruncationConfig(t_end=10.0, mesh_points=200))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            start = linear_start(spec, times)
        assert np.array_equal(start, ramp(spec, times))

    @pytest.mark.parametrize(
        "spec, rate", [(linear_decay_spec(), 1.0), (stiff_ivp_spec(), 50.0)], ids=["linear", "stiff"]
    )
    def test_an_initial_value_problem_with_the_split_starts_from_its_linear_solution(self, spec, rate):
        # the eigenmode start comes first: on 50 intervals the march of the
        # stiff problem is unstable (h * 50 > 2 on the last intervals)
        times = graded_mesh(TruncationConfig(t_end=10.0, mesh_points=50))
        start = linear_start(spec, times)
        assert np.abs(start[0] - spec.bc[0].value * np.exp(-rate * times)).max() <= 1e-15
        assert not np.allclose(start, euler_march(spec, times))

    def test_costates_of_a_derived_spec_are_p_x(self):
        # the start of a derived system is the LQR trajectory: the costates are
        # P x at every time, P the stabilizing root of A'P + PA - PSP + Q = 0,
        # with sigma = [[-A, S], [Q, A']]; distinct closed-loop rates make
        # x(t) span the plane, so that the trajectory fixes P
        sub = SubsystemSpec(
            a_mat=[[0.0, 1.0], [-2.0, -0.5]], b_mat=[[0.0], [1.0]], q_mat=[[1.0, 0.0], [0.0, 0.5]],
            r_mat=[[0.8]], f_terms=((), ()), x0=[1.0, -0.5],
        )
        spec = derive_tpbvp(OCProblem(subsystems=(sub,)))
        n = spec.dim // 2
        a, s, q = -spec.sigma[:n, :n], spec.sigma[:n, n:], spec.sigma[n:, :n]
        times = graded_mesh(TruncationConfig(t_end=40.0, mesh_points=200))
        z = linear_start(spec, times)
        x, costates = z[:n], z[n:]
        p = np.linalg.lstsq(x.T, costates.T, rcond=None)[0].T
        assert np.abs(p @ x - costates).max() <= 1e-12 * np.abs(costates).max()
        riccati = a.T @ p + p @ a - p @ s @ p + q
        assert np.abs(riccati).max() <= 1e-12 * np.abs(q).max()


def scaled_x0(problem, factor: float) -> OCProblem:
    """The problem with every initial state multiplied by `factor`: a harder start."""
    return OCProblem(tuple(replace(s, x0=s.x0 * factor) for s in problem.subsystems))


class TestCoarseToFine:
    """`solve_truncated` makes the direct solve (Newton, then continuation if
    it fails) on a quarter of the intervals, never fewer than
    MIN_MESH_POINTS, then takes Newton on the full mesh from the interpolant
    of that solution; if either fails, it solves directly on the full mesh,
    unless the coarse mesh was the full one."""

    @pytest.mark.parametrize(
        "problem, mesh",
        [
            (builtin_problem_31(), 2000),
            (builtin_problem_32(), 1200),
            (builtin_problem_31(), 50),
            (builtin_problem_31(), 51),  # odd: the coarse mesh is not nested
            (scaled_x0(builtin_problem_31(), 8.0), 1200),  # continued on the coarse mesh
        ],
        ids=["tp31-2000", "tp32-1200", "tp31-50", "tp31-51", "tp31-x0x8-1200"],
    )
    def test_matches_the_direct_fine_solve(self, monkeypatch, problem, mesh):
        # against the direct solve polished far below NEWTON_TOL, so that the
        # bound measures the nested answer's own error, not the reference's
        spec = derive_tpbvp(problem)
        cfg = TruncationConfig(t_end=40.0, mesh_points=mesh)
        traj = solve_truncated(spec, cfg)
        times = graded_mesh(cfg)
        count = oracle_bvp._Call(spec)
        direct, _ = oracle_bvp._solve_direct(spec, times, count)
        with monkeypatch.context() as patch:
            patch.setattr(oracle_bvp, "NEWTON_TOL", 1e-13)
            reference, rnorm = oracle_bvp._newton(spec, times, direct, count)
        assert rnorm < 1e-13
        assert np.array_equal(traj.times, times)
        assert traj.final_residual < oracle_bvp.NEWTON_TOL
        assert np.abs(traj.values - reference).max() < 1e-9

    def test_continues_on_the_coarse_mesh_from_a_hard_start(self, monkeypatch):
        # tp31 with x0 x8: Newton from the linear start fails on 300 intervals,
        # the continuation runs there, and the full mesh takes one Newton solve
        spec = derive_tpbvp(scaled_x0(builtin_problem_31(), 8.0))
        newton = oracle_bvp._newton
        meshes = []

        def recording(spec, times, z0, count):
            meshes.append(len(times) - 1)
            return newton(spec, times, z0, count)

        monkeypatch.setattr(oracle_bvp, "_newton", recording)
        traj = solve_truncated(spec, TruncationConfig(t_end=40.0, mesh_points=1200))
        assert meshes == [300] * 5 + [1200]
        assert traj.final_residual < oracle_bvp.NEWTON_TOL

    @pytest.mark.parametrize("problem", [builtin_problem_31, builtin_problem_32], ids=["tp31", "tp32"])
    def test_at_the_minimum_mesh_the_coarse_mesh_is_the_full_one(self, monkeypatch, problem):
        # 50 // 4 is below the floor: the one solve is on the full mesh, and
        # Newton there starts at its own answer, so it makes no band solve
        newton = oracle_bvp._newton
        steps = []

        def recording(spec, times, z0, count):
            before = count.solves
            result = newton(spec, times, z0, count)
            steps.append((len(times) - 1, count.solves - before))
            return result

        monkeypatch.setattr(oracle_bvp, "_newton", recording)
        band_solves = log_band_solves(monkeypatch)
        traj = solve_truncated(derive_tpbvp(problem()), TruncationConfig(t_end=40.0, mesh_points=50))
        assert oracle_bvp.MIN_MESH_POINTS == 50
        assert [mesh for mesh, _ in steps] == [50, 50] and steps[1][1] == 0
        assert traj.factorizations == band_solves.count("dgbsv") == 1
        assert traj.newton_iters == len(band_solves) == steps[0][1]
        assert traj.final_residual < oracle_bvp.NEWTON_TOL

    def test_at_the_minimum_mesh_a_failed_direct_solve_raises_at_once(self, monkeypatch):
        # x' = x^3 from 2 blows up at t = 1/8, so no solution spans [0, 10]:
        # Newton and the first continuation stage each fail after
        # MAX_NEWTON_ITERS band solves, on the one mesh, and that error is
        # raised rather than the same two solves made again
        spec = SystemSpec(dim=1, sigma=[[0.0]], nonlinear=((MonomialTerm(-1.0, (3,)),),),
                          bc=(InitialValue(2.0),))
        cfg = TruncationConfig(t_end=10.0, mesh_points=50)
        with pytest.raises(NewtonError) as direct:
            oracle_bvp._solve_direct(spec, graded_mesh(cfg), oracle_bvp._Call(spec))
        newton = oracle_bvp._newton
        steps = []

        def recording(spec, times, z0, count):
            before = count.solves
            try:
                return newton(spec, times, z0, count)
            finally:
                steps.append((len(times) - 1, count.solves - before))

        monkeypatch.setattr(oracle_bvp, "_newton", recording)
        with pytest.raises(NewtonError) as raised:
            solve_truncated(spec, cfg)
        assert steps == [(50, oracle_bvp.MAX_NEWTON_ITERS)] * 2
        assert str(raised.value) == str(direct.value)

    @pytest.mark.parametrize("failing", ["coarse", "fine"])
    def test_a_failed_stage_falls_back_to_the_direct_fine_solve(self, monkeypatch, failing):
        # every coarse solve fails, or the warm-started fine one does
        newton = oracle_bvp._newton
        cfg = TruncationConfig(t_end=40.0, mesh_points=400)
        calls = []

        def failing_stage(spec, times, z0, count):
            mesh = len(times) - 1
            calls.append(mesh)
            fine_spoiled = mesh == 400 and calls.count(400) == 1
            if (failing == "coarse" and mesh < 400) or (failing == "fine" and fine_spoiled):
                raise NewtonError("spoiled")
            return newton(spec, times, z0, count)

        spec = derive_tpbvp(builtin_problem_31())
        count = oracle_bvp._Call(spec)
        direct, rnorm = oracle_bvp._solve_direct(spec, graded_mesh(cfg), count)
        iters = count.solves
        monkeypatch.setattr(oracle_bvp, "_newton", failing_stage)
        band_solves = log_band_solves(monkeypatch)
        traj = solve_truncated(spec, cfg)
        assert np.array_equal(traj.values, direct)
        assert traj.final_residual == rnorm
        assert traj.newton_iters == len(band_solves)
        assert traj.factorizations == band_solves.count("dgbsv")
        if failing == "coarse":  # the coarse mesh's Newton and its first
            # continuation stage, then the direct solve's Newton
            assert calls == [100, 100, 400]
            assert traj.newton_iters == iters
        else:
            assert calls == [100, 400, 400]
            assert traj.newton_iters > iters

    @pytest.mark.parametrize(
        "failed, meshes", [(1, [100] * 5 + [400]), (2, [100, 100, 400])],
        ids=["newton", "newton-and-continuation"],
    )
    def test_a_failed_coarse_newton_continues_there_then_falls_back_to_the_direct_solve(
        self, monkeypatch, failed, meshes
    ):
        # the coarse mesh's first Newton fails, then the continuation runs
        # its four stages there and Newton runs on the full mesh from it; or
        # its first stage fails too, and the direct solve runs on the full mesh
        spec = derive_tpbvp(builtin_problem_31())
        cfg = TruncationConfig(t_end=40.0, mesh_points=400)
        times = graded_mesh(cfg)
        newton = oracle_bvp._newton
        count = oracle_bvp._Call(spec)
        if failed == 1:
            coarse_times = graded_mesh(TruncationConfig(t_end=40.0, mesh_points=100))
            with monkeypatch.context() as patch:
                patch.setattr(oracle_bvp, "_newton", spoil_first(newton, failed))
                coarse, _ = oracle_bvp._solve_direct(spec, coarse_times, count)
            start = MeshTrajectory(coarse_times, coarse, spec.rhs(coarse)).at(times)
            want, _ = newton(spec, times, start, count)
        else:
            want, _ = oracle_bvp._solve_direct(spec, times, count)
        spoiled = spoil_first(newton, failed)
        called = []

        def recording(spec, times, z0, count):
            called.append(len(times) - 1)
            return spoiled(spec, times, z0, count)

        monkeypatch.setattr(oracle_bvp, "_newton", recording)
        band_solves = log_band_solves(monkeypatch)
        traj = solve_truncated(spec, cfg)
        assert called == meshes
        assert np.array_equal(traj.values, want)
        assert traj.newton_iters == len(band_solves)
        assert traj.final_residual < oracle_bvp.NEWTON_TOL

    @pytest.mark.parametrize(
        "mesh, meshes", [(200, [50, 200]), (400, [100, 400])], ids=["mesh200", "mesh400"]
    )
    def test_no_decaying_mode_converges_from_its_march_on_the_coarse_mesh(self, monkeypatch, mesh, meshes):
        # x' = x - x^3 from its Euler march: Newton converges on the coarse
        # mesh, and then once on the full one
        newton = oracle_bvp._newton
        calls = []

        def recording(spec, times, z0, count):
            try:
                return newton(spec, times, z0, count)
            finally:
                calls.append(len(times) - 1)

        monkeypatch.setattr(oracle_bvp, "_newton", recording)
        traj = solve_truncated(cubic_ivp_spec(), TruncationConfig(t_end=10.0, mesh_points=mesh))
        assert calls == meshes
        assert traj.final_residual < oracle_bvp.NEWTON_TOL

    def test_no_decaying_mode_converges_at_every_mesh(self):
        # x = (1 + 3 e^{-2t})^{-1/2} rises from 0.5 towards 1
        for mesh in range(50, 801, 25):
            traj = solve_truncated(cubic_ivp_spec(), TruncationConfig(t_end=10.0, mesh_points=mesh))
            exact = 1.0 / np.sqrt(1.0 + 3.0 * np.exp(-2.0 * traj.times))
            assert traj.final_residual < oracle_bvp.NEWTON_TOL, mesh
            assert np.abs(traj.values[0] - exact).max() < 1e-3, mesh

    def test_counts_the_factorizations_of_a_failed_coarse_solve(self, monkeypatch):
        # every factorization on the coarse mesh reports a zero pivot, so its
        # Newton and its first continuation stage each fail after one; both
        # count, with those of the direct solve on the full mesh that follows
        spec = derive_tpbvp(builtin_problem_31())
        cfg = TruncationConfig(t_end=40.0, mesh_points=400)
        count = oracle_bvp._Call(spec)
        oracle_bvp._solve_direct(spec, graded_mesh(cfg), count)
        real = oracle_bvp.dgbsv

        def zero_pivot_on_the_coarse_mesh(l, u, ab, b, **kwargs):
            if ab.shape[1] == 101 * spec.dim:
                return ab, np.zeros(len(b), dtype=np.int64), b, 1
            return real(l, u, ab, b, **kwargs)

        monkeypatch.setattr(oracle_bvp, "dgbsv", zero_pivot_on_the_coarse_mesh)
        band_solves = log_band_solves(monkeypatch)
        traj = solve_truncated(spec, cfg)
        assert band_solves[:2] == ["dgbsv", "dgbsv"]
        assert traj.newton_iters == len(band_solves) == 2 + count.solves
        assert traj.factorizations == band_solves.count("dgbsv") == 2 + count.factorizations
        assert traj.final_residual < oracle_bvp.NEWTON_TOL

    @pytest.mark.parametrize("fallback", [False, True])
    def test_enters_solve_truncated_once_per_call(self, monkeypatch, fallback):
        # a benchmark or a caller that wraps the module attribute sees one
        # call, and `newton_iters` once, on the fallback path too
        solve = oracle_bvp.solve_truncated
        entered = []

        def counting(*args):
            entered.append(1)
            return solve(*args)

        monkeypatch.setattr(oracle_bvp, "solve_truncated", counting)
        newton = oracle_bvp._newton
        fine_solves = []

        def fails_warm_start(spec, times, z0, count):
            if len(times) == 401:
                fine_solves.append(1)
                if fallback and len(fine_solves) == 1:
                    raise NewtonError("spoiled")
            return newton(spec, times, z0, count)

        monkeypatch.setattr(oracle_bvp, "_newton", fails_warm_start)
        oracle_bvp.solve_truncated(linear_decay_spec(), TruncationConfig(t_end=20.0, mesh_points=400))
        assert len(entered) == 1
        assert len(fine_solves) == (2 if fallback else 1)


def interpolant_mesh(kind: str, points: int, rng) -> np.ndarray:
    if kind == "graded":
        tau = np.linspace(0.0, 1.0, points)
        return 40.0 * np.expm1(4.0 * tau) / np.expm1(4.0)
    gaps = rng.uniform(0.05, 1.0, size=points - 1)
    return np.concatenate([[0.0], np.cumsum(gaps)])


def gradient_trajectory(times: np.ndarray, values: np.ndarray) -> MeshTrajectory:
    """The values with finite-difference slopes, for tests that read nodes."""
    return MeshTrajectory(times, values, np.gradient(values, times, axis=1))


class TestMeshInterpolant:
    """`MeshTrajectory.at` is the cubic Hermite interpolant of the mesh values
    and slopes."""

    @pytest.mark.parametrize("components", [1, 12])
    @pytest.mark.parametrize("points", [2, 3, 4, 5, 51, 2001])
    @pytest.mark.parametrize("kind", ["random", "graded"])
    def test_reproduces_cubics_from_their_exact_slopes(self, kind, points, components):
        rng = np.random.default_rng(points * 100 + components)
        times = interpolant_mesh(kind, points, rng)
        span = times[-1]
        coefficients = rng.standard_normal((components, 4))  # cubics in t / span, highest power first

        def exact(t):
            return np.array([np.polyval(c, t / span) for c in coefficients])

        slopes = np.array([np.polyval(np.polyder(c), times / span) / span for c in coefficients])
        traj = MeshTrajectory(times, exact(times), slopes)
        queries = rng.uniform(times[0], times[-1], size=200)
        got = traj.at(queries)
        assert got.shape == (components, len(queries))
        assert np.abs(got - exact(queries)).max() <= 1e-12 * np.abs(exact(queries)).max()
        assert np.array_equal(traj.at(times), traj.values)  # every node, both endpoints among them

    @pytest.mark.parametrize("mesh", [200, 400, 2000])
    def test_the_oracle_between_its_nodes_is_as_close_to_the_lqr_answer_as_at_them(self, mesh):
        # x' = x + u, unit weights: x = e^{-sqrt(2) t}, lambda = (1 + sqrt(2)) x;
        # the interpolant adds no error beyond the collocation's own
        spec = scalar_lqr_spec(1.0, 1.0, 1.0, 1.0, 1.0)
        traj = solve_truncated(spec, TruncationConfig(t_end=40.0, mesh_points=mesh))

        def error(t):
            x = np.exp(-math.sqrt(2.0) * t)
            return np.abs(traj.at(t) - np.array([x, (1.0 + math.sqrt(2.0)) * x])).max()

        midpoints = 0.5 * (traj.times[:-1] + traj.times[1:])
        assert error(midpoints) <= 1.1 * error(traj.times)

    @pytest.mark.parametrize("query", [-1e-6, 5.0 + 1e-6, [1.0, 6.0]])
    def test_queries_outside_the_mesh_raise(self, query):
        times = np.linspace(0.0, 5.0, 11)
        traj = gradient_trajectory(times, np.vstack([np.exp(-times), np.cos(times)]))
        with pytest.raises(ValueError, match="query times"):
            traj.at(query)


class TestCompare:
    def test_zero_for_identical_trajectories(self):
        t = np.linspace(0.0, 5.0, 50)
        traj = gradient_trajectory(t, np.vstack([np.exp(-t), np.cos(t)]))
        result = compare(traj, traj, np.linspace(0.5, 4.5, 11))
        assert result.worst() == 0.0
        assert result.max_dev.shape == (2,)

    def test_reports_component_wise_deviation_and_location(self):
        t = np.linspace(0.0, 5.0, 501)
        a = gradient_trajectory(t, np.vstack([np.exp(-t), np.cos(t)]))
        bumped = np.vstack([np.exp(-t), np.cos(t)])
        bumped[1] += 0.01 * (np.abs(t - 2.0) < 0.004)
        b = gradient_trajectory(t, bumped)
        result = compare(a, b, t)
        assert result.max_dev[0] < 1e-12
        assert result.max_dev[1] == pytest.approx(0.01, rel=1e-6)
        assert result.argmax_time[1] == pytest.approx(2.0, abs=0.01)

    def test_shape_mismatch_rejected(self):
        t = np.linspace(0.0, 5.0, 50)
        a = gradient_trajectory(t, np.exp(-t)[None, :])
        b = gradient_trajectory(t, np.vstack([np.exp(-t), np.cos(t)]))
        with pytest.raises(ValueError):
            compare(a, b, t)
