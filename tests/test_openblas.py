"""lahoc's LAPACK bindings to NumPy's OpenBLAS against the SciPy routines they
replace, on the systems lahoc passes them: every result must be bit-equal.
SciPy runs its own bundled OpenBLAS, so equal bits mean the same algorithm on
the same input, not one library twice. The three steps of the block SVD are
checked against `np.linalg.svd`, whose `dgesdd` takes the same steps in the
same library: bit-equal singular values, and singular vectors equal to
round-off."""

import ctypes

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, lu_factor, lu_solve
from scipy.linalg import lapack

from lahoc import (
    BasisConfig,
    TruncationConfig,
    build_rule,
    builtin_problem_31,
    builtin_problem_32,
    derive_tpbvp,
    openblas,
    sham_engine,
)
from lahoc.oracle_bvp import _banded_jacobian, _Call, _residual, graded_mesh


def same(a, b) -> bool:
    return np.array_equal(a, b) and np.shape(a) == np.shape(b)


def record_calls(monkeypatch, module, name) -> list[tuple]:
    """Wrap `module.name`; the returned list gets each call's arguments."""
    calls, real = [], getattr(module, name)

    def recording(*args):
        calls.append(tuple(np.copy(a) for a in args))
        return real(*args)

    monkeypatch.setattr(module, name, recording)
    return calls


def test_dsterf_equals_eigh_tridiagonal_on_the_golub_welsch_matrices():
    # the Jacobi matrix of L_n^(1), whose eigenvalues are build_rule's nodes
    for n in range(1, 151):
        k = np.arange(n)
        diag = 2 * k + 2.0
        off = np.sqrt((k[:-1] + 1) * (k[:-1] + 2.0))
        assert same(openblas.dsterf(diag, off), eigh_tridiagonal(diag, off, eigvals_only=True)), n


def test_dgetrf_and_dgetrs_equal_lu_factor_and_lu_solve_on_the_lu_branch(monkeypatch):
    # tp31 at N=12, beta=6 is well enough conditioned to take the LU branch
    blocks = record_calls(monkeypatch, sham_engine, "dgetrf")
    op = sham_engine.assemble_operator(derive_tpbvp(builtin_problem_31()),
                                       build_rule(BasisConfig(beta=6.0, n_order=12)))
    assert op.lu is not None and len(blocks) == len(op.lu) == 2
    rng = np.random.default_rng(12)
    for (block,), (_, _, (lu, piv)) in zip(blocks, op.lu):
        ref_lu, ref_piv = lu_factor(block)
        assert same(lu, ref_lu) and same(piv, ref_piv)
        for rhs in (rng.standard_normal(len(block)), rng.standard_normal((len(block), 3))):
            assert same(openblas.dgetrs(lu, piv, rhs), lu_solve((ref_lu, ref_piv), rhs))


@pytest.mark.parametrize(
    "problem, mesh",
    [(builtin_problem_31, 2000), (builtin_problem_32, 1200)],
    ids=["tp31", "tp32"],
)
def test_dgbsv_and_dgbtrs_equal_scipy_lapack_on_the_paper_bands(problem, mesh):
    spec = derive_tpbvp(problem())
    times = graded_mesh(TruncationConfig(t_end=40.0, mesh_points=mesh))
    z = np.outer(np.ones(spec.dim), np.exp(-times))
    end_rows = _Call(spec).end_rows
    (l, u), ab = _banded_jacobian(spec, times, z, end_rows)
    res = _residual(spec, times, z, end_rows)
    lu, piv, x, info = openblas.dgbsv(l, u, ab.copy(order="F"), res)
    ref_lu, ref_piv, ref_x, ref_info = lapack.dgbsv(l, u, ab.copy(order="F"), res)
    assert info == ref_info == 0
    assert same(lu, ref_lu) and same(piv, ref_piv) and same(x, ref_x)
    b = np.sin(np.arange(len(res)))
    got, info = openblas.dgbtrs(lu, l, u, b, piv)
    want, ref_info = lapack.dgbtrs(ref_lu, l, u, b, ref_piv)
    assert info == ref_info == 0 and same(got, want)


@pytest.mark.parametrize(
    "problem, n, beta",
    [(builtin_problem_31, 100, 1.0), (builtin_problem_32, 50, 0.5), (builtin_problem_31, 120, 6.0)],
    ids=["tp31", "tp32", "tp31-N120"],
)
def test_block_svd_equals_numpy_svd_on_the_pinv_blocks(monkeypatch, problem, n, beta):
    # dgebrd, dbdsdc and dormbr on the k leading vectors are dgesdd's steps
    block_svd = sham_engine._block_svd
    blocks = record_calls(monkeypatch, sham_engine, "_block_svd")
    rule = build_rule(BasisConfig(beta=beta, n_order=n))
    op = sham_engine.assemble_operator(derive_tpbvp(problem()), rule)
    assert op.pinv is not None and len(blocks) == len(op.pinv) > 1
    for (block,) in blocks:
        u, s, vt = block_svd(block)
        ref_u, ref_s, ref_vt = np.linalg.svd(block)
        k = int(np.sum(ref_s > sham_engine.PINV_RCOND * ref_s[0]))
        assert same(s, ref_s)
        assert u.shape == (len(block), k) and vt.shape == (k, len(block)) and k < len(block)
        assert np.abs(u - ref_u[:, :k]).max() <= 1e-13
        assert np.abs(vt - ref_vt[:k]).max() <= 1e-13
        # all n vectors back-transformed: numpy's U and V^T
        reflectors, d, e, tauq, taup = openblas.dgebrd(block)
        _, bu, bvt = openblas.dbdsdc(d, e)
        assert np.abs(openblas.dormbr("Q", reflectors, tauq, bu) - ref_u).max() <= 1e-13
        assert np.abs(openblas.dormbr("P", reflectors, taup, bvt) - ref_vt).max() <= 1e-13


def test_block_svd_steps_never_overwrite_their_inputs():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((9, 9))  # C-ordered: copied, not refused
    a_in = a.copy()
    reflectors, d, e, tauq, taup = openblas.dgebrd(a)
    assert same(a, a_in) and reflectors is not a and reflectors.flags.f_contiguous
    f_ordered = np.asfortranarray(a)
    assert openblas.dgebrd(f_ordered)[0] is not f_ordered and same(f_ordered, a_in)
    d_in, e_in = d.copy(), e.copy()
    s, u, vt = openblas.dbdsdc(d, e)
    assert same(d, d_in) and same(e, e_in) and s is not d
    assert same(s, np.linalg.svd(a)[1])
    for vect, tau, c in [("Q", tauq, u[:, :4]), ("P", taup, vt[:4])]:
        c_in, reflectors_in, tau_in = c.copy(), reflectors.copy(), tau.copy()
        out = openblas.dormbr(vect, reflectors, tau, c)
        assert same(c, c_in) and same(reflectors, reflectors_in) and same(tau, tau_in)
        assert out is not c and out.shape == c.shape


def test_dgbsv_writes_in_place_only_where_allowed():
    spec = derive_tpbvp(builtin_problem_31())
    times = graded_mesh(TruncationConfig(t_end=40.0, mesh_points=400))
    z = np.outer(np.ones(spec.dim), np.exp(-times))
    end_rows = _Call(spec).end_rows
    (l, u), ab = _banded_jacobian(spec, times, z, end_rows)
    res = _residual(spec, times, z, end_rows)
    ab_in, res_in = ab.copy(order="F"), res.copy()
    lu, _, x, _ = openblas.dgbsv(l, u, ab, res)
    assert same(ab, ab_in) and same(res, res_in) and lu is not ab and x is not res
    lu_in_place, _, x_again, _ = openblas.dgbsv(l, u, ab, res, overwrite_ab=True)
    assert lu_in_place is ab and same(res, res_in) and x_again is not res
    assert same(lu_in_place, lu) and same(x_again, x)


class TestErrors:
    def test_exactly_singular_lu_block_raises(self):
        with pytest.raises(np.linalg.LinAlgError, match="exactly zero"):
            openblas.dgetrf(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_zero_band_column_is_reported_as_info(self):
        # the oracle turns this into NewtonError("... LAPACK gbsv info 3"):
        # tests/test_oracle_bvp.py, test_failed_band_solve_raises_newton_error
        ab = np.zeros((4, 4), order="F")  # kl = ku = 1: one row of room, then the band
        ab[2] = 2.0
        ab[2, 2] = 0.0
        *_, info = openblas.dgbsv(1, 1, ab, np.ones(4))
        assert info == lapack.dgbsv(1, 1, ab, np.ones(4))[-1] == 3

    def test_c_ordered_and_integer_arrays_are_copied(self):
        rng = np.random.default_rng(3)
        ab = np.asfortranarray(rng.standard_normal((7, 9)))
        b = rng.integers(-5, 5, size=9)
        want = openblas.dgbsv(2, 2, ab.copy(order="F"), b.astype(float))
        c_ordered = np.ascontiguousarray(ab)
        got = openblas.dgbsv(2, 2, c_ordered, b, overwrite_ab=True)
        assert got[0] is not c_ordered and same(c_ordered, ab) and b.dtype == np.int64
        assert all(same(g, w) for g, w in zip(got, want))

    def test_other_arrays_never_reach_lapack(self):
        ab = np.zeros((7, 9))  # C-ordered
        with pytest.raises(ctypes.ArgumentError):
            openblas._dgbsv(*(openblas._int(v) for v in (9, 2, 2, 1)), ab, openblas._int(7),
                            np.zeros(9, np.int64), np.zeros(9), openblas._int(9),
                            ctypes.c_int64())
        with pytest.raises(TypeError):
            openblas.dgbsv(2, 2, np.zeros((7, 9), complex), np.zeros(9))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: openblas.dgbsv(2, 2, np.zeros((6, 9)), np.zeros(9)),  # no room for kl rows
            lambda: openblas.dgbsv(2, 2, np.zeros((7, 9)), np.zeros(8)),
            lambda: openblas.dgbtrs(np.zeros((7, 9)), 2, 2, np.zeros(9), np.ones(8, np.int64)),
            lambda: openblas.dgbtrs(np.zeros((7, 9)), 2, 2, np.zeros(9), np.arange(1, 10)),
            lambda: openblas.dgetrs(np.eye(3), np.array([0, -1, 2]), np.zeros(3)),
            lambda: openblas.dgetrs(np.eye(3), np.zeros(3), np.zeros(3)),
            lambda: openblas.dgetrs(np.eye(3), np.ones(3, np.int64), np.zeros(4)),
            lambda: openblas.dgetrf(np.zeros((2, 3))),
            lambda: openblas.dsterf(np.ones(3), np.ones(3)),
            lambda: openblas.dgebrd(np.zeros((2, 3))),
            lambda: openblas.dgebrd(np.zeros(3)),
            lambda: openblas.dbdsdc(np.ones(3), np.ones(3)),
            lambda: openblas.dbdsdc(np.ones((3, 1)), np.ones(2)),
            lambda: openblas.dormbr("Q", np.eye(4), np.zeros(4), np.zeros((3, 2))),
            lambda: openblas.dormbr("P", np.eye(4), np.zeros(4), np.zeros((2, 3))),
            lambda: openblas.dormbr("Q", np.eye(4), np.zeros(3), np.zeros((4, 2))),
            lambda: openblas.dormbr("Q", np.eye(4), np.zeros(4), np.zeros(4)),
            lambda: openblas.dormbr("X", np.eye(4), np.zeros(4), np.zeros((4, 2))),
        ],
        ids=["band-rows", "gbsv-rhs", "gbtrs-pivots", "gbtrs-pivot-past-the-end",
             "getrs-negative-pivot", "getrs-float-pivots", "getrs-rhs", "getrf-square", "sterf-e",
             "gebrd-wide", "gebrd-1d", "bdsdc-e", "bdsdc-2d", "ormbr-q-rows", "ormbr-p-columns",
             "ormbr-tau", "ormbr-1d", "ormbr-vect"],
    )
    def test_mismatched_shapes_raise_before_the_call(self, monkeypatch, call):
        for name in ("_dgebrd", "_dbdsdc", "_dormbr"):
            monkeypatch.setattr(openblas, name, lambda *args: pytest.fail("LAPACK reached"))
        with pytest.raises(ValueError):
            call()


def test_missing_library_is_one_import_error_line(tmp_path):
    with pytest.raises(ImportError) as raised:
        openblas._load(tmp_path)
    message = str(raised.value)
    assert "NumPy's PyPI wheel" in message and "ILP64 OpenBLAS" in message
    assert len(message.splitlines()) == 1
