"""NumPy's bundled OpenBLAS, through ctypes: its thread count, and the eight
LAPACK routines lahoc calls.

NumPy's PyPI wheels for Linux install an ILP64 OpenBLAS (64-bit integers) in
`numpy.libs`, next to the package. It exports LAPACK under the prefix
`scipy_` and the suffix `_64_` (`scipy_dgbsv_64_`), and its thread-count
functions as `scipy_openblas_{get,set}_num_threads64_`. lahoc needs that
library: importing this module without it raises ImportError.

Each binding passes LAPACK its integers as int64 and its arrays as aligned
float64 (pivots int64) Fortran-ordered buffers. An array that is not one
already, or that the routine would overwrite without leave, is copied first,
and the argument types check every buffer again, so LAPACK gets no other
pointer. Pivots count rows from 0, as SciPy's wrappers return them; LAPACK's
count from 1.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

# the variables OpenBLAS, OpenMP and MKL read their thread count from
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _load(libs: Path) -> ctypes.CDLL:
    """The ILP64 OpenBLAS with LAPACK in the directory `libs`."""
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        if hasattr(handle, "scipy_dgbsv_64_") and hasattr(handle, "scipy_openblas_get_num_threads64_"):
            return handle
    raise ImportError(
        f"lahoc needs NumPy's PyPI wheel for Linux, which bundles an ILP64 OpenBLAS "
        f"in numpy.libs; found none in {libs}"
    )


_LIB = _load(Path(np.__file__).parent.parent / "numpy.libs")


_get_threads = _LIB.scipy_openblas_get_num_threads64_
_get_threads.restype, _get_threads.argtypes = ctypes.c_int, ()
_set_threads = _LIB.scipy_openblas_set_num_threads64_
_set_threads.restype, _set_threads.argtypes = None, (ctypes.c_int,)


def numpy_threads() -> int:
    """Thread count of NumPy's bundled OpenBLAS."""
    return _get_threads()


@contextmanager
def one_thread():
    """Run the block with NumPy's bundled OpenBLAS, which also runs lahoc's
    LAPACK calls, on one thread, and restore the previous count after it."""
    previous = _get_threads()
    _set_threads(1)
    try:
        yield
    finally:
        _set_threads(previous)


def one_thread_unless_set():
    """`one_thread()`, or a context that changes nothing when one of
    THREAD_VARIABLES is set."""
    if any(os.environ.get(var) for var in THREAD_VARIABLES):
        return nullcontext()
    return one_thread()


_INT = ctypes.POINTER(ctypes.c_int64)
_F64 = np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS,ALIGNED,WRITEABLE")
_I64 = np.ctypeslib.ndpointer(np.int64, flags="F_CONTIGUOUS,ALIGNED,WRITEABLE")


def _routine(name: str, *argtypes):
    """LAPACK's `name` in NumPy's OpenBLAS, with its argument types."""
    routine = getattr(_LIB, f"scipy_{name}_64_")
    routine.restype, routine.argtypes = None, argtypes
    return routine


# the hidden lengths of the CHARACTER arguments (c_size_t each) go last
_dsterf = _routine("dsterf", _INT, _F64, _F64, _INT)
_dgetrf = _routine("dgetrf", _INT, _INT, _F64, _INT, _I64, _INT)
_dgetrs = _routine("dgetrs", ctypes.c_char_p, _INT, _INT, _F64, _INT, _I64, _F64, _INT, _INT,
                   ctypes.c_size_t)
_dgbsv = _routine("dgbsv", _INT, _INT, _INT, _INT, _F64, _INT, _I64, _F64, _INT, _INT)
_dgbtrs = _routine("dgbtrs", ctypes.c_char_p, _INT, _INT, _INT, _INT, _F64, _INT, _I64, _F64,
                   _INT, _INT, ctypes.c_size_t)
_dgebrd = _routine("dgebrd", _INT, _INT, _F64, _INT, _F64, _F64, _F64, _F64, _F64, _INT, _INT)
_dbdsdc = _routine("dbdsdc", ctypes.c_char_p, ctypes.c_char_p, _INT, _F64, _F64, _F64, _INT, _F64,
                   _INT, _F64, _I64, _F64, _I64, _INT, ctypes.c_size_t, ctypes.c_size_t)
_dormbr = _routine("dormbr", ctypes.c_char_p, ctypes.c_char_p, ctypes.c_char_p, _INT, _INT, _INT,
                   _F64, _INT, _F64, _F64, _INT, _F64, _INT, _INT, ctypes.c_size_t, ctypes.c_size_t,
                   ctypes.c_size_t)


def _int(value: int):
    return ctypes.byref(ctypes.c_int64(value))


def _fortran(a, dtype=np.float64, in_place: bool = False) -> np.ndarray:
    """`a` as an aligned, writeable, Fortran-ordered array of `dtype`: `a`
    itself if `in_place` and it is one already, else a copy. Only a safe cast
    is made, so a complex array raises TypeError."""
    a = np.asarray(a)
    flags = a.flags
    if in_place and a.dtype == dtype and flags.f_contiguous and flags.aligned and flags.writeable:
        return a
    return a.astype(dtype, order="F", casting="safe")


def _rhs(b, n: int) -> tuple[np.ndarray, int]:
    """A copy of the right-hand sides `b` (n,) or (n, k) for LAPACK, which
    overwrites it with the solutions, and their count k."""
    b = _fortran(b)
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"right-hand sides must have {n} rows, got shape {b.shape}")
    return b, (b.shape[1] if b.ndim == 2 else 1)


def _pivots(piv, n: int) -> np.ndarray:
    """n row indices, counted from 0, as LAPACK's pivots: int64, from 1. An
    index outside the matrix would make LAPACK swap rows outside it."""
    piv = np.asarray(piv)
    if piv.shape != (n,) or piv.dtype.kind not in "iu" or (n and not 0 <= piv.min() <= piv.max() < n):
        raise ValueError(f"expected {n} integer pivots in [0, {n}), got {piv!r}")
    return np.add(piv, 1, dtype=np.int64)


def _square(a: np.ndarray) -> np.ndarray:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _band(ab, kl: int, ku: int, in_place: bool) -> np.ndarray:
    ab = _fortran(ab, in_place=in_place)
    if ab.ndim != 2 or ab.shape[0] < 2 * kl + ku + 1 or min(kl, ku) < 0:
        raise ValueError(f"band storage of shape {ab.shape} cannot hold kl={kl}, ku={ku}")
    return ab


def dsterf(d, e) -> np.ndarray:
    """Eigenvalues, ascending, of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e. SciPy's `eigh_tridiagonal(eigvals_only=True)`
    gets them from `dstevd`, which calls `dsterf` when the entries need no
    rescaling. Raises LinAlgError if the iteration does not converge."""
    d, e = _fortran(d), _fortran(e)
    n = d.size
    if d.ndim != 1 or e.shape != (max(n - 1, 0),):
        raise ValueError(f"d and e must be 1-D with len(e) = len(d) - 1, got {d.shape}, {e.shape}")
    info = ctypes.c_int64()
    _dsterf(_int(n), d, e, info)
    if info.value:
        raise np.linalg.LinAlgError(f"dsterf: {info.value} off-diagonal entries did not converge")
    return d


def dgetrf(a) -> tuple[np.ndarray, np.ndarray]:
    """LU factors and pivots of a copy of the square matrix `a`, as SciPy's
    `lu_factor`. Raises LinAlgError if a diagonal entry of U is exactly zero."""
    lu = _square(_fortran(a))
    n = lu.shape[0]
    piv, info = np.empty(n, np.int64), ctypes.c_int64()
    _dgetrf(_int(n), _int(n), lu, _int(max(n, 1)), piv, info)
    if info.value:
        raise np.linalg.LinAlgError(f"dgetrf: U[{info.value - 1}, {info.value - 1}] is exactly zero")
    piv -= 1
    return lu, piv


def dgetrs(lu, piv, b) -> np.ndarray:
    """The solution of A x = b from `dgetrf`'s factors of A, as SciPy's
    `lu_solve`; b is not overwritten."""
    lu = _square(_fortran(lu, in_place=True))
    n = lu.shape[0]
    piv = _pivots(piv, n)
    x, nrhs = _rhs(b, n)
    info = ctypes.c_int64()
    _dgetrs(b"N", _int(n), _int(nrhs), lu, _int(max(n, 1)), piv, x, _int(max(n, 1)), info, 1)
    if info.value:
        raise np.linalg.LinAlgError(f"dgetrs: info {info.value}")
    return x


def dgbsv(kl: int, ku: int, ab, b, overwrite_ab: bool = False):
    """Solve the band system in LAPACK band storage `ab` (kl sub- and ku
    superdiagonals, below kl rows of room for the factor) and factor it, as
    `scipy.linalg.lapack.dgbsv`. Returns (lu, piv, x, info), info > 0 at a
    zero pivot; `ab` is overwritten only where allowed, b never."""
    ab = _band(ab, kl, ku, overwrite_ab)
    n = ab.shape[1]
    x, nrhs = _rhs(b, n)
    piv, info = np.empty(n, np.int64), ctypes.c_int64()
    _dgbsv(_int(n), _int(kl), _int(ku), _int(nrhs), ab, _int(ab.shape[0]), piv, x,
           _int(max(n, 1)), info)
    piv -= 1
    return ab, piv, x, info.value


def dgbtrs(ab, kl: int, ku: int, b, ipiv):
    """Solve with `dgbsv`'s band factors and pivots, as
    `scipy.linalg.lapack.dgbtrs`. Returns (x, info); b is not overwritten."""
    ab = _band(ab, kl, ku, in_place=True)
    n = ab.shape[1]
    ipiv = _pivots(ipiv, n)
    x, nrhs = _rhs(b, n)
    info = ctypes.c_int64()
    _dgbtrs(b"N", _int(n), _int(kl), _int(ku), _int(nrhs), ab, _int(ab.shape[0]), ipiv, x,
            _int(max(n, 1)), info, 1)
    return x, info.value


def dgebrd(a) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Reduce a copy of the m x n matrix `a`, m >= n, to the upper bidiagonal
    B = Q^T A P, as `dgesdd` does first. Returns (reflectors, d, e, tauq,
    taup): the reduced copy, which holds the Householder vectors of Q and P
    for `dormbr`, B's diagonal d and superdiagonal e, and the reflectors'
    scalars. The reduction gets the workspace its LWORK = -1 query asks for,
    as in `dgesdd`, so it runs on the same block size."""
    a = _fortran(a)
    if a.ndim != 2 or a.shape[0] < a.shape[1]:
        raise ValueError(f"expected an m x n matrix with m >= n, got shape {a.shape}")
    m, n = a.shape
    d, e, tauq, taup = np.empty(n), np.empty(max(n - 1, 0)), np.empty(n), np.empty(n)
    work, info = np.empty(1), ctypes.c_int64()
    args = (_int(m), _int(n), a, _int(max(m, 1)), d, e, tauq, taup)
    _dgebrd(*args, work, _int(-1), info)
    work = np.empty(max(int(work[0]), 1))
    _dgebrd(*args, work, _int(work.size), info)
    if info.value:
        raise np.linalg.LinAlgError(f"dgebrd: info {info.value}")
    return a, d, e, tauq, taup


def dbdsdc(d, e) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The SVD B = U diag(s) V^T of the upper bidiagonal matrix with diagonal
    d and superdiagonal e, by divide and conquer with COMPQ = 'I', as in
    `dgesdd`. Returns (s, U, V^T): s descending, U and V^T n x n; d and e are
    not overwritten. Raises LinAlgError if it does not converge."""
    d, e = _fortran(d), _fortran(e)
    n = d.size
    if d.ndim != 1 or e.shape != (max(n - 1, 0),):
        raise ValueError(f"d and e must be 1-D with len(e) = len(d) - 1, got {d.shape}, {e.shape}")
    u, vt = np.empty((n, n), order="F"), np.empty((n, n), order="F")
    work, iwork = np.empty(max(3 * n * n + 4 * n, 1)), np.empty(max(8 * n, 1), np.int64)
    info = ctypes.c_int64()
    # Q and IQ, the compact form's outputs, are not referenced with COMPQ = 'I'
    _dbdsdc(b"U", b"I", _int(n), d, e, u, _int(max(n, 1)), vt, _int(max(n, 1)), np.empty(1),
            np.empty(1, np.int64), work, iwork, info, 1, 1)
    if info.value:
        raise np.linalg.LinAlgError(f"dbdsdc: info {info.value}, the SVD did not converge")
    return d, u, vt


def dormbr(vect: str, reflectors, tau, c) -> np.ndarray:
    """Q C (vect 'Q') or C P^T (vect 'P'), Q and P those of `dgebrd`'s
    reduction A = Q B P^T: how `dgesdd` takes B's left and right singular
    vectors back to A's. `reflectors` and `tau` are `dgebrd`'s reduced
    matrix and its tauq or taup; C is not overwritten."""
    if vect not in ("Q", "P"):
        raise ValueError(f"expected vect Q or P, got {vect!r}")
    reflectors, tau, c = _fortran(reflectors, in_place=True), _fortran(tau, in_place=True), _fortran(c)
    if reflectors.ndim != 2 or c.ndim != 2 or tau.shape != (min(reflectors.shape),):
        raise ValueError(f"expected 2-D reflectors and C, and min(reflectors.shape) scalars; got "
                         f"{reflectors.shape}, {c.shape}, {tau.shape}")
    rows, cols = reflectors.shape
    m, n = c.shape
    # Q (rows x rows) multiplies C from the left, P^T (cols x cols) from the right
    side, trans, order, other = (b"L", b"N", m, n) if vect == "Q" else (b"R", b"T", n, m)
    if order != (rows if vect == "Q" else cols):
        raise ValueError(f"C of shape {c.shape} does not fit {vect} of a reduced {reflectors.shape}")
    # the dormqr or dormlq that dormbr calls blocks at most 64 reflectors and
    # wants room for a 65 x 64 tile besides, which dormbr's own LWORK = -1
    # query leaves out; on less room they fall back to smaller blocks
    work, info = np.empty((other + 65) * 64), ctypes.c_int64()
    _dormbr(vect.encode(), side, trans, _int(m), _int(n), _int(cols if vect == "Q" else rows),
            reflectors, _int(max(rows, 1)), tau, c, _int(max(m, 1)), work, _int(work.size), info,
            1, 1, 1)
    if info.value:
        raise np.linalg.LinAlgError(f"dormbr: info {info.value}")
    return c
