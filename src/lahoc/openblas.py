"""Thread counts of the OpenBLAS libraries that NumPy and SciPy bundle, read
and set through ctypes.

Wheels install each package's shared libraries in `<package>.libs` next to
the package. An OpenBLAS exports its thread-count functions under a prefix
(`scipy_openblas` in NumPy's and SciPy's builds) and, for the 64-bit integer
interface, a suffix. A package without such a library (another BLAS, or
another layout) has none here, and callers treat its count as unknown.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import os
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable

# the variables OpenBLAS, OpenMP and MKL read their thread count from
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_NAMES = (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "64_"), ("openblas", ""))


@functools.cache
def _bundled(package: str) -> tuple[tuple[Callable, Callable], ...]:
    """(get, set) thread-count functions of each OpenBLAS in `package`'s
    bundled libraries."""
    libs = Path(importlib.import_module(package).__file__).parent.parent / f"{package}.libs"
    found = []
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for prefix, suffix in _NAMES:
            get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, ()
                put.restype, put.argtypes = None, (ctypes.c_int,)
                found.append((get, put))
                break
    return tuple(found)


def numpy_threads() -> int | None:
    """Thread count of NumPy's bundled OpenBLAS, or None if it has none."""
    libs = _bundled("numpy")
    return libs[0][0]() if libs else None


def _numpy_and_scipy() -> list[tuple[Callable, Callable]]:
    return [lib for package in ("numpy", "scipy") for lib in _bundled(package)]


def thread_counts() -> list[int]:
    """Thread count of each OpenBLAS that NumPy and SciPy bundle, NumPy's first."""
    return [get() for get, _ in _numpy_and_scipy()]


@contextmanager
def one_thread():
    """Run the block with each OpenBLAS that NumPy and SciPy bundle on one
    thread, and restore every previous count after it."""
    previous = thread_counts()
    for _, put in _numpy_and_scipy():
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(_numpy_and_scipy(), previous):
            put(count)


def one_thread_unless_set():
    """`one_thread()`, or a context that changes nothing when one of
    THREAD_VARIABLES is set."""
    if any(os.environ.get(var) for var in THREAD_VARIABLES):
        return nullcontext()
    return one_thread()
