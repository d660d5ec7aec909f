"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the same code runs up to twice as slow for seconds to
minutes at a time, because of other tenants of the host, with nothing else
busy in the machine itself. The benchmark times its work in pieces of a few
seconds at most, runs this kernel right after each piece for a fifth of the
piece's duration, and divides the piece's time by the slowdown the kernel saw
just before and just after the piece: the piece's time at the speed at which
one sample of the kernel takes REFERENCE_S seconds. Scaling each piece by the
samples next to it matters: scaling a whole window by the median of all its
samples steadied nothing in trials, samples after a piece alone steadied it
less than samples on both sides.

The kernel is the benchmark's own code and never changes with lahoc: the
node-wise truncated Cauchy product of two 60-term series of 101-point arrays,
the kind of work (Python loops over small NumPy arrays, one BLAS thread) that
takes 60-95% of the solve time on every workload.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

TERMS = 60
POINTS = 101
PASSES = 20  # Cauchy products per sample, about 40 ms
# Typical time of one sample on the machine described in README.md, where the
# median of a run's samples moved between 0.026 and 0.052 s from run to run.
REFERENCE_S = 0.040
SHARE = 0.2  # seconds of samples after a piece, per second of the piece

_rng = np.random.default_rng(0)
_A = [_rng.standard_normal(POINTS) for _ in range(TERMS)]
_B = [_rng.standard_normal(POINTS) for _ in range(TERMS)]


def _cauchy(a, b) -> list[np.ndarray]:
    out = []
    for k in range(len(a)):
        acc = np.zeros(POINTS)
        for j in range(k + 1):
            acc += a[j] * b[k - j]
        out.append(acc)
    return out


def sample() -> float:
    """Wall time of one sample of the kernel."""
    t0 = time.perf_counter()
    for _ in range(PASSES):
        _cauchy(_A, _B)
    return time.perf_counter() - t0


def measure(seconds: float) -> list[float]:
    """Samples back to back for about `seconds` (at least one)."""
    samples = []
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        samples.append(sample())
    return samples


def slowdown(samples: list[float]) -> float:
    """How many times slower than the reference the machine ran over the samples."""
    return statistics.median(samples) / REFERENCE_S


class Meter:
    """Scales timed pieces of work to the reference speed and keeps every
    sample it took."""

    def __init__(self):
        self.samples: list[float] = []
        self._before: list[float] = []  # the samples taken after the last piece

    def scale(self, wall_s: float) -> float:
        """`wall_s`, the time of a piece of work that has just ended, at the
        reference speed measured right before and right after it."""
        after = measure(SHARE * wall_s)
        self.samples += after
        around, self._before = self._before + after, after
        return wall_s / slowdown(around)
