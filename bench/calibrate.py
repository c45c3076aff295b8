"""Machine-speed calibration for the benchmark's timings.

On a shared virtual machine the speed of one core drifts by 20-30 % over
seconds to minutes.  A fixed kernel that does not involve sgeit, a loop of
small matrix-vector products and scalar Python work, is timed right before
and right after every timed operation, and the operation's time is
reported scaled to the kernel's reference time:

    normalized = wall * reference / measured.

A sample is the median of three timings of the kernel.  The reference is
its median over 231 samples on a 2-core x86-64 VM (Python 3.11, numpy 2.4,
OpenBLAS on one thread), so normalized seconds are seconds on that VM at
its median speed.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REFERENCE = 0.0242  # seconds


class Speed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((49, 231))
        self._x = rng.standard_normal(231)

    def _kernel(self) -> float:
        x = self._x.copy()
        acc = 0.0
        t0 = time.perf_counter()
        for i in range(3000):
            y = self._a @ x
            acc += math.exp(-abs(float(y[0])))
            x[i % 231] = -x[i % 231]
            if np.abs(x).max() > 10.0:
                acc += 1.0
        return time.perf_counter() - t0

    def sample(self) -> float:
        return statistics.median(self._kernel() for _ in range(3))


def scale(before: float, after: float) -> float:
    """Factor that turns a wall time between two samples into reference time."""
    return REFERENCE / (0.5 * (before + after))
