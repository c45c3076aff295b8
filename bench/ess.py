"""Effective sample size of a Markov chain, split-chain form.

Follows the split-chain estimator of Vehtari, Gelman, Simpson, Carpenter
and Buerkner (2021), without rank normalization: every chain is cut into
two halves, the autocorrelation is combined across all halves, and the sum of
autocorrelations is truncated by Geyer's initial monotone sequence.  A
chain that never moves has no estimable variance; its ESS is reported as
0 rather than NaN.
"""

from __future__ import annotations

import math

import numpy as np


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row, lags 0..n-1, via FFT."""
    n = x.shape[-1]
    centred = x - x.mean(axis=-1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centred, n=size, axis=-1)
    return np.fft.irfft(f * np.conjugate(f), n=size, axis=-1)[..., :n] / n


def ess(chains) -> float:
    """ESS of one scalar over one chain (1-D) or equal-length chains (2-D).

    Finite and >= 0 for any input.
    """
    x = np.atleast_2d(np.asarray(chains, dtype=np.float64))
    half = x.shape[1] // 2
    if half < 2 or not np.isfinite(x).all():
        return 0.0
    halves = np.concatenate([x[:, :half], x[:, half : 2 * half]])
    m, n = halves.shape
    acov = _autocovariance(halves)
    within = acov[:, 0].mean() * n / (n - 1)
    var_plus = within * (n - 1) / n + halves.mean(axis=1).var(ddof=1)
    if not var_plus > 0.0:
        return 0.0
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # Geyer: sum consecutive pairs while positive, forced non-increasing
    tau = -1.0
    prev = math.inf
    for t in range(0, n - 1, 2):
        pair = rho[t] + rho[t + 1]
        if pair <= 0.0:
            break
        prev = min(prev, pair)
        tau += 2.0 * prev
    total = m * n
    return float(min(total / tau, total * math.log10(total)))


def ess_per_coordinate(chains) -> np.ndarray:
    """ESS of every coordinate of a list of equal-shape (draws, dims) chains."""
    stacked = np.stack([np.asarray(c, dtype=np.float64) for c in chains])
    return np.array([ess(stacked[:, :, d]) for d in range(stacked.shape[2])])
