"""Hot numeric kernels: fading-trace synthesis and tapped-delay-line filtering."""

from __future__ import annotations

import numpy as np


def jakes_trace(omegas: np.ndarray, weights: np.ndarray, ts: float, n_samples: int) -> np.ndarray:
    """Per-lag sum-of-sinusoids gains g[l, i] = sum_k weights[k, l] * exp(j*w_k*i*ts).

    ``weights`` has shape (K, lags) and the result (lags, n_samples).  Each
    sinusoid is evaluated once and added into every lag, one at a time, so no
    (K, n_samples) table is ever built.
    """
    jt = 1j * (np.arange(n_samples) * ts)
    acc = np.zeros((weights.shape[1], n_samples), dtype=np.complex128)
    for w, row in zip(omegas, weights):
        e = np.exp(w * jt)
        for l, c in enumerate(row):
            acc[l] += c * e
    return acc


def tdl_apply(x: np.ndarray, delays: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """y[i] = sum_l gains[l, i] * x[i - delays[l]], zero before the signal start."""
    n = x.size
    y = np.zeros(n, dtype=np.complex128)
    for l, d in enumerate(delays):
        d = int(d)
        if d == 0:
            y += gains[l] * x
        elif d < n:
            y[d:] += gains[l, d:] * x[: n - d]
    return y
