"""Hot numeric kernels: fading-trace synthesis and tapped-delay-line filtering."""

from __future__ import annotations

import numpy as np


def jakes_trace(omegas: np.ndarray, phases: np.ndarray, ts: float, n_samples: int) -> np.ndarray:
    """Sum-of-sinusoids fading trace h[i] = sum_k exp(j(w_k*i*ts + p_k))/sqrt(K)."""
    t = np.arange(n_samples) * ts
    acc = np.zeros(n_samples, dtype=np.complex128)
    for w, p in zip(omegas, phases):
        acc += np.exp(1j * (w * t + p))
    return acc / np.sqrt(len(omegas))


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
