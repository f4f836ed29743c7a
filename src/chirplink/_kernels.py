"""Hot numeric kernel: fading-trace synthesis."""

from __future__ import annotations

from math import isqrt

import numpy as np


def jakes_trace(omegas: np.ndarray, weights: np.ndarray, ts: float, n_samples: int) -> np.ndarray:
    """Per-lag sum-of-sinusoids gains g[l, i] = sum_k weights[k, l] * exp(j*w_k*i*ts).

    ``weights`` has shape (K, lags) and the result (lags, n_samples); a moving
    fade's K = 32 folded frequencies are ``2*pi*fd * FOLDED_COS``.  With block
    size ``B = isqrt(n_samples)`` and ``nb = ceil(n_samples / B)`` blocks,
    sample ``i = b*B + r`` factorizes as ``exp(j*w_k*i*ts) =
    exp(j*w_k*b*B*ts) * exp(j*w_k*r*ts)``: a coarse (nb, K) and a fine (B, K)
    table, K*(nb + B) exponentials in place of K*n_samples, and no
    (K, n_samples) table.  Sample (b, r) of lag l is
    ``sum_k coarse[b, k] * weights[k, l] * fine[r, k]``, taken in real
    arithmetic as two length-2K dots of the interleaved (re, im) coarse terms
    with the rows ``conj(fine[r])`` and ``j*conj(fine[r])``.  ``np.einsum``
    without path optimization runs the dots in numpy's own loops for every
    caller: only the harness's frame ranges run under the one-thread BLAS
    pin (:mod:`._blas`), and ``tvfs_realization`` is public, so a BLAS
    product here could start a thread pool beside the caller's work.
    """
    block = isqrt(n_samples)
    n_blocks = -(-n_samples // block)
    coarse = np.exp(1j * np.outer(np.arange(n_blocks) * (block * ts), omegas))
    conj_fine = np.exp(-1j * np.outer(np.arange(block) * ts, omegas))
    fine = np.stack([conj_fine, 1j * conj_fine], axis=1).view(np.float64).reshape(2 * block, -1)
    terms = np.ascontiguousarray(coarse * weights.T[:, None, :]).view(np.float64)
    out = np.einsum("lbk,jk->lbj", terms, fine, optimize=False).view(np.complex128)
    return out.reshape(len(out), -1)[:, :n_samples]
