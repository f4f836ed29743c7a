"""Independent reference implementations used to check the library code.

Everything here is deliberately brute-force or closed-form and shares no code
with the package: direct O(N^2) transforms, direct convolution, and textbook
M-ary orthogonal-signaling error rates evaluated in extended precision.
"""

from __future__ import annotations

from math import comb

import mpmath as mp
import numpy as np
from scipy import integrate
from scipy.stats import norm

mp.mp.dps = 60


def direct_dft(x: np.ndarray) -> np.ndarray:
    """Forward DFT by explicit summation."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    out = np.empty(n, dtype=np.complex128)
    for f in range(n):
        acc = 0.0 + 0.0j
        for i in range(n):
            acc += x[i] * np.exp(-2j * np.pi * f * i / n)
        out[f] = acc
    return out


def circular_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Circular convolution by explicit summation; ``b`` is zero-padded to len(a)."""
    a = np.asarray(a, dtype=np.complex128)
    h = np.zeros(a.size, dtype=np.complex128)
    h[: len(b)] = b
    out = np.empty(a.size, dtype=np.complex128)
    for i in range(a.size):
        acc = 0.0 + 0.0j
        for j in range(a.size):
            acc += a[(i - j) % a.size] * h[j]
        out[i] = acc
    return out


def linear_convolve_timevarying(
    x: np.ndarray, delays: np.ndarray, gains: np.ndarray
) -> np.ndarray:
    """y[i] = sum_l gains[l, i] * x[i - d_l], truncated to len(x)."""
    n = len(x)
    y = np.zeros(n, dtype=np.complex128)
    for i in range(n):
        for l, d in enumerate(delays):
            j = i - int(d)
            if 0 <= j < n:
                y[i] += gains[l, i] * x[j]
    return y


def sos_tap_gains_per_lag(
    tap_lags: np.ndarray,
    powers: np.ndarray,
    phases: np.ndarray,
    max_doppler_hz: float,
    sample_rate_hz: float,
    n_samples: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Synthesize every physical tap on its own, then add the taps per lag.

    Tap ``l`` is ``sqrt(p_l) * sum_k exp(j(w_k t + phi_lk)) / sqrt(K)`` with
    ``w_k = 2 pi fd cos(2 pi (k + 1/2) / K)``; returns (distinct lags, gains).
    """
    k = phases.shape[1]
    omegas = 2 * np.pi * max_doppler_hz * np.cos(2 * np.pi * (np.arange(k) + 0.5) / k)
    t = np.arange(n_samples) / sample_rate_hz
    lags = np.unique(tap_lags)
    gains = np.zeros((lags.size, n_samples), dtype=np.complex128)
    for lag, p, phi in zip(tap_lags, powers, phases):
        tap = np.zeros(n_samples, dtype=np.complex128)
        for w, ph in zip(omegas, phi):
            tap += np.exp(1j * (w * t + ph))
        gains[np.searchsorted(lags, lag)] += np.sqrt(p) * tap / np.sqrt(k)
    return lags, gains


def noncoherent_mary_ser(es_over_n0: float, m: int) -> float:
    """Exact symbol error rate of non-coherent M-ary orthogonal signaling.

    Alternating-sign binomial sum; evaluated with exact integer binomials and
    60-digit arithmetic because the terms cancel catastrophically in float64.
    """
    g = mp.mpf(es_over_n0)
    total = mp.mpf(0)
    for i in range(1, m):
        term = mp.mpf(comb(m - 1, i)) / (i + 1) * mp.e ** (-g * i / (i + 1))
        total += term if i % 2 == 1 else -term
    return float(total)


def coherent_mary_ser(es_over_n0: float, m: int) -> float:
    """Symbol error rate of coherent M-ary orthogonal signaling (numeric quadrature)."""
    shift = np.sqrt(2.0 * es_over_n0)

    def integrand(z: float) -> float:
        return norm.pdf(z) * norm.cdf(z + shift) ** (m - 1)

    p_correct, _ = integrate.quad(integrand, -12.0, 12.0, limit=400)
    return 1.0 - p_correct


def mary_ber_from_ser(ser: float, sf: int) -> float:
    """Average BER for natural-binary labels when symbol errors are uniform."""
    m = 1 << sf
    return ser * (m / 2) / (m - 1)


def binomial_ci_halfwidth(p_hat: float, n: int, z: float = 1.96) -> float:
    """Normal-approximation confidence halfwidth for a proportion."""
    return z * np.sqrt(max(p_hat * (1.0 - p_hat), 1e-300) / n)
