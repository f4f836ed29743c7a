"""Reference implementations used to check the library code.

Most of this is deliberately brute-force or closed-form and shares no code
with the package: direct O(N^2) transforms, direct convolution, and textbook
M-ary orthogonal-signaling error rates evaluated in extended precision.

The exception is :func:`waveform_frozen_frame`, the reference for the
harness's frozen-channel frames (which are drawn on despread spectra): it
composes the package's waveform primitives, frame building, channel, noise,
region slicing, estimation, equalization and detection, into the full
sample-level frame.
"""

from __future__ import annotations

from math import comb

import mpmath as mp
import numpy as np
from scipy import integrate
from scipy.stats import norm

from chirplink.chanest import equalize_flat, ls_flat
from chirplink.channel import FLAT_PROFILE, apply_awgn, apply_channel, tvfs_realization
from chirplink.chirp import SpreadingFactor, raw_upchirp
from chirplink.framing import FrameConfig, average_sync, build_frame, extract_regions
from chirplink.harness import CHANNELS
from chirplink.modem import SCHEMES

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


def waveform_frozen_frame(
    scheme: str,
    channel: str,
    sf: int,
    sigma2: float,
    payload_symbols: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One frozen-channel frame simulated sample by sample: (tx, detected) symbols.

    ``channel`` is ``awgn``, ``rayleigh-perfect`` or ``rayleigh-static-est``.
    The full frame (preamble and payload) passes one frozen flat fade
    and AWGN; coherent schemes on a fading channel are equalized with the true
    gain (genie) or the least-squares estimate from the averaged sync chirps.
    """
    spec = SCHEMES[scheme]
    chan = CHANNELS[channel]
    if not chan.frozen:
        raise ValueError(f"{channel} is not a frozen channel")
    sfo = SpreadingFactor(sf)
    fcfg = FrameConfig(sf=sfo, payload_symbols=payload_symbols)
    tx = rng.integers(0, sfo.n, size=(payload_symbols, spec.streams))
    y = build_frame(fcfg, tx, scheme)
    if chan.fading:
        realization = tvfs_realization(y.size, FLAT_PROFILE.lag_groups(250e3), 0.0, rng)
        y = apply_channel(y, realization)
    y = apply_awgn(y, sigma2, rng)
    sync_up, data = extract_regions(y, fcfg)
    if spec.coherent and chan.fading:
        if chan.genie:
            h = complex(realization.gains[0, 0])
        else:
            h = ls_flat(average_sync(sync_up), raw_upchirp(sfo))
        data = equalize_flat(data, h)
    return tx, spec.detect(data, sfo)
