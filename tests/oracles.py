"""Reference implementations used to check the library code.

Most of this is deliberately brute-force or closed-form and shares no code
with the package: direct O(N^2) transforms, direct convolution, and textbook
M-ary orthogonal-signaling error rates evaluated in extended precision.

The exceptions are the references for the harness's flat-channel frames.
:func:`waveform_flat_frame` composes the package's waveform primitives, frame
building, channel, noise, region slicing, estimation, equalization and
detection, into the full sample-level frame.  :func:`explicit_frozen_frame`
draws a frozen frame's despread spectra with all N noise bins of every data
chirp and decides with the scheme's argmax rule, where the harness draws each
decision from the order statistic.  :func:`frozen_frame` is the harness's
stream-version-4 frozen frame drawn and decided on its own, in Python complex
scalars, where the harness decides a whole batch of frames at once.
:func:`preamble_mean_response` averages a waveform realization's sample gains
over the sync up-chirp bodies, where the harness's multipath genie contracts
the folded weights with a Doppler kernel.
"""

from __future__ import annotations

import math
from math import comb

import mpmath as mp
import numpy as np
from scipy import integrate
from scipy.stats import norm

from chirplink.chanest import equalize_flat, ls_flat
from chirplink.channel import (
    FLAT_PROFILE,
    ChannelRealization,
    apply_awgn,
    apply_channel,
    max_doppler_hz,
    tvfs_realization,
)
from chirplink.chirp import raw_upchirp
from chirplink.framing import FrameConfig, average_sync, build_frame, extract_regions
from chirplink.harness import _MEAN_CAP, CHANNELS
from chirplink.modem import SCHEMES
from chirplink.orderstat import log1mexp, log_ndtr

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


def preamble_mean_response(realization: ChannelRealization, fcfg: FrameConfig) -> np.ndarray:
    """Length-N impulse response: each lag's sample gains averaged over the sync up-chirp bodies."""
    sync_up, _ = extract_regions(realization.gains, fcfg)
    means = sync_up.reshape(len(realization.delays), -1).mean(axis=-1)
    h = np.zeros(fcfg.n, dtype=np.complex128)
    h[realization.delays] = means
    return h


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


def waveform_flat_rx(
    fcfg: FrameConfig,
    tx: np.ndarray,
    scheme: str,
    fading: bool,
    fd: float,
    sigma2: float,
    rng: np.random.Generator,
):
    """One flat-channel frame sample by sample: (sync_up, data, realization).

    The full frame (preamble and payload, with its cyclic prefixes) passes one
    flat fade of maximum Doppler ``fd`` Hz, frozen when it is 0 (its 64 phases
    drawn from ``rng``; ``realization`` is None without ``fading``), then AWGN
    of variance ``sigma2`` (no draw when it is 0).  Returns the prefix-stripped
    sync up-chirp and data chirp bodies.
    """
    y = build_frame(fcfg, tx, scheme)
    realization = None
    if fading:
        taps = FLAT_PROFILE.lag_groups(250e3)
        realization = tvfs_realization(y.size, taps, fd, taps.draw_weights(rng))
        y = apply_channel(y, realization)
    y = apply_awgn(y, sigma2, rng)
    sync_up, data = extract_regions(y, fcfg)
    return sync_up, data, realization


def waveform_flat_frame(
    scheme: str,
    channel: str,
    sf: int,
    sigma2: float,
    payload_symbols: int,
    rng: np.random.Generator,
    speed_kmh: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """One flat-channel frame simulated sample by sample: (tx, detected) symbols.

    ``channel`` is ``awgn``, ``rayleigh-perfect``, ``rayleigh-static-est`` or
    ``rayleigh-mobile-est``; only the last reads ``speed_kmh`` (863 MHz
    carrier, 250 kHz sampling).  Coherent schemes on a fading channel are
    equalized with the true gain (genie, a frozen fade) or the least-squares
    estimate from the averaged sync chirps.
    """
    spec = SCHEMES[scheme]
    chan = CHANNELS[channel]
    if chan.multipath:
        raise ValueError(f"{channel} is not a flat channel")
    fcfg = FrameConfig(sf=sf, payload_symbols=payload_symbols)
    tx = rng.integers(0, 1 << sf, size=(payload_symbols, spec.streams))
    fd = max_doppler_hz(speed_kmh, 863e6) if chan.moving else 0.0
    sync_up, data, realization = waveform_flat_rx(fcfg, tx, scheme, chan.fading, fd, sigma2, rng)
    if spec.coherent and chan.fading:
        if chan.genie:
            h = complex(realization.gains[0, 0])
        else:
            h = ls_flat(average_sync(sync_up), raw_upchirp(sf))
        data = equalize_flat(data, h)
    return tx, spec.detect(data, sf)


def explicit_frozen_decisions(
    scheme: str, sf: int, tx: np.ndarray, gain: complex, h_est: complex | None,
    sigma2: float, rng: np.random.Generator,
) -> np.ndarray:
    """Decide frozen-channel data chirps on explicit despread spectra.

    Each chirp's spectrum is ``gain`` times the scheme's tone pattern plus
    ``CN(0, N*sigma2)`` noise in all N bins, equalized by ``h_est`` (None: not
    equalized), then decided by the scheme's argmax rule.
    """
    spec = SCHEMES[scheme]
    rx = apply_awgn(gain * spec.spectrum(sf, tx), (1 << sf) * sigma2, rng)
    return spec.decide(rx if h_est is None else equalize_flat(rx, h_est))


def explicit_frozen_frame(
    scheme: str, channel: str, sf: int, sigma2: float, payload_symbols: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """One frozen flat-channel frame on explicit noise bins: (tx, detected) symbols.

    Stream version 3's frozen frame: tx symbols, the 64 fade phases (fading
    channels), the preamble estimate's CN(0, sigma2/(8N)) error (coherent
    schemes without the genie), then every data noise bin.
    """
    spec = SCHEMES[scheme]
    chan = CHANNELS[channel]
    if chan.multipath or chan.moving:
        raise ValueError(f"{channel} is not a frozen flat channel")
    n = 1 << sf
    tx = rng.integers(0, n, size=(payload_symbols, spec.streams))
    gain = h_est = 1.0
    if chan.fading:
        taps = FLAT_PROFILE.lag_groups(250e3)
        gain = h_est = complex(taps.weights(taps.draw_phases(rng)).sum())
    if chan.fading and spec.coherent and not chan.genie:
        err = rng.standard_normal(2) * np.sqrt(sigma2 / (16 * n))
        h_est += complex(err[0], err[1])
    equalized = chan.fading and spec.coherent
    return tx, explicit_frozen_decisions(
        scheme, sf, tx, gain, h_est if equalized else None, sigma2, rng
    )


def frozen_tone_mean(n: int, streams: int, sigma2: float, gain: complex, h_est) -> complex:
    """One frozen frame's tone mean over the noise deviation, in Python complex
    arithmetic: ``gain * s * sqrt(2N / (streams*sigma2)) / |s|`` with
    ``s = conj(h_est) / |h_est|^2`` (1 without ``h_est``), capped at ``_MEAN_CAP``."""
    scale = 1.0 if h_est is None else complex(np.conj(h_est) / abs(h_est) ** 2)
    mean = gain * scale * math.sqrt(2.0 * n / (streams * sigma2)) / abs(scale)
    if abs(mean) > _MEAN_CAP:
        mean *= _MEAN_CAP / abs(mean)
    return mean


def _frozen_choice(special, log_f, m, rng, skip_lo, skip_hi):
    u = rng.random(special.shape)
    j = rng.integers(0, m, size=special.shape)
    j += j >= skip_lo
    j += j >= skip_hi
    return np.where(u < np.exp(m * log_f), special, j)


def _frozen_noncoherent(tx, n, mean, rng):
    z = rng.standard_normal((2,) + tx.shape)
    x = 0.5 * ((mean.real + z[0]) ** 2 + (mean.imag + z[1]) ** 2)
    return _frozen_choice(tx, log1mexp(x), n - 1, rng, tx, n)


def _frozen_coherent(tx, n, mean, rng):
    x = mean.real + rng.standard_normal(tx.shape)
    return _frozen_choice(tx, log_ndtr(x), n - 1, rng, tx, n)


def _frozen_iq(tx, n, mean, rng):
    re, im = mean.real, mean.imag
    z = rng.standard_normal((2,) + tx.shape)
    x_i = z[0] + (re, im)
    x_q = z[1] + (-im, re)
    k_i, k_q = tx[:, :1], tx[:, 1:]
    lo, hi, m = np.minimum(k_i, k_q), np.maximum(k_i, k_q), n - 2
    same = k_i == k_q
    if same.any():
        x_i += same * (-im, re)
        x_q[same[:, 0]] = -np.inf
        hi = np.where(same, n, hi)
        m = m + same
    log_f = log_ndtr(np.maximum(x_i, x_q))
    return _frozen_choice(np.where(x_q > x_i, k_q, k_i), log_f, m, rng, lo, hi)


FROZEN_DECISIONS = {
    "lora-noncoherent": _frozen_noncoherent,
    "lora-coherent": _frozen_coherent,
    "iqcss": _frozen_iq,
}


def frozen_frame(cfg, sf: int, sigma2: float, point_idx: int, frame_idx: int):
    """One frozen flat-channel frame of stream version 4, on its own.

    Keys its generator from (seed, scheme index, sf, point, frame), draws tx,
    the 64 fade phases (fading channels), the CN(0, sigma2/(8N)) estimate
    error (coherent schemes without the genie), then each chirp's special-bin
    normals, uniforms and wrong-winner indices, and decides.  Returns
    (bits_sent, bit_errors, symbols_sent, symbol_errors).
    """
    spec = SCHEMES[cfg.scheme]
    chan = CHANNELS[cfg.channel]
    if chan.multipath or chan.moving:
        raise ValueError(f"{cfg.channel} is not a frozen flat channel")
    n = 1 << sf
    key = [cfg.seed, list(SCHEMES).index(cfg.scheme), sf, point_idx, frame_idx]
    rng = np.random.default_rng(np.random.SeedSequence(key))
    tx = rng.integers(0, n, size=(cfg.payload_symbols, spec.streams))
    gain = h_est = 1.0 + 0j
    if chan.fading:
        phases = rng.uniform(0.0, 2.0 * np.pi, size=64)
        gain = h_est = complex((0.125 * np.exp(1j * phases)).sum())
    if chan.fading and spec.coherent and not chan.genie:
        err = rng.standard_normal(2) * math.sqrt(sigma2 / (16 * n))
        h_est += complex(err[0], err[1])
    equalized = chan.fading and spec.coherent
    mean = frozen_tone_mean(n, spec.streams, sigma2, gain, h_est if equalized else None)
    rx = FROZEN_DECISIONS[cfg.scheme](tx, n, mean, rng)
    wrong = np.bitwise_xor(tx, rx).ravel()
    bit_errors = sum(bin(int(v)).count("1") for v in wrong)
    return tx.size * sf, bit_errors, tx.size, int(np.count_nonzero(wrong))
