"""Least-squares channel estimation from the sync preamble and equalizers.

Both estimates start from the averaged 8 sync chirps.  Flat channels: its
projection onto the known up-chirp, undone by one conjugate multiply.
Frequency-selective channels: its circular cross-correlation with the up-chirp
(the chirp's perfect autocorrelation makes the least-squares normal matrix a
scaled identity), undone per DFT bin.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .chirp import check_sf, _upchirp_readonly

_FLOOR = 1e-6  # channel response magnitude below which equalize_fd regularizes a bin


def ls_flat(preamble_rx: np.ndarray, preamble_ref: np.ndarray) -> complex:
    """Least-squares gain: project the received preamble onto the known one."""
    rx = np.asarray(preamble_rx, dtype=np.complex128)
    ref = np.asarray(preamble_ref, dtype=np.complex128)
    if rx.shape != ref.shape or rx.ndim != 1:
        raise ValueError("received and reference preambles must be equal-length vectors")
    energy = np.vdot(ref, ref).real
    if energy == 0.0:
        raise ValueError("reference preamble has zero energy")
    return complex(np.vdot(ref, rx) / energy)


def ls_selective(y_bar: np.ndarray, sf: int) -> np.ndarray:
    """Length-N impulse-response taps from the averaged, prefix-stripped sync chirp.

    Computed as the circular cross-correlation of ``y_bar`` with the raw
    up-chirp scaled by 1/N, equal to the full least-squares solve because the
    chirp's circulant matrix satisfies C^H C = N I.  Taps at delays beyond the
    cyclic prefix hold only noise; zero them with ``taps[cp_len:] = 0``.
    """
    n = 1 << check_sf(sf)
    y = np.asarray(y_bar, dtype=np.complex128)
    if y.shape != (n,):
        raise ValueError(f"expected averaged sync chirp of {n} samples, got {y.shape}")
    chirp_fd = np.fft.fft(_upchirp_readonly(n))
    return np.fft.ifft(np.fft.fft(y) * np.conj(chirp_fd)) / n


def equalize_flat(x: np.ndarray, h: complex | np.ndarray) -> np.ndarray:
    """Zero-forcing single-tap equalizer: multiply by conj(h)/|h|^2.

    ``h`` is one gain or an array of gains that broadcasts against ``x``.
    ``ValueError`` unless every factor, ``conj(h) * (1 / |h|^2)``, is finite.
    """
    h = np.asarray(h, dtype=np.complex128)
    with np.errstate(over="ignore", divide="ignore"):  # |h| above ~1.3e154, or 0
        mag2 = np.abs(h) ** 2
        inv = 1.0 / mag2
    bad = ~((0.0 < mag2) & (mag2 < math.inf) & (inv < math.inf))
    if bad.any():
        raise ValueError(f"cannot equalize with channel gain {h[bad].flat[0]}")
    return np.asarray(x) * (np.conj(h) * inv)


def equalize_fd(chirp_rx: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Per-bin zero-forcing equalizer for prefix-stripped chirps.

    ``taps`` is the length-N impulse response (a nonempty 1-D array).
    ``chirp_rx`` may be one chirp ``(N,)`` or a batch ``(..., N)``.  Bins where
    the channel response magnitude falls below ``_FLOOR`` (1e-6) are regularized
    (the division uses max(|H|, _FLOOR)^2) and a RuntimeWarning is emitted.
    """
    taps = np.asarray(taps, dtype=np.complex128)
    if taps.ndim != 1 or taps.size == 0:
        raise ValueError("taps must be a nonempty 1-D array")
    rx = np.asarray(chirp_rx, dtype=np.complex128)
    n = taps.size
    if rx.ndim == 0 or rx.shape[-1] != n:
        raise ValueError(f"expected chirps of {n} samples, got shape {rx.shape}")
    response = np.fft.fft(taps)
    mag2 = np.abs(response) ** 2
    weak = mag2 < _FLOOR**2
    if np.any(weak):
        warnings.warn(
            f"channel response below {_FLOOR:g} on {int(weak.sum())} bin(s); "
            "zero-forcing regularized there",
            RuntimeWarning,
            stacklevel=2,
        )
        mag2 = np.maximum(mag2, _FLOOR**2)
    spectrum = np.fft.fft(rx, axis=-1) * (np.conj(response) / mag2)
    return np.fft.ifft(spectrum, axis=-1)
