"""Discrete-time linear chirp waveforms and their spectra.

The baseband unit here is one chirp symbol of ``n = 2**sf`` complex samples
taken at the chirp bandwidth (critical sampling).  All functions operate on
plain ``numpy`` arrays of ``complex128``.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

VALID_SF = range(6, 13)


def check_int(value, name: str) -> int:
    """``value`` as a plain ``int``, never truncated: ``TypeError`` for ``7.0`` or ``"7"``."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def check_sf(sf) -> int:
    """The spreading factor as a plain ``int``; the symbol spans ``2**sf`` samples.

    ``TypeError`` unless ``sf`` is an integer (:func:`check_int`),
    ``ValueError`` outside 6..12.
    """
    sf = check_int(sf, "spreading factor")
    if sf not in VALID_SF:
        raise ValueError(f"spreading factor must be in 6..12, got {sf!r}")
    return sf


@lru_cache(maxsize=None)
def _upchirp_readonly(n: int) -> np.ndarray:
    idx = np.arange(n, dtype=np.float64)
    c = np.exp(1j * np.pi * idx * idx / n)
    c.flags.writeable = False
    return c


def raw_upchirp(sf: int) -> np.ndarray:
    """Base up-chirp ``exp(j*pi*n**2/N)`` for ``n = 0..N-1``; unit magnitude."""
    return _upchirp_readonly(1 << check_sf(sf)).copy()


def raw_downchirp(sf: int) -> np.ndarray:
    """Conjugate of the base up-chirp."""
    return np.conj(_upchirp_readonly(1 << check_sf(sf)))


def despread(rx: np.ndarray, sf: int) -> np.ndarray:
    """Multiply by the down-chirp, turning each chirp symbol into a pure tone.

    ``rx`` may be one chirp of shape ``(N,)`` or a batch ``(..., N)``.
    """
    n = 1 << check_sf(sf)
    rx = np.asarray(rx)
    if rx.ndim == 0 or rx.shape[-1] != n:
        raise ValueError(f"expected {n} samples per chirp, got shape {rx.shape}")
    return rx * np.conj(_upchirp_readonly(n))


def dft(x: np.ndarray) -> np.ndarray:
    """Unnormalized forward DFT along the last axis (a pure tone at bin k peaks at N)."""
    x = np.asarray(x)
    if x.size == 0:
        raise ValueError("cannot transform an empty signal")
    return np.fft.fft(x, axis=-1)


def spreading_gain_db(sf: int) -> float:
    """Processing gain 10*log10(N/sf): spread bandwidth over information rate."""
    sf = check_sf(sf)
    return 10.0 * np.log10((1 << sf) / sf)

