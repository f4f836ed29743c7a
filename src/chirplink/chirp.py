"""Discrete-time linear chirp waveforms and their spectra.

The baseband unit here is one chirp symbol of ``n = 2**sf`` complex samples
taken at the chirp bandwidth (critical sampling).  All functions operate on
plain ``numpy`` arrays of ``complex128``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

VALID_SF = range(6, 13)


@dataclass(frozen=True)
class SpreadingFactor:
    """Bits carried per chirp symbol; the symbol spans ``n = 2**sf`` samples."""

    sf: int

    def __post_init__(self) -> None:
        if self.sf not in VALID_SF:
            raise ValueError(f"spreading factor must be in 6..12, got {self.sf!r}")

    @property
    def n(self) -> int:
        return 1 << self.sf


def as_spreading_factor(sf: int | SpreadingFactor) -> SpreadingFactor:
    """Coerce a plain integer to a validated :class:`SpreadingFactor`."""
    if isinstance(sf, SpreadingFactor):
        return sf
    return SpreadingFactor(int(sf))


@lru_cache(maxsize=None)
def _upchirp_readonly(n: int) -> np.ndarray:
    idx = np.arange(n, dtype=np.float64)
    c = np.exp(1j * np.pi * idx * idx / n)
    c.flags.writeable = False
    return c


def raw_upchirp(sf: int | SpreadingFactor) -> np.ndarray:
    """Base up-chirp ``exp(j*pi*n**2/N)`` for ``n = 0..N-1``; unit magnitude."""
    return _upchirp_readonly(as_spreading_factor(sf).n).copy()


def raw_downchirp(sf: int | SpreadingFactor) -> np.ndarray:
    """Conjugate of the base up-chirp."""
    return np.conj(_upchirp_readonly(as_spreading_factor(sf).n))


def despread(rx: np.ndarray, sf: int | SpreadingFactor) -> np.ndarray:
    """Multiply by the down-chirp, turning each chirp symbol into a pure tone.

    ``rx`` may be one chirp of shape ``(N,)`` or a batch ``(..., N)``.
    """
    sf = as_spreading_factor(sf)
    rx = np.asarray(rx)
    if rx.ndim == 0 or rx.shape[-1] != sf.n:
        raise ValueError(f"expected {sf.n} samples per chirp, got shape {rx.shape}")
    return rx * np.conj(_upchirp_readonly(sf.n))


def dft(x: np.ndarray) -> np.ndarray:
    """Unnormalized forward DFT along the last axis (a pure tone at bin k peaks at N)."""
    x = np.asarray(x)
    if x.size == 0:
        raise ValueError("cannot transform an empty signal")
    return np.fft.fft(x, axis=-1)


def spreading_gain_db(sf: int | SpreadingFactor) -> float:
    """Processing gain 10*log10(N/sf): spread bandwidth over information rate."""
    sf = as_spreading_factor(sf)
    return 10.0 * np.log10(sf.n / sf.sf)

