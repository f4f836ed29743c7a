"""Chirp modulation with three detectors.

Two signal formats are supported:

* classic chirp-FSK: one data symbol ``k`` cyclically shifts the chirp's
  start frequency, detected from the magnitude (non-coherent) or real part
  (coherent) of the despread spectrum;
* in-phase/quadrature chirp ("iqcss"): two independent symbols per chirp,
  one on the real and one on the imaginary component, detected coherently.

Every chirp has energy ``N`` (unit power per sample), the energy of the
unit-amplitude sync chirps.  Each scheme is one :class:`Scheme` in
:data:`SCHEMES`, whose methods take a batch of chirps or symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from . import orderstat
from .chirp import check_sf, _upchirp_readonly, despread, dft


@lru_cache(maxsize=None)
def _unit_tones(n: int) -> np.ndarray:
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    roots.flags.writeable = False
    return roots


def _one_stream(tones: np.ndarray) -> np.ndarray:
    return tones[..., 0, :]


def _iq_streams(tones: np.ndarray) -> np.ndarray:
    return tones[..., 0, :] + 1j * tones[..., 1, :]


def _argmax_abs(spectra: np.ndarray) -> np.ndarray:
    return np.argmax(np.abs(spectra), axis=-1)[..., None]


def _argmax_real(spectra: np.ndarray) -> np.ndarray:
    return np.argmax(spectra.real, axis=-1)[..., None]


def _argmax_real_imag(spectra: np.ndarray) -> np.ndarray:
    return np.stack(
        [np.argmax(spectra.real, axis=-1), np.argmax(spectra.imag, axis=-1)], axis=-1
    )


@dataclass(frozen=True)
class Scheme:
    """One signalling scheme: how symbols become a chirp and how they are decided.

    Symbols are integer arrays of shape ``(..., streams)``; chirps are
    ``(..., N)``.  Every scheme shares the receiver front end (despread, then
    DFT) and differs only in its decision rule on the despread spectrum.
    """

    streams: int  # data symbols per chirp
    coherent: bool  # needs the channel phase removed before detection
    combine: Callable[[np.ndarray], np.ndarray]  # unit tones (..., streams, N) -> (..., N)
    decide: Callable[[np.ndarray], np.ndarray]  # spectra (..., N) -> symbols (..., streams)
    law: orderstat.Law  # ``decide``'s law under a frozen flat channel

    def _symbols(self, n: int, symbols: np.ndarray | Sequence) -> np.ndarray:
        ks = np.asarray(symbols)
        if ks.size and ks.dtype.kind not in "iu":  # never truncated, like ``sf``
            raise TypeError(f"symbols must be integers, got dtype {ks.dtype}")
        if ks.shape[-1:] != (self.streams,):
            raise ValueError(f"expected {self.streams} symbol(s) per chirp, got shape {ks.shape}")
        if ks.size and (ks.min() < 0 or ks.max() >= n):
            raise ValueError(f"symbol outside 0..{n - 1}")
        return ks.astype(np.int64, copy=False)

    def modulate(self, sf: int, symbols: np.ndarray | Sequence) -> np.ndarray:
        """Chirps of energy ``N`` carrying ``symbols`` (..., streams)."""
        n = 1 << check_sf(sf)
        ks = self._symbols(n, symbols)
        amp = np.sqrt(1.0 / self.streams)
        tones = _unit_tones(n)[(ks[..., None] * np.arange(n)) % n]
        return amp * self.combine(tones) * _upchirp_readonly(n)

    def detect(self, rx: np.ndarray, sf: int) -> np.ndarray:
        """Decide the symbols (..., streams) carried by chirps ``rx`` (..., N)."""
        return self.decide(dft(despread(rx, sf)))


SCHEMES = {
    "lora-noncoherent": Scheme(1, False, _one_stream, _argmax_abs, orderstat.noncoherent),
    "lora-coherent": Scheme(1, True, _one_stream, _argmax_real, orderstat.coherent),
    "iqcss": Scheme(2, True, _iq_streams, _argmax_real_imag, orderstat.iq),
}


def get_scheme(name: str) -> Scheme:
    """The :data:`SCHEMES` entry for ``name``; ``ValueError`` if there is none."""
    try:
        return SCHEMES[name]
    except KeyError:
        raise ValueError(f"unknown scheme {name!r}; choose from {tuple(SCHEMES)}") from None

