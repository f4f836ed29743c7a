"""Over-the-air frame layout: sync preamble, optional cyclic prefixes, payload.

A frame is 8 up-chirps and 2 down-chirps at unit amplitude followed by the
payload chirps, all of energy N.  With ``cp_len > 0`` every chirp (sync
chirps included) is preceded by a copy of its own last ``cp_len`` samples, so
multipath within the prefix appears circular after prefix removal.

:class:`FrameConfig` is the only description of the layout: a frame is one
``(total_chirps, samples_per_chirp)`` grid, prefix columns first, laid out
row by row in time.  :func:`build_frame` writes that grid and
:func:`extract_regions` reshapes a received frame back into it, returning
array views.  Time alignment is assumed perfect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .chirp import SpreadingFactor, as_spreading_factor, _upchirp_readonly
from .modem import get_scheme

@dataclass(frozen=True)
class FrameConfig:
    """Frame structure: the fixed 8+2 preamble, then ``payload_symbols`` data chirps."""

    n_sync_up: ClassVar[int] = 8
    n_sync_down: ClassVar[int] = 2

    sf: SpreadingFactor
    payload_symbols: int = 20
    cp_len: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "sf", as_spreading_factor(self.sf))
        if self.payload_symbols < 1:
            raise ValueError("payload_symbols must be >= 1")
        if not 0 <= self.cp_len < self.sf.n:
            raise ValueError(f"cp_len must be in [0, {self.sf.n}), got {self.cp_len}")

    @property
    def samples_per_chirp(self) -> int:
        return self.sf.n + self.cp_len

    @property
    def total_chirps(self) -> int:
        return self.n_sync_up + self.n_sync_down + self.payload_symbols

    @property
    def total_samples(self) -> int:
        return self.total_chirps * self.samples_per_chirp


def build_frame(cfg: FrameConfig, payload: Sequence, scheme: str) -> np.ndarray:
    """Frame samples: preamble + payload chirps, each with its cyclic prefix.

    Every chirp has energy N (unit power per sample).  ``payload`` holds one
    integer per chirp for the single-stream schemes or (k_i, k_q) pairs for
    ``"iqcss"``; its length must equal ``cfg.payload_symbols``.  ``scheme`` is
    a :data:`~chirplink.modem.SCHEMES` name.
    """
    scheme = get_scheme(scheme)
    if len(payload) != cfg.payload_symbols:
        raise ValueError(
            f"payload has {len(payload)} symbols, config expects {cfg.payload_symbols}"
        )
    n, cp = cfg.sf.n, cfg.cp_len
    up = _upchirp_readonly(n)
    grid = np.empty((cfg.total_chirps, cfg.samples_per_chirp), dtype=np.complex128)
    body = grid[:, cp:]
    first_data = cfg.n_sync_up + cfg.n_sync_down
    body[: cfg.n_sync_up] = up
    body[cfg.n_sync_up : first_data] = np.conj(up)
    body[first_data:] = scheme.modulate(
        cfg.sf, np.reshape(payload, (cfg.payload_symbols, scheme.streams))
    )
    grid[:, :cp] = body[:, n - cp :]
    return grid.ravel()


def extract_regions(
    frame_rx: np.ndarray, cfg: FrameConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Views of the received sync up-chirps and data chirps, prefixes dropped.

    ``frame_rx`` may be one frame ``(samples,)`` or a stack ``(..., samples)``
    such as per-lag gains.  It is reshaped to the frame grid
    ``(..., total_chirps, samples_per_chirp)``, and the returned arrays are
    ``(..., n_sync_up, N)`` and ``(..., payload_symbols, N)`` views of it.
    """
    frame_rx = np.asarray(frame_rx)
    if frame_rx.shape[-1:] != (cfg.total_samples,):
        raise ValueError(
            f"frame has shape {frame_rx.shape}, layout expects (..., {cfg.total_samples})"
        )
    grid = frame_rx.reshape(frame_rx.shape[:-1] + (cfg.total_chirps, cfg.samples_per_chirp))
    bodies = grid[..., cfg.cp_len :]
    return bodies[..., : cfg.n_sync_up, :], bodies[..., cfg.n_sync_up + cfg.n_sync_down :, :]


def average_sync(sync_up: np.ndarray | Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise mean of the received sync up-chirps (noise averaging).

    ``sync_up`` is the ``(chirps, N)`` array from :func:`extract_regions` or
    any sequence of equal-length chirps.
    """
    if len(sync_up) == 0:
        raise ValueError("expected at least one sync chirp")
    mat = np.asarray(sync_up)
    if mat.ndim != 2:
        raise ValueError("sync chirps must all have the same length")
    return mat.mean(axis=0)
