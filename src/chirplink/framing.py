"""Over-the-air frame layout: sync preamble, optional cyclic prefixes, payload.

A frame is 8 up-chirps and 2 down-chirps at unit amplitude followed by the
payload chirps.  With ``cp_len > 0`` every chirp (sync chirps included) is
preceded by a copy of its own last ``cp_len`` samples, so multipath within
the prefix appears circular after prefix removal.  Time alignment is assumed
perfect: the receiver slices regions by the known layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .chirp import SpreadingFactor, as_spreading_factor, _upchirp_readonly
from .modem import ModConfig, get_scheme

SYNC_UP = "sync-up"
SYNC_DOWN = "sync-down"
DATA = "data"


class Region(NamedTuple):
    kind: str
    start: int
    length: int


@dataclass(frozen=True)
class FrameConfig:
    """Frame structure knobs; defaults give an 8+2 preamble and 20 data chirps."""

    sf: SpreadingFactor
    n_sync_up: int = 8
    n_sync_down: int = 2
    payload_symbols: int = 20
    cp_len: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "sf", as_spreading_factor(self.sf))
        if self.n_sync_up < 0 or self.n_sync_down < 0 or self.payload_symbols < 1:
            raise ValueError("invalid chirp counts")
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


@dataclass(frozen=True)
class Frame:
    """Concrete frame: the sample buffer plus its region layout."""

    signal: np.ndarray
    layout: tuple[Region, ...]
    config: FrameConfig = field(repr=False)


def build_frame(
    cfg: FrameConfig,
    payload: Sequence,
    mod: ModConfig,
    scheme: str,
) -> Frame:
    """Assemble preamble + payload chirps, each with its cyclic prefix.

    ``payload`` holds one integer per chirp for the single-stream schemes or
    (k_i, k_q) pairs for ``"iqcss"``; its length must equal
    ``cfg.payload_symbols``.  ``scheme`` is a :data:`~chirplink.modem.SCHEMES` name.
    """
    scheme = get_scheme(scheme)
    if mod.sf != cfg.sf:
        raise ValueError("modulator and frame spreading factors differ")
    if len(payload) != cfg.payload_symbols:
        raise ValueError(
            f"payload has {len(payload)} symbols, config expects {cfg.payload_symbols}"
        )
    n = cfg.sf.n
    up = _upchirp_readonly(n)
    data = scheme.modulate(mod, np.reshape(payload, (cfg.payload_symbols, scheme.streams)))

    chirps = np.empty((cfg.total_chirps, n), dtype=np.complex128)
    chirps[: cfg.n_sync_up] = up
    chirps[cfg.n_sync_up : cfg.n_sync_up + cfg.n_sync_down] = np.conj(up)
    chirps[cfg.n_sync_up + cfg.n_sync_down :] = data

    if cfg.cp_len:
        chirps = np.hstack([chirps[:, n - cfg.cp_len :], chirps])
    signal = chirps.ravel()

    kinds = (
        [SYNC_UP] * cfg.n_sync_up
        + [SYNC_DOWN] * cfg.n_sync_down
        + [DATA] * cfg.payload_symbols
    )
    step = cfg.samples_per_chirp
    layout = tuple(Region(kind, i * step, step) for i, kind in enumerate(kinds))
    return Frame(signal=signal, layout=layout, config=cfg)


def extract_regions(
    frame_rx: np.ndarray, cfg: FrameConfig
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Slice a received frame into (sync up-chirps, data chirps), prefixes dropped.

    ``frame_rx`` may be one frame ``(samples,)`` or a stack ``(..., samples)``
    such as per-tap gains; every chirp keeps the leading axes.
    """
    frame_rx = np.asarray(frame_rx)
    if frame_rx.shape[-1:] != (cfg.total_samples,):
        raise ValueError(
            f"frame has shape {frame_rx.shape}, layout expects (..., {cfg.total_samples})"
        )
    n, cp, step = cfg.sf.n, cfg.cp_len, cfg.samples_per_chirp
    sync_up = [frame_rx[..., i * step + cp : i * step + cp + n] for i in range(cfg.n_sync_up)]
    first_data = cfg.n_sync_up + cfg.n_sync_down
    data = [
        frame_rx[..., i * step + cp : i * step + cp + n]
        for i in range(first_data, cfg.total_chirps)
    ]
    return sync_up, data


def average_sync(sync_up: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise mean of the received sync up-chirps (noise averaging)."""
    if len(sync_up) == 0:
        raise ValueError("expected at least one sync chirp")
    mat = np.asarray(sync_up)
    if mat.ndim != 2:
        raise ValueError("sync chirps must all have the same length")
    return mat.mean(axis=0)
