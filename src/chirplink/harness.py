"""Monte Carlo link-level simulation: BER/SER/throughput sweeps.

Each frame is an independent trial whose random stream is derived from
(seed, scheme, sf, axis point, frame index), so results do not depend on how
frames are distributed over workers.  Frames are processed in fixed-size
batches and the stop rule (enough bit errors, or the frame budget) is checked
between batches, which keeps the set of simulated frames deterministic.
"""

from __future__ import annotations

import contextlib
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .chirp import SpreadingFactor, VALID_SF, _upchirp_readonly
from .modem import SCHEMES, ModConfig
from .framing import FrameConfig, build_frame, extract_regions, average_sync
from .chanest import FlatEstimate, ImpulseEstimate, ls_flat, ls_selective, equalize_flat, equalize_fd
from .channel import (
    ChannelRealization,
    DopplerSpec,
    TapProfile,
    apply_awgn,
    apply_channel,
    bits_per_symbol,
    ebn0_to_sigma2,
    flat_rayleigh,
    load_tap_profile,
    snr_to_sigma2,
    tvfs_realization,
    urban_12tap_profile,
)

AXES = ("ebn0", "snr")

FRAMES_PER_BATCH = 32

# Upper bound on the points of one axis sweep (per spreading factor).
MAX_AXIS_POINTS = 1000


class ConfigError(ValueError):
    """Invalid simulation configuration (reported before any simulation runs)."""


@lru_cache(maxsize=8)
def _resolve_profile(path: str | None) -> TapProfile:
    return urban_12tap_profile() if path is None else load_tap_profile(path)


def _block_static(cfg: SimConfig, n_samples: int, rng: np.random.Generator) -> ChannelRealization:
    return flat_rayleigh(n_samples, None, cfg.bandwidth_hz, rng)


def _mobile(cfg: SimConfig, n_samples: int, rng: np.random.Generator) -> ChannelRealization:
    doppler = DopplerSpec(cfg.speed_kmh, cfg.carrier_hz)
    return flat_rayleigh(n_samples, doppler, cfg.bandwidth_hz, rng)


def _multipath(cfg: SimConfig, n_samples: int, rng: np.random.Generator) -> ChannelRealization:
    profile = _resolve_profile(cfg.tap_profile)
    doppler = DopplerSpec(cfg.speed_kmh, cfg.carrier_hz)
    return tvfs_realization(n_samples, profile, doppler, cfg.bandwidth_hz, rng)


@dataclass(frozen=True)
class Channel:
    """How one channel name is simulated and how its receiver learns the channel."""

    # Draws the fading realization from the frame's generator; None for AWGN only.
    realize: Callable[[SimConfig, int, np.random.Generator], ChannelRealization] | None
    # Equalize with the true response (genie CSI) instead of the preamble LS estimate.
    genie: bool = False
    # Multipath: needs a cyclic prefix covering the longest tap, equalized per DFT bin.
    needs_cp: bool = False


CHANNELS = {
    "awgn": Channel(None),
    "rayleigh-perfect": Channel(_block_static, genie=True),
    "rayleigh-static-est": Channel(_block_static),
    "rayleigh-mobile-est": Channel(_mobile),
    "tvfs-perfect": Channel(_multipath, genie=True, needs_cp=True),
    "tvfs-est": Channel(_multipath, needs_cp=True),
}


@dataclass(frozen=True)
class SimConfig:
    """One sweep: a scheme and channel over a dB axis for a list of SFs."""

    scheme: str = "lora-noncoherent"
    sf_list: tuple[int, ...] = (7,)
    channel: str = "awgn"
    axis: str = "ebn0"
    axis_start: float = 0.0
    axis_step: float = 1.0
    axis_stop: float = 12.0
    max_frames: int = 10_000
    min_bit_errors: int = 100
    seed: int = 1
    bandwidth_hz: float = 250e3
    carrier_hz: float = 863e6
    speed_kmh: float = 0.1
    cp_len: int | None = None
    payload_symbols: int = 20
    workers: int = 1
    truncate_est: bool = True
    tap_profile: str | None = None
    es: float | None = None

    def resolved_cp_len(self) -> int:
        if self.cp_len is not None:
            return self.cp_len
        return 16 if CHANNELS[self.channel].needs_cp else 0

    def symbol_energy(self, sf: int) -> float:
        return float(self.es) if self.es is not None else float(1 << sf)

    def _axis_count(self) -> int:
        return int(np.floor((self.axis_stop - self.axis_start) / self.axis_step + 1e-9)) + 1

    def axis_points(self) -> list[float]:
        return [self.axis_start + i * self.axis_step for i in range(self._axis_count())]

    def validate(self) -> None:
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; choose from {tuple(SCHEMES)}")
        if self.channel not in CHANNELS:
            raise ConfigError(f"unknown channel {self.channel!r}; choose from {tuple(CHANNELS)}")
        if self.axis not in AXES:
            raise ConfigError(f"axis must be one of {AXES}, got {self.axis!r}")
        if not self.sf_list:
            raise ConfigError("sf_list must not be empty")
        for sf in self.sf_list:
            if sf not in VALID_SF:
                raise ConfigError(f"spreading factor {sf} outside 6..12")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.axis_step <= 0:
            raise ConfigError("axis step must be positive")
        if self.axis_stop < self.axis_start:
            raise ConfigError("axis stop must be >= axis start")
        if self._axis_count() > MAX_AXIS_POINTS:
            raise ConfigError(
                f"axis sweep has {self._axis_count()} points; at most {MAX_AXIS_POINTS} allowed"
            )
        if self.max_frames < 1 or self.min_bit_errors < 1 or self.payload_symbols < 1:
            raise ConfigError("max_frames, min_bit_errors and payload_symbols must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.bandwidth_hz <= 0 or self.carrier_hz <= 0 or self.speed_kmh < 0:
            raise ConfigError("bandwidth and carrier must be positive, speed >= 0")
        if self.es is not None and self.es <= 0:
            raise ConfigError("symbol energy must be positive")
        cp = self.resolved_cp_len()
        min_n = 1 << min(self.sf_list)
        if not 0 <= cp < min_n:
            raise ConfigError(f"cp_len {cp} must be in [0, {min_n}) for sf_list {self.sf_list}")
        if CHANNELS[self.channel].needs_cp:
            try:
                profile = _resolve_profile(self.tap_profile)
            except ValueError as exc:
                raise ConfigError(f"bad tap profile: {exc}") from exc
            max_delay = int(profile.sample_delays(self.bandwidth_hz).max())
            if cp < max_delay:
                raise ConfigError(
                    f"channel {self.channel} needs cp_len >= {max_delay} "
                    f"(longest tap delay at {self.bandwidth_hz:g} Hz), got {cp}"
                )


@dataclass(frozen=True)
class SimRecord:
    """Measured outcome of one (scheme, sf, axis point)."""

    scheme: str
    sf: int
    axis: str
    axis_db: float
    bits_sent: int
    bit_errors: int
    ber: float
    symbol_errors: int
    ser: float
    throughput_bps: float
    censored: bool
    seed: int
    elapsed_s: float = field(compare=False, default=0.0)


CSV_COLUMNS = (
    "scheme",
    "sf",
    "axis",
    "axis_db",
    "bits_sent",
    "bit_errors",
    "ber",
    "symbol_errors",
    "ser",
    "throughput_bps",
    "censored",
    "seed",
)


def shannon_capacity_bps(snr_db: float, bandwidth_hz: float) -> float:
    """AWGN capacity B*log2(1 + SNR)."""
    return bandwidth_hz * np.log2(1.0 + 10.0 ** (snr_db / 10.0))


def symbol_rate_bps(sf: int, scheme: str, bandwidth_hz: float) -> float:
    """Raw bit rate: bits per chirp over the chirp duration N/B."""
    return bits_per_symbol(sf, scheme) * bandwidth_hz / (1 << sf)


def _popcount(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.uint16)
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(values)
    return np.unpackbits(values[:, None].view(np.uint8), axis=1).sum(axis=1)


def _frame_rng(cfg: SimConfig, sf: int, point_idx: int, frame_idx: int) -> np.random.Generator:
    key = [cfg.seed, list(SCHEMES).index(cfg.scheme), sf, point_idx, frame_idx]
    return np.random.default_rng(np.random.SeedSequence(key))


def _genie_response(realization: ChannelRealization, fcfg: FrameConfig) -> np.ndarray:
    """True impulse response averaged over the preamble chirp bodies.

    Both genie channels use it: ``rayleigh-perfect`` takes tap 0 as its flat
    gain, and ``tvfs-perfect`` equalizes every data chirp with the whole
    response.  Under Doppler that is the preamble average, not the response
    each data chirp actually sees.
    """
    sync_up, _ = extract_regions(realization.gains, fcfg)
    means = np.concatenate(sync_up, axis=-1).mean(axis=-1)
    h = np.zeros(fcfg.sf.n, dtype=np.complex128)
    h[realization.delays] = means
    return h


def _equalize(
    channel: Channel,
    cfg: SimConfig,
    fcfg: FrameConfig,
    realization: ChannelRealization,
    sync_up: list[np.ndarray],
    data: np.ndarray,
) -> np.ndarray:
    if channel.needs_cp:
        if channel.genie:
            est = ImpulseEstimate(_genie_response(realization, fcfg))
        else:
            est = ls_selective(average_sync(sync_up), fcfg.sf)
            if cfg.truncate_est and fcfg.cp_len > 0:
                est = est.truncated(fcfg.cp_len)
        return equalize_fd(data, est)
    if channel.genie:
        est = FlatEstimate(complex(_genie_response(realization, fcfg)[0]))
    else:
        ref = np.tile(_upchirp_readonly(fcfg.sf.n), fcfg.n_sync_up)
        est = ls_flat(np.concatenate(sync_up), ref)
    return equalize_flat(data, est)


def _sim_frame(
    cfg: SimConfig, sf_int: int, sigma2: float, point_idx: int, frame_idx: int
) -> tuple[int, int, int, int]:
    """Simulate one frame; returns (bits_sent, bit_errors, symbols_sent, symbol_errors)."""
    sf = SpreadingFactor(sf_int)
    scheme = SCHEMES[cfg.scheme]
    channel = CHANNELS[cfg.channel]
    rng = _frame_rng(cfg, sf_int, point_idx, frame_idx)
    mod = ModConfig(sf, cfg.symbol_energy(sf_int))
    fcfg = FrameConfig(sf=sf, payload_symbols=cfg.payload_symbols, cp_len=cfg.resolved_cp_len())

    # Draw order is part of the stream layout: tx symbols, fading phases, noise.
    tx = rng.integers(0, sf.n, size=(cfg.payload_symbols, scheme.streams))
    frame = build_frame(fcfg, tx, mod, cfg.scheme)
    y = frame.signal
    realization = None
    if channel.realize is not None:
        realization = channel.realize(cfg, y.size, rng)
        y = apply_channel(y, realization)
    y = apply_awgn(y, sigma2, rng)
    sync_up, data = extract_regions(y, fcfg)
    data_mat = np.asarray(data)
    if scheme.coherent and realization is not None:
        data_mat = _equalize(channel, cfg, fcfg, realization, sync_up, data_mat)

    rx = scheme.detect(data_mat, sf)
    symbol_errors = int((tx != rx).sum())
    bit_errors = int(_popcount(np.bitwise_xor(tx, rx).ravel()).sum())
    return tx.size * sf_int, bit_errors, tx.size, symbol_errors


def _point_sigma2(cfg: SimConfig, sf: int, axis_db: float) -> float:
    es = cfg.symbol_energy(sf)
    if cfg.axis == "ebn0":
        return ebn0_to_sigma2(axis_db, sf, cfg.scheme, es).variance
    return snr_to_sigma2(axis_db, sf, es).variance


def _run_point(cfg: SimConfig, sf: int, point_idx: int, axis_db: float, pool) -> SimRecord:
    sigma2 = _point_sigma2(cfg, sf, axis_db)
    sim = partial(_sim_frame, cfg, sf, sigma2, point_idx)
    t0 = time.perf_counter()
    bits = bit_errors = symbols = symbol_errors = 0
    done = 0
    while done < cfg.max_frames and bit_errors < cfg.min_bit_errors:
        hi = min(done + FRAMES_PER_BATCH, cfg.max_frames)
        results = (pool.map if pool else map)(sim, range(done, hi))
        for b, be, s, se in results:
            bits += b
            bit_errors += be
            symbols += s
            symbol_errors += se
        done = hi
    ser = symbol_errors / symbols
    rate = symbol_rate_bps(sf, cfg.scheme, cfg.bandwidth_hz)
    return SimRecord(
        scheme=cfg.scheme,
        sf=sf,
        axis=cfg.axis,
        axis_db=axis_db,
        bits_sent=bits,
        bit_errors=bit_errors,
        ber=bit_errors / bits,
        symbol_errors=symbol_errors,
        ser=ser,
        throughput_bps=(1.0 - ser) * rate,
        censored=bit_errors < cfg.min_bit_errors,
        seed=cfg.seed,
        elapsed_s=time.perf_counter() - t0,
    )


def _run(cfg: SimConfig) -> list[SimRecord]:
    cfg.validate()
    points = cfg.axis_points()
    pool = ProcessPoolExecutor(max_workers=cfg.workers) if cfg.workers > 1 else None
    with pool or contextlib.nullcontext():
        return [
            _run_point(cfg, sf, idx, db, pool)
            for sf in cfg.sf_list
            for idx, db in enumerate(points)
        ]


def run_ber(cfg: SimConfig) -> list[SimRecord]:
    """Sweep the configured axis, measuring BER/SER per (sf, point)."""
    return _run(cfg)


def run_throughput(cfg: SimConfig) -> list[SimRecord]:
    """SNR-axis sweep reporting (1 - SER) * rate; requires ``axis == "snr"``."""
    if cfg.axis != "snr":
        raise ConfigError("throughput runs sweep the per-sample SNR axis; set axis='snr'")
    return _run(cfg)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def records_to_csv(records: list[SimRecord]) -> str:
    """Render records in the canonical column order, floats at 6 significant digits."""
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        row = (
            r.scheme,
            r.sf,
            r.axis,
            r.axis_db,
            r.bits_sent,
            r.bit_errors,
            r.ber,
            r.symbol_errors,
            r.ser,
            r.throughput_bps,
            r.censored,
            r.seed,
        )
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def write_csv(records: list[SimRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(records_to_csv(records))
