"""Monte Carlo link-level simulation: BER/SER/throughput sweeps.

Each frame is an independent trial whose random stream is derived from
(seed, scheme, sf, axis point, frame index), so results do not depend on how
frames are distributed over workers.  Frames are processed in fixed-size
batches and the stop rule (enough bit errors, or the frame budget) is checked
between batches, which keeps the set of simulated frames deterministic.

The frozen channels (AWGN and flat fading constant over the frame) draw each
data chirp's despread spectrum directly; the moving and multipath channels
simulate the waveform.  The per-frame draw order is the stream layout, and
:data:`STREAM_VERSION` names it.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field, fields
from functools import lru_cache, partial

import numpy as np

from .chirp import SpreadingFactor, VALID_SF, _upchirp_readonly
from .modem import SCHEMES, ModConfig
from .framing import FrameConfig, build_frame, extract_regions, average_sync
from .chanest import ImpulseEstimate, ls_flat, ls_selective, equalize_flat, equalize_fd
from .channel import (
    FLAT_PROFILE,
    ChannelRealization,
    DopplerSpec,
    TapLags,
    TapProfile,
    apply_awgn,
    apply_channel,
    bits_per_symbol,
    ebn0_to_sigma2,
    load_tap_profile,
    snr_to_sigma2,
    tvfs_realization,
    urban_12tap_profile,
)

AXES = ("ebn0", "snr")

# Version of the per-frame random-stream layout.  Version 2: frozen channels
# draw tx symbols, fade phases, the estimate error, then the data noise bins.
STREAM_VERSION = 2

FRAMES_PER_BATCH = 32

# Upper bound on the points of one axis sweep (per spreading factor).
MAX_AXIS_POINTS = 1000


class ConfigError(ValueError):
    """Invalid simulation configuration (reported before any simulation runs)."""


@lru_cache(maxsize=8)
def _resolve_profile(path: str | None) -> TapProfile:
    return urban_12tap_profile() if path is None else load_tap_profile(path)


@dataclass(frozen=True)
class Channel:
    """One channel name: taps (one or the profile), fade (frozen or Doppler), CSI.

    A fading channel is one :func:`tvfs_realization` draw.  ``multipath`` needs
    a cyclic prefix covering the longest tap and is equalized per DFT bin;
    without ``genie`` the receiver uses the preamble least-squares estimate.
    """

    fading: bool = True
    multipath: bool = False
    moving: bool = False
    genie: bool = False

    @property
    def frozen(self) -> bool:
        """Flat and constant over the frame: simulated on despread spectra."""
        return not (self.moving or self.multipath)


CHANNELS = {
    "awgn": Channel(fading=False),
    "rayleigh-perfect": Channel(genie=True),
    "rayleigh-static-est": Channel(),
    "rayleigh-mobile-est": Channel(moving=True),
    "tvfs-perfect": Channel(multipath=True, moving=True, genie=True),
    "tvfs-est": Channel(multipath=True, moving=True),
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
    tap_profile: str | None = None

    def resolved_cp_len(self) -> int:
        if self.cp_len is not None:
            return self.cp_len
        return 16 if CHANNELS[self.channel].multipath else 0

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
        cp = self.resolved_cp_len()
        min_n = 1 << min(self.sf_list)
        if not 0 <= cp < min_n:
            raise ConfigError(f"cp_len {cp} must be in [0, {min_n}) for sf_list {self.sf_list}")
        if CHANNELS[self.channel].multipath:
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

    ``tvfs-perfect`` equalizes every data chirp with it.  Under Doppler that is
    the preamble average, not the response each data chirp actually sees.
    """
    sync_up, _ = extract_regions(realization.gains, fcfg)
    means = sync_up.reshape(len(realization.delays), -1).mean(axis=-1)
    h = np.zeros(fcfg.sf.n, dtype=np.complex128)
    h[realization.delays] = means
    return h


def _equalize(
    channel: Channel,
    fcfg: FrameConfig,
    realization: ChannelRealization,
    sync_up: np.ndarray,
    data: np.ndarray,
) -> np.ndarray:
    if channel.genie:
        return equalize_fd(data, ImpulseEstimate(_genie_response(realization, fcfg)))
    y_bar = average_sync(sync_up)
    if channel.multipath:
        est = ls_selective(y_bar, fcfg.sf)
        if fcfg.cp_len > 0:
            est = est.truncated(fcfg.cp_len)
        return equalize_fd(data, est)
    return equalize_flat(data, ls_flat(y_bar, _upchirp_readonly(fcfg.sf.n)))


def _errors(tx: np.ndarray, rx: np.ndarray, sf_int: int) -> tuple[int, int, int, int]:
    symbol_errors = np.count_nonzero(tx != rx)
    bit_errors = int(_popcount(np.bitwise_xor(tx, rx).ravel()).sum())
    return tx.size * sf_int, bit_errors, tx.size, symbol_errors


def _sim_frame(
    cfg: SimConfig, sf_int: int, sigma2: float, point_idx: int, taps: TapLags, frame_idx: int
) -> tuple[int, int, int, int]:
    """Simulate one moving or multipath frame on the waveform.

    Returns (bits_sent, bit_errors, symbols_sent, symbol_errors).
    """
    sf = SpreadingFactor(sf_int)
    scheme = SCHEMES[cfg.scheme]
    channel = CHANNELS[cfg.channel]
    rng = _frame_rng(cfg, sf_int, point_idx, frame_idx)
    # Unit-amplitude chirps, like the preamble: symbol energy N.
    mod = ModConfig(sf, float(sf.n))
    fcfg = FrameConfig(sf=sf, payload_symbols=cfg.payload_symbols, cp_len=cfg.resolved_cp_len())

    # Draw order is part of the stream layout: tx symbols, fading phases, noise.
    tx = rng.integers(0, sf.n, size=(cfg.payload_symbols, scheme.streams))
    frame = build_frame(fcfg, tx, mod, cfg.scheme)
    doppler = DopplerSpec(cfg.speed_kmh, cfg.carrier_hz) if channel.moving else None
    realization = tvfs_realization(frame.signal.size, taps, doppler, cfg.bandwidth_hz, rng)
    y = apply_awgn(apply_channel(frame.signal, realization), sigma2, rng)
    sync_up, data = extract_regions(y, fcfg)
    if scheme.coherent:
        data = _equalize(channel, fcfg, realization, sync_up, data)
    return _errors(tx, scheme.detect(data, sf), sf_int)


def _frozen_frame(
    cfg: SimConfig, sf_int: int, sigma2: float, point_idx: int, taps: TapLags | None, frame_idx: int
) -> tuple[int, int, int, int]:
    """Simulate one frame of a frozen channel from its despread data spectra.

    With one gain ``h`` over the frame and perfect timing, despreading and the
    N-point DFT are sqrt(N) times a unitary map, so data chirp ``i``'s spectrum
    is ``h * S(tx_i)`` plus i.i.d. CN(0, N*sigma2) bins.  The preamble
    least-squares estimate averages 8 unit-amplitude sync chirps, so its error
    is CN(0, sigma2 / (8N)).  Returns what :func:`_sim_frame` returns.
    """
    n = 1 << sf_int
    scheme = SCHEMES[cfg.scheme]
    channel = CHANNELS[cfg.channel]
    rng = _frame_rng(cfg, sf_int, point_idx, frame_idx)

    # Draw order is stream version 2: tx symbols, fade phases, estimate error, noise bins.
    tx = rng.integers(0, n, size=(cfg.payload_symbols, scheme.streams))
    spectra = scheme.spectrum(ModConfig(SpreadingFactor(sf_int), float(n)), tx)
    if channel.fading:
        h = h_est = complex(taps.draw_weights(rng).sum())
        if scheme.coherent and not channel.genie:
            err = rng.standard_normal(2) * math.sqrt(sigma2 / (16 * n))
            h_est = h + complex(err[0], err[1])
        spectra = h * spectra
    w = rng.standard_normal((2, cfg.payload_symbols, n))
    w *= math.sqrt(n * sigma2 / 2)
    rx = np.empty(spectra.shape, dtype=np.complex128)
    rx.real, rx.imag = w
    rx += spectra
    if channel.fading and scheme.coherent:
        rx = equalize_flat(rx, h_est)
    return _errors(tx, scheme.decide(rx), sf_int)


def _point_sigma2(cfg: SimConfig, sf: int, axis_db: float) -> float:
    es = float(1 << sf)
    if cfg.axis == "ebn0":
        return ebn0_to_sigma2(axis_db, sf, cfg.scheme, es).variance
    return snr_to_sigma2(axis_db, sf, es).variance


def _run_point(cfg: SimConfig, sf: int, point_idx: int, axis_db: float, pool) -> SimRecord:
    sigma2 = _point_sigma2(cfg, sf, axis_db)
    channel = CHANNELS[cfg.channel]
    taps = None
    if channel.fading:
        profile = _resolve_profile(cfg.tap_profile) if channel.multipath else FLAT_PROFILE
        taps = profile.lag_groups(cfg.bandwidth_hz)
    frame = _frozen_frame if channel.frozen else _sim_frame
    sim = partial(frame, cfg, sf, sigma2, point_idx, taps)
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
    pool = None
    if cfg.workers > 1:
        # Imported on demand, so single-worker runs never load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=cfg.workers)
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
    rows = (",".join(_fmt(getattr(r, name)) for name in CSV_COLUMNS) for r in records)
    return "\n".join([",".join(CSV_COLUMNS), *rows]) + "\n"


def write_csv(records: list[SimRecord], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(records_to_csv(records))
