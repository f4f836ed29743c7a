"""Monte Carlo link-level simulation: BER/SER/throughput sweeps.

Each frame is an independent trial whose random stream is derived from
(seed, scheme, sf, axis point, frame index), so results do not depend on how
the work is split.  A range's frames take their generator states from
:mod:`._keys`, exactly as numpy's ``SeedSequence`` keys them into PCG64, on one
reused generator.  Frames are processed in fixed-size batches and the stop
rule (enough bit errors, or the frame budget) is checked between batches,
which keeps the set of simulated frames deterministic.  Each batch is one call
of a range task, which returns its summed error counts, and a whole sweep
point is one worker's task; the points go out costliest first.

Every flat channel (AWGN and flat fading, frozen over the frame or moving
under Doppler) works on each data chirp's despread spectrum; only the
multipath channels simulate the waveform.  Despreading and the N-point DFT
are sqrt(N) times a unitary map, so noise adds i.i.d. CN(0, N*sigma2) bins,
and the preamble LS estimate of a flat gain errs by the projected noise of 8
averaged sync chirps, CN(0, sigma2 / (8N)).  The per-frame draw order is the
stream layout, and :data:`STREAM_VERSION` (4) names it.  A flat frame draws:

1. the tx symbols, (payload, streams) integers;
2. on a fading channel, the 64 fade phases;
3. for a coherent scheme under the preamble estimate, its error (2 normals);
4. on ``rayleigh-mobile-est``, the (2, payload, N) data noise normals; on a
   frozen channel (``awgn``, ``rayleigh-perfect``, ``rayleigh-static-est``),
   the decision draws of :mod:`.orderstat`: the noise normals of the bins
   that carry a tone, then one uniform and one wrong-winner index per chirp
   and stream.

A frozen range makes each frame's draws in that order into arrays for the
whole range, then runs their arithmetic (fade gains, tone means, decisions,
error counts) once over the range.  Moving and multipath ranges run frame by
frame on one BLAS thread (:mod:`._blas`).  A moving flat range allocates its
frame buffers once (the Doppler contraction, the data spectra and the noise
normals) and each frame overwrites them.  A multipath frame draws the tx
symbols, the fade phases of every tap and the (2, samples) waveform noise
normals.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from functools import lru_cache, partial

import numpy as np

from . import _blas
from ._keys import frame_generators
from .chirp import check_int
from .modem import SCHEMES
from .framing import FrameConfig, build_frame, extract_regions, average_sync
from .chanest import ls_selective, equalize_flat, equalize_fd
from .channel import (
    FLAT_PROFILE,
    FOLDED_COS,
    JAKES_SINUSOIDS,
    TapLags,
    TapProfile,
    apply_awgn,
    apply_channel,
    bits_per_symbol,
    ebn0_to_sigma2,
    load_tap_profile,
    max_doppler_hz,
    snr_to_sigma2,
    tvfs_realization,
    urban_12tap_profile,
)

AXES = ("ebn0", "snr")

# Version of the per-frame random-stream layout.  Version 2: frozen channels
# draw tx symbols, fade phases, the estimate error, then the data noise bins.
# Version 3: the moving flat channel draws the same, on despread spectra.
# Version 4: frozen channels draw each chirp's decision, not its noise bins.
STREAM_VERSION = 4

# A frozen frame's tone mean, in noise deviations, is capped here: beyond it
# every decision is certain, and below it squares stay finite.
_MEAN_CAP = 1e100

FRAMES_PER_BATCH = 32

# Upper bound on the points of one axis sweep (per spreading factor).
MAX_AXIS_POINTS = 1000


class ConfigError(ValueError):
    """Invalid simulation configuration (reported before any simulation runs)."""


@lru_cache(maxsize=8)
def _resolve_profile(path: str | None) -> TapProfile:
    try:
        return urban_12tap_profile() if path is None else load_tap_profile(path)
    except ValueError as exc:
        raise ValueError(f"bad tap profile: {exc}") from exc


@dataclass(frozen=True)
class Channel:
    """One channel name: taps (one or the profile), fade (frozen or Doppler), CSI.

    A fading channel is one :meth:`TapLags.draw_weights` draw.  ``multipath`` needs
    a cyclic prefix covering the longest tap and is equalized per DFT bin;
    without ``genie`` the receiver uses the preamble least-squares estimate.
    """

    fading: bool = True
    multipath: bool = False
    moving: bool = False
    genie: bool = False


CHANNELS = {
    "awgn": Channel(fading=False),
    "rayleigh-perfect": Channel(genie=True),
    "rayleigh-static-est": Channel(),
    "rayleigh-mobile-est": Channel(moving=True),
    "tvfs-perfect": Channel(multipath=True, moving=True, genie=True),
    "tvfs-est": Channel(multipath=True, moving=True),
}


@dataclass(frozen=True, slots=True)
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

    def _axis_count(self) -> int:
        """The points of one axis sweep; :class:`ConfigError` past :data:`MAX_AXIS_POINTS`."""
        count = np.floor((self.axis_stop - self.axis_start) / self.axis_step + 1e-9) + 1
        if not count <= MAX_AXIS_POINTS:  # also rejects an infinite count
            raise ConfigError(
                f"axis sweep has {count:.0f} points; at most {MAX_AXIS_POINTS} allowed"
            )
        return int(count)

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
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        for name in ("max_frames", "min_bit_errors", "workers", "seed"):
            try:
                check_int(getattr(self, name), name)
            except TypeError as exc:
                raise ConfigError(str(exc)) from None
        if self.axis_step <= 0:
            raise ConfigError("axis step must be positive")
        if self.axis_stop < self.axis_start:
            raise ConfigError("axis stop must be >= axis start")
        self._axis_count()  # ConfigError past MAX_AXIS_POINTS
        if self.max_frames < 1 or self.min_bit_errors < 1:
            raise ConfigError("max_frames and min_bit_errors must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.bandwidth_hz <= 0 or self.carrier_hz <= 0 or self.speed_kmh < 0:
            raise ConfigError("bandwidth and carrier must be positive, speed >= 0")
        if self.tap_profile is not None and not CHANNELS[self.channel].multipath:
            raise ConfigError(f"channel {self.channel} has no multipath to use tap_profile")
        for sf in self.sf_list:
            try:
                _link(self, sf)
            except (TypeError, ValueError) as exc:
                raise ConfigError(str(exc)) from exc
        if len(set(self.sf_list)) < len(self.sf_list):  # each sf is an int by now
            raise ConfigError(f"sf_list repeats a spreading factor: {self.sf_list}")
        for sf in self.sf_list:
            for db in self.axis_points():
                try:
                    bin_var = (1 << sf) * _point_sigma2(self, sf, db)
                except ValueError:
                    bin_var = math.nan
                if not 0.0 < bin_var < math.inf:
                    raise ConfigError(
                        f"{self.axis} {db:g} dB at sf {sf} gives no finite, positive noise variance"
                    )


Link = tuple[FrameConfig, TapLags | None, float]


def _link(cfg: SimConfig, sf: int) -> Link:
    """One sf's link: its frame layout, its lag groups (None without fading) and its Doppler.

    The prefix defaults to 16 samples on the multipath channels and 0 on the
    others, and must cover the longest lag; the Doppler is 0 on a frozen
    channel.  ``ValueError`` or ``TypeError`` for a link that cannot be built.
    """
    channel = CHANNELS[cfg.channel]
    cp = cfg.cp_len
    if cp is None:  # the channel's default prefix
        cp = 16 if channel.multipath else 0
    fcfg = FrameConfig(sf=sf, payload_symbols=cfg.payload_symbols, cp_len=cp)
    taps = None
    if channel.fading:
        profile = _resolve_profile(cfg.tap_profile) if channel.multipath else FLAT_PROFILE
        taps = profile.lag_groups(cfg.bandwidth_hz)
    if channel.multipath and cp < taps.lags[-1]:
        raise ValueError(
            f"channel {cfg.channel} needs cp_len >= {taps.lags[-1]} "
            f"(longest tap delay at {cfg.bandwidth_hz:g} Hz), got {cp}"
        )
    fd = max_doppler_hz(cfg.speed_kmh, cfg.carrier_hz) if channel.moving else 0.0
    if not math.isfinite(fd):
        raise ValueError(
            f"speed {cfg.speed_kmh:g} km/h at carrier {cfg.carrier_hz:g} Hz "
            "gives no finite Doppler shift"
        )
    return fcfg, taps, fd


@dataclass(frozen=True, slots=True)
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


CSV_COLUMNS = tuple(f.name for f in fields(SimRecord) if f.compare)


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


def _stream_key(cfg: SimConfig, sf: int, point_idx: int) -> list[int]:
    """The key prefix that every frame of one point shares."""
    return [cfg.seed, list(SCHEMES).index(cfg.scheme), sf, point_idx]


def _estimate_deviation(sigma2: float, n: int) -> float:
    """Per-quadrature deviation of the flat LS estimate's CN(0, sigma2 / (n_sync_up * N)) error."""
    return math.sqrt(sigma2 / (2 * FrameConfig.n_sync_up * n))


def _errors(tx: np.ndarray, rx: np.ndarray, sf: int) -> tuple[int, int, int, int]:
    """(bits_sent, bit_errors, symbols_sent, symbol_errors) of sent and decided symbols."""
    symbol_errors = int(np.count_nonzero(tx != rx))
    bit_errors = int(_popcount(np.bitwise_xor(tx, rx).ravel()).sum())
    return tx.size * sf, bit_errors, tx.size, symbol_errors


def _each_frame(
    cfg: SimConfig, sf: int, sigma2: float, point_idx: int, link: Link, lo: int, hi: int
) -> tuple[int, int, int, int]:
    """Simulate multipath or moving flat frames ``[lo, hi)``, one at a time.

    The frame layout, the lags and the Doppler come from the point's ``link``
    (:func:`_link`), built once per point.  A moving flat range's frame
    buffers (:func:`_moving_frame`) are allocated once per range, and each
    frame overwrites them.  Each frame's generator (:mod:`._keys`) draws its tx
    symbols, then :func:`_sim_frame` (multipath, on the waveform) or
    :func:`_moving_frame` (on despread spectra) makes the frame's other
    draws and returns the decided symbols.  The range runs on one BLAS
    thread.  Returns the summed (bits_sent, bit_errors, symbols_sent,
    symbol_errors).
    """
    fcfg, taps, fd = link
    key = _stream_key(cfg, sf, point_idx)
    tx = np.empty((hi - lo, cfg.payload_symbols, SCHEMES[cfg.scheme].streams), dtype=np.int64)
    rx = np.empty_like(tx)
    if CHANNELS[cfg.channel].multipath:
        decide = partial(_sim_frame, cfg, fcfg, fd, sigma2, taps)
    else:
        payload, n = cfg.payload_symbols, fcfg.n
        decide = partial(
            _moving_frame, cfg, fcfg, fd, sigma2, taps,
            np.empty((2 * n, payload), dtype=np.complex128),
            np.empty((payload, n), dtype=np.complex128),
            np.empty((2, payload, n)),
        )
    with _blas.one_thread():
        for i, rng in enumerate(frame_generators(key, lo, hi)):
            tx[i] = rng.integers(0, 1 << sf, size=tx.shape[1:])
            rx[i] = decide(tx[i], rng)
    return _errors(tx, rx, sf)


def _sim_frame(
    cfg: SimConfig, fcfg: FrameConfig, fd: float, sigma2: float, taps: TapLags,
    tx: np.ndarray, rng: np.random.Generator,
) -> np.ndarray:
    """Decide one multipath frame's symbols.

    After tx it draws the fading phases, then the waveform noise.
    """
    scheme = SCHEMES[cfg.scheme]
    channel = CHANNELS[cfg.channel]
    frame = build_frame(fcfg, tx, cfg.scheme)
    w = taps.draw_weights(rng)
    gains = tvfs_realization(frame.size, taps, fd, w)
    y = apply_awgn(apply_channel(frame, taps, gains), sigma2, rng)
    sync_up, data = extract_regions(y, fcfg)
    if scheme.coherent and channel.genie:
        _, _, kernel = _doppler_table(fcfg, fd, cfg.bandwidth_hz)
        h = np.zeros(fcfg.n, dtype=np.complex128)
        h[taps.lags] = (w * kernel).sum(axis=1)
        data = equalize_fd(data, h)
    elif scheme.coherent:
        est = ls_selective(average_sync(sync_up), fcfg.sf)
        if fcfg.cp_len > 0:  # taps beyond the prefix are noise; est[0:] = 0 would zero all
            est[fcfg.cp_len:] = 0.0
        data = equalize_fd(data, est)
    return scheme.detect(data, fcfg.sf)


@lru_cache(maxsize=8)
def _doppler_table(fcfg: FrameConfig, fd: float, rate_hz: float):
    """One point's tables of one lag ``g[t] = sum_j w_j exp(1j*theta_j*t)`` of a moving fade.

    ``w`` is the lag's folded weights, ``theta_j = 2*pi*fd*FOLDED_COS[j] / rate_hz``.
    ``table[d, j]`` (N, 32) is ``fft(exp(1j*theta_j*t))[d]`` over one chirp body,
    ``phases[i, j]`` is ``exp(1j*theta_j*s_i)`` at data chirp i's first body
    sample in the frame ``fcfg``, and ``kernel @ w`` is the fade's mean over the
    sync up-chirp bodies, for the flat estimate and the multipath genie alike.
    Built in each process, never sent to workers.
    """
    theta = (2.0 * np.pi * fd / rate_hz) * FOLDED_COS
    sync_up, data = extract_regions(np.arange(fcfg.total_samples), fcfg)
    phases = np.exp(1j * np.outer(data[:, 0], theta))
    table = np.fft.fft(np.exp(1j * np.outer(np.arange(fcfg.n), theta)), axis=0)
    kernel = table[0] / fcfg.n * np.exp(1j * np.outer(sync_up[:, 0], theta)).mean(axis=0)
    table.flags.writeable = phases.flags.writeable = kernel.flags.writeable = False
    return table, phases, kernel


def _moving_flat(
    cfg: SimConfig, fcfg: FrameConfig, fd: float, weights: np.ndarray, tx: np.ndarray,
    twice: np.ndarray, spectra: np.ndarray,
) -> complex:
    """Write a moving flat fade's noiseless data spectra into ``spectra``; return its
    preamble-averaged gain.

    Data chirp i spreads a tone at bin q into ``amp * v_i[(m - q) mod N]``, with
    ``v = (w * phases) @ table.T`` over the folded weights ``w``: two real
    length-64 dots per bin, one BLAS product into the (2N, payload) buffer
    ``twice``, written twice over down its columns so that each shift is a
    window.  ``spectra`` (payload, N) gets each chirp's windows combined as
    :attr:`Scheme.combine` does: the in-phase window, plus j times the
    quadrature window.
    """
    scheme = SCHEMES[cfg.scheme]
    n = fcfg.n
    table, phases, kernel = _doppler_table(fcfg, fd, cfg.bandwidth_hz)
    w = weights.ravel()
    conj_c = np.conj(np.sqrt(1.0 / scheme.streams) * w * phases)
    rows = np.stack([conj_c, 1j * conj_c], axis=1).view(np.float64).reshape(2 * len(tx), -1)
    np.matmul(table.view(np.float64), rows.T, out=twice[:n].view(np.float64))
    twice[n:] = twice[:n]
    for i, (start, *quadrature) in enumerate((n - tx).tolist()):
        if quadrature:
            np.multiply(twice[quadrature[0]:quadrature[0] + n, i], 1j, out=spectra[i])
            spectra[i] += twice[start:start + n, i]
        else:
            spectra[i] = twice[start:start + n, i]
    return complex((w * kernel).sum())


def _moving_frame(
    cfg: SimConfig, fcfg: FrameConfig, fd: float, sigma2: float, taps: TapLags,
    twice: np.ndarray, spectra: np.ndarray, noise: np.ndarray,
    tx: np.ndarray, rng: np.random.Generator,
) -> np.ndarray:
    """Decide one moving flat frame on its spectra (:func:`_moving_flat`).

    After tx it draws the fade phases, the estimate error, then every noise
    bin into ``noise`` (2, payload, N), which it scales and adds to
    ``spectra`` in place; a coherent scheme equalizes there too.
    """
    scheme = SCHEMES[cfg.scheme]
    h_est = _moving_flat(cfg, fcfg, fd, taps.draw_weights(rng), tx, twice, spectra)
    if scheme.coherent:
        err = rng.standard_normal(2) * _estimate_deviation(sigma2, fcfg.n)
        h_est += complex(err[0], err[1])
    rng.standard_normal(out=noise)
    noise *= np.sqrt(fcfg.n * sigma2 / 2.0)
    spectra.real += noise[0]
    spectra.imag += noise[1]
    if scheme.coherent:
        spectra *= equalize_flat(1.0, h_est)
    return scheme.decide(spectra)


def _frozen_range(
    cfg: SimConfig, sf: int, sigma2: float, point_idx: int, link: Link, lo: int, hi: int
) -> tuple[int, int, int, int]:
    """Simulate frozen flat-channel frames ``[lo, hi)`` as one batch.

    A frozen fade scales each data chirp's tone pattern by one gain, known to
    the genie (the preamble average) or estimated with a CN(0, sigma2 / (8N))
    error, over i.i.d. CN(0, N*sigma2) noise bins; each decision is drawn from
    the exact order statistic.  Each frame's own generator (:mod:`._keys`) makes
    its draws of stream version 4 in order (tx symbols, fade phases, estimate
    error, decision draws) into the batch's arrays; then one pass of
    arithmetic over the batch turns them into fade gains, tone means and
    decisions (:mod:`.orderstat`).  Returns the summed (bits_sent,
    bit_errors, symbols_sent, symbol_errors).
    """
    n = 1 << sf
    _, taps, _ = link
    scheme = SCHEMES[cfg.scheme]
    channel = CHANNELS[cfg.channel]
    law = scheme.law
    estimated = channel.fading and scheme.coherent and not channel.genie
    shape = (hi - lo, cfg.payload_symbols, scheme.streams)
    tx = np.empty(shape, dtype=np.int64)
    phases = np.empty((hi - lo, taps.amplitudes.size, JAKES_SINUSOIDS)) if channel.fading else None
    err = np.empty((hi - lo, 2)) if estimated else None
    z = np.empty((hi - lo, law.normals) + shape[1:])
    u = np.empty(shape)
    j = np.empty(shape, dtype=np.int64)
    key = _stream_key(cfg, sf, point_idx)
    for i, rng in enumerate(frame_generators(key, lo, hi)):
        # Stream version 4: tx symbols, fade phases, estimate error, decision draws.
        tx[i] = rng.integers(0, n, size=shape[1:])
        if channel.fading:
            phases[i] = taps.draw_phases(rng)
        if estimated:
            rng.standard_normal(out=err[i])
        law.draw(tx[i], n, rng, z[i], u[i], j[i])

    gain = h_est = np.ones(hi - lo, dtype=np.complex128)
    if channel.fading:
        gain = h_est = taps.weights(phases).reshape(hi - lo, -1).sum(axis=1)
    if estimated:
        h_est = gain + (err * _estimate_deviation(sigma2, n)).view(np.complex128)[:, 0]
    equalized = channel.fading and scheme.coherent
    mean = _tone_mean(n, scheme.streams, sigma2, gain, h_est if equalized else None)
    return _errors(tx, law.decide(tx, n, mean, z, u, j), sf)


def _tone_mean(
    n: int, streams: int, sigma2: float, gain: complex | np.ndarray,
    h_est: complex | np.ndarray | None,
) -> np.ndarray:
    """Frozen frames' tone means in units of the noise deviation per quadrature.

    Equalized by ``h_est`` (None: not equalized), the tone is ``gain/h_est``
    times its height ``N/sqrt(streams)``, over noise of deviation
    ``|1/h_est| * sqrt(N*sigma2/2)`` per quadrature: ``gain * k * s / |s|``
    with ``k = sqrt(2N / streams) / sqrt(sigma2)`` and
    ``s = equalize_flat(1, h_est)``.  A mean beyond :data:`_MEAN_CAP` is
    scaled back to it.  ``gain`` and ``h_est`` are one complex per frame
    (arrays of one shape) or scalars.
    """
    k = math.sqrt(2.0 * n / streams) / math.sqrt(sigma2)
    mean = np.asarray(gain, dtype=np.complex128) * k
    if h_est is not None:
        s = equalize_flat(1.0, h_est)
        mean = mean * (s / np.abs(s))
    return mean * (_MEAN_CAP / np.maximum(np.abs(mean), _MEAN_CAP))


def _point_sigma2(cfg: SimConfig, sf: int, axis_db: float) -> float:
    if cfg.axis == "ebn0":
        return ebn0_to_sigma2(axis_db, sf, cfg.scheme)
    return snr_to_sigma2(axis_db, sf)


def _run_point(cfg: SimConfig, sf: int, point_idx: int, axis_db: float) -> SimRecord:
    sigma2 = _point_sigma2(cfg, sf, axis_db)
    channel = CHANNELS[cfg.channel]
    link = _link(cfg, sf)
    task = _each_frame if channel.multipath or channel.moving else _frozen_range
    t0 = time.perf_counter()
    bits = bit_errors = symbols = symbol_errors = 0
    done = 0
    while done < cfg.max_frames and bit_errors < cfg.min_bit_errors:
        hi = min(done + FRAMES_PER_BATCH, cfg.max_frames)
        b, be, s, se = task(cfg, sf, sigma2, point_idx, link, done, hi)
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


def run_ber(cfg: SimConfig) -> list[SimRecord]:
    """Sweep the configured axis, measuring BER/SER per (sf, point), one point per task.

    One worker or one point runs in this process; otherwise at most one process per point.
    """
    cfg.validate()
    points = [(sf, idx, db) for sf in cfg.sf_list for idx, db in enumerate(cfg.axis_points())]
    workers = min(cfg.workers, len(points))
    if workers == 1:
        return [_run_point(cfg, *point) for point in points]
    # Imported on demand, so in-process runs never load multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    # A point costs more at a larger sf and further up the axis, where the stop
    # rule needs more frames, so the points go out costliest first and the
    # longest ones never start while the other workers sit idle.
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(partial(_run_point, cfg), *zip(*points[::-1])))[::-1]


def run_throughput(cfg: SimConfig) -> list[SimRecord]:
    """SNR-axis sweep reporting (1 - SER) * rate; requires ``axis == "snr"``."""
    if cfg.axis != "snr":
        raise ConfigError("throughput runs sweep the per-sample SNR axis; set axis='snr'")
    return run_ber(cfg)


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
