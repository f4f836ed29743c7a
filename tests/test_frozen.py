"""Flat channels: the despread-spectrum frames against the waveform reference.

The harness draws each flat-channel frame (``awgn``, ``rayleigh-perfect``,
``rayleigh-static-est`` and, at 60 km/h, ``rayleigh-mobile-est``) directly on
the despread data spectra.  ``oracles.waveform_flat_frame`` builds the same
frame sample by sample from the package's waveform primitives.  Both must give
the same error statistics at fixed seeds, for every channel and scheme at
three Eb/N0 points:

* under AWGN every payload symbol is an independent trial, so the symbol
  error counts are compared by a pooled two-proportion z test;
* under a fade the errors of one frame share its gains and cluster, so
  the frame is the trial: the mean per-frame symbol error counts are compared
  by an unpooled two-sample z test.

A case fails when |z| > 4.  Under the normal approximation a correct
implementation fails one case with probability 6.3e-5, and any of the 36
cases with probability below 2.3e-3 (union bound).  The seeds are fixed, so
the outcome is reproducible.

The moving channel is also checked bin by bin: with the noise off, its data
spectra and preamble estimate match the waveform chain to rounding.  The
multipath genie takes the same preamble mean of the folded weights, which
matches the waveform trace's sample gains averaged over the sync chirps.  A
moving range reuses its frame buffers, so one 32-frame range must count what
its 32 one-frame ranges count.  Every range reuses one generator across its
frames, so the same must hold at a 21-symbol lora payload, whose tx draw
leaves a 32-bit half-word buffered.
"""

import math

import numpy as np
import pytest

from chirplink.chanest import ls_flat
from chirplink.channel import FLAT_PROFILE, max_doppler_hz, tvfs_realization, urban_12tap_profile
from chirplink.chirp import despread, dft, raw_upchirp
from chirplink.framing import FrameConfig, average_sync
from chirplink.harness import (
    SimConfig, _doppler_table, _each_frame, _frozen_range, _moving_flat, _point_sigma2
)

from oracles import preamble_mean_response, waveform_flat_frame, waveform_flat_rx

SF = 7
Z_MAX = 4.0
POINTS = {
    "awgn": (0.0, 1.5, 3.0),
    "rayleigh-perfect": (4.0, 10.0, 16.0),
    "rayleigh-static-est": (4.0, 10.0, 16.0),
    "rayleigh-mobile-est": (4.0, 10.0, 16.0),
}
FRAMES = {
    "awgn": 150, "rayleigh-perfect": 300, "rayleigh-static-est": 300, "rayleigh-mobile-est": 300
}
SPEED_KMH = 60.0
SCHEMES = ("lora-noncoherent", "lora-coherent", "iqcss")
CASES = [(ch, sc, db) for ch in POINTS for sc in SCHEMES for db in POINTS[ch]]


def two_proportion_z(errors_a: int, n_a: int, errors_b: int, n_b: int) -> float:
    pooled = (errors_a + errors_b) / (n_a + n_b)
    var = pooled * (1.0 - pooled) * (1.0 / n_a + 1.0 / n_b)
    return 0.0 if var == 0.0 else (errors_a / n_a - errors_b / n_b) / math.sqrt(var)


def two_mean_z(a: np.ndarray, b: np.ndarray) -> float:
    var = a.var(ddof=1) / a.size + b.var(ddof=1) / b.size
    return 0.0 if var == 0.0 else (a.mean() - b.mean()) / math.sqrt(var)


@pytest.mark.parametrize("channel,scheme,ebn0_db", CASES)
def test_despread_frames_match_waveform_reference(channel, scheme, ebn0_db):
    frames = FRAMES[channel]
    case = CASES.index((channel, scheme, ebn0_db))
    cfg = SimConfig(
        scheme=scheme, channel=channel, sf_list=(SF,), seed=9000 + case, speed_kmh=SPEED_KMH
    )
    sigma2 = _point_sigma2(cfg, SF, ebn0_db)
    taps = FLAT_PROFILE.lag_groups(cfg.bandwidth_hz)
    task = _each_frame if channel == "rayleigh-mobile-est" else _frozen_range
    fast = np.array([task(cfg, SF, sigma2, 0, taps, i, i + 1)[3] for i in range(frames)])

    rng = np.random.default_rng([4711, case])
    ref = np.empty(frames, dtype=np.int64)
    for i in range(frames):
        tx, rx = waveform_flat_frame(
            scheme, channel, SF, sigma2, cfg.payload_symbols, rng, speed_kmh=SPEED_KMH
        )
        ref[i] = int((tx != rx).sum())

    symbols = frames * cfg.payload_symbols * (2 if scheme == "iqcss" else 1)
    if channel == "awgn":
        z = two_proportion_z(int(fast.sum()), symbols, int(ref.sum()), symbols)
    else:
        z = two_mean_z(fast.astype(float), ref.astype(float))
    assert ref.sum() > 0, "reference point too clean to compare"
    assert abs(z) <= Z_MAX, (
        f"z = {z:.2f}: {fast.sum()} vs {ref.sum()} symbol errors in {symbols} symbols"
    )


@pytest.mark.parametrize("speed_kmh", [0.0, 0.1, 60.0, 500.0])
@pytest.mark.parametrize("cp_len", [0, 16])
@pytest.mark.parametrize("sf", [7, 10, 12])
def test_moving_spectra_match_waveform_chain(sf, cp_len, speed_kmh):
    n = 1 << sf
    cfg = SimConfig(scheme="iqcss", channel="rayleigh-mobile-est", sf_list=(sf,), cp_len=cp_len,
                    speed_kmh=speed_kmh)
    tx = np.random.default_rng([sf, cp_len]).integers(0, n, size=(cfg.payload_symbols, 2))
    weights = FLAT_PROFILE.lag_groups(cfg.bandwidth_hz).draw_weights(np.random.default_rng(sf))
    fcfg = FrameConfig(sf=sf, payload_symbols=cfg.payload_symbols, cp_len=cp_len)
    fd = max_doppler_hz(speed_kmh, cfg.carrier_hz)
    twice = np.empty((2 * n, cfg.payload_symbols), dtype=np.complex128)
    spectra = np.empty((cfg.payload_symbols, n), dtype=np.complex128)
    h = _moving_flat(cfg, fcfg, fd, weights, tx, twice, spectra)

    # the same 64 phases, drawn again by the waveform chain's realization
    rng = np.random.default_rng(sf)
    sync_up, data, _ = waveform_flat_rx(fcfg, tx, "iqcss", True, fd, 0.0, rng)
    ref = dft(despread(data, sf))
    ref_h = ls_flat(average_sync(sync_up), raw_upchirp(sf))

    assert np.abs(spectra - ref).max() <= 1e-12 * np.abs(ref).max()
    assert abs(h - ref_h) <= 1e-12 * abs(ref_h)


@pytest.mark.parametrize("speed_kmh", [0.0, 0.1, 60.0, 500.0])
@pytest.mark.parametrize("cp_len", [16, 40])
@pytest.mark.parametrize("sf", [7, 10, 12])
def test_kernel_genie_matches_sample_averaged_preamble(sf, cp_len, speed_kmh):
    cfg = SimConfig(scheme="iqcss", channel="tvfs-perfect", sf_list=(sf,), cp_len=cp_len,
                    speed_kmh=speed_kmh)
    taps = urban_12tap_profile().lag_groups(cfg.bandwidth_hz)
    weights = taps.draw_weights(np.random.default_rng([sf, cp_len]))
    fcfg = FrameConfig(sf=sf, payload_symbols=cfg.payload_symbols, cp_len=cp_len)
    fd = max_doppler_hz(speed_kmh, cfg.carrier_hz)
    _, _, kernel = _doppler_table(fcfg, fd, cfg.bandwidth_hz)
    h = np.zeros(fcfg.n, dtype=np.complex128)
    h[taps.lags] = (weights * kernel).sum(axis=1)

    gains = tvfs_realization(fcfg.total_samples, taps, fd, weights)
    ref = preamble_mean_response(taps.lags, gains, fcfg)
    assert np.abs(h - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("speed_kmh", [0.1, 60.0])
@pytest.mark.parametrize("sf", [7, 10])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_moving_range_equals_its_one_frame_ranges(scheme, sf, speed_kmh):
    # a moving range reuses its frame buffers; no frame may read what the last one left
    cfg = SimConfig(scheme=scheme, channel="rayleigh-mobile-est", sf_list=(sf,), seed=23,
                    speed_kmh=speed_kmh)
    sigma2 = _point_sigma2(cfg, sf, 12.0)
    taps = FLAT_PROFILE.lag_groups(cfg.bandwidth_hz)
    whole = _each_frame(cfg, sf, sigma2, 0, taps, 0, 32)
    parts = np.array([_each_frame(cfg, sf, sigma2, 0, taps, i, i + 1) for i in range(32)])
    assert whole[3] > 0
    assert whole == tuple(parts.sum(axis=0))


@pytest.mark.parametrize("scheme", ["lora-noncoherent", "lora-coherent"])
@pytest.mark.parametrize("channel, ebn0_db", [
    ("awgn", 2.0), ("rayleigh-static-est", 12.0), ("rayleigh-mobile-est", 12.0), ("tvfs-est", 12.0),
])
def test_ragged_range_equals_its_one_frame_ranges(channel, ebn0_db, scheme):
    # a range reuses one generator; a 21-symbol lora payload leaves a 32-bit
    # half-word buffered after the tx draw, which no next frame may read
    cfg = SimConfig(scheme=scheme, channel=channel, sf_list=(7,), seed=23, speed_kmh=60.0,
                    payload_symbols=21)
    sigma2 = _point_sigma2(cfg, 7, ebn0_db)
    profile = urban_12tap_profile() if channel == "tvfs-est" else FLAT_PROFILE
    taps = profile.lag_groups(cfg.bandwidth_hz)
    task = _frozen_range if channel in ("awgn", "rayleigh-static-est") else _each_frame
    whole = task(cfg, 7, sigma2, 0, taps, 0, 32)
    parts = np.array([task(cfg, 7, sigma2, 0, taps, i, i + 1) for i in range(32)])
    assert whole[3] > 0
    assert whole == tuple(parts.sum(axis=0))
