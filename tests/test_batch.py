"""Frozen flat channels: one batch task against frame-by-frame references.

The harness simulates the frames ``[lo, hi)`` of a frozen flat channel
(``awgn``, ``rayleigh-perfect``, ``rayleigh-static-est``) as one task: each
frame keys its own generator and makes its draws, then one pass of
arithmetic decides the whole range.  ``oracles.frozen_frame`` draws and
decides one frame on its own in Python complex scalars.  The draws are the
same and the tone means agree to an ulp, so the summed counts must be equal,
not merely close: a decision could differ only where its statistic sits
within an ulp of its threshold.

The golden test runs only two frames per point; here full batches
(``[0, 32)``, ``[32, 64)``) and a partial one (``[64, 75)``) are compared, at
points with many errors, few errors and a tone mean beyond ``_MEAN_CAP``.

A large-sample check compares the frozen AWGN symbol error rates with the
exact M-ary orthogonal closed forms.
"""

import itertools
import math

import numpy as np
import pytest

from chirplink.channel import FLAT_PROFILE
from chirplink.harness import (
    _MEAN_CAP,
    SimConfig,
    _frozen_range,
    _point_sigma2,
    _tone_mean,
    run_ber,
)
from chirplink.modem import SCHEMES

from oracles import coherent_mary_ser, frozen_frame, frozen_tone_mean, noncoherent_mary_ser

RANGES = ((0, 32), (32, 64), (64, 75))
# Eb/N0 points: many errors, few errors, and one whose tone mean is capped
POINTS = {
    "awgn": (0.0, 5.0, 2100.0),
    "rayleigh-perfect": (4.0, 20.0, 2100.0),
    "rayleigh-static-est": (4.0, 20.0, 2100.0),
}
SCHEME_NAMES = ("lora-noncoherent", "lora-coherent", "iqcss")


def _has_same_pair(cfg: SimConfig, sf: int, frame_idx: int) -> bool:
    """Whether an iqcss frame's tx (its first draw, at point 0) has a chirp with k_i == k_q."""
    key = [cfg.seed, list(SCHEMES).index("iqcss"), sf, 0, frame_idx]
    rng = np.random.default_rng(np.random.SeedSequence(key))
    tx = rng.integers(0, 1 << sf, size=(cfg.payload_symbols, 2))
    return bool((tx[:, 0] == tx[:, 1]).any())


def _mixing_seed(sf: int) -> int:
    """The first seed at which every range holds iqcss frames with and without
    a k_i == k_q chirp (point 0), so both layouts of the index draw run."""
    for seed in itertools.count(1):
        cfg = SimConfig(scheme="iqcss", seed=seed)
        kinds = [{_has_same_pair(cfg, sf, f) for f in range(lo, hi)} for lo, hi in RANGES]
        if all(k == {True, False} for k in kinds):
            return seed


@pytest.mark.parametrize("sf", [6, 7, 9])
@pytest.mark.parametrize("scheme", SCHEME_NAMES)
@pytest.mark.parametrize("channel", list(POINTS))
def test_batch_matches_frame_by_frame(channel, scheme, sf):
    seed = _mixing_seed(sf) if scheme == "iqcss" else 1
    cfg = SimConfig(scheme=scheme, channel=channel, sf_list=(sf,), seed=seed)
    taps = FLAT_PROFILE.lag_groups(cfg.bandwidth_hz)
    errors = 0
    for point_idx, ebn0_db in enumerate(POINTS[channel]):
        sigma2 = _point_sigma2(cfg, sf, ebn0_db)
        for lo, hi in RANGES:
            batch = _frozen_range(cfg, sf, sigma2, point_idx, taps, lo, hi)
            frames = [frozen_frame(cfg, sf, sigma2, point_idx, f) for f in range(lo, hi)]
            ref = tuple(int(sum(c)) for c in zip(*frames))
            assert batch == ref, f"{ebn0_db:g} dB, frames [{lo}, {hi}): {batch} != {ref}"
            errors += batch[3]
    assert errors > 0, "no point made an error to compare"


def test_tone_mean_matches_python_complex():
    # the batch's numpy arithmetic agrees with the per-frame Python complex result
    # to an ulp or two, also for means far beyond the cap
    rng = np.random.default_rng(5)
    scale = 10.0 ** rng.uniform(-3, 3, 2000)
    gain = (rng.standard_normal(2000) + 1j * rng.standard_normal(2000)) * scale
    h_est = gain + (rng.standard_normal(2000) + 1j * rng.standard_normal(2000)) * 0.3
    for n, streams, sigma2 in ((64, 1, 0.7), (128, 2, 3.1e-2), (512, 2, 1e-210), (4096, 1, 1e-300)):
        for h in (h_est, None):
            batch = _tone_mean(n, streams, sigma2, gain, h)
            ref = np.array([
                frozen_tone_mean(n, streams, sigma2, complex(g), None if h is None else complex(e))
                for g, e in zip(gain, h_est)
            ])
            np.testing.assert_allclose(batch, ref, rtol=2e-15, atol=0)
            if sigma2 < 1e-200:
                assert np.allclose(np.abs(batch), _MEAN_CAP, rtol=1e-15)


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_noise_below_the_overflow_of_2n_over_sigma2_decides_right(scheme):
    # at sf7, 2N/sigma2 overflows a float for sigma2 below ~1.4e-306: the tone
    # is certain to win, so no symbol may be wrong
    cfg = SimConfig(scheme=scheme, channel="awgn", sf_list=(7,))
    assert math.isinf(2.0 * 128 / 1e-306)
    _, _, symbols, symbol_errors = _frozen_range(cfg, 7, 1e-306, 0, None, 0, 5)
    assert symbols > 0 and symbol_errors == 0


# (scheme, Eb/N0 dB) -> frames: at least 200,000 symbols per point
EXACT_FRAMES = {"lora-noncoherent": 10_000, "lora-coherent": 10_000, "iqcss": 5_000}


@pytest.mark.parametrize("ebn0_db", [2.0, 4.0])
@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_frozen_awgn_ser_matches_closed_form(scheme, ebn0_db):
    # every stream of every scheme is one M-ary orthogonal decision at
    # Es/N0 = sf * Eb/N0 per stream: non-coherent by |.|^2, coherent by Re (and Im)
    sf = 7
    cfg = SimConfig(scheme=scheme, channel="awgn", sf_list=(sf,), axis_start=ebn0_db,
                    axis_stop=ebn0_db, max_frames=EXACT_FRAMES[scheme],
                    min_bit_errors=10**9, seed=1313)
    (rec,) = run_ber(cfg)
    symbols = rec.bits_sent // sf
    assert symbols >= 200_000
    gamma = sf * 10.0 ** (ebn0_db / 10.0)
    closed = noncoherent_mary_ser if scheme == "lora-noncoherent" else coherent_mary_ser
    want = closed(gamma, 1 << sf)
    z = (rec.ser - want) / math.sqrt(want * (1.0 - want) / symbols)
    print(f"{scheme} {ebn0_db:g} dB: ser {rec.ser:.6g} closed form {want:.6g} z = {z:+.2f}")
    assert abs(z) <= 4.0, f"z = {z:.2f}: ser {rec.ser:.6g} against {want:.6g}"
