"""Frozen flat channels: order-statistic decisions against explicit noise bins.

The harness draws each decision of a frozen flat frame (``awgn``,
``rayleigh-perfect``, ``rayleigh-static-est``) from the exact order statistic
of the pure-noise bins (``chirplink.orderstat``).
``oracles.explicit_frozen_frame`` draws all N noise bins of every data chirp
and decides with the scheme's argmax rule.  Both must give the same symbol
and bit error statistics at fixed seeds:

* under AWGN every payload symbol is an independent trial, so symbol errors
  are compared by a pooled two-proportion z test;
* under a fade the errors of one frame share its gain, so the frame is the
  trial: the mean per-frame symbol error counts are compared by an unpooled
  two-sample z test, as in ``test_frozen.py``;
* the bits of one symbol err together, so bit errors are always compared by
  the unpooled two-sample z test on per-frame counts.

A comparison fails when |z| > 4.  Under the normal approximation a correct
implementation fails one with probability 6.3e-5, and any of the 74 here with
probability below 4.7e-3 (union bound).  The seeds are fixed, so the outcome
is reproducible.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import log_ndtr as scipy_log_ndtr

from chirplink.channel import FLAT_PROFILE
from chirplink.harness import SimConfig, _frozen_range, _point_sigma2, _popcount, _tone_mean
from chirplink.modem import SCHEMES
from chirplink.orderstat import log1mexp, log_ndtr

from oracles import explicit_frozen_decisions, explicit_frozen_frame
from test_frozen import two_mean_z, two_proportion_z

Z_MAX = 4.0
TINY = np.finfo(np.float64).tiny
SF7_POINTS = {
    "awgn": (0.0, 1.5, 3.0),
    "rayleigh-perfect": (4.0, 10.0, 16.0),
    "rayleigh-static-est": (4.0, 10.0, 16.0),
}
SCHEME_NAMES = ("lora-noncoherent", "lora-coherent", "iqcss")
# (channel, scheme, sf, Eb/N0 dB, frames per side)
CASES = [
    (ch, sc, 7, db, 300 if ch == "awgn" else 400)
    for ch in SF7_POINTS for sc in SCHEME_NAMES for db in SF7_POINTS[ch]
] + [
    ("awgn", "lora-noncoherent", 10, 1.0, 150),
    ("awgn", "lora-coherent", 10, 1.0, 150),
    ("awgn", "iqcss", 10, 1.0, 150),
    ("rayleigh-perfect", "lora-coherent", 10, 4.0, 300),
    ("awgn", "lora-noncoherent", 12, 0.0, 60),
    ("awgn", "lora-coherent", 12, 0.0, 60),
    ("awgn", "iqcss", 12, 0.0, 60),
    ("rayleigh-static-est", "iqcss", 12, 4.0, 150),
]


def bit_errors(tx: np.ndarray, rx: np.ndarray) -> np.ndarray:
    return _popcount(np.bitwise_xor(tx, rx).ravel()).reshape(tx.shape)


@pytest.mark.parametrize("channel,scheme,sf,ebn0_db,frames", CASES)
def test_order_statistic_matches_explicit_bins(channel, scheme, sf, ebn0_db, frames):
    case = CASES.index((channel, scheme, sf, ebn0_db, frames))
    cfg = SimConfig(scheme=scheme, channel=channel, sf_list=(sf,), seed=12000 + case)
    sigma2 = _point_sigma2(cfg, sf, ebn0_db)
    taps = FLAT_PROFILE.lag_groups(cfg.bandwidth_hz)
    fast = np.array([_frozen_range(cfg, sf, sigma2, 0, taps, i, i + 1) for i in range(frames)])
    rng = np.random.default_rng([4712, case])
    ref = [explicit_frozen_frame(scheme, channel, sf, sigma2, cfg.payload_symbols, rng)
           for _ in range(frames)]
    ref_sym = np.array([tx != rx for tx, rx in ref])  # frame x chirp x stream
    ref_bits = np.array([bit_errors(tx, rx) for tx, rx in ref])
    assert ref_sym.sum() > 0, "reference point too clean to compare"

    symbols = ref_sym[0].size * frames
    if channel == "awgn":
        z_sym = two_proportion_z(int(fast[:, 3].sum()), symbols, int(ref_sym.sum()), symbols)
    else:
        z_sym = two_mean_z(fast[:, 3].astype(float), ref_sym.sum(axis=(1, 2)).astype(float))
    z_bit = two_mean_z(fast[:, 1].astype(float), ref_bits.sum(axis=(1, 2)).astype(float))
    msg = (f"{fast[:, 3].sum()} vs {ref_sym.sum()} symbol errors and {fast[:, 1].sum()} vs "
           f"{ref_bits.sum()} bit errors in {symbols} symbols")
    assert abs(z_sym) <= Z_MAX, f"symbol errors: z = {z_sym:.2f}: {msg}"
    assert abs(z_bit) <= Z_MAX, f"bit errors: z = {z_bit:.2f}: {msg}"


@pytest.mark.parametrize("same", [True, False])
def test_iq_rotation_leakage_matches_explicit_bins(same):
    # an estimate off by 0.6 rad leaks each tone into the other stream's
    # decision; with k_i == k_q both leak into one bin
    sf, chirps, sigma2 = 7, 6000, 6.0
    n = 1 << sf
    tx = np.random.default_rng(31).integers(0, n, size=(chirps, 2))
    if same:
        tx[:, 1] = tx[:, 0]
    else:
        tx = tx[tx[:, 0] != tx[:, 1]]
    gain, h_est = 0.9 + 0.1j, (0.9 + 0.1j) * np.exp(0.6j)
    mean = _tone_mean(n, 2, sigma2, gain, h_est)
    fast = SCHEMES["iqcss"].law(tx, n, mean, np.random.default_rng(32))
    ref = explicit_frozen_decisions("iqcss", sf, tx, gain, h_est, sigma2, np.random.default_rng(33))
    for stream in (0, 1):
        e_fast = int((fast[:, stream] != tx[:, stream]).sum())
        e_ref = int((ref[:, stream] != tx[:, stream]).sum())
        assert 0 < e_ref < len(tx)
        z = two_proportion_z(e_fast, len(tx), e_ref, len(tx))
        assert abs(z) <= Z_MAX, f"stream {stream}: z = {z:.2f}: {e_fast} vs {e_ref} errors"


# (tx, tone mean, the bin each stream can never pick)
UNIFORM_CASES = {
    # a zero-mean tone bin is one more noise bin: all 64 bins are equally likely
    "lora-noncoherent": ([5], 0.0, [None]),
    "lora-coherent": ([5], -1e100, [5]),
    # the real tone sinks k_i in the Re stream and k_q in the Im stream; the
    # other bin of each stream has mean 0 and counts as noise
    "iqcss": ([5, 40], -1e100, [5, 40]),
}


@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_wrong_winner_is_uniform_over_the_noise_bins(scheme):
    n, chirps = 64, 64_000
    symbols, mean, never = UNIFORM_CASES[scheme]
    tx = np.tile(symbols, (chirps, 1))
    rx = SCHEMES[scheme].law(tx, n, complex(mean), np.random.default_rng(7))
    for stream, excluded in enumerate(never):
        counts = np.bincount(rx[:, stream], minlength=n)
        if excluded is not None:
            assert counts[excluded] == 0
            counts = np.delete(counts, excluded)
        expected = chirps / counts.size
        chi2 = ((counts - expected) ** 2 / expected).sum()
        dof = counts.size - 1
        assert abs(chi2 - dof) <= 6 * math.sqrt(2 * dof), f"stream {stream}: chi2 = {chi2:.1f}"


def test_log_ndtr_matches_scipy():
    z = np.linspace(-38.0, 38.0, 76_001)
    ours, ref = log_ndtr(z), scipy_log_ndtr(z)
    # above z ~ 37.5 log(Phi) is a subnormal -Q(z): no relative precision is left
    np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=TINY)
    assert np.all(np.abs(ref[z < 37.5]) >= TINY)


def test_log1mexp_matches_extended_precision():
    near_ln2 = np.log(2.0) * (1.0 + np.array([-1e-15, 0.0, 1e-15]))
    t = np.concatenate([np.logspace(-300, np.log10(700.0), 1201), near_ln2])
    ours = log1mexp(t)
    with mp.workdps(30):
        ref = [mp.log(-mp.expm1(-mp.mpf(x))) if x < 1 else mp.log1p(-mp.exp(-mp.mpf(x))) for x in t]
        rel = [abs(float((o - r) / r)) for o, r in zip(ours, ref)]
    assert max(rel) <= 1e-12


def test_deep_tails_are_finite_and_silent():
    z = np.array([-np.inf, -1e150, -1e3, -40.0, 40.0, 1e3, 1e150, np.inf])
    t = np.array([0.0, 5e-324, 1e-300, 800.0, 1e300, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lz, lt = log_ndtr(z), log1mexp(t)
    assert np.all(np.diff(lz) >= 0) and lz[-1] == 0.0 and lz[0] == -np.inf
    assert np.all(np.isfinite(lz[1:-1]))
    assert lt[0] == -np.inf and np.all(np.diff(lt) >= 0) and lt[-1] == 0.0
    # frozen frames at extreme valid noise levels stay silent too: at
    # sigma2 = 1e-306 an sf7 tone sits ~1.6e154 deviations out, whose square
    # would overflow
    taps = FLAT_PROFILE.lag_groups(250e3)
    for scheme in SCHEME_NAMES:
        for channel in ("awgn", "rayleigh-static-est"):
            cfg = SimConfig(scheme=scheme, channel=channel, sf_list=(7,))
            for sigma2 in (1e-306, 1e300):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    _frozen_range(cfg, 7, sigma2, 0, taps, 0, 1)
