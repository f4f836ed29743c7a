import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chirplink import _kernels
from chirplink.channel import (
    FLAT_PROFILE,
    FOLDED_COS,
    apply_channel,
    max_doppler_hz,
    tvfs_realization,
    urban_12tap_profile,
)

from oracles import sos_tap_gains_per_lag

RATE_HZ = 250e3
K = 64


def _sample_inputs(n=4096, seed=0):
    rng = np.random.default_rng(seed)
    omegas = 2 * np.pi * 100.0 * np.cos(2 * np.pi * (np.arange(64) + 0.5) / 64)
    phases = rng.uniform(0, 2 * np.pi, size=64)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return omegas, phases, x


def test_numpy_jakes_normalization():
    omegas, phases, *_ = _sample_inputs()
    weights = (np.exp(1j * phases) / 8.0)[:, None]
    trace = _kernels.jakes_trace(omegas, weights, 4e-6, 1000)
    assert trace.shape == (1, 1000)
    assert np.all(np.isfinite(trace))
    assert_allclose(trace[0, 0], np.exp(1j * phases).sum() / 8.0, rtol=1e-12)


def _per_lag_inputs(n_lags, speed_kmh, seed=5):
    """One tap per lag: the kernel's weights and the oracle's powers and phases."""
    rng = np.random.default_rng(seed)
    powers = rng.uniform(0.2, 1.0, size=n_lags)
    phases = rng.uniform(0, 2 * np.pi, size=(n_lags, K))
    weights = (np.sqrt(powers / K)[:, None] * np.exp(1j * phases)).T
    fd = max_doppler_hz(speed_kmh, 863e6)
    omegas = 2 * np.pi * fd * np.cos(2 * np.pi * (np.arange(K) + 0.5) / K)
    return powers, phases, weights, fd, omegas


@pytest.mark.parametrize("speed_kmh", [0.1, 60.0])
@pytest.mark.parametrize("n_lags", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 7, 1000, 4097, 30720])
def test_jakes_trace_matches_brute_force(n, n_lags, speed_kmh):
    # tiny, prime, non-square and frame-sized lengths exercise the block split
    powers, phases, weights, fd, omegas = _per_lag_inputs(n_lags, speed_kmh)
    trace = _kernels.jakes_trace(omegas, weights, 1.0 / RATE_HZ, n)
    _, want = sos_tap_gains_per_lag(np.arange(n_lags), powers, phases, fd, RATE_HZ, n)
    assert trace.shape == (n_lags, n)
    assert_allclose(trace, want, rtol=0, atol=1e-11)


def test_jakes_trace_builds_no_sinusoid_by_sample_table():
    # a (K, n) table alone would be K * n * 16 B = 31.5 MB here
    n, n_lags = 30720, 2
    *_, weights, _, omegas = _per_lag_inputs(n_lags, 60.0)
    tracemalloc.start()
    try:
        _kernels.jakes_trace(omegas, weights, 1.0 / RATE_HZ, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * n_lags * n * 16


def test_cached_tables_serve_interleaved_callers():
    # the tables are cached per (Doppler grid, ts, length): calls alternating
    # two Doppler values, two lengths and both entry points must each match
    # the taps synthesized one by one
    profile = urban_12tap_profile()
    taps = profile.lag_groups(RATE_HZ)
    keys = [(speed_kmh, n) for speed_kmh in (3.0, 60.0) for n in (1001, 4320)]
    for rnd in range(2):
        for i, (speed_kmh, n) in enumerate(keys):
            fd = max_doppler_hz(speed_kmh, 863e6)
            phases = taps.draw_phases(np.random.default_rng([rnd, i]))
            weights = taps.weights(phases)
            if (rnd + i) % 2:
                gains = tvfs_realization(n, taps, fd, weights)
            else:
                omegas = 2 * np.pi * fd * FOLDED_COS
                gains = _kernels.jakes_trace(omegas, weights.T, 1.0 / RATE_HZ, n)
            _, want = sos_tap_gains_per_lag(
                profile.sample_delays(RATE_HZ), profile.powers, phases, fd, RATE_HZ, n
            )
            assert_allclose(gains, want, rtol=0, atol=1e-11)
            gains[:, 0] = 0.0  # a trace is the caller's own array


def test_cached_tables_are_read_only():
    *_, weights, _, omegas = _per_lag_inputs(2, 60.0)
    _kernels.jakes_trace(omegas, weights, 1.0 / RATE_HZ, 999)
    for table in _kernels._tables(omegas.tobytes(), 1.0 / RATE_HZ, 999):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0


def test_numpy_tdl_zero_delay_passthrough():
    _, _, x = _sample_inputs(n=100)
    gains = np.ones((1, 100), dtype=complex)
    out = apply_channel(x, FLAT_PROFILE.lag_groups(RATE_HZ), gains)
    assert_allclose(out, x, atol=1e-15)

