import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chirplink import _kernels
from chirplink.channel import max_doppler_hz

from oracles import sos_tap_gains_per_lag

RATE_HZ = 250e3
K = 64


def _sample_inputs(n=4096, taps=12, seed=0):
    rng = np.random.default_rng(seed)
    omegas = 2 * np.pi * 100.0 * np.cos(2 * np.pi * (np.arange(64) + 0.5) / 64)
    phases = rng.uniform(0, 2 * np.pi, size=64)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    delays = np.sort(rng.choice(np.arange(16), size=taps, replace=False)).astype(np.int64)
    delays[0] = 0
    gains = (rng.standard_normal((taps, n)) + 1j * rng.standard_normal((taps, n))) / np.sqrt(taps)
    return omegas, phases, x, delays, gains


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


def test_numpy_tdl_zero_delay_passthrough():
    _, _, x, _, _ = _sample_inputs(n=100)
    gains = np.ones((1, 100), dtype=complex)
    out = _kernels.tdl_apply(x, np.zeros(1, dtype=np.int64), gains)
    assert_allclose(out, x, atol=1e-15)

