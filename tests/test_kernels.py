import numpy as np
from numpy.testing import assert_allclose

from chirplink import _kernels


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
    trace = _kernels.jakes_trace(omegas, phases, 4e-6, 1000)
    assert trace.shape == (1000,)
    assert np.all(np.isfinite(trace))
    assert_allclose(trace[0], np.exp(1j * phases).sum() / 8.0, rtol=1e-12)


def test_numpy_tdl_zero_delay_passthrough():
    _, _, x, _, _ = _sample_inputs(n=100)
    gains = np.ones((1, 100), dtype=complex)
    out = _kernels.tdl_apply(x, np.zeros(1, dtype=np.int64), gains)
    assert_allclose(out, x, atol=1e-15)
