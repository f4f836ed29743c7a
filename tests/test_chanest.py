import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from chirplink.chanest import (
    _conj_chirp_spectrum,
    equalize_fd,
    equalize_flat,
    ls_flat,
    ls_selective,
)
from chirplink.chirp import raw_upchirp
from chirplink.framing import FrameConfig, average_sync, build_frame, extract_regions
from chirplink.modem import SCHEMES
from chirplink.channel import TapProfile, apply_awgn, apply_channel

from oracles import circular_convolve

SF7 = 7


def preamble(n_chirps: int = 8) -> np.ndarray:
    return np.tile(raw_upchirp(7), n_chirps)


class TestLsFlat:
    def test_pure_gain_recovered_exactly(self):
        ref = preamble()
        assert ls_flat(2j * ref, ref) == 2j

    def test_identity_channel(self):
        ref = preamble()
        assert ls_flat(ref, ref) == 1.0

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            ls_flat(preamble()[:-1], preamble())

    def test_rejects_zero_reference(self):
        with pytest.raises(ValueError):
            ls_flat(preamble(), np.zeros(8 * 128, dtype=complex))

    def test_estimator_noise_variance(self):
        # error variance of the projection is sigma2 over the preamble energy
        rng = np.random.default_rng(404)
        ref = preamble()
        h = 0.8 - 0.6j
        sigma2 = 2.0
        errors = np.empty(10_000, dtype=complex)
        for i in range(errors.size):
            rx = apply_awgn(h * ref, sigma2, rng)
            errors[i] = ls_flat(rx, ref) - h
        var = np.mean(np.abs(errors) ** 2)
        assert_allclose(var, sigma2 / (8 * 128), rtol=0.10)

    def test_averaged_sync_estimate_variance(self):
        # the receiver's estimate: average 8 noisy sync chirps, project onto
        # one up-chirp; its error is CN(0, sigma2 / (8N)), which frozen-channel
        # frames draw directly
        rng = np.random.default_rng(808)
        n, h, sigma2 = 128, 0.4 + 0.9j, 1.7
        up = raw_upchirp(7)
        errors = np.empty(10_000, dtype=complex)
        for i in range(errors.size):
            sync = apply_awgn(h * np.tile(up, (8, 1)), sigma2, rng)
            errors[i] = ls_flat(average_sync(sync), up) - h
        want = sigma2 / (8 * n)
        # 20,000 real degrees of freedom: the variance estimate's sd is 1%
        assert_allclose(np.mean(np.abs(errors) ** 2), want, rtol=0.05)
        assert_allclose(np.var(errors.real), want / 2, rtol=0.07)
        assert_allclose(np.var(errors.imag), want / 2, rtol=0.07)

    def test_estimator_unbiased(self):
        rng = np.random.default_rng(1234)
        ref = preamble()
        h = -0.3 + 1.1j
        sigma2 = 1.0
        errors = np.empty(10_000, dtype=complex)
        for i in range(errors.size):
            rx = apply_awgn(h * ref, sigma2, rng)
            errors[i] = ls_flat(rx, ref) - h
        se = np.sqrt(sigma2 / (8 * 128) / errors.size)
        assert abs(np.mean(errors)) < 3 * se


class TestLsSelective:
    def test_identity_channel_gives_unit_pulse(self):
        est = ls_selective(raw_upchirp(7), 7)
        expected = np.zeros(128, dtype=complex)
        expected[0] = 1.0
        assert_allclose(est, expected, atol=1e-9)

    def test_recovers_sparse_taps(self):
        taps = np.array([0.8, 0.0, 0.5j])
        y = circular_convolve(raw_upchirp(7), taps)
        est = ls_selective(y, 7)
        expected = np.zeros(128, dtype=complex)
        expected[:3] = taps
        assert_allclose(est, expected, atol=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        y1 = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        y2 = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        a, b = 1.5 - 0.5j, -2.0 + 0.25j
        combined = ls_selective(a * y1 + b * y2, 7)
        separate = a * ls_selective(y1, 7) + b * ls_selective(y2, 7)
        assert_allclose(combined, separate, atol=1e-12)

    @pytest.mark.parametrize("sf", [6, 7])
    def test_matches_explicit_least_squares_solve(self, sf):
        # the fast correlation route must agree with the full normal-equation
        # solve built from the circulant chirp matrix
        n = 2**sf
        rng = np.random.default_rng(sf)
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c = raw_upchirp(sf)
        cmat = np.empty((n, n), dtype=complex)
        for row in range(n):
            for col in range(n):
                cmat[row, col] = c[(row - col) % n]
        full = np.linalg.solve(cmat.conj().T @ cmat, cmat.conj().T @ y)
        fast = ls_selective(y, sf)
        assert_allclose(fast, full, rtol=1e-9, atol=1e-9)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            ls_selective(np.ones(64, dtype=complex), 7)


class TestEqualizeFlat:
    def test_exact_inversion(self):
        rng = np.random.default_rng(5)
        s = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        h = 1.7 - 0.3j
        out = equalize_flat(h * s, h)
        assert_allclose(out, s, atol=1e-12)

    def test_unit_gain_is_identity(self):
        s = raw_upchirp(7)
        assert_allclose(equalize_flat(s, 1.0), s, atol=1e-15)

    def test_pure_phase_rotation(self):
        s = raw_upchirp(7)
        out = equalize_flat(s, np.exp(0.7j))
        assert_allclose(out, s * np.exp(-0.7j), atol=1e-12)
        assert_allclose(np.abs(out), np.abs(s), atol=1e-12)

    def test_zero_gain_rejected(self):
        with pytest.raises(ValueError):
            equalize_flat(raw_upchirp(7), 0.0)

    @pytest.mark.parametrize("h", [np.nan, np.inf, 1e-320])
    def test_non_invertible_gain_rejected(self, h):
        # conj(h) / |h|^2 is not finite; at 1e-320, |h|^2 underflows to 0
        with pytest.raises(ValueError, match="cannot equalize"):
            equalize_flat(raw_upchirp(7), h)

    @pytest.mark.parametrize("h", [1e200, -1e200j, 1e155 + 1e155j])
    def test_overflowing_gain_rejected(self, h):
        # |h|^2 overflows a float
        with pytest.raises(ValueError, match="cannot equalize"):
            equalize_flat(raw_upchirp(7), h)

    def test_array_of_gains_broadcasts(self):
        s = raw_upchirp(7)
        h = np.array([1.0, np.exp(0.7j), 2.0 - 1.0j])
        out = equalize_flat(s[:, None], h)
        for i, g in enumerate(h):
            np.testing.assert_array_equal(out[:, i], equalize_flat(s, g))
        with pytest.raises(ValueError, match="cannot equalize"):
            equalize_flat(s[:, None], np.array([1.0, 0.0]))


class TestEqualizeFd:
    def test_unit_pulse_is_identity(self):
        taps = np.zeros(128, dtype=complex)
        taps[0] = 1.0
        s = raw_upchirp(7)
        assert_allclose(equalize_fd(s, taps), s, atol=1e-12)

    def test_known_three_tap_channel_recovered(self):
        taps = np.array([1.0, 0.4 - 0.1j, -0.2j])
        pair = [17, 90]
        cfg = FrameConfig(sf=SF7, payload_symbols=1, cp_len=8)
        x = build_frame(cfg, [pair], "iqcss")
        y = np.zeros_like(x)
        for d, g in enumerate(taps):
            y[d:] += g * x[: x.size - d]
        _, data = extract_regions(y, cfg)
        full = np.zeros(128, dtype=complex)
        full[:3] = taps
        eq = equalize_fd(data[0], full)
        _, clean = extract_regions(x, cfg)
        assert_allclose(eq, clean[0], atol=1e-9)
        assert_array_equal(SCHEMES["iqcss"].detect(eq, 7), pair)

    def test_flat_response_matches_single_tap_equalizer(self):
        h = 0.9 + 0.5j
        taps = np.zeros(128, dtype=complex)
        taps[0] = h
        rng = np.random.default_rng(2)
        s = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        assert_allclose(
            equalize_fd(s, taps),
            equalize_flat(s, h),
            atol=1e-9,
        )

    def test_weak_bins_warn_and_stay_finite(self):
        taps = np.zeros(128, dtype=complex)
        taps[0], taps[8] = 0.5, 0.5  # exact spectral nulls every 16 bins
        rng = np.random.default_rng(3)
        s = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        with pytest.warns(RuntimeWarning):
            out = equalize_fd(s, taps)
        assert np.all(np.isfinite(out))

    def test_batch_rows_match_loop(self):
        taps = np.zeros(128, dtype=complex)
        taps[0], taps[2] = 1.0, 0.3
        rng = np.random.default_rng(4)
        block = rng.standard_normal((5, 128)) + 1j * rng.standard_normal((5, 128))
        batch = equalize_fd(block, taps)
        for row_in, row_out in zip(block, batch):
            assert_allclose(equalize_fd(row_in, taps), row_out, atol=1e-12)

    @pytest.mark.parametrize("taps", [np.ones((2, 64)), np.ones(0)])
    def test_rejects_non_vector_taps(self, taps):
        with pytest.raises(ValueError, match="nonempty 1-D"):
            equalize_fd(np.ones(128), taps)


def test_noiseless_end_to_end_selective_estimation():
    # frame -> static multipath within the prefix -> estimate -> equalize ->
    # detect must be exact for the I/Q scheme
    rng = np.random.default_rng(10)
    pairs = rng.integers(0, 128, size=(20, 2))
    cfg = FrameConfig(sf=SF7, cp_len=16)
    x = build_frame(cfg, pairs, "iqcss")
    taps = np.array([0.9, 0.0, 0.0, 0.2 - 0.4j, 0.05j])
    gains = np.tile(taps[:, None], (1, x.size)).astype(complex)
    lags = TapProfile(np.arange(5) / 250e3, np.ones(5)).lag_groups(250e3)
    y = apply_channel(x, lags, gains)
    sync_up, data = extract_regions(y, cfg)
    est = ls_selective(average_sync(sync_up), 7)
    est[16:] = 0
    for (k_i, k_q), chirp_rx in zip(pairs, data):
        eq = equalize_fd(chirp_rx, est)
        assert_array_equal(SCHEMES["iqcss"].detect(eq, 7), [k_i, k_q])


@pytest.mark.parametrize("sf", [6, 9, 12])
def test_ls_selective_cached_chirp_spectrum_is_read_only(sf):
    n = 1 << sf
    y = np.random.default_rng(sf).standard_normal(n) + 0j
    taps = ls_selective(y, sf)
    spectrum = _conj_chirp_spectrum(n)
    assert_array_equal(spectrum, np.conj(np.fft.fft(raw_upchirp(sf))))
    assert not spectrum.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        spectrum[0] = 0.0
    taps[sf:] = 0.0  # the estimate is the caller's own array
    assert_array_equal(ls_selective(y, sf)[:sf], taps[:sf])
