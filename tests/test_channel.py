import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import j0
from scipy.stats import kstest

from chirplink.channel import (
    _ARRIVAL_COS,
    FLAT_PROFILE,
    FOLDED_COS,
    JAKES_SINUSOIDS,
    ChannelRealization,
    TapProfile,
    apply_awgn,
    apply_channel,
    bits_per_symbol,
    ebn0_db_to_snr_db,
    ebn0_to_sigma2,
    fold_weights,
    load_tap_profile,
    max_doppler_hz,
    snr_db_to_ebn0_db,
    snr_to_sigma2,
    tvfs_realization,
    urban_12tap_profile,
)
from chirplink.chirp import raw_upchirp, spreading_gain_db

from oracles import linear_convolve_timevarying, sos_tap_gains_per_lag


class TestNoiseBookkeeping:
    def test_snr_at_zero_ebn0_equals_minus_gain(self):
        # with one bit of energy per noise-density unit, the per-sample SNR
        # sits exactly at the negative spreading gain
        snr_db = ebn0_db_to_snr_db(0.0, 7, "lora-noncoherent")
        assert_allclose(snr_db, -spreading_gain_db(7), rtol=1e-12)
        assert_allclose(snr_db, -12.62, atol=5e-3)

    def test_conversions_are_inverse(self):
        for scheme in ("lora-noncoherent", "iqcss"):
            for ebn0 in (-3.0, 0.0, 7.5):
                snr = ebn0_db_to_snr_db(ebn0, 8, scheme)
                assert_allclose(snr_db_to_ebn0_db(snr, 8, scheme), ebn0, atol=1e-12)

    def test_iq_scheme_shifts_snr_by_3db(self):
        # twice the bits per chirp at equal energy-per-bit means twice the
        # symbol energy, hence 3 dB more per-sample SNR
        delta = ebn0_db_to_snr_db(5.0, 7, "iqcss") - ebn0_db_to_snr_db(5.0, 7, "lora-coherent")
        assert_allclose(delta, 10 * np.log10(2), rtol=1e-12)

    def test_bits_per_symbol(self):
        assert bits_per_symbol(7, "lora-noncoherent") == 7
        assert bits_per_symbol(7, "lora-coherent") == 7
        assert bits_per_symbol(7, "iqcss") == 14

    @pytest.mark.parametrize("scheme", ["bogus", "iqcss-x", "lora"])
    def test_unknown_scheme_rejected(self, scheme):
        with pytest.raises(ValueError):
            bits_per_symbol(7, scheme)
        with pytest.raises(ValueError):
            ebn0_db_to_snr_db(5.0, 7, scheme)
        with pytest.raises(ValueError):
            ebn0_to_sigma2(5.0, 7, scheme)

    def test_sigma2_consistency(self):
        sigma2 = ebn0_to_sigma2(4.0, 7, "lora-coherent")
        # realized SNR must match the axis conversion; chirps of energy N
        # have unit power per sample
        snr_db = 10 * np.log10(1 / sigma2)
        assert_allclose(snr_db, ebn0_db_to_snr_db(4.0, 7, "lora-coherent"), rtol=1e-12)
        assert_allclose(snr_to_sigma2(snr_db, 7), sigma2, rtol=1e-12)

    def test_sigma2_monotone_in_ebn0(self):
        values = [ebn0_to_sigma2(db, 7, "iqcss") for db in range(-5, 15)]
        assert all(a > b for a, b in zip(values, values[1:]))

    # apply_awgn takes the variance as a bare float and checks it itself
    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            apply_awgn(raw_upchirp(7), -1.0, np.random.default_rng(0))

    @pytest.mark.parametrize("variance", [np.nan, np.inf])
    def test_non_finite_variance_rejected(self, variance):
        with pytest.raises(ValueError, match="finite"):
            apply_awgn(raw_upchirp(7), variance, np.random.default_rng(0))

    @pytest.mark.parametrize("db", [-np.inf, np.nan, np.inf])
    def test_non_finite_db_rejected(self, db):
        with pytest.raises(ValueError, match="finite"):
            snr_to_sigma2(db, 7)
        with pytest.raises(ValueError, match="finite"):
            ebn0_to_sigma2(db, 7, "iqcss")


class TestAwgn:
    def test_zero_variance_is_identity(self):
        x = raw_upchirp(7)
        out = apply_awgn(x, 0.0, np.random.default_rng(0))
        assert_array_equal(out, x)
        assert out is not x

    def test_sample_variance(self):
        rng = np.random.default_rng(123)
        sigma2 = 3.7
        noise = apply_awgn(np.zeros(1_000_000, dtype=complex), sigma2, rng)
        assert_allclose(np.mean(np.abs(noise) ** 2), sigma2, rtol=0.01)

    def test_quadratures_uncorrelated(self):
        rng = np.random.default_rng(7)
        noise = apply_awgn(np.zeros(1_000_000, dtype=complex), 2.0, rng)
        corr = np.corrcoef(noise.real, noise.imag)[0, 1]
        assert abs(corr) < 0.01

    def test_deterministic_under_seed(self):
        x = raw_upchirp(7)
        a = apply_awgn(x, 1.0, np.random.default_rng(55))
        b = apply_awgn(x, 1.0, np.random.default_rng(55))
        assert_array_equal(a, b)


class TestDoppler:
    def test_tabulated_mobility(self):
        assert_allclose(max_doppler_hz(speed_kmh=0.1, carrier_hz=863e6), 0.0799627, atol=1e-6)

    def test_scales_linearly_with_speed(self):
        assert_allclose(
            max_doppler_hz(1.0, 863e6), 10 * max_doppler_hz(0.1, 863e6), rtol=1e-12
        )


def flat_fade(frame_len, fd, rate, rng):
    """Flat Rayleigh fading: the one-tap profile's realization."""
    taps = FLAT_PROFILE.lag_groups(rate)
    return tvfs_realization(frame_len, taps, fd, taps.draw_weights(rng))


class TestFlatRayleigh:
    def test_zero_doppler_gain_is_constant(self):
        rng = np.random.default_rng(3)
        real = flat_fade(1000, 0.0, 250e3, rng)
        assert np.all(real.gains[0] == real.gains[0, 0])
        assert real.gains.strides[1] == 0

    def test_unit_average_power(self):
        rng = np.random.default_rng(17)
        draws = np.array(
            [flat_fade(1, 0.0, 250e3, rng).gains[0, 0] for _ in range(100_000)]
        )
        assert_allclose(np.mean(np.abs(draws) ** 2), 1.0, rtol=0.02)

    def test_magnitude_is_rayleigh(self):
        rng = np.random.default_rng(2718)
        draws = np.array(
            [flat_fade(1, 0.0, 250e3, rng).gains[0, 0] for _ in range(100_000)]
        )
        result = kstest(np.abs(draws), "rayleigh", args=(0, 1 / np.sqrt(2)))
        assert result.pvalue > 0.01

    def test_autocorrelation_tracks_bessel(self):
        # E[h[n] h*[n+m]] under the classical Doppler spectrum follows
        # J0(2 pi fd m Ts); check lags up to 0.1/fd
        fd = 100.0
        rate = 250e3
        ts = 1 / rate
        n = int(0.1 / fd / ts) + 1
        rng = np.random.default_rng(99)
        acc = np.zeros(n, dtype=complex)
        trials = 400
        for _ in range(trials):
            h = flat_fade(n, fd, rate, rng).gains[0]
            acc += h * np.conj(h[0])
        acc /= trials
        lags = np.arange(n)
        assert np.max(np.abs(acc.real - j0(2 * np.pi * fd * lags * ts))) < 0.05

    def test_rejects_empty_frame(self):
        with pytest.raises(ValueError):
            flat_fade(0, 0.0, 250e3, np.random.default_rng(0))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_frozen_gain_from_weights_equals_realization(self, seed):
        # a zero-Doppler realization's gain is the sum of its folded weights
        rate = 250e3
        real = flat_fade(1, 0.0, rate, np.random.default_rng(seed))
        h = FLAT_PROFILE.lag_groups(rate).draw_weights(np.random.default_rng(seed)).sum()
        assert h == real.gains[0, 0]


class TestFoldedDopplerGrid:
    def test_arrival_grid_symmetries(self):
        # the fold relies on cos_(63-k) == cos_k and cos_(k+32) == -cos_k; the
        # cosines are of rounded angles, so they hold to a few ulps of 1
        k = np.arange(JAKES_SINUSOIDS)
        tol = 4 * np.finfo(float).eps
        assert JAKES_SINUSOIDS == 64
        assert np.abs(_ARRIVAL_COS[63 - k] - _ARRIVAL_COS).max() <= tol
        assert np.abs(_ARRIVAL_COS[(k + 32) % 64] + _ARRIVAL_COS).max() <= tol

    def test_folded_weights_give_the_same_fade(self):
        taps = FLAT_PROFILE.lag_groups(250e3)
        weights = taps.weights(taps.draw_phases(np.random.default_rng(4)))[0]
        theta = 2 * np.pi * 400.0 / 250e3
        t = np.arange(0, 200_000, 997)[:, None]
        full = np.exp(1j * theta * t * _ARRIVAL_COS) @ weights
        folded = np.exp(1j * theta * t * FOLDED_COS) @ fold_weights(weights)
        assert_allclose(folded, full, rtol=0, atol=1e-12)


class TestTapProfile:
    def test_bundled_urban_profile(self):
        profile = urban_12tap_profile()
        assert profile.n_taps == 12
        assert profile.delays_s[0] == 0.0
        assert np.all(np.diff(profile.delays_s) > 0)
        assert_allclose(profile.powers.sum(), 1.0, rtol=1e-9)
        assert_allclose(profile.delays_s[-1], 5.0e-6, rtol=1e-12)
        # longest delay fits easily inside a 16-sample prefix at 250 kHz
        assert profile.sample_delays(250e3).max() <= 16

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "prof.profile"
        path.write_text("# two taps\n0.0 0.0\n4.0 -3.0\n")
        profile = load_tap_profile(path)
        assert profile.n_taps == 2
        assert_allclose(profile.powers[0] / profile.powers[1], 10 ** 0.3, rtol=1e-9)
        assert_array_equal(profile.sample_delays(250e3), [0, 1])

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.profile"
        path.write_text("0.0 0.0 1.0\n")
        with pytest.raises(ValueError):
            load_tap_profile(path)

    def test_first_delay_must_be_zero(self):
        with pytest.raises(ValueError):
            TapProfile(np.array([1e-6, 2e-6]), np.array([0.5, 0.5]))

    def test_delays_strictly_increasing(self):
        with pytest.raises(ValueError):
            TapProfile(np.array([0.0, 2e-6, 2e-6]), np.array([0.3, 0.3, 0.4]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            TapProfile(np.array([0.0, 1e-6]), np.array([1.0, bad]))
        with pytest.raises(ValueError, match="finite"):
            TapProfile(np.array([0.0, bad]), np.array([1.0, 1.0]))


class TestTvfs:
    def test_forced_identity(self):
        x = raw_upchirp(7)
        real = ChannelRealization(
            delays=np.zeros(1, dtype=np.int64), gains=np.ones((1, x.size), dtype=complex)
        )
        assert_allclose(apply_channel(x, real), x, atol=1e-15)

    def test_two_tap_spectral_nulls(self):
        # equal-gain taps at lags {0, d} null the response every N/d bins;
        # measure on the second of two chirp periods where the convolution
        # has settled and is effectively circular
        n, d = 128, 8
        x = np.tile(raw_upchirp(7), 2)
        gains = np.full((2, x.size), 1 / np.sqrt(2), dtype=complex)
        real = ChannelRealization(delays=np.array([0, d]), gains=gains)
        y = apply_channel(x, real)[n:]
        response = np.fft.fft(y) / np.fft.fft(raw_upchirp(7))
        expected = (1 + np.exp(-2j * np.pi * np.arange(n) * d / n)) / np.sqrt(2)
        assert_allclose(response, expected, atol=1e-9)
        nulls = np.arange(d) * (n // d) + n // (2 * d)
        assert np.max(np.abs(response[nulls])) < 1e-9
        peaks = np.arange(d) * (n // d)
        assert_allclose(np.abs(response[peaks]), np.sqrt(2), rtol=1e-9)

    def test_static_matches_direct_convolution(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        profile = TapProfile.from_db([0.0, 4.0, 12.0], [0.0, -3.0, -6.0])
        taps = profile.lag_groups(250e3)
        real = tvfs_realization(x.size, taps, 0.0, taps.draw_weights(np.random.default_rng(5)))
        # zero doppler: every tap gain is constant in time
        assert np.all(real.gains == real.gains[:, :1])
        y = apply_channel(x, real)
        want = linear_convolve_timevarying(x, real.delays, real.gains)
        assert_allclose(y, want, rtol=1e-9, atol=1e-12)

    def test_timevarying_matches_direct_convolution(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        profile = TapProfile.from_db([0.0, 8.0], [0.0, -2.0])
        taps = profile.lag_groups(250e3)
        real = tvfs_realization(x.size, taps, 500.0, taps.draw_weights(rng))
        assert not np.all(real.gains == real.gains[:, :1])
        assert_allclose(
            apply_channel(x, real),
            linear_convolve_timevarying(x, real.delays, real.gains),
            rtol=1e-9,
            atol=1e-12,
        )

    def test_energy_preserved_on_average(self):
        rng = np.random.default_rng(12)
        x = raw_upchirp(7)
        taps = urban_12tap_profile().lag_groups(250e3)
        total = 0.0
        trials = 10_000
        for _ in range(trials):
            y = apply_channel(x, tvfs_realization(x.size, taps, 0.0, taps.draw_weights(rng)))
            total += np.sum(np.abs(y) ** 2)
        # edge truncation loses a sliver of the delayed taps' energy
        assert abs(total / trials / np.sum(np.abs(x) ** 2) - 1.0) < 0.02

    def test_same_seed_reproduces_realization(self):
        taps = urban_12tap_profile().lag_groups(250e3)
        a = tvfs_realization(256, taps, 10.0, taps.draw_weights(np.random.default_rng(77)))
        b = tvfs_realization(256, taps, 10.0, taps.draw_weights(np.random.default_rng(77)))
        assert_array_equal(a.gains, b.gains)
        assert_array_equal(a.delays, b.delays)

    @pytest.mark.parametrize("fd", [0.0, 80.0])
    def test_merged_lags_match_per_tap_synthesis(self, fd):
        # TU12 at 250 kHz: 12 taps on 2 lags; the realization must equal
        # twelve separately synthesized taps added per lag
        profile = urban_12tap_profile()
        n = 2000
        taps = profile.lag_groups(250e3)
        real = tvfs_realization(n, taps, fd, taps.draw_weights(np.random.default_rng(404)))
        rng = np.random.default_rng(404)
        phases = np.array([rng.uniform(0.0, 2 * np.pi, size=64) for _ in range(profile.n_taps)])
        lags, want = sos_tap_gains_per_lag(
            profile.sample_delays(250e3), profile.powers, phases, fd, 250e3, n
        )
        assert_array_equal(real.delays, [0, 1])
        assert_array_equal(lags, [0, 1])
        assert_allclose(real.gains, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("speed_kmh", [0.1, 60.0, 500.0])
    @pytest.mark.parametrize("rate,n_lags", [(250e3, 2), (2e6, 7)])
    @pytest.mark.parametrize("n", [4320, 30720])
    def test_folded_trace_matches_unfolded_sinusoids(self, n, rate, n_lags, speed_kmh):
        # the 32 folded frequencies against every tap's 64 sinusoids summed
        # one by one, over frame-sized traces and up to 400 Hz of Doppler
        profile = urban_12tap_profile()
        taps = profile.lag_groups(rate)
        fd = max_doppler_hz(speed_kmh, 863e6)
        real = tvfs_realization(n, taps, fd, taps.draw_weights(np.random.default_rng(n)))
        phases = taps.draw_phases(np.random.default_rng(n))
        lags, want = sos_tap_gains_per_lag(
            profile.sample_delays(rate), profile.powers, phases, fd, rate, n
        )
        assert_array_equal(real.delays, lags)
        assert lags.size == n_lags
        assert_allclose(real.gains, want, rtol=0, atol=1e-11)

    def test_repeated_delays_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ChannelRealization(delays=np.array([0, 1, 1]), gains=np.ones((3, 10)))

    def test_length_mismatch_rejected(self):
        real = ChannelRealization(delays=np.zeros(1, dtype=np.int64), gains=np.ones((1, 10)))
        with pytest.raises(ValueError):
            apply_channel(np.ones(11, dtype=complex), real)
