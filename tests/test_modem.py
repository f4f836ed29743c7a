import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from chirplink.chirp import despread, dft, raw_upchirp
from chirplink.channel import apply_awgn, ebn0_to_sigma2
from chirplink.modem import SCHEMES

SF7 = 7
LORA, COHERENT, IQ = SCHEMES["lora-noncoherent"], SCHEMES["lora-coherent"], SCHEMES["iqcss"]


class TestLoraModulate:
    def test_symbol_zero_at_full_energy_is_raw_chirp(self):
        assert_array_equal(LORA.modulate(SF7, [0]), raw_upchirp(7))

    def test_energy_contract(self):
        # every chirp has energy N: unit power per sample
        x = LORA.modulate(SF7, [42])
        assert_allclose(np.sum(np.abs(x) ** 2), 128.0, rtol=1e-9)
        assert_allclose(np.abs(x), 1.0, rtol=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 100, 127])
    def test_despread_spectrum_peaks_at_symbol(self, k):
        x = LORA.modulate(SF7, [k])
        bins = dft(despread(x, 7))
        assert_allclose(bins[k], 128, atol=1e-9 * 128)
        others = np.delete(np.abs(bins), k)
        assert np.max(others) < 1e-7

    def test_out_of_range_symbol_rejected(self):
        with pytest.raises(ValueError):
            LORA.modulate(SF7, [128])
        with pytest.raises(ValueError):
            LORA.modulate(SF7, [-1])


class TestNoncoherentDetection:
    def test_loopback_symbol_100(self):
        assert LORA.detect(LORA.modulate(SF7, [100]), 7)[0] == 100

    def test_loopback_exhaustive_sf7(self):
        for k in range(128):
            assert LORA.detect(LORA.modulate(SF7, [k]), 7)[0] == k

    @pytest.mark.parametrize("theta", [0.1, np.pi / 3, np.pi, 5.0])
    def test_phase_rotation_invariance(self, theta):
        x = LORA.modulate(SF7, [77])
        assert LORA.detect(np.exp(1j * theta) * x, 7)[0] == 77

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            LORA.detect(np.ones(64, dtype=complex), 7)


class TestCoherentDetection:
    def test_loopback_exhaustive_sf7(self):
        for k in range(128):
            assert COHERENT.detect(LORA.modulate(SF7, [k]), 7)[0] == k

    def test_half_turn_rotation_breaks_detection(self):
        # an unequalized phase flip moves the peak's energy to the negative
        # real axis, so the coherent detector is expected to miss
        x = LORA.modulate(SF7, [100])
        assert COHERENT.detect(np.exp(1j * np.pi) * x, 7)[0] != 100

    def test_coherent_beats_noncoherent_at_fixed_ebn0(self):
        # same noisy symbols through both detectors; the magnitude detector
        # collects noise from both quadratures and must lose
        rng = np.random.default_rng(2024)
        n_symbols = 100_000
        sigma2 = ebn0_to_sigma2(1.0, 7, "lora-coherent")
        tx = rng.integers(0, 128, size=n_symbols)
        clean = SCHEMES["lora-coherent"].modulate(SF7, tx[:, None])
        noisy = apply_awgn(clean.ravel(), sigma2, rng).reshape(clean.shape)
        (rx_coh,) = SCHEMES["lora-coherent"].detect(noisy, SF7).T
        (rx_non,) = SCHEMES["lora-noncoherent"].detect(noisy, SF7).T
        ser_coh = np.mean(tx != rx_coh)
        ser_non = np.mean(tx != rx_non)
        assert ser_coh < ser_non
        assert ser_non * n_symbols > 100  # enough errors for the comparison to mean something


class TestIqcss:
    def test_equal_symbols_at_full_energy(self):
        x = IQ.modulate(SF7, [0, 0])
        assert_allclose(x, (1 + 1j) / np.sqrt(2) * raw_upchirp(7), atol=1e-12)

    def test_spectrum_carries_both_symbols(self):
        x = IQ.modulate(SF7, [9, 64])
        bins = dft(despread(x, 7))
        peak = 128 / np.sqrt(2)
        assert_allclose(bins[9].real, peak, rtol=1e-9)
        assert_allclose(bins[64].imag, peak, rtol=1e-9)
        mask = np.ones(128, dtype=bool)
        mask[[9, 64]] = False
        assert np.max(np.abs(bins[mask])) < 1e-7

    def test_cross_talk_is_zero(self):
        x = IQ.modulate(SF7, [9, 64])
        bins = dft(despread(x, 7))
        assert abs(bins[9].imag) < 1e-9 * 128
        assert abs(bins[64].real) < 1e-9 * 128

    def test_energy_uniform_over_pairs(self):
        rng = np.random.default_rng(1)
        pairs = [[int(a), int(b)] for a, b in rng.integers(0, 128, size=(20, 2))]
        pairs.append([3, 3])  # degenerate case: envelope flat at unit amplitude
        for pair in pairs:
            x = IQ.modulate(SF7, pair)
            assert_allclose(np.sum(np.abs(x) ** 2), 128.0, rtol=1e-9)

    def test_loopback_random_pairs(self):
        rng = np.random.default_rng(7)
        draws = rng.integers(0, 128, size=(10_000, 2))
        batch = SCHEMES["iqcss"].modulate(SF7, draws)
        rx_i, rx_q = SCHEMES["iqcss"].detect(batch, SF7).T
        assert_array_equal(rx_i, draws[:, 0])
        assert_array_equal(rx_q, draws[:, 1])

    def test_shared_symbol_detected_on_both_branches(self):
        x = IQ.modulate(SF7, [33, 33])
        bins = dft(despread(x, 7))
        assert_allclose(bins[33], (1 + 1j) * 128 / np.sqrt(2), rtol=1e-9)
        assert_array_equal(IQ.detect(x, 7), [33, 33])

    def test_decodes_single_stream_chirps(self):
        # the richer receiver still finds a plain chirp-FSK symbol on its
        # in-phase branch
        for k in (0, 55, 127):
            x = LORA.modulate(SF7, [k])
            assert IQ.detect(x, 7)[0] == k

    def test_out_of_range_pair_rejected(self):
        with pytest.raises(ValueError):
            IQ.modulate(SF7, [0, 128])


@pytest.mark.parametrize("sf", range(6, 13))
def test_loopback_every_sf_all_detectors(sf):
    n = 2**sf
    rng = np.random.default_rng(sf)
    ks = np.arange(n) if sf <= 8 else rng.integers(0, n, size=200)
    for k in ks:
        x = LORA.modulate(sf, [int(k)])
        assert LORA.detect(x, sf)[0] == k
        assert COHERENT.detect(x, sf)[0] == k
    pairs = rng.integers(0, n, size=(200, 2))
    for k_i, k_q in pairs:
        pair = [int(k_i), int(k_q)]
        assert_array_equal(IQ.detect(IQ.modulate(sf, pair), sf), pair)


@pytest.mark.parametrize("name", sorted(SCHEMES))
@pytest.mark.parametrize("sf", [6, 9])
def test_spectrum_is_despread_dft_of_modulate(name, sf):
    # the receiver front end turns each chirp into its one-hot spectrum: a tone
    # of amplitude sqrt(1 / streams) despreads to one bin of height
    # N / sqrt(streams), real on the in-phase stream and imaginary on the
    # quadrature one; includes k_i == k_q pairs for iqcss, whose two tones share one bin
    scheme = SCHEMES[name]
    n = 1 << sf
    rng = np.random.default_rng(sf)
    ks = rng.integers(0, n, size=(4, 50, scheme.streams))
    ks[0, :, :] = ks[0, :, :1]
    hot = np.zeros(ks.shape + (n,))
    np.put_along_axis(hot, ks[..., None], n / np.sqrt(scheme.streams), axis=-1)
    got = dft(despread(scheme.modulate(sf, ks), sf))
    assert_allclose(got, scheme.combine(hot), rtol=0, atol=1e-9 * n)


@pytest.mark.parametrize("symbols", [[3.7], [3.0], np.array([5.0]), [True]])
def test_non_integer_symbols_rejected(symbols):
    # a float symbol is never truncated to the integer below it
    with pytest.raises(TypeError, match="symbols must be integers"):
        LORA.modulate(SF7, symbols)
    with pytest.raises(TypeError, match="symbols must be integers"):
        IQ.modulate(SF7, [[5.9, 1.2]])


@pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.int64])
def test_integer_symbol_dtypes_accepted(dtype):
    pairs = np.array([[5, 1], [127, 0]], dtype=dtype)
    assert_array_equal(IQ.detect(IQ.modulate(SF7, pairs), SF7), pairs)
    assert_array_equal(LORA.detect(LORA.modulate(SF7, [[5], [127]]), SF7), [[5], [127]])
    assert LORA.modulate(SF7, np.empty((0, 1))).shape == (0, 128)
