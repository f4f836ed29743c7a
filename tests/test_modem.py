import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from chirplink.chirp import SpreadingFactor, despread, dft, raw_upchirp
from chirplink.channel import apply_awgn, ebn0_to_sigma2
from chirplink.modem import (
    SCHEMES,
    IqPair,
    ModConfig,
    iqcss_demodulate,
    iqcss_modulate,
    lora_demod_coherent,
    lora_demod_noncoherent,
    lora_modulate,
)

SF7 = SpreadingFactor(7)


def mod7(es: float = 128.0) -> ModConfig:
    return ModConfig(SF7, es)


class TestLoraModulate:
    def test_symbol_zero_at_full_energy_is_raw_chirp(self):
        assert_array_equal(lora_modulate(mod7(es=128.0), 0), raw_upchirp(7))

    def test_energy_contract(self):
        x = lora_modulate(mod7(es=1.0), 42)
        assert_allclose(np.sum(np.abs(x) ** 2), 1.0, rtol=1e-9)

    @pytest.mark.parametrize("k", [0, 1, 100, 127])
    def test_despread_spectrum_peaks_at_symbol(self, k):
        es = 128.0
        x = lora_modulate(mod7(es), k)
        bins = dft(despread(x, 7))
        assert_allclose(bins[k], np.sqrt(es / 128) * 128, atol=1e-9 * 128)
        others = np.delete(np.abs(bins), k)
        assert np.max(others) < 1e-7

    def test_out_of_range_symbol_rejected(self):
        with pytest.raises(ValueError):
            lora_modulate(mod7(), 128)
        with pytest.raises(ValueError):
            lora_modulate(mod7(), -1)

    def test_batch_matches_single(self):
        cfg = mod7(es=3.0)
        ks = [0, 5, 100, 127]
        batch = SCHEMES["lora-noncoherent"].modulate(cfg, np.reshape(ks, (-1, 1)))
        for row, k in zip(batch, ks):
            assert_array_equal(row, lora_modulate(cfg, k))

    def test_nonpositive_energy_rejected(self):
        with pytest.raises(ValueError):
            ModConfig(SF7, 0.0)


class TestNoncoherentDetection:
    def test_loopback_symbol_100(self):
        assert lora_demod_noncoherent(lora_modulate(mod7(), 100), 7) == 100

    def test_loopback_exhaustive_sf7(self):
        cfg = mod7()
        for k in range(128):
            assert lora_demod_noncoherent(lora_modulate(cfg, k), 7) == k

    @pytest.mark.parametrize("theta", [0.1, np.pi / 3, np.pi, 5.0])
    def test_phase_rotation_invariance(self, theta):
        x = lora_modulate(mod7(), 77)
        assert lora_demod_noncoherent(np.exp(1j * theta) * x, 7) == 77

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            lora_demod_noncoherent(np.ones(64, dtype=complex), 7)


class TestCoherentDetection:
    def test_loopback_exhaustive_sf7(self):
        cfg = mod7()
        for k in range(128):
            assert lora_demod_coherent(lora_modulate(cfg, k), 7) == k

    def test_half_turn_rotation_breaks_detection(self):
        # an unequalized phase flip moves the peak's energy to the negative
        # real axis, so the coherent detector is expected to miss
        x = lora_modulate(mod7(), 100)
        assert lora_demod_coherent(np.exp(1j * np.pi) * x, 7) != 100

    def test_coherent_beats_noncoherent_at_fixed_ebn0(self):
        # same noisy symbols through both detectors; the magnitude detector
        # collects noise from both quadratures and must lose
        rng = np.random.default_rng(2024)
        n_symbols = 100_000
        cfg = mod7(es=128.0)
        sigma2 = ebn0_to_sigma2(1.0, 7, "lora-coherent", cfg.symbol_energy).variance
        tx = rng.integers(0, 128, size=n_symbols)
        clean = SCHEMES["lora-coherent"].modulate(cfg, tx[:, None])
        noisy = apply_awgn(clean.ravel(), sigma2, rng).reshape(clean.shape)
        (rx_coh,) = SCHEMES["lora-coherent"].detect(noisy, SF7).T
        (rx_non,) = SCHEMES["lora-noncoherent"].detect(noisy, SF7).T
        ser_coh = np.mean(tx != rx_coh)
        ser_non = np.mean(tx != rx_non)
        assert ser_coh < ser_non
        assert ser_non * n_symbols > 100  # enough errors for the comparison to mean something


class TestIqcss:
    def test_equal_symbols_at_full_energy(self):
        x = iqcss_modulate(ModConfig(SF7, 256.0), IqPair(0, 0))
        assert_allclose(x, (1 + 1j) * raw_upchirp(7), atol=1e-12)

    def test_spectrum_carries_both_symbols(self):
        es = 128.0
        x = iqcss_modulate(mod7(es), IqPair(9, 64))
        bins = dft(despread(x, 7))
        peak = np.sqrt(es / 256) * 128
        assert_allclose(bins[9].real, peak, rtol=1e-9)
        assert_allclose(bins[64].imag, peak, rtol=1e-9)
        mask = np.ones(128, dtype=bool)
        mask[[9, 64]] = False
        assert np.max(np.abs(bins[mask])) < 1e-7

    def test_cross_talk_is_zero(self):
        x = iqcss_modulate(mod7(), IqPair(9, 64))
        bins = dft(despread(x, 7))
        assert abs(bins[9].imag) < 1e-9 * 128
        assert abs(bins[64].real) < 1e-9 * 128

    def test_energy_uniform_over_pairs(self):
        es = 5.0
        rng = np.random.default_rng(1)
        pairs = [IqPair(int(a), int(b)) for a, b in rng.integers(0, 128, size=(20, 2))]
        pairs.append(IqPair(3, 3))  # degenerate case: envelope flat at sqrt(2)
        for pair in pairs:
            x = iqcss_modulate(mod7(es), pair)
            assert_allclose(np.sum(np.abs(x) ** 2), es, rtol=1e-9)

    def test_loopback_random_pairs(self):
        cfg = mod7()
        rng = np.random.default_rng(7)
        draws = rng.integers(0, 128, size=(10_000, 2))
        batch = SCHEMES["iqcss"].modulate(cfg, draws)
        rx_i, rx_q = SCHEMES["iqcss"].detect(batch, SF7).T
        assert_array_equal(rx_i, draws[:, 0])
        assert_array_equal(rx_q, draws[:, 1])

    def test_shared_symbol_detected_on_both_branches(self):
        es = 128.0
        x = iqcss_modulate(mod7(es), IqPair(33, 33))
        bins = dft(despread(x, 7))
        assert_allclose(bins[33], (1 + 1j) * np.sqrt(es / 256) * 128, rtol=1e-9)
        assert iqcss_demodulate(x, 7) == IqPair(33, 33)

    def test_decodes_single_stream_chirps(self):
        # the richer receiver still finds a plain chirp-FSK symbol on its
        # in-phase branch
        for k in (0, 55, 127):
            x = lora_modulate(mod7(), k)
            assert iqcss_demodulate(x, 7).k_i == k

    def test_out_of_range_pair_rejected(self):
        with pytest.raises(ValueError):
            iqcss_modulate(mod7(), IqPair(0, 128))

    def test_batch_matches_single(self):
        cfg = mod7(es=2.0)
        pairs = [IqPair(0, 0), IqPair(1, 100), IqPair(127, 3)]
        batch = SCHEMES["iqcss"].modulate(cfg, pairs)
        for row, pair in zip(batch, pairs):
            assert_array_equal(row, iqcss_modulate(cfg, pair))


@pytest.mark.parametrize("sf", range(6, 13))
def test_loopback_every_sf_all_detectors(sf):
    n = 2**sf
    cfg = ModConfig(SpreadingFactor(sf), float(n))
    rng = np.random.default_rng(sf)
    ks = np.arange(n) if sf <= 8 else rng.integers(0, n, size=200)
    for k in ks:
        x = lora_modulate(cfg, int(k))
        assert lora_demod_noncoherent(x, sf) == k
        assert lora_demod_coherent(x, sf) == k
    pairs = rng.integers(0, n, size=(200, 2))
    for k_i, k_q in pairs:
        pair = IqPair(int(k_i), int(k_q))
        assert iqcss_demodulate(iqcss_modulate(cfg, pair), sf) == pair


def test_detect_batch_matches_single_symbol_demodulators():
    rng = np.random.default_rng(99)
    cfg = mod7()
    tx = rng.integers(0, 128, size=32)
    clean = SCHEMES["lora-noncoherent"].modulate(cfg, tx[:, None])
    noisy = apply_awgn(clean.ravel(), 5.0, rng).reshape(32, 128)
    (got_non,) = SCHEMES["lora-noncoherent"].detect(noisy, SF7).T
    (got_coh,) = SCHEMES["lora-coherent"].detect(noisy, SF7).T
    got_i, got_q = SCHEMES["iqcss"].detect(noisy, SF7).T
    for row, a, b, c, d in zip(noisy, got_non, got_coh, got_i, got_q):
        assert lora_demod_noncoherent(row, 7) == a
        assert lora_demod_coherent(row, 7) == b
        assert iqcss_demodulate(row, 7) == IqPair(c, d)


@pytest.mark.parametrize("name", sorted(SCHEMES))
@pytest.mark.parametrize("sf", [6, 9])
def test_spectrum_is_despread_dft_of_modulate(name, sf):
    # includes k_i == k_q pairs for iqcss, whose two tones share one bin
    scheme = SCHEMES[name]
    cfg = ModConfig(SpreadingFactor(sf), 3.0 * (1 << sf))
    rng = np.random.default_rng(sf)
    ks = rng.integers(0, 1 << sf, size=(4, 50, scheme.streams))
    ks[0, :, :] = ks[0, :, :1]
    want = dft(despread(scheme.modulate(cfg, ks), sf))
    assert_allclose(scheme.spectrum(cfg, ks), want, rtol=0, atol=1e-9 * (1 << sf))


def test_spectrum_rejects_out_of_range_symbols():
    with pytest.raises(ValueError):
        SCHEMES["iqcss"].spectrum(mod7(), [[0, 128]])
