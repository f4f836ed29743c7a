import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from chirplink.chanest import ls_selective
from chirplink.channel import bits_per_symbol
from chirplink.chirp import (
    check_sf,
    despread,
    dft,
    raw_downchirp,
    raw_upchirp,
    spreading_gain_db,
)
from chirplink.framing import FrameConfig
from chirplink.harness import ConfigError, SimConfig, run_ber
from chirplink.modem import SCHEMES, lora_modulate

from oracles import direct_dft

ALL_SF = list(range(6, 13))


@pytest.mark.parametrize("sf", [5, 13, 0, -1])
def test_invalid_spreading_factor_rejected(sf):
    with pytest.raises(ValueError):
        check_sf(sf)


@pytest.mark.parametrize("sf", ALL_SF)
def test_symbol_length_is_power_of_two(sf):
    assert FrameConfig(sf=sf).n == 2**sf
    assert raw_upchirp(sf).shape == (2**sf,)


# Every public entry point that takes a spreading factor, called with one.
SF_ENTRIES = {
    "raw_upchirp": raw_upchirp,
    "despread": lambda sf: despread(np.ones(128), sf),
    "FrameConfig": lambda sf: FrameConfig(sf=sf),
    "Scheme.modulate": lambda sf: SCHEMES["iqcss"].modulate(sf, [[0, 1]]),
    "lora_modulate": lambda sf: lora_modulate(sf, 3),
    "ls_selective": lambda sf: ls_selective(np.ones(128), sf),
    "bits_per_symbol": lambda sf: bits_per_symbol(sf, "iqcss"),
    "run_ber": lambda sf: run_ber(SimConfig(sf_list=(sf,), axis_stop=0.0, max_frames=1)),
}


@pytest.mark.parametrize("entry", SF_ENTRIES)
@pytest.mark.parametrize(
    "sf,error", [(7.9, TypeError), (7.0, TypeError), ("7", TypeError), (5, ValueError),
                 (13, ValueError)]
)
def test_entry_points_reject_bad_spreading_factor(entry, sf, error, monkeypatch):
    # a float is never truncated to an integer; run_ber reports a ConfigError
    # before any point runs
    def must_not_run(*args):
        raise AssertionError("simulation started")

    monkeypatch.setattr("chirplink.harness._run_point", must_not_run)
    with pytest.raises(ConfigError if entry == "run_ber" else error, match="spreading factor"):
        SF_ENTRIES[entry](sf)


@pytest.mark.parametrize("entry", SF_ENTRIES)
def test_entry_points_accept_numpy_integer(entry):
    SF_ENTRIES[entry](np.int64(7))


def test_numpy_integer_becomes_plain_int():
    assert type(check_sf(np.int64(7))) is int
    assert type(FrameConfig(sf=np.int64(7)).sf) is int


def test_upchirp_starts_at_one():
    assert raw_upchirp(7)[0] == 1 + 0j


def test_upchirp_sf7_sample8_is_j():
    # exp(j*pi*64/128) = exp(j*pi/2)
    assert_allclose(raw_upchirp(7)[8], 1j, atol=1e-12)


@pytest.mark.parametrize("sf", ALL_SF)
def test_upchirp_unit_modulus(sf):
    assert_allclose(np.abs(raw_upchirp(sf)), 1.0, atol=1e-12)


def test_downchirp_is_conjugate():
    up, down = raw_upchirp(7), raw_downchirp(7)
    assert_array_equal(down, np.conj(up))
    assert_allclose(down[8], -1j, atol=1e-12)
    assert_allclose(up * down, np.ones(128), atol=1e-12)


def test_downchirp_sf6_length():
    assert raw_downchirp(6).shape == (64,)


def test_despread_raw_upchirp_gives_ones():
    out = despread(raw_upchirp(7), 7)
    assert_allclose(out, np.ones(128), atol=1e-12)


def test_despread_tone_recovery():
    n = 128
    k = 37
    tone = np.exp(2j * np.pi * k * np.arange(n) / n)
    rx = tone * raw_upchirp(7)
    assert_allclose(despread(rx, 7), tone, atol=1e-12)


def test_despread_rejects_wrong_length():
    with pytest.raises(ValueError):
        despread(np.ones(127, dtype=complex), 7)


def test_dft_dc_tone():
    assert_allclose(dft(np.ones(4)), [4, 0, 0, 0], atol=1e-12)


@pytest.mark.parametrize("k", [0, 1, 50, 127])
def test_dft_pure_tone_concentrates(k):
    n = 128
    x = np.exp(2j * np.pi * k * np.arange(n) / n)
    bins = dft(x)
    expected = np.zeros(n, dtype=complex)
    expected[k] = n
    assert_allclose(bins, expected, atol=n * 1e-9)


@pytest.mark.parametrize("n", [64, 128])
def test_dft_matches_direct_summation(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got = dft(x)
    want = direct_dft(x)
    assert_allclose(got, want, rtol=1e-9, atol=1e-9)


def test_dft_parseval():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    bins = dft(x)
    time_energy = np.sum(np.abs(x) ** 2)
    freq_energy = np.sum(np.abs(bins) ** 2) / 128
    assert_allclose(freq_energy, time_energy, rtol=1e-9)


def test_dft_rejects_empty():
    with pytest.raises(ValueError):
        dft(np.array([]))


def test_despread_dft_energy_in_bin_zero():
    bins = dft(despread(raw_upchirp(7), 7))
    ratio = np.abs(bins[0]) ** 2 / np.sum(np.abs(bins) ** 2)
    assert ratio > 1 - 1e-9


@pytest.mark.parametrize(
    "sf,expected",
    [(7, 10 * np.log10(128 / 7)), (6, 10 * np.log10(64 / 6)), (12, 10 * np.log10(4096 / 12))],
)
def test_spreading_gain(sf, expected):
    assert_allclose(spreading_gain_db(sf), expected, rtol=1e-12)
    # frozen reference values
    frozen = {7: 12.62, 6: 10.28, 12: 25.33}
    assert abs(spreading_gain_db(sf) - frozen[sf]) < 5e-3


@pytest.mark.parametrize("sf", [7, 10])
def test_chirp_rate_from_phase(sf):
    # the second phase difference over 2*pi*Ts^2 must equal the sweep rate B/T;
    # taking it as a principal value sidesteps the ambiguous pi-sized phase
    # steps at the Nyquist crossing that defeat plain unwrapping
    bandwidth = 250e3
    ts = 1 / bandwidth
    n = 2**sf
    c = raw_upchirp(sf)
    second_diff = np.angle(c[2:] * c[:-2] * np.conj(c[1:-1]) ** 2)
    rate = second_diff / (2 * np.pi * ts**2)
    expected = bandwidth / (n * ts)
    assert_allclose(rate, expected, rtol=1e-6)
