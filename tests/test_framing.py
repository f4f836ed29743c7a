import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from chirplink.chirp import raw_upchirp, raw_downchirp
from chirplink.framing import FrameConfig, average_sync, build_frame, extract_regions

from oracles import circular_convolve

SF7 = 7


def make_frame(cp_len=0, scheme="lora-noncoherent", payload=None):
    cfg = FrameConfig(sf=SF7, cp_len=cp_len)
    if payload is None:
        rng = np.random.default_rng(11)
        if scheme == "lora-noncoherent":
            payload = rng.integers(0, 128, size=cfg.payload_symbols)
        else:
            payload = rng.integers(0, 128, size=(cfg.payload_symbols, 2))
    return cfg, build_frame(cfg, payload, scheme)


def test_frame_length_without_prefix():
    _, frame = make_frame(cp_len=0)
    assert frame.size == (8 + 2 + 20) * 128 == 3840


def test_frame_length_with_prefix_16():
    _, frame = make_frame(cp_len=16)
    assert frame.size == 30 * (128 + 16) == 4320


def test_cyclic_prefix_repeats_chirp_tail():
    cfg, frame = make_frame(cp_len=16)
    for chunk in frame.reshape(30, 144):
        assert_array_equal(chunk[:16], chunk[-16:])


def test_sync_chirps_are_unit_amplitude_raw_chirps():
    cfg, frame = make_frame(cp_len=0, scheme="iqcss")
    sync_up, data = extract_regions(frame, cfg)
    for chunk in sync_up:
        assert_array_equal(chunk, raw_upchirp(7))
    down = frame[8 * 128 : 9 * 128]
    assert_array_equal(down, raw_downchirp(7))
    # every chirp's energy, preamble and payload alike, equals the chirp length
    assert_allclose(sum(np.sum(np.abs(c) ** 2) for c in sync_up), 8 * 128, rtol=1e-12)
    assert_allclose(np.sum(np.abs(data) ** 2, axis=-1), 128, rtol=1e-12)


@pytest.mark.parametrize("cp_len", [0, 16])
@pytest.mark.parametrize("scheme", ["lora-noncoherent", "iqcss"])
def test_build_then_extract_is_identity(cp_len, scheme):
    cfg, frame = make_frame(cp_len=cp_len, scheme=scheme)
    sync_up, data = extract_regions(frame, cfg)
    assert len(sync_up) == 8 and len(data) == 20
    rebuilt = make_frame(cp_len=cp_len, scheme=scheme)[1]
    _, data2 = extract_regions(rebuilt, cfg)
    for a, b in zip(data, data2):
        assert_array_equal(a, b)
    for chunk in sync_up:
        assert_array_equal(chunk, raw_upchirp(7))


def test_prefix_turns_multipath_into_circular_convolution():
    # static 5-tap channel within the prefix: after prefix removal every data
    # chirp must equal the circular convolution of the sent chirp and the taps
    taps = np.array([0.8, 0.0, 0.3 - 0.2j, 0.0, 0.1j])
    cfg, frame = make_frame(cp_len=16)
    x = frame
    y = np.zeros_like(x)
    for d, g in enumerate(taps):
        if g != 0:
            y[d:] += g * x[: x.size - d]
    _, data_rx = extract_regions(y, cfg)
    _, data_tx = extract_regions(x, cfg)
    for rx, tx in zip(data_rx, data_tx):
        assert_allclose(rx, circular_convolve(tx, taps), atol=1e-12)


def test_extract_slices_stacked_frames_row_by_row():
    cfg, frame = make_frame(cp_len=16)
    stack = np.stack([frame, 2j * frame])
    sync_up, data = extract_regions(stack, cfg)
    assert sync_up.shape == (2, 8, 128) and data.shape == (2, 20, 128)
    assert np.shares_memory(sync_up, stack) and np.shares_memory(data, stack)
    for row in range(2):
        sync_row, data_row = extract_regions(stack[row], cfg)
        assert_array_equal(sync_up[row], sync_row)
        assert_array_equal(data[row], data_row)


def test_extract_rejects_wrong_length():
    cfg, frame = make_frame(cp_len=16)
    with pytest.raises(ValueError):
        extract_regions(frame[:-1], cfg)


def test_build_rejects_wrong_payload_length():
    cfg = FrameConfig(sf=SF7)
    with pytest.raises(ValueError):
        build_frame(cfg, np.zeros(19, dtype=int), "lora-noncoherent")


def test_build_rejects_unknown_scheme():
    cfg = FrameConfig(sf=SF7)
    with pytest.raises(ValueError):
        build_frame(cfg, np.zeros(20, dtype=int), "fsk")
    with pytest.raises(ValueError):
        build_frame(cfg, np.zeros(20, dtype=int), "lora")


def test_config_rejects_prefix_longer_than_chirp():
    with pytest.raises(ValueError):
        FrameConfig(sf=SF7, cp_len=128)


@pytest.mark.parametrize("value", [2.0, 2.5, 4.0, "4"])
@pytest.mark.parametrize("field", ["payload_symbols", "cp_len"])
def test_config_rejects_non_integer_counts(field, value):
    # like the spreading factor, a count is never truncated or parsed
    with pytest.raises(TypeError, match=f"{field} must be an integer"):
        FrameConfig(sf=SF7, **{field: value})


def test_config_keeps_integer_counts_as_plain_ints():
    cfg = FrameConfig(sf=SF7, payload_symbols=np.int32(3), cp_len=np.uint16(4))
    assert type(cfg.payload_symbols) is int and type(cfg.cp_len) is int
    assert cfg.total_samples == 13 * 132


def test_build_rejects_float_symbols():
    cfg = FrameConfig(sf=SF7, payload_symbols=1)
    with pytest.raises(TypeError, match="symbols must be integers"):
        build_frame(cfg, [9.99], "lora-noncoherent")


def test_average_sync_identity():
    s = np.exp(1j * np.linspace(0, 3, 128))
    assert_allclose(average_sync([s] * 8), s, atol=1e-15)


def test_average_sync_cancellation():
    s = raw_upchirp(7)
    chunks = [s, -s] * 4
    assert_allclose(average_sync(chunks), np.zeros(128), atol=1e-15)


def test_average_sync_rejects_wrong_count():
    with pytest.raises(ValueError):
        average_sync([])


def test_average_sync_any_count():
    s = np.exp(1j * np.linspace(0, 3, 128))
    assert_allclose(average_sync([s, 3 * s, -s, s]), s, atol=1e-15)


def test_average_sync_noise_reduction():
    # averaging 8 noisy copies cuts the residual variance by ~8
    rng = np.random.default_rng(42)
    s = raw_upchirp(7)
    trials = 10_000
    residual_power = 0.0
    for _ in range(trials):
        noisy = s[None, :] + (
            rng.standard_normal((8, 128)) + 1j * rng.standard_normal((8, 128))
        ) * np.sqrt(0.5)
        avg = average_sync(list(noisy))
        residual_power += np.mean(np.abs(avg - s) ** 2)
    residual_power /= trials
    assert abs(residual_power - 1.0 / 8.0) < 0.2 / 8.0
