import dataclasses
import json
import pickle
import typing
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chirplink.harness import (
    CHANNELS,
    CSV_COLUMNS,
    ConfigError,
    SimConfig,
    SimRecord,
    _popcount,
    records_to_csv,
    run_ber,
    run_throughput,
    shannon_capacity_bps,
    symbol_rate_bps,
    write_csv,
)


def tiny_cfg(**kw) -> SimConfig:
    base = dict(
        scheme="lora-noncoherent",
        sf_list=(7,),
        channel="awgn",
        axis="ebn0",
        axis_start=0.0,
        axis_step=2.0,
        axis_stop=4.0,
        max_frames=40,
        min_bit_errors=10,
        seed=9,
    )
    base.update(kw)
    return SimConfig(**base)


class TestConfigValidation:
    def test_axis_points_inclusive(self):
        cfg = tiny_cfg(axis_start=0.0, axis_step=1.0, axis_stop=12.0)
        assert len(cfg.axis_points()) == 13

    def test_fractional_step(self):
        cfg = tiny_cfg(axis_start=0.0, axis_step=0.5, axis_stop=14.0)
        assert len(cfg.axis_points()) == 29

    @pytest.mark.parametrize(
        "values",
        [
            dict(axis_start=float("nan")),
            dict(axis_step=float("inf")),
            dict(axis_stop=float("inf")),
            dict(axis_stop=float("nan")),
            dict(speed_kmh=float("inf")),
        ],
    )
    def test_non_finite_values_rejected(self, values):
        with pytest.raises(ConfigError, match="finite"):
            tiny_cfg(**values).validate()

    def test_axis_point_count_bounded_before_allocation(self):
        # 1.2e8 points: rejected from the count alone, no list is built
        with pytest.raises(ConfigError, match="points"):
            tiny_cfg(axis_start=0.0, axis_step=1e-7, axis_stop=12.0).validate()
        tiny_cfg(axis_start=0.0, axis_step=0.012, axis_stop=11.988).validate()

    @pytest.mark.parametrize("axis", ["ebn0", "snr"])
    @pytest.mark.parametrize("db", [3100.0, -3300.0, -3085.0])
    def test_noise_variance_out_of_float_range_rejected(self, axis, db):
        # 10**310 overflows, 10**-330 underflows to 0, 10**-308.5 makes sigma2 inf
        with pytest.raises(ConfigError, match="noise variance"):
            tiny_cfg(axis=axis, axis_start=db, axis_stop=db).validate()

    def test_last_axis_point_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="4000 dB"):
            tiny_cfg(axis_start=0.0, axis_step=1000.0, axis_stop=4000.0).validate()

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigError):
            tiny_cfg(scheme="qam").validate()

    def test_unknown_channel_rejected(self):
        with pytest.raises(ConfigError):
            tiny_cfg(channel="rician").validate()

    def test_bad_sf_rejected(self):
        with pytest.raises(ConfigError):
            tiny_cfg(sf_list=(5,)).validate()

    def test_tvfs_requires_prefix_covering_delays(self):
        with pytest.raises(ConfigError):
            tiny_cfg(channel="tvfs-est", cp_len=0).validate()

    def test_tvfs_defaults_prefix_to_16(self):
        cfg = tiny_cfg(channel="tvfs-est")
        assert cfg.resolved_cp_len() == 16
        cfg.validate()

    def test_non_tvfs_defaults_prefix_to_zero(self):
        assert tiny_cfg(channel="awgn").resolved_cp_len() == 0

    def test_prefix_must_fit_smallest_chirp(self):
        with pytest.raises(ConfigError):
            tiny_cfg(sf_list=(6,), cp_len=64).validate()

    def test_throughput_requires_snr_axis(self):
        with pytest.raises(ConfigError):
            run_throughput(tiny_cfg(axis="ebn0"))


class TestRates:
    def test_single_stream_rate(self):
        assert_allclose(symbol_rate_bps(7, "lora-noncoherent", 250e3), 7 * 250e3 / 128)
        assert_allclose(symbol_rate_bps(7, "lora-noncoherent", 250e3), 13671.875)

    def test_iq_rate_doubles(self):
        assert_allclose(symbol_rate_bps(7, "iqcss", 250e3), 27343.75)

    def test_shannon(self):
        assert_allclose(shannon_capacity_bps(0.0, 250e3), 250e3)


class TestPopcount:
    @staticmethod
    def check_against_python_bit_count():
        rng = np.random.default_rng(0)
        values = rng.integers(0, 4096, size=1000)
        got = _popcount(values)
        want = [int(v).bit_count() for v in values]
        assert list(got) == want

    def test_matches_python_bit_count(self):
        self.check_against_python_bit_count()

    def test_unpackbits_fallback_matches_python_bit_count(self, monkeypatch):
        # numpy < 2 has no np.bitwise_count, so this fallback is its only path
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        self.check_against_python_bit_count()


class TestRunBer:
    def test_noise_free_point_has_zero_errors(self):
        cfg = tiny_cfg(axis_start=300.0, axis_stop=300.0, max_frames=5, min_bit_errors=1)
        (rec,) = run_ber(cfg)
        assert rec.ber == 0.0
        assert rec.bit_errors == 0
        assert rec.censored  # stopped on the frame budget, not the error target

    def test_record_bookkeeping(self):
        cfg = tiny_cfg()
        records = run_ber(cfg)
        assert len(records) == 3
        for rec in records:
            assert rec.scheme == "lora-noncoherent"
            assert rec.sf == 7
            assert rec.axis == "ebn0"
            assert rec.bits_sent % (20 * 7) == 0
            assert 0.0 <= rec.ber <= 1.0
            assert rec.ber == rec.bit_errors / rec.bits_sent
            assert rec.ser == rec.symbol_errors / (rec.bits_sent // 7)
            assert rec.seed == 9

    def test_iqcss_counts_two_symbols_per_chirp(self):
        cfg = tiny_cfg(scheme="iqcss", axis_start=0.0, axis_stop=0.0, max_frames=4,
                       min_bit_errors=10**9)
        (rec,) = run_ber(cfg)
        assert rec.bits_sent == 4 * 20 * 14
        assert rec.censored

    def test_deterministic_repeat(self):
        a = records_to_csv(run_ber(tiny_cfg()))
        b = records_to_csv(run_ber(tiny_cfg()))
        assert a == b

    @pytest.mark.parametrize("channel", list(CHANNELS))
    def test_worker_count_does_not_change_results(self, channel):
        # each worker builds its own per-point tables
        cfg = tiny_cfg(channel=channel, speed_kmh=60.0)
        serial = records_to_csv(run_ber(cfg))
        parallel = records_to_csv(run_ber(dataclasses.replace(cfg, workers=2)))
        assert serial == parallel

    def test_uneven_and_empty_worker_ranges(self):
        # three workers split a 32-frame batch 10/11/11 and the 2-frame rest 0/1/1
        cfg = tiny_cfg(scheme="iqcss", channel="rayleigh-static-est", max_frames=34,
                       min_bit_errors=10**9)
        serial = records_to_csv(run_ber(cfg))
        assert serial == records_to_csv(run_ber(dataclasses.replace(cfg, workers=3)))

    def test_config_and_records_pickle(self):
        # workers > 1 pickle the config; neither record keeps a per-instance dict
        cfg = tiny_cfg(scheme="iqcss", channel="rayleigh-static-est", axis_stop=0.0)
        (rec,) = run_ber(cfg)
        for value in (cfg, rec):
            assert not hasattr(value, "__dict__")
            clone = pickle.loads(pickle.dumps(value))
            assert clone == value and type(clone) is type(value)
        assert pickle.loads(pickle.dumps(rec)).elapsed_s == rec.elapsed_s

    def test_records_hold_plain_python_scalars(self):
        (rec,) = run_ber(tiny_cfg(scheme="iqcss", axis_stop=0.0))
        for name, kind in typing.get_type_hints(SimRecord).items():
            assert type(getattr(rec, name)) is kind, name
        fields = dataclasses.asdict(rec)
        assert json.loads(json.dumps(fields)) == fields

    @pytest.mark.parametrize("channel", ["awgn", "rayleigh-static-est"])
    def test_prefix_does_not_change_frozen_channels(self, channel):
        # frozen channels are drawn on the data spectra; no prefix is read
        a = records_to_csv(run_ber(tiny_cfg(scheme="iqcss", channel=channel, cp_len=0)))
        b = records_to_csv(run_ber(tiny_cfg(scheme="iqcss", channel=channel, cp_len=32)))
        assert a == b

    def test_seed_changes_results(self):
        a = records_to_csv(run_ber(tiny_cfg(seed=1)))
        b = records_to_csv(run_ber(tiny_cfg(seed=2)))
        assert a != b

    @pytest.mark.parametrize(
        "channel", ["rayleigh-perfect", "rayleigh-static-est", "rayleigh-mobile-est"]
    )
    def test_rayleigh_modes_run(self, channel):
        cfg = tiny_cfg(
            scheme="iqcss",
            channel=channel,
            axis_start=30.0,
            axis_stop=30.0,
            max_frames=6,
            min_bit_errors=1,
        )
        (rec,) = run_ber(cfg)
        assert 0.0 <= rec.ber <= 1.0

    @pytest.mark.parametrize("channel", ["tvfs-perfect", "tvfs-est"])
    @pytest.mark.parametrize("scheme", ["lora-noncoherent", "iqcss"])
    def test_tvfs_modes_run(self, channel, scheme):
        cfg = tiny_cfg(
            scheme=scheme,
            channel=channel,
            axis_start=40.0,
            axis_stop=40.0,
            max_frames=4,
            min_bit_errors=1,
        )
        (rec,) = run_ber(cfg)
        assert 0.0 <= rec.ber <= 1.0

    def test_estimated_flat_equalization_recovers_noiselessly(self):
        cfg = tiny_cfg(
            scheme="iqcss",
            channel="rayleigh-static-est",
            axis_start=500.0,
            axis_stop=500.0,
            max_frames=10,
            min_bit_errors=1,
        )
        (rec,) = run_ber(cfg)
        assert rec.bit_errors == 0


class TestCsv:
    def test_header_and_shape(self, tmp_path):
        records = run_ber(tiny_cfg())
        path = tmp_path / "out.csv"
        write_csv(records, path)
        text = path.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + len(records)
        assert all(len(line.split(",")) == len(CSV_COLUMNS) for line in lines)

    def test_floats_use_six_significant_digits(self):
        records = run_ber(tiny_cfg())
        row = records_to_csv(records).strip().split("\n")[1].split(",")
        ber_text = row[CSV_COLUMNS.index("ber")]
        assert len(ber_text.replace(".", "").replace("-", "").lstrip("0")) <= 6

    def test_censored_flag_in_csv(self):
        cfg = tiny_cfg(axis_start=300.0, axis_stop=300.0, max_frames=3, min_bit_errors=10)
        row = records_to_csv(run_ber(cfg)).strip().split("\n")[1].split(",")
        assert row[CSV_COLUMNS.index("censored")] == "1"


class TestThroughput:
    def test_high_snr_plateaus(self):
        cfg = tiny_cfg(
            axis="snr",
            axis_start=10.0,
            axis_stop=10.0,
            max_frames=30,
            min_bit_errors=10**9,
        )
        (rec,) = run_throughput(cfg)
        assert rec.ser == 0.0
        assert_allclose(rec.throughput_bps, 13671.875, rtol=1e-3)
        cfg_iq = dataclasses.replace(cfg, scheme="iqcss")
        (rec_iq,) = run_throughput(cfg_iq)
        assert_allclose(rec_iq.throughput_bps, 27343.75, rtol=1e-3)


def test_tvfs_est_without_prefix_keeps_the_whole_estimate(tmp_path):
    # with cp_len 0 no tap lies beyond the prefix: zeroing the estimate from
    # cp_len on would zero all of it, and every bin would be regularized
    profile = tmp_path / "one-tap.profile"
    profile.write_text("0 0\n")
    cfg = tiny_cfg(
        scheme="lora-coherent", channel="tvfs-est", tap_profile=str(profile), cp_len=0,
        axis_start=30.0, axis_stop=30.0, max_frames=20, min_bit_errors=100, speed_kmh=0.1,
        seed=3,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        (record,) = run_ber(cfg)
    assert record.bits_sent == 20 * 20 * 7
    assert record.ber <= 1e-2
