import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from chirplink import cli
from chirplink.cli import cli_main, parse_axis_spec, read_config_file
from chirplink.harness import CSV_COLUMNS, ConfigError, SimConfig


def run_cli(*args) -> int:
    return cli_main(list(args))


class TestAxisSpec:
    def test_full_sweep(self):
        assert parse_axis_spec("0:1:12") == (0.0, 1.0, 12.0)

    def test_fractional(self):
        assert parse_axis_spec("-2:0.5:3") == (-2.0, 0.5, 3.0)

    def test_single_value(self):
        assert parse_axis_spec("5") == (5.0, 1.0, 5.0)

    def test_malformed(self):
        with pytest.raises(ConfigError):
            parse_axis_spec("0:12")


class TestConfigFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text(
            "# sweep setup\n"
            "scheme = iqcss\n"
            "sf_list = 7,8\n"
            "channel = awgn\n"
            "axis = ebn0\n"
            "axis_start = 0\n"
            "axis_step = 2\n"
            "axis_stop = 4\n"
            "max_frames = 10\n"
            "min_bit_errors = 5\n"
            "seed = 4\n"
            "cp_len = none\n"
        )
        cfg = read_config_file(path)
        assert cfg["scheme"] == "iqcss"
        assert cfg["sf_list"] == (7, 8)
        assert cfg["axis_step"] == 2.0
        assert cfg["cp_len"] is None

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("modulation = qam\n")
        with pytest.raises(ConfigError):
            read_config_file(path)

    def test_bad_syntax_rejected(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("scheme iqcss\n")
        with pytest.raises(ConfigError):
            read_config_file(path)

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("seed = 1\n# later\nseed = 2\n")
        with pytest.raises(ConfigError, match=r"sim\.cfg:3"):
            read_config_file(path)
        out = tmp_path / "r.csv"
        assert run_cli("ber", "--config", str(path), "--out", str(out)) == 2
        assert not out.exists()


class TestBerCommand:
    def test_sweep_row_count_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        common = [
            "ber",
            "--scheme", "iqcss",
            "--sf", "7",
            "--channel", "awgn",
            "--ebn0", "0:1:12",
            "--seed", "42",
            "--max-frames", "20",
            "--min-bit-errors", "5",
        ]
        assert run_cli(*common, "--out", str(out1)) == 0
        assert run_cli(*common, "--out", str(out2)) == 0
        text = out1.read_text()
        assert text == out2.read_text()
        lines = text.strip().split("\n")
        assert len(lines) == 1 + 13
        assert lines[0] == ",".join(CSV_COLUMNS)

    def test_worker_flag_preserves_bytes(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        common = [
            "ber", "--sf", "7", "--ebn0", "0:2:4", "--seed", "3",
            "--max-frames", "40", "--min-bit-errors", "8",
        ]
        assert run_cli(*common, "--workers", "1", "--out", str(out1)) == 0
        assert run_cli(*common, "--workers", "2", "--out", str(out2)) == 0
        assert out1.read_text() == out2.read_text()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "scheme = lora-noncoherent\nsf_list = 7\naxis = ebn0\naxis_start = 0\n"
            "axis_step = 1\naxis_stop = 2\nmax_frames = 10\nmin_bit_errors = 2\nseed = 1\n"
        )
        out = tmp_path / "r.csv"
        assert run_cli("ber", "--config", str(cfg), "--seed", "77", "--out", str(out)) == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert all(row.split(",")[CSV_COLUMNS.index("seed")] == "77" for row in rows)

    def test_plot_is_valid_xml(self, tmp_path):
        out = tmp_path / "r.csv"
        svg = tmp_path / "r.svg"
        assert (
            run_cli(
                "ber", "--sf", "7", "--ebn0", "0:1:2", "--seed", "5",
                "--max-frames", "30", "--min-bit-errors", "5",
                "--out", str(out), "--plot", str(svg),
            )
            == 0
        )
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")
        assert any(child.tag.endswith("polyline") for child in root.iter())

    def test_config_error_exits_2(self, tmp_path):
        assert (
            run_cli(
                "ber", "--channel", "tvfs-est", "--cp-len", "0",
                "--ebn0", "0:1:2", "--out", str(tmp_path / "r.csv"),
            )
            == 2
        )

    def test_bad_inputs_exit_2(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("cp_len = abc\n")
        out = str(tmp_path / "r.csv")
        assert run_cli("ber", "--config", str(cfg), "--out", out) == 2
        assert run_cli("ber", "--ebn0", "nan:1:2", "--out", out) == 2
        assert run_cli("ber", "--ebn0", "0:1e-7:12", "--out", out) == 2
        assert run_cli("chirp", "--sf", "20", "--out", out) == 2
        assert run_cli("chirp", "--sf", "7", "-k", "128", "--out", out) == 2
        assert run_cli("chirp", "--sf", "7", "--seed", "-1", "--out", out) == 2
        for snr in ("nan", "inf", "-inf", "4000", "-4000"):
            assert run_cli("chirp", "--sf", "7", f"--snr-db={snr}", "--out", out) == 2
        assert run_cli("loopback", "--sf", "9", "--trials", "-1") == 2
        # a tap profile on a channel without multipath would be silently ignored
        for channel in ("awgn", "rayleigh-mobile-est"):
            args = ("--channel", channel, "--tap-profile", str(tmp_path / "none.profile"))
            assert run_cli("ber", *args, "--out", out) == 2
        # Doppler inputs on a channel that does not move would be silently ignored
        cfg.write_text("carrier_hz = 2.4e9\n")
        for channel in ("awgn", "rayleigh-perfect", "rayleigh-static-est"):
            for args in (("--speed-kmh", "60"), ("--carrier-hz", "868e6"), ("--config", str(cfg))):
                assert run_cli("ber", "--channel", channel, *args, "--out", out) == 2
        # removed knobs: the symbol energy is N and the multipath estimate is always truncated
        for line in ("es = 1\n", "truncate_est = false\n"):
            cfg.write_text(line)
            assert run_cli("ber", "--config", str(cfg), "--out", out) == 2
        assert run_cli("ber", "--es", "2", "--out", out) == 2
        assert run_cli("ber", "--no-truncate-est", "--out", out) == 2
        # Eb/N0 or SNR whose noise variance leaves the floating-point range
        for db in ("3100", "-3300", "-3085"):
            assert run_cli("ber", "--channel", "awgn", "--ebn0", db, "--out", out) == 2
        assert run_cli("throughput", "--snr", "3100", "--out", out) == 2
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("sf", ["7,,8", "7,", ",7"])
    @pytest.mark.parametrize("command", ["ber", "throughput", "config", "loopback"])
    def test_empty_sf_list_item_exits_2(self, tmp_path, command, sf):
        # an empty item is rejected, not dropped
        out = tmp_path / "r.csv"
        run = {
            "ber": ("ber", "--sf", sf, "--ebn0", "10"),
            "throughput": ("throughput", "--sf", sf, "--snr", "0"),
            "config": ("ber", "--config", str(tmp_path / "sim.cfg"), "--ebn0", "10"),
            "loopback": ("loopback", "--sf", sf),
        }[command]
        (tmp_path / "sim.cfg").write_text(f"sf_list = {sf}\n")
        if command != "loopback":
            run += ("--max-frames", "1", "--out", str(out))
        assert run_cli(*run) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flag", [("--speed", "30"), ("--work", "2")])
    def test_abbreviated_flag_exits_2(self, tmp_path, flag):
        # argparse would otherwise take these as --speed-kmh and --workers
        out = tmp_path / "r.csv"
        args = ("--ebn0", "10", "--max-frames", "2", "--out", str(out))
        assert run_cli("ber", *flag, *args) == 2
        assert not out.exists()

    @pytest.mark.parametrize("line", ["1.0 nan", "1.0 inf", "inf -3.0"])
    def test_non_finite_tap_profile_exits_2(self, tmp_path, line):
        profile = tmp_path / "bad.profile"
        profile.write_text(f"0.0 0.0\n{line}\n")
        out = tmp_path / "r.csv"
        args = ("--tap-profile", str(profile), "--ebn0", "10", "--max-frames", "2")
        assert run_cli("ber", "--channel", "tvfs-est", *args, "--out", str(out)) == 2
        assert not out.exists()

    def test_tap_powers_overflowing_their_sum_exit_2(self, tmp_path):
        # 10**308 twice: normalizing by the inf sum would zero every tap
        profile = tmp_path / "big.profile"
        profile.write_text("0 3080\n1 3080\n")
        out = tmp_path / "r.csv"
        args = ("--tap-profile", str(profile), "--ebn0", "30", "--max-frames", "2")
        assert run_cli("ber", "--channel", "tvfs-est", *args, "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("channel", ["rayleigh-mobile-est", "tvfs-est"])
    @pytest.mark.parametrize(
        "doppler", [("--speed-kmh", "1e308"), ("--carrier-hz", "1e308", "--speed-kmh", "1e10")]
    )
    def test_non_finite_doppler_exits_2(self, tmp_path, monkeypatch, channel, doppler):
        def must_not_run(*args):
            raise AssertionError("simulation started")

        monkeypatch.setattr("chirplink.harness._run_point", must_not_run)
        out = tmp_path / "r.csv"
        args = ("--channel", channel, *doppler, "--ebn0", "10", "--out", str(out))
        assert run_cli("ber", *args) == 2
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "args",
        [("--channel", "tvfs-est", "--bandwidth-hz", "1e300"),
         ("--ebn0", "0:1e-320:1"), ("--ebn0", "0:1e-300:1e300")],
    )
    def test_overflowing_tap_lags_or_point_count_exit_2(self, tmp_path, monkeypatch, capsys, args):
        # every input is finite, but the tap lags pass int64 or the point count is inf
        def must_not_run(*args):
            raise AssertionError("simulation started")

        monkeypatch.setattr("chirplink.harness._run_point", must_not_run)
        out = tmp_path / "r.csv"
        assert run_cli("ber", *args, "--out", str(out)) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "spec,axis", [("-.5:0.5:0", (-0.5, 0.5, 0.0)), ("-.75:.25:-.25", (-0.75, 0.25, -0.25))]
    )
    def test_negative_value_without_leading_zero(self, tmp_path, monkeypatch, spec, axis):
        # argparse reads -.5:0.5:0 as a flag unless it is joined to --ebn0
        seen = []
        monkeypatch.setattr(cli, "run_ber", lambda cfg: seen.append(cfg) or [])
        assert run_cli("ber", "--ebn0", spec, "--out", str(tmp_path / "r.csv")) == 0
        assert (seen[0].axis_start, seen[0].axis_step, seen[0].axis_stop) == axis

    @pytest.mark.parametrize("flag", ["--out", "--plot"])
    def test_unwritable_output_exits_3_before_the_sweep(self, tmp_path, monkeypatch, flag):
        def must_not_run(cfg):
            raise AssertionError("simulation started")

        monkeypatch.setattr(cli, "run_ber", must_not_run)
        paths = {"--out": str(tmp_path / "r.csv"), "--plot": str(tmp_path / "r.svg")}
        paths[flag] = str(tmp_path / "nope" / "r.x")
        args = [arg for item in paths.items() for arg in item]
        assert run_cli("ber", "--ebn0", "0", *args) == 3
        # a config error still exits 2 first
        assert run_cli("ber", "--ebn0", "nan", *args) == 2

    @pytest.mark.parametrize("flag", ["--out", "--plot"])
    def test_directory_as_output_exits_3_before_the_sweep(self, tmp_path, monkeypatch, flag):
        def must_not_run(cfg):
            raise AssertionError("simulation started")

        monkeypatch.setattr(cli, "run_ber", must_not_run)
        paths = {"--out": str(tmp_path / "r.csv"), "--plot": str(tmp_path / "r.svg")}
        paths[flag] = str(tmp_path)  # an existing directory, whose parent is writable
        args = [arg for item in paths.items() for arg in item]
        assert run_cli("ber", "--channel", "tvfs-est", "--ebn0", "0", *args) == 3
        assert not (tmp_path / "r.csv").exists()

    def test_unplottable_sweep_exits_1_after_writing_csv(self, tmp_path):
        # no bit errors at 30 dB, so the BER plot has no point to draw
        out = tmp_path / "r.csv"
        svg = tmp_path / "r.svg"
        args = ("ber", "--ebn0", "30", "--max-frames", "2", "--out", str(out), "--plot", str(svg))
        assert run_cli(*args) == 1
        assert out.exists() and not svg.exists()

    def test_internal_value_error_is_not_a_config_error(self, tmp_path, monkeypatch):
        def broken(cfg):
            raise ValueError("bug mid-sweep")

        monkeypatch.setattr(cli, "run_ber", broken)
        with pytest.raises(ValueError, match="bug mid-sweep"):
            run_cli("ber", "--ebn0", "0", "--out", str(tmp_path / "r.csv"))

    def test_unknown_flag_exits_2(self):
        assert run_cli("ber", "--frobnicate") == 2

    def test_unwritable_output_exits_3(self, tmp_path):
        missing_dir = tmp_path / "nope" / "r.csv"
        assert (
            run_cli(
                "ber", "--ebn0", "0", "--max-frames", "2", "--min-bit-errors", "1",
                "--out", str(missing_dir),
            )
            == 3
        )


class TestThroughputCommand:
    def test_defaults_to_snr_axis(self, tmp_path):
        out = tmp_path / "thr.csv"
        assert (
            run_cli(
                "throughput", "--scheme", "iqcss", "--sf", "7", "--snr", "-5:5:5",
                "--seed", "2", "--max-frames", "10", "--min-bit-errors", "2",
                "--out", str(out),
            )
            == 0
        )
        rows = out.read_text().strip().split("\n")[1:]
        assert all(row.split(",")[CSV_COLUMNS.index("axis")] == "snr" for row in rows)


    @pytest.mark.parametrize(
        "args,config",
        [
            (("--ebn0", "10"), None),
            ((), None),
            ((), "axis = ebn0\naxis_start = 10\naxis_stop = 10\n"),
        ],
    )
    def test_ebn0_axis_exits_2(self, tmp_path, monkeypatch, args, config):
        def must_not_run(cfg):
            raise AssertionError("simulation started")

        monkeypatch.setattr("chirplink.harness.run_ber", must_not_run)
        extra = ()
        if config is not None:
            path = tmp_path / "sim.cfg"
            path.write_text(config)
            extra = ("--config", str(path))
        out = tmp_path / "thr.csv"
        assert run_cli("throughput", *args, *extra, "--out", str(out)) == 2
        assert not out.exists()


class TestLoopbackCommand:
    def test_all_schemes_and_sfs_pass(self, capsys):
        assert run_cli("loopback", "--all", "--trials", "64") == 0
        out = capsys.readouterr().out
        lines = [line for line in out.strip().split("\n") if line]
        assert len(lines) == 3 * 7
        assert all(line.startswith("PASS") for line in lines)

    def test_subset(self, capsys):
        assert run_cli("loopback", "--scheme", "iqcss", "--sf", "7,8") == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2

    @pytest.mark.parametrize(
        "args", [("--scheme", "iqcss"), ("--sf", "7"), ("--scheme", "iqcss", "--sf", "7")]
    )
    def test_all_with_a_subset_exits_2(self, capsys, args):
        # --all would otherwise run every scheme and sf, ignoring the subset
        assert run_cli("loopback", "--all", *args) == 2
        out = capsys.readouterr().out
        assert "PASS" not in out and "FAIL" not in out

    def test_bad_sf_exits_2_before_any_loopback(self, capsys):
        assert run_cli("loopback", "--sf", "7,13") == 2
        out = capsys.readouterr().out
        assert "PASS" not in out and "FAIL" not in out


class TestChirpCommand:
    def test_spectrum_dump(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run_cli("chirp", "--sf", "7", "-k", "100", "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "bin,re,im"
        assert len(lines) == 1 + 128
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert max(values) == pytest.approx(128.0, rel=1e-9)
        assert values.index(max(values)) == 100

    def test_symbol_defaults_to_zero(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("chirp", "--sf", "6", "--what", "waveform", "--out", str(a)) == 0
        assert run_cli("chirp", "--sf", "6", "--what", "waveform", "-k", "0", "--out", str(b)) == 0
        assert a.read_text() == b.read_text()

    def test_waveform_dump(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run_cli("chirp", "--sf", "6", "--what", "waveform", "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "sample,re,im"
        assert len(lines) == 1 + 64

    def test_noisy_spectrum_is_seeded(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert (
                run_cli(
                    "chirp", "--sf", "7", "-k", "10", "--snr-db", "10",
                    "--seed", "3", "--out", str(path),
                )
                == 0
            )
        assert a.read_text() == b.read_text()


def _no_simulation(monkeypatch):
    def must_not_run(*args):
        raise AssertionError("simulation started")

    monkeypatch.setattr("chirplink.harness._run_point", must_not_run)


# one value per SimConfig field that has a flag, as its flag and its config key take it
FIELD_TEXT = [
    ("scheme", "iqcss"), ("sf_list", "7,8"), ("channel", "rayleigh-mobile-est"),
    ("max_frames", "3"), ("min_bit_errors", "4"), ("seed", "9"), ("bandwidth_hz", "125e3"),
    ("carrier_hz", "868e6"), ("speed_kmh", "3"), ("cp_len", "none"), ("cp_len", "20"),
    ("payload_symbols", "5"), ("workers", "2"), ("tap_profile", "none"),
]


@pytest.mark.parametrize("field,text", FIELD_TEXT)
def test_a_flag_reads_its_text_as_its_config_key_does(tmp_path, monkeypatch, field, text):
    seen = []
    monkeypatch.setattr(cli, "run_ber", lambda cfg: seen.append(cfg) or [])
    # a moving multipath channel takes every field; the channel case sets its own
    context = () if field == "channel" else ("--channel", "tvfs-est")
    flag = "--sf" if field == "sf_list" else "--" + field.replace("_", "-")
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(f"{field} = {text}\n")
    out = str(tmp_path / "r.csv")
    assert run_cli("ber", *context, flag, text, "--ebn0", "0", "--out", out) == 0
    assert run_cli("ber", *context, "--config", str(cfg), "--ebn0", "0", "--out", out) == 0
    assert seen[0] == seen[1]
    # the value took effect: only none leaves an optional field at its default
    assert (getattr(seen[0], field) == getattr(SimConfig(), field)) == (text == "none")


@pytest.mark.parametrize(
    "args",
    [("--scheme", "bogus"), ("--channel", "bogus"), ("--workers", "1.5"),
     ("--workers", "1.5", "--config", "missing.cfg"), ("--cp-len", "x", "--config", "missing.cfg"),
     ("--sf", "7,7"), ("--sf", "8,7,8", "--channel", "tvfs-est")],
    ids=" ".join,
)
def test_bad_flag_exits_2_with_one_config_error(tmp_path, monkeypatch, capsys, args):
    _no_simulation(monkeypatch)
    monkeypatch.chdir(tmp_path)  # missing.cfg does not exist there
    assert run_cli("ber", *args, "--ebn0", "0", "--out", "r.csv") == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error:")
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize(
    "outputs",
    [("--out", "same.x", "--plot", "same.x"), ("--out", "sim.cfg"),
     ("--out", "r.csv", "--plot", "sim.cfg"), ("--out", "./sub/../sim.cfg")],
    ids=" ".join,
)
def test_outputs_that_share_a_file_exit_2(tmp_path, monkeypatch, capsys, outputs):
    _no_simulation(monkeypatch)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sim.cfg").write_text("seed = 3\n")
    args = ("--config", "sim.cfg") if "sim.cfg" in "".join(outputs) else ()
    assert run_cli("ber", *args, "--ebn0", "0", "--max-frames", "1", *outputs) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error:") and "names the same file as" in line
    assert (tmp_path / "sim.cfg").read_text() == "seed = 3\n"
    assert not (tmp_path / "same.x").exists() and not (tmp_path / "r.csv").exists()


def test_repeated_sf_exits_2_before_any_loopback(capsys):
    assert run_cli("loopback", "--sf", "7,8,7") == 2
    out, err = capsys.readouterr()
    assert "PASS" not in out and "FAIL" not in out
    (line,) = err.splitlines()
    assert line.startswith("config error:")


def test_bad_tap_profile_number_names_its_line(tmp_path, monkeypatch, capsys):
    _no_simulation(monkeypatch)
    profile = tmp_path / "bad.profile"
    profile.write_text("0 0\nx 3\n")
    args = ("--channel", "tvfs-est", "--tap-profile", str(profile), "--ebn0", "0")
    assert run_cli("ber", *args, "--out", str(tmp_path / "r.csv")) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("config error:") and f"{profile}:2:" in line


def _src_env() -> dict:
    """The environment with this checkout's ``src`` first on ``PYTHONPATH``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("module", ["chirplink", "chirplink.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    out = tmp_path / "r.csv"
    proc = subprocess.run(
        [sys.executable, "-m", module, "ber", "--ebn0", "3100", "--out", str(out)],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr and not out.exists()


def test_tap_power_overflowing_its_db_value_exits_2_without_warning(tmp_path):
    # 4000 dB overflows 10**(dB/10); only the config error reaches the user
    profile = tmp_path / "big.profile"
    profile.write_text("0 0\n1 4000\n")
    proc = subprocess.run(
        [sys.executable, "-m", "chirplink", "ber", "--channel", "tvfs-est", "--tap-profile",
         str(profile), "--ebn0", "10", "--max-frames", "2"],
        env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_numpy_is_the_only_runtime_dependency():
    # a fresh interpreter: what the package, its CLI and plotting import on top
    # of numpy, through one single-worker run_ber frame
    code = """
import sys
import numpy, numpy.random
before = set(sys.modules)
import chirplink, chirplink.cli, chirplink.plotting
chirplink.run_ber(chirplink.SimConfig(axis_stop=0.0, max_frames=1, workers=1))
new = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(new - {"chirplink"} - sys.stdlib_module_names))
print(sorted(new & {"multiprocessing", "concurrent"}))
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"]
