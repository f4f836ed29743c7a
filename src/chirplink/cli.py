"""Command-line front end: ``ber``, ``throughput``, ``loopback`` and ``chirp``.

Options mirror :class:`~chirplink.harness.SimConfig` fields; a flat
``key = value`` config file may set any field, with command-line flags taking
precedence.  Exit codes: 0 success, 1 failed loopback or a sweep whose plot
could not be drawn (its CSV is written), 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import typing

import numpy as np

from .chirp import VALID_SF, raw_upchirp, despread, dft
from .modem import SCHEMES, lora_modulate
from .channel import apply_awgn, snr_to_sigma2
from .harness import (
    CHANNELS, ConfigError, SimConfig, _config_sf, run_ber, run_throughput, write_csv
)
from .plotting import plot_records_svg

_FIELD_TYPES = typing.get_type_hints(SimConfig)
# Fields set by hand-written flags (--sf and the axis flags); every other
# field gets a ``--field-name`` flag of its own type.
_CUSTOM_FLAG_FIELDS = {"sf_list", "axis", "axis_start", "axis_step", "axis_stop"}
_FLAG_FIELDS = tuple(
    f.name for f in dataclasses.fields(SimConfig) if f.name not in _CUSTOM_FLAG_FIELDS
)
_FLAG_CHOICES = {"scheme": tuple(SCHEMES), "channel": tuple(CHANNELS)}


def _field_type(name: str) -> tuple[type, bool]:
    """A SimConfig field's type without ``| None``, and whether None is allowed."""
    hint = _FIELD_TYPES[name]
    args = typing.get_args(hint)
    if type(None) in args:
        return next(a for a in args if a is not type(None)), True
    return hint, False


def _parse_sf_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"bad spreading-factor list {text!r}") from exc


def parse_axis_spec(text: str) -> tuple[float, float, float]:
    """Parse ``start:step:stop`` (or a single value) in dB."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            v = float(parts[0])
            return v, 1.0, v
        if len(parts) == 3:
            start, step, stop = (float(p) for p in parts)
            return start, step, stop
    except ValueError:
        pass
    raise ConfigError(f"bad axis sweep {text!r}; expected start:step:stop")


def _coerce_field(name: str, text: str):
    if name not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {name!r}")
    kind, optional = _field_type(name)
    text = text.strip()
    if optional and text.lower() == "none":
        return None
    if typing.get_origin(kind) is tuple:
        return _parse_sf_list(text)
    try:
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"field {name} expects {kind.__name__}, got {text!r}") from exc


def read_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` file with ``#`` comments; each key at most once."""
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key in overrides:
                raise ConfigError(f"{path}:{lineno}: key {key!r} given twice")
            overrides[key] = _coerce_field(key, value)
    return overrides


def _add_sim_options(sub: argparse.ArgumentParser, axis_flags: tuple[str, ...]) -> None:
    sub.add_argument("--config", help="config file; flags override its values")
    for name in _FLAG_FIELDS:
        kind, _ = _field_type(name)
        sub.add_argument("--" + name.replace("_", "-"), type=kind, choices=_FLAG_CHOICES.get(name))
    sub.add_argument("--sf", help="spreading factors, e.g. 7 or 7,8")
    for flag in axis_flags:
        sub.add_argument(f"--{flag}", help="sweep in dB: start:step:stop or one value")
    sub.add_argument("--out", default="results.csv", help="output CSV path")
    sub.add_argument("--plot", help="optional SVG plot path")
    sub.set_defaults(axis_flags=axis_flags)


def _config_from_args(args: argparse.Namespace) -> SimConfig:
    overrides: dict = {}
    if args.config:
        overrides.update(read_config_file(args.config))

    for name in _FLAG_FIELDS:
        if getattr(args, name) is not None:
            overrides[name] = getattr(args, name)
    if args.sf is not None:
        overrides["sf_list"] = _parse_sf_list(args.sf)

    given = [flag for flag in args.axis_flags if getattr(args, flag) is not None]
    if len(given) > 1:
        raise ConfigError(f"give only one of {', '.join('--' + f for f in args.axis_flags)}")
    if given:
        start, step, stop = parse_axis_spec(getattr(args, given[0]))
        overrides["axis"] = given[0]
        overrides["axis_start"] = start
        overrides["axis_step"] = step
        overrides["axis_stop"] = stop
    cfg = dataclasses.replace(SimConfig(), **overrides)
    flags = {"speed_kmh": "--speed-kmh", "carrier_hz": "--carrier-hz"}
    doppler = [flag for key, flag in flags.items() if key in overrides]
    if doppler and cfg.channel in CHANNELS and not CHANNELS[cfg.channel].moving:
        raise ConfigError(f"channel {cfg.channel} does not move to use {', '.join(doppler)}")
    return cfg


def _cmd_sweep(args: argparse.Namespace, throughput: bool) -> int:
    cfg = _config_from_args(args)
    records = run_throughput(cfg) if throughput else run_ber(cfg)
    write_csv(records, args.out)
    print(f"wrote {len(records)} rows to {args.out}")
    if args.plot:
        kind = "throughput" if throughput else "ber"
        try:
            plot_records_svg(records, args.plot, kind=kind, bandwidth_hz=cfg.bandwidth_hz)
        except ValueError as exc:  # e.g. a BER plot of a sweep without bit errors
            print(f"no plot written: {exc}", file=sys.stderr)
            return 1
        print(f"wrote plot to {args.plot}")
    return 0


def _loopback_ok(scheme_name: str, sf: int, trials: int) -> bool:
    scheme = SCHEMES[scheme_name]
    n = 1 << sf
    rng = np.random.default_rng(sf)
    if sf <= 8:
        symbols = np.arange(n)
    else:
        symbols = rng.integers(0, n, size=trials)
    partners = rng.integers(0, n, size=(symbols.size, scheme.streams - 1))
    symbols = np.column_stack([symbols, partners])
    return all(np.array_equal(scheme.detect(scheme.modulate(sf, k), sf), k) for k in symbols)


def _cmd_loopback(args: argparse.Namespace) -> int:
    schemes = list(SCHEMES) if args.all or not args.scheme else [args.scheme]
    sfs = list(VALID_SF) if args.all or not args.sf else list(_parse_sf_list(args.sf))
    if args.trials < 1:
        raise ConfigError("trials must be >= 1")
    for sf in sfs:
        _config_sf(sf)
    failures = 0
    for scheme in schemes:
        for sf in sfs:
            ok = _loopback_ok(scheme, sf, args.trials)
            print(f"{'PASS' if ok else 'FAIL'} scheme={scheme} sf={sf}")
            failures += 0 if ok else 1
    return 0 if failures == 0 else 1


def _cmd_chirp(args: argparse.Namespace) -> int:
    sf = _config_sf(args.sf)
    if args.symbol is not None and not 0 <= args.symbol < 1 << sf:
        raise ConfigError(f"symbol {args.symbol} outside 0..{(1 << sf) - 1}")
    if args.seed < 0:
        raise ConfigError("seed must be >= 0")
    if args.snr_db is not None and not math.isfinite(args.snr_db):
        raise ConfigError(f"--snr-db must be finite, got {args.snr_db}")
    if args.symbol is None:
        signal = raw_upchirp(sf)
    else:
        signal = lora_modulate(sf, args.symbol)
    if args.snr_db is not None:
        sigma2 = snr_to_sigma2(args.snr_db, sf)
        signal = apply_awgn(signal, sigma2, np.random.default_rng(args.seed))
    if args.what == "spectrum":
        values = dft(despread(signal, sf))
        header = "bin,re,im"
    else:
        values = signal
        header = "sample,re,im"
    lines = [header]
    lines += [f"{i},{v.real:.9g},{v.imag:.9g}" for i, v in enumerate(values)]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {values.size} rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chirplink",
        allow_abbrev=False,
        description="Chirp spread spectrum link simulator (chirp-FSK and I/Q chirp signaling)",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    ber = subs.add_parser("ber", help="bit-error-ratio sweep", allow_abbrev=False)
    _add_sim_options(ber, axis_flags=("ebn0", "snr"))
    ber.set_defaults(func=lambda a: _cmd_sweep(a, throughput=False))

    thr = subs.add_parser("throughput", help="(1-SER)*rate sweep over SNR", allow_abbrev=False)
    _add_sim_options(thr, axis_flags=("snr",))
    thr.set_defaults(func=lambda a: _cmd_sweep(a, throughput=True))

    loop = subs.add_parser(
        "loopback", help="noiseless modulate/demodulate self-test", allow_abbrev=False
    )
    loop.add_argument("--all", action="store_true", help="every scheme and spreading factor")
    loop.add_argument("--scheme", choices=SCHEMES)
    loop.add_argument("--sf", help="spreading factors, e.g. 7 or 7,8")
    loop.add_argument("--trials", type=int, default=1000, help="random symbols when sf > 8")
    loop.set_defaults(func=_cmd_loopback)

    chirp = subs.add_parser(
        "chirp", help="dump a chirp waveform or despread spectrum", allow_abbrev=False
    )
    chirp.add_argument("--sf", type=int, default=7)
    chirp.add_argument("-k", "--symbol", type=int, help="data symbol (default: raw chirp)")
    chirp.add_argument("--snr-db", type=float, help="add noise at this per-sample SNR")
    chirp.add_argument("--seed", type=int, default=0)
    chirp.add_argument("--what", choices=("spectrum", "waveform"), default="spectrum")
    chirp.add_argument("--out", default="chirp.csv")
    chirp.set_defaults(func=_cmd_chirp)
    return parser


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join ``--flag -5:1:0`` into ``--flag=-5:1:0`` so argparse accepts it."""
    merged: list[str] = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            token.startswith("--")
            and "=" not in token
            and nxt is not None
            and len(nxt) > 1
            and nxt[0] == "-"
            and nxt[1].isdigit()
        ):
            merged.append(f"{token}={nxt}")
            skip = True
        else:
            merged.append(token)
    return merged


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_negative_values(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help (0) and bad flags (2)
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
