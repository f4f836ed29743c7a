"""Command-line front end: ``ber``, ``throughput``, ``loopback`` and ``chirp``.

Each :class:`~chirplink.harness.SimConfig` field but the axis has a flag
(``--sf`` for ``sf_list``, ``--field-name`` for the others) and a key in a
flat ``key = value`` config file.  A flag and its key read the same text the
same way (``none`` resets an optional field), and flags take precedence.
Exit codes: 0 success, 1 failed loopback or a sweep whose plot could not be
drawn (its CSV is written), 2 configuration error (including outputs that
would overwrite each other or the config file, and a repeated spreading
factor), 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys
import typing

import numpy as np

from .chirp import VALID_SF, check_sf, despread, dft
from .modem import SCHEMES
from .channel import apply_awgn, snr_to_sigma2
from .harness import CHANNELS, ConfigError, SimConfig, run_ber, run_throughput, write_csv
from .plotting import plot_records_svg

_FIELD_TYPES = typing.get_type_hints(SimConfig)
# Each field but the axis's has a flag; the axis flags (--ebn0, --snr) set those four.
_FIELD_FLAGS = {
    f.name: "--sf" if f.name == "sf_list" else "--" + f.name.replace("_", "-")
    for f in dataclasses.fields(SimConfig)
    if f.name not in {"axis", "axis_start", "axis_step", "axis_stop"}
}
_FLAG_HELP = {
    "scheme": "one of " + ", ".join(SCHEMES),
    "sf_list": "spreading factors, e.g. 7 or 7,8",
    "channel": "one of " + ", ".join(CHANNELS),
}


def _config_sf(sf) -> int:
    """:func:`~chirplink.chirp.check_sf`, its error raised as a :class:`ConfigError`."""
    try:
        return check_sf(sf)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _parse_sf_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
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
    """A SimConfig field's value from its flag's or its config key's text."""
    if name not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {name!r}")
    kind, text = _FIELD_TYPES[name], text.strip()
    if type(None) in typing.get_args(kind):  # an optional field
        if text.lower() == "none":
            return None
        kind = next(a for a in typing.get_args(kind) if a is not type(None))
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
    for name, flag in _FIELD_FLAGS.items():
        sub.add_argument(flag, dest=name, help=_FLAG_HELP.get(name))
    for flag in axis_flags:
        sub.add_argument(f"--{flag}", help="sweep in dB: start:step:stop or one value")
    sub.add_argument("--out", default="results.csv", help="output CSV path")
    sub.add_argument("--plot", help="optional SVG plot path")
    sub.set_defaults(axis_flags=axis_flags)


def _config_from_args(args: argparse.Namespace) -> SimConfig:
    # each flag is read as its config key is, before the file, so a bad flag exits 2 first
    flagged = {
        name: _coerce_field(name, getattr(args, name))
        for name in _FIELD_FLAGS
        if getattr(args, name) is not None
    }
    overrides = read_config_file(args.config) if args.config else {}
    overrides.update(flagged)

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
    doppler = [_FIELD_FLAGS[key] for key in ("speed_kmh", "carrier_hz") if key in overrides]
    if doppler and cfg.channel in CHANNELS and not CHANNELS[cfg.channel].moving:
        raise ConfigError(f"channel {cfg.channel} does not move to use {', '.join(doppler)}")
    return cfg


def _check_output_clashes(args: argparse.Namespace) -> None:
    """Raise :class:`ConfigError` if ``--out``, ``--plot`` and ``--config`` share a file."""
    seen: dict[str, str] = {}
    for flag, path in (("--config", args.config), ("--out", args.out), ("--plot", args.plot)):
        if path:
            real = os.path.realpath(path)
            if real in seen:
                raise ConfigError(f"{flag} {path} names the same file as {seen[real]}")
            seen[real] = flag


def _check_output_dirs(*paths: str | None) -> None:
    """Raise :class:`OSError` unless each given path names no directory and its
    directory exists and is writable."""
    for path in filter(None, paths):
        if os.path.isdir(path):
            raise OSError(f"cannot write {path}: it is a directory")
        parent = os.path.dirname(os.path.abspath(path))
        if not (os.path.isdir(parent) and os.access(parent, os.W_OK | os.X_OK)):
            raise OSError(f"cannot write {path}: {parent} is not a writable directory")


def _cmd_sweep(args: argparse.Namespace, throughput: bool) -> int:
    cfg = _config_from_args(args)
    if throughput and cfg.axis != "snr":
        raise ConfigError("throughput runs sweep the per-sample SNR axis; give --snr")
    cfg.validate()  # config errors exit 2 before an unwritable output exits 3
    _check_output_clashes(args)
    _check_output_dirs(args.out, args.plot)  # before a sweep that may take hours
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
    if args.all and (args.scheme is not None or args.sf is not None):
        raise ConfigError("--all runs every scheme and spreading factor; drop --scheme and --sf")
    schemes = list(SCHEMES) if args.all or not args.scheme else [args.scheme]
    sfs = list(VALID_SF) if args.all or not args.sf else list(_parse_sf_list(args.sf))
    if args.trials < 1:
        raise ConfigError("trials must be >= 1")
    for sf in sfs:
        _config_sf(sf)
    if len(set(sfs)) < len(sfs):
        raise ConfigError(f"--sf repeats a spreading factor: {args.sf}")
    failures = 0
    for scheme in schemes:
        for sf in sfs:
            ok = _loopback_ok(scheme, sf, args.trials)
            print(f"{'PASS' if ok else 'FAIL'} scheme={scheme} sf={sf}")
            failures += 0 if ok else 1
    return 0 if failures == 0 else 1


def _cmd_chirp(args: argparse.Namespace) -> int:
    sf = _config_sf(args.sf)
    if not 0 <= args.symbol < 1 << sf:
        raise ConfigError(f"symbol {args.symbol} outside 0..{(1 << sf) - 1}")
    if args.seed < 0:
        raise ConfigError("seed must be >= 0")
    sigma2 = None
    if args.snr_db is not None:
        try:  # non-finite, or a noise variance outside the floating-point range
            sigma2 = snr_to_sigma2(args.snr_db, sf)
        except ValueError as exc:
            raise ConfigError(f"--snr-db: {exc}") from None
    signal = SCHEMES["lora-noncoherent"].modulate(sf, [args.symbol])
    if sigma2 is not None:
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
    chirp.add_argument("-k", "--symbol", type=int, default=0,
                       help="data symbol (default: 0, the raw chirp)")
    chirp.add_argument("--snr-db", type=float, help="add noise at this per-sample SNR")
    chirp.add_argument("--seed", type=int, default=0)
    chirp.add_argument("--what", choices=("spectrum", "waveform"), default="spectrum")
    chirp.add_argument("--out", default="chirp.csv")
    chirp.set_defaults(func=_cmd_chirp)
    return parser


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join ``--flag -5:1:0`` (or ``-.5:1:0``) into ``--flag=-5:1:0`` so argparse accepts it."""
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
            and re.match(r"-\.?\d", nxt)
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
