"""Correctness gate: each point's BER against a stored reference BER.

A point passes when its BER lies inside a binomial (Chernoff-Hoeffding)
window around the reference.  The window treats the point as ``n``
independent units, each with a BER in [0, 1]: a payload chirp under AWGN,
where noise and symbols are independent per chirp, and a whole frame under
fading, where one draw is shared by the frame.  For such units Hoeffding's
bound P(mean >= q) <= exp(-n KL(q || p)) holds whatever the per-unit
distribution, so a point fails only if n KL(ber || p) exceeds ``LOG_THRESHOLD``
for every p in the reference's own window.  A change of random stream moves
BER by sampling noise and passes; a physics regression moves it by more.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
# ln(2 / 1e-6): a correct point fails with probability below 1e-6.
LOG_THRESHOLD = math.log(2e6)


def bits_per_chirp(scheme: str, sf: int) -> int:
    return 2 * sf if scheme == "iqcss" else sf


def unit_bits(channel: str, scheme: str, sf: int, payload_symbols: int) -> int:
    """Payload bits in one independent unit of the window (chirp or frame)."""
    per_chirp = bits_per_chirp(scheme, sf)
    return per_chirp if channel == "awgn" else per_chirp * payload_symbols


def point_key(axis_db: float) -> str:
    return format(axis_db, "g")


def _kl(q: float, p: float) -> float:
    """Kullback-Leibler divergence between Bernoulli(q) and Bernoulli(p)."""
    def term(a: float, b: float) -> float:
        if a == 0.0:
            return 0.0
        return math.inf if b == 0.0 else a * math.log(a / b)

    return term(q, p) + term(1.0 - q, 1.0 - p)


def _window(q: float, n: float) -> tuple[float, float]:
    """The p with n KL(q || p) <= LOG_THRESHOLD, found by bisection."""
    def edge(inside: float, outside: float) -> float:
        for _ in range(100):
            mid = 0.5 * (inside + outside)
            if n * _kl(q, mid) <= LOG_THRESHOLD:
                inside = mid
            else:
                outside = mid
        return inside

    low = 0.0 if n * _kl(q, 0.0) <= LOG_THRESHOLD else edge(q, 0.0)
    high = 1.0 if n * _kl(q, 1.0) <= LOG_THRESHOLD else edge(q, 1.0)
    return low, high


def windows_overlap(errors: int, bits: int, units: float, ref_errors: int, ref_bits: int, ref_units: float) -> bool:
    """True when the observed and reference BER windows share a value of p."""
    lo, hi = _window(errors / bits, units)
    ref_lo, ref_hi = _window(ref_errors / ref_bits, ref_units)
    return lo <= ref_hi and ref_lo <= hi


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["points"]


def pool(records_by_config: list[tuple[str, object, list]]) -> dict:
    """Sum ``(bit_errors, bits, units)`` per config key and point over records."""
    pooled: dict = {}
    for key, cfg, records in records_by_config:
        for r in records:
            per_unit = unit_bits(cfg.channel, r.scheme, r.sf, cfg.payload_symbols)
            slot = pooled.setdefault(key, {}).setdefault(point_key(r.axis_db), [0, 0, 0.0])
            slot[0] += r.bit_errors
            slot[1] += r.bits_sent
            slot[2] += r.bits_sent / per_unit
    return pooled


def check(pooled: dict, reference: dict) -> list[tuple[str, str, str]]:
    """``(config key, point, message)`` for each point outside its reference window."""
    failures = []
    for key, points in pooled.items():
        for point, (errors, bits, units) in points.items():
            ref = reference.get(key, {}).get(point)
            if ref is None:
                failures.append((key, point, f"{key} @ {point} dB: no reference point"))
                continue
            if not windows_overlap(errors, bits, units, ref["bit_errors"], ref["bits"], ref["units"]):
                failures.append((key, point,
                    f"{key} @ {point} dB: BER {errors / bits:.4g} over {units:g} units "
                    f"outside the window of reference BER {ref['bit_errors'] / ref['bits']:.4g}"
                ))
    return failures
