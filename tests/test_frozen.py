"""Frozen channels: the despread-spectrum frames against the waveform reference.

The harness draws each frozen-channel frame (``awgn``, ``rayleigh-perfect``,
``rayleigh-static-est``) directly on the despread data spectra.
``oracles.waveform_frozen_frame`` builds the same frame sample by sample from
the package's waveform primitives.  Both must give the same error statistics
at fixed seeds, for every channel and scheme at three Eb/N0 points:

* under AWGN every payload symbol is an independent trial, so the symbol
  error counts are compared by a pooled two-proportion z test;
* under a frozen fade the errors of one frame share its gain and cluster, so
  the frame is the trial: the mean per-frame symbol error counts are compared
  by an unpooled two-sample z test.

A case fails when |z| > 4.  Under the normal approximation a correct
implementation fails one case with probability 6.3e-5, and any of the 27
cases with probability below 1.7e-3 (union bound).  The seeds are fixed, so
the outcome is reproducible.
"""

import math

import numpy as np
import pytest

from chirplink.channel import FLAT_PROFILE
from chirplink.harness import SimConfig, _frozen_frame, _point_sigma2

from oracles import waveform_frozen_frame

SF = 7
Z_MAX = 4.0
POINTS = {
    "awgn": (0.0, 1.5, 3.0),
    "rayleigh-perfect": (4.0, 10.0, 16.0),
    "rayleigh-static-est": (4.0, 10.0, 16.0),
}
FRAMES = {"awgn": 150, "rayleigh-perfect": 300, "rayleigh-static-est": 300}
SCHEMES = ("lora-noncoherent", "lora-coherent", "iqcss")
CASES = [(ch, sc, db) for ch in POINTS for sc in SCHEMES for db in POINTS[ch]]


def two_proportion_z(errors_a: int, n_a: int, errors_b: int, n_b: int) -> float:
    pooled = (errors_a + errors_b) / (n_a + n_b)
    var = pooled * (1.0 - pooled) * (1.0 / n_a + 1.0 / n_b)
    return 0.0 if var == 0.0 else (errors_a / n_a - errors_b / n_b) / math.sqrt(var)


def two_mean_z(a: np.ndarray, b: np.ndarray) -> float:
    var = a.var(ddof=1) / a.size + b.var(ddof=1) / b.size
    return 0.0 if var == 0.0 else (a.mean() - b.mean()) / math.sqrt(var)


@pytest.mark.parametrize("channel,scheme,ebn0_db", CASES)
def test_despread_frames_match_waveform_reference(channel, scheme, ebn0_db):
    frames = FRAMES[channel]
    case = CASES.index((channel, scheme, ebn0_db))
    cfg = SimConfig(scheme=scheme, channel=channel, sf_list=(SF,), seed=9000 + case)
    sigma2 = _point_sigma2(cfg, SF, ebn0_db)
    taps = FLAT_PROFILE.lag_groups(cfg.bandwidth_hz)
    fast = np.array([_frozen_frame(cfg, SF, sigma2, 0, taps, i)[3] for i in range(frames)])

    rng = np.random.default_rng([4711, case])
    ref = np.empty(frames, dtype=np.int64)
    for i in range(frames):
        tx, rx = waveform_frozen_frame(scheme, channel, SF, sigma2, cfg.payload_symbols, rng)
        ref[i] = int((tx != rx).sum())

    symbols = frames * cfg.payload_symbols * (2 if scheme == "iqcss" else 1)
    if channel == "awgn":
        z = two_proportion_z(int(fast.sum()), symbols, int(ref.sum()), symbols)
    else:
        z = two_mean_z(fast.astype(float), ref.astype(float))
    assert ref.sum() > 0, "reference point too clean to compare"
    assert abs(z) <= Z_MAX, (
        f"z = {z:.2f}: {fast.sum()} vs {ref.sum()} symbol errors in {symbols} symbols"
    )
