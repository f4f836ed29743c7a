"""Channel models (AWGN and one fading tapped delay line) and SNR/Eb-N0
bookkeeping.

Noise level conventions, for chirps of energy ``n = 2**sf`` (unit power per
sample, see :mod:`chirplink.modem`) and ``sigma2`` the total complex noise
variance per sample:

* per-sample SNR: ``snr = 1 / sigma2`` (signal power per sample over noise
  variance per sample);
* energy per bit: ``ebn0 = snr * n / bits_per_symbol`` where a chirp carries
  ``sf`` bits (single-stream schemes) or ``2*sf`` bits (I/Q scheme).

There is one fading model, the multipath tapped delay line of
:func:`tvfs_realization`.  Flat Rayleigh fading is its one-tap profile and a
fade frozen over the frame is its zero-Doppler case.  Each physical tap is a
sum of 64 sinusoids: equally spaced arrival angles, uniform phases, classical
Doppler spectrum of maximum frequency ``v * fc / c``.  A draw is kept as each
lag's 32 weights on the folded grid :data:`FOLDED_COS` (``TapLags.draw_weights``).
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .chirp import check_sf
from .modem import get_scheme

SPEED_OF_LIGHT_M_S = 299_792_458.0

# Sinusoids per fading process.  The envelope of a sum of K unit phasors only
# approaches Rayleigh as K grows; 64 keeps the empirical distribution within
# Kolmogorov-Smirnov tolerance at the sample sizes used for validation.
JAKES_SINUSOIDS = 64

# Cosines of the equally spaced arrival angles, in units of the maximum Doppler
# frequency.  They are symmetric to a few ulps: _ARRIVAL_COS[63 - k] ==
# _ARRIVAL_COS[k] and _ARRIVAL_COS[k + 32] == -_ARRIVAL_COS[k].  So the 64
# sinusoids share 32 frequencies (Jakes' oscillator reduction), the Doppler grid
# of every tap: sinusoids j and 63-j share +cos_j, and 31-j and 32+j share
# -cos_j, for j = 0..15.
_ARRIVAL_COS = np.cos(2.0 * np.pi * (np.arange(JAKES_SINUSOIDS) + 0.5) / JAKES_SINUSOIDS)
FOLDED_COS = np.concatenate([_ARRIVAL_COS[:16], -_ARRIVAL_COS[:16]])


def fold_weights(weights: np.ndarray) -> np.ndarray:
    """Sum (..., 64) sinusoid weights onto the (..., 32) :data:`FOLDED_COS` grid."""
    plus = weights[..., :16] + weights[..., 63:47:-1]
    return np.concatenate([plus, weights[..., 31:15:-1] + weights[..., 32:48]], axis=-1)


def bits_per_symbol(sf: int, scheme: str) -> int:
    """Bits carried by one chirp: ``sf`` per data stream of the named scheme."""
    return get_scheme(scheme).streams * check_sf(sf)


def ebn0_db_to_snr_db(ebn0_db: float, sf: int, scheme: str) -> float:
    """Convert energy-per-bit over noise density to per-sample SNR."""
    n = 1 << check_sf(sf)
    return ebn0_db + 10.0 * np.log10(bits_per_symbol(sf, scheme) / n)


def snr_db_to_ebn0_db(snr_db: float, sf: int, scheme: str) -> float:
    """Inverse of :func:`ebn0_db_to_snr_db`."""
    n = 1 << check_sf(sf)
    return snr_db - 10.0 * np.log10(bits_per_symbol(sf, scheme) / n)


def _db_to_linear(db: float) -> float:
    if not np.isfinite(db):
        raise ValueError(f"dB value must be finite, got {db}")
    try:
        linear = 10.0 ** (db / 10.0)
    except OverflowError:
        linear = math.inf
    if not 0.0 < linear < math.inf:
        raise ValueError(f"{db} dB is outside the floating-point range")
    return linear


def ebn0_to_sigma2(ebn0_db: float, sf: int, scheme: str) -> float:
    """Noise variance that realises ``ebn0_db`` for chirps of energy ``N``."""
    ebn0 = _db_to_linear(ebn0_db)
    return float(1 << check_sf(sf)) / (bits_per_symbol(sf, scheme) * ebn0)


def snr_to_sigma2(snr_db: float, sf: int) -> float:
    """Noise variance that realises a per-sample SNR for chirps of energy ``N``."""
    n = 1 << check_sf(sf)
    snr = _db_to_linear(snr_db)
    return float(n) / (n * snr)


def apply_awgn(x: np.ndarray, sigma2: float, rng: np.random.Generator) -> np.ndarray:
    """Add circular complex Gaussian noise of total variance ``sigma2`` per sample.

    ``sigma2`` must be finite and >= 0; half of it goes to each quadrature.
    """
    sigma2 = float(sigma2)
    if not (math.isfinite(sigma2) and sigma2 >= 0):
        raise ValueError(f"noise variance must be finite and >= 0, got {sigma2}")
    x = np.asarray(x)
    if sigma2 == 0.0:
        return x.astype(np.complex128)
    w = rng.standard_normal((2,) + x.shape)
    w *= np.sqrt(sigma2 / 2.0)
    y = np.empty(x.shape, dtype=np.complex128)
    y.real, y.imag = w
    y += x
    return y


def max_doppler_hz(speed_kmh: float, carrier_hz: float) -> float:
    """Maximum Doppler shift ``v * fc / c`` of a receiver moving at ``speed_kmh``."""
    return (speed_kmh / 3.6) * carrier_hz / SPEED_OF_LIGHT_M_S


@dataclass(frozen=True)
class TapProfile:
    """Power-delay profile: physical tap delays (seconds) and linear powers.

    Powers are normalised to unit sum on construction.  Delays are mapped to
    integer sample lags only by :meth:`lag_groups`, so several physical
    taps may share a sample lag at low bandwidth; they fade independently and
    are summed into that lag's single row of the trace.
    """

    delays_s: np.ndarray
    powers: np.ndarray

    def __post_init__(self) -> None:
        delays = np.asarray(self.delays_s, dtype=np.float64)
        powers = np.asarray(self.powers, dtype=np.float64)
        if delays.ndim != 1 or delays.shape != powers.shape or delays.size == 0:
            raise ValueError("delays and powers must be equal-length 1-D arrays")
        with np.errstate(all="ignore"):  # finite powers may still overflow their sum
            total = powers.sum()
        if not (np.all(np.isfinite(delays)) and np.isfinite(total)):
            raise ValueError("tap delays, powers and the powers' sum must be finite")
        if delays[0] != 0.0:
            raise ValueError("first tap delay must be 0")
        if np.any(np.diff(delays) <= 0) and delays.size > 1:
            raise ValueError("tap delays must be strictly increasing")
        if np.any(powers <= 0):
            raise ValueError("tap powers must be positive")
        object.__setattr__(self, "delays_s", delays)
        object.__setattr__(self, "powers", powers / total)

    @property
    def n_taps(self) -> int:
        return self.delays_s.size

    def sample_delays(self, sample_rate_hz: float) -> np.ndarray:
        """Tap delays rounded to the nearest sample at the given rate."""
        return np.rint(self.delays_s * sample_rate_hz).astype(np.int64)

    def lag_groups(self, sample_rate_hz: float) -> "TapLags":
        """The taps grouped by sample lag at the given rate (see :class:`TapLags`)."""
        lags, first_tap = np.unique(self.sample_delays(sample_rate_hz), return_index=True)
        return TapLags(
            lags, first_tap, np.sqrt(self.powers / JAKES_SINUSOIDS), float(sample_rate_hz)
        )

    @classmethod
    def from_db(cls, delays_us, powers_db) -> "TapProfile":
        delays = np.asarray(delays_us, dtype=np.float64) * 1e-6
        powers = 10.0 ** (np.asarray(powers_db, dtype=np.float64) / 10.0)
        return cls(delays, powers)


@dataclass(frozen=True)
class TapLags:
    """A profile's physical taps grouped by integer sample lag at one sample rate.

    ``lags`` are the distinct sample lags in increasing order and
    ``first_tap`` the index of each lag's first tap: lags never decrease
    along a profile, so each lag's taps are contiguous.  ``amplitudes`` is
    ``sqrt(p / K)`` per physical tap.  The grouping depends only on the
    profile and the rate, so a sweep builds it once per point.
    """

    lags: np.ndarray
    first_tap: np.ndarray
    amplitudes: np.ndarray
    sample_rate_hz: float

    def __post_init__(self) -> None:
        if self.lags.ndim != 1 or np.any(self.lags < 0) or np.any(np.diff(self.lags) <= 0):
            raise ValueError("tap lags must be 1-D, >= 0 and strictly increasing")

    def draw_phases(self, rng: np.random.Generator) -> np.ndarray:
        """Draw ``JAKES_SINUSOIDS`` phases per physical tap, in profile order: (taps, K)."""
        return rng.uniform(0.0, 2.0 * np.pi, size=(self.amplitudes.size, JAKES_SINUSOIDS))

    def weights(self, phases: np.ndarray) -> np.ndarray:
        """The ``(..., lags, 32)`` folded weights of ``(..., taps, K)`` phases.

        Each sinusoid's weight is ``sqrt(p_l) * exp(j*phi_lk) / sqrt(K)``; they
        are summed over the taps of each lag and folded onto
        :data:`FOLDED_COS`.  A frozen fade's gain per lag is the row sum.
        """
        taps = self.amplitudes[:, None] * np.exp(1j * phases)
        return fold_weights(np.add.reduceat(taps, self.first_tap, axis=-2))

    def draw_weights(self, rng: np.random.Generator) -> np.ndarray:
        """:meth:`weights` of fresh phases: (lags, 32)."""
        return self.weights(self.draw_phases(rng))


# Flat fading is the tapped delay line with one unit-power tap at lag 0.
FLAT_PROFILE = TapProfile(np.zeros(1), np.ones(1))


def load_tap_profile(path) -> TapProfile:
    """Read a plain-text profile: one ``delay_us power_db`` pair per line."""
    delays, powers = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'delay_us power_db'")
            delays.append(float(parts[0]))
            powers.append(float(parts[1]))
    return TapProfile.from_db(delays, powers)


def urban_12tap_profile() -> TapProfile:
    """The bundled 12-tap typical-urban power-delay profile."""
    ref = importlib.resources.files("chirplink.data").joinpath("tu12.profile")
    with importlib.resources.as_file(ref) as path:
        return load_tap_profile(path)


def tvfs_realization(
    frame_len: int, taps: TapLags, max_doppler_hz: float, weights: np.ndarray
) -> np.ndarray:
    """Per-sample gains ``(lags, frame_len)`` of folded ``weights`` at ``taps.sample_rate_hz``.

    ``weights`` is a :meth:`TapLags.draw_weights` draw: every physical tap
    fades independently, and the taps of one sample lag sum to one row of 32
    weights on the shared :data:`FOLDED_COS` Doppler grid.  With zero Doppler
    each lag's gain is the constant sum of its weights, and the rows are a
    read-only broadcast view, so callers must not write into them.  Flat
    Rayleigh fading is the one-tap ``FLAT_PROFILE.lag_groups(rate)``.
    """
    if frame_len <= 0:
        raise ValueError("frame length must be positive")
    if max_doppler_hz == 0.0:
        return np.broadcast_to(weights.sum(axis=1, keepdims=True), (taps.lags.size, frame_len))
    omegas = 2.0 * np.pi * max_doppler_hz * FOLDED_COS
    return _kernels.jakes_trace(omegas, weights.T, 1.0 / taps.sample_rate_hz, frame_len)


def apply_channel(x: np.ndarray, taps: TapLags, gains: np.ndarray) -> np.ndarray:
    """Tapped delay line ``y[i] = sum_l gains[l, i] * x[i - taps.lags[l]]``, zero before
    the signal start; ``gains`` is a ``(lags, x.size)`` :func:`tvfs_realization`."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1 or gains.shape != (taps.lags.size, x.size):
        raise ValueError(
            f"gains {gains.shape} do not match {taps.lags.size} lags of signal {x.shape}"
        )
    n = x.size
    y = np.zeros(n, dtype=np.complex128)
    for l, d in enumerate(taps.lags):
        d = int(d)
        if d < n:
            y[d:] += gains[l, d:] * x[: n - d]
    return y
