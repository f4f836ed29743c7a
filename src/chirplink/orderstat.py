"""Decisions of a frozen flat channel, drawn from the exact order statistic.

Under a gain frozen over the frame, each equalized data chirp's despread
spectrum is a known tone pattern plus i.i.d. noise bins.  Only the bins that
carry a tone (the *special* bins) differ from pure noise.  A detector picks
the largest statistic (``|.|^2``, ``Re`` or ``Im``) over all N bins, so with
``M`` pure-noise bins of statistic CDF ``F``:

* the largest special statistic ``x`` beats every noise bin with probability
  ``F(x)**M``: the special bin wins iff ``U < exp(M * log F(x))`` for one
  uniform ``U``;
* otherwise the winner is the largest noise bin, uniform over the ``M``
  bins by symmetry.

That is the law of the explicit-bins decision, exactly, at O(1) work per
chirp instead of N noise bins (quasi-analytic Monte Carlo: Jeruchim, Balaban
and Shanmugan, *Simulation of Communication Systems*, 2000).

Each detector's :class:`Law` is called with the payload symbols ``tx``
(P, streams), the bin count ``n``, the tone's complex mean ``mean`` in units
of the noise standard deviation per quadrature (a tone of height
``N/sqrt(streams)`` times the channel, over that deviation) and a generator.
Per chirp and stream it draws, in this order over the whole frame: the noise
on the special bins, one uniform ``U``, one wrong-winner index.  It returns
the decided symbols (P, streams).  The draws of a frame do not depend on its
mean, so a batch of frames can make each frame's draws (:meth:`Law.draw`)
and then decide them all at once (``Law.decide``).  numpy and the standard
library only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

_LN2 = math.log(2.0)
_SQRT1_2 = math.sqrt(0.5)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_erfc = np.frompyfunc(math.erfc, 1, 1)

# Below this z, log(Phi(z)) comes from the asymptotic series of the Mills
# ratio: at z = -20, cut after 1/z^24, it is good to about 1e-21, while
# erfc(-z/sqrt(2)) itself underflows below z ~ -37.5.
_TAIL_Z = -20.0
# (-1)^k (2k-1)!! for k = 0..12: Phi(z) ~ phi(z)/|z| * sum_k c_k / z^(2k).
_TAIL_COEFFS = tuple((-1) ** k * math.prod(range(1, 2 * k, 2)) for k in range(13))


def log1mexp(t: np.ndarray) -> np.ndarray:
    """``log(1 - exp(-t))`` for ``t >= 0``, to full precision.

    Maechler (2012): ``log1p(-exp(-t))`` above ln 2 and ``log(-expm1(-t))``
    up to it.  ``t = 0`` gives ``-inf`` without a warning.
    """
    t = np.asarray(t, dtype=np.float64)
    out = np.log1p(-np.exp(-np.maximum(t, _LN2)))
    small = t <= _LN2
    if small.any():
        with np.errstate(divide="ignore"):  # t = 0
            out[small] = np.log(-np.expm1(-t[small]))
    return out


def log_ndtr(z: np.ndarray) -> np.ndarray:
    """``log(Phi(z))``, the log of the standard normal CDF, to full precision.

    ``log1p(-Q(z))`` above 0 and ``log(Q(-z))`` below, with ``Q`` from
    ``math.erfc``; below -20 the asymptotic series, so the deep tail never
    takes the log of an underflowed 0.
    """
    z = np.asarray(z, dtype=np.float64)
    q = 0.5 * np.asarray(_erfc(np.abs(z) * _SQRT1_2), dtype=np.float64)  # Q(|z|)
    out = np.log1p(-q)
    low = z <= 0.0
    if low.any():
        with np.errstate(divide="ignore"):  # q = 0 below z ~ -38.5, replaced below
            out[low] = np.log(q[low])
        deep = z < _TAIL_Z
        if deep.any():
            zd = z[deep]
            w = 1.0 / (zd * zd)
            series = np.polynomial.polynomial.polyval(w, _TAIL_COEFFS)
            out[deep] = -0.5 * zd * zd - np.log(-zd) - _HALF_LOG_2PI + np.log(series)
    return out


def noise_bins(tx: np.ndarray, n: int) -> int | np.ndarray:
    """M per chirp: the N bins less the distinct tone bins of its streams.

    A scalar, unless some chirp of ``tx`` carries ``k_i == k_q`` on two
    streams: then ``N - 1`` on those chirps and ``N - 2`` on the others, as an
    array.  The wrong-winner draw takes this form, so it is part of the
    stream layout.
    """
    same = tx[..., :1] == tx[..., 1:]
    m = n - tx.shape[-1]
    return m + same if same.any() else m


@dataclass(frozen=True)
class Law:
    """One detector's decision law, split into a per-frame draw and a decision.

    ``normals`` is the number of special-bin normals per chirp and stream.
    ``decide(tx, n, mean, z, u, j)`` takes every argument with a leading frame
    axis (``mean`` one complex per frame) and broadcasts over it.
    """

    normals: int
    decide: Callable[..., np.ndarray]

    def draw(self, tx: np.ndarray, n: int, rng: np.random.Generator, z, u, j) -> None:
        """Draw one frame's decisions into ``z`` (normals, P, s), ``u`` and ``j`` (P, s)."""
        rng.standard_normal(out=z)
        rng.random(out=u)
        j[...] = rng.integers(0, noise_bins(tx, n), size=u.shape)

    def __call__(self, tx: np.ndarray, n: int, mean: complex, rng: np.random.Generator):
        """One frame: draw, then decide."""
        z, u = np.empty((self.normals,) + tx.shape), np.empty(tx.shape)
        j = np.empty(tx.shape, dtype=np.int64)
        self.draw(tx, n, rng, z, u, j)
        return self.decide(tx[None], n, np.array([mean]), z[None], u[None], j[None])[0]


def _choose(tx, n, special, log_f, u, j, skip_lo, skip_hi):
    """Winner per (chirp, stream): its best special bin or a uniform noise bin.

    ``special`` is the special bin of largest statistic per stream and
    ``log_f`` that statistic's log-CDF over the M noise bins.  The wrong
    winner ``j``, uniform in ``[0, M)``, maps to the ``j``-th bin that is
    neither ``skip_lo`` nor ``skip_hi`` (sorted; ``skip_hi`` may be N, no bin).
    """
    j = j + (j >= skip_lo)
    j += j >= skip_hi
    return np.where(u < np.exp(noise_bins(tx, n) * log_f), special, j)


def _per_frame(mean: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of one complex per frame, shaped to broadcast
    over (frame, chirp, stream)."""
    return mean.real[:, None, None], mean.imag[:, None, None]


def _noncoherent(tx, n, mean, z, u, j):
    """Chirp-FSK by largest ``|.|^2``: one special bin, ``N - 1`` noise bins.

    In units of its mean, a noise bin's ``|.|^2 / 2`` is Exp(1), so
    ``log F(x) = log1mexp(x)``.  ``z`` holds (Re, Im) per chirp.
    """
    re, im = _per_frame(mean)
    x = 0.5 * ((re + z[:, 0]) ** 2 + (im + z[:, 1]) ** 2)
    return _choose(tx, n, tx, log1mexp(x), u, j, tx, n)


def _coherent(tx, n, mean, z, u, j):
    """Chirp-FSK by largest ``Re``: one special bin, ``N - 1`` noise bins,
    ``log F = log_ndtr``."""
    re, _ = _per_frame(mean)
    return _choose(tx, n, tx, log_ndtr(re + z[:, 0]), u, j, tx, n)


def _iq(tx, n, mean, z, u, j):
    """I/Q chirp by largest ``Re`` and largest ``Im``: ``log F = log_ndtr``.

    The quadrature tone is ``j`` times the in-phase one, so a residual
    rotation leaks each into the other's stream.  The Re stream reads bin k_i
    (mean ``Re(mean)``) and k_q (``-Im(mean)``); the Im stream reads k_q
    (``Re(mean)``) and k_i (``Im(mean)``).  Re and Im noise are independent,
    so are the streams, over ``N - 2`` noise bins each.  When ``k_i == k_q``
    the one tone bin has means ``Re - Im`` and ``Re + Im``, over ``N - 1``.
    ``z`` holds bins (k_i, k_q) per chirp and stream (Re, Im).
    """
    re, im = _per_frame(mean)
    x_i = z[:, 0] + np.concatenate([re, im], axis=-1)  # frame x chirp x stream (Re, Im)
    leak = np.concatenate([-im, re], axis=-1)
    x_q = z[:, 1] + leak
    k_i, k_q = tx[..., :1], tx[..., 1:]
    lo, hi = np.minimum(k_i, k_q), np.maximum(k_i, k_q)
    same = k_i == k_q
    if same.any():  # one tone bin: its means add up, and there is no second bin
        x_i += same * leak
        x_q[same[..., 0]] = -np.inf
        hi = np.where(same, n, hi)
    log_f = log_ndtr(np.maximum(x_i, x_q))
    return _choose(tx, n, np.where(x_q > x_i, k_q, k_i), log_f, u, j, lo, hi)


noncoherent = Law(2, _noncoherent)
coherent = Law(1, _coherent)
iq = Law(2, _iq)
