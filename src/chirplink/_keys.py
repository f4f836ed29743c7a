"""Frame generators keyed exactly as ``default_rng(SeedSequence(prefix + [frame]))``.

numpy builds a :class:`~numpy.random.SeedSequence` and a
:class:`~numpy.random.PCG64` for each key, which costs more than many a
frozen frame's arithmetic.  Every frame of one sweep point shares the key
prefix ``[seed, scheme, sf, point]``.  numpy hashes a key's first four 32-bit
words into a four-word pool, mixes the pool with itself, then mixes each
further word into every pool word in turn.  So with a prefix of at least four
words, the pool before the frame index is ``SeedSequence(prefix).pool``,
taken once per prefix.  Each frame then only mixes in its own words, hashes
the pool into the PCG64 seed (``generate_state(4, uint64)``) and seeds the
state as PCG64's ``srandom_r`` does (O'Neill, *PCG*, 2014).  One generator
per range takes each frame's state in turn through the public ``PCG64.state``
setter, with no buffered 32-bit half-word carried over.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

import numpy as np

_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1

# numpy's SeedSequence constants (arithmetic mod 2**32) and the PCG64 multiplier.
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
POOL_WORDS = 4

# generate_state hashes pool word k % 4 into output word k (k < 8): xor the
# first constant, multiply by the second, xor-shift by 16.
(_C0, _D0), (_C1, _D1), (_C2, _D2), (_C3, _D3), (_C4, _D4), (_C5, _D5), (_C6, _D6), (_C7, _D7) = (
    (INIT_B * pow(MULT_B, k, 1 << 32) & _M32, INIT_B * pow(MULT_B, k + 1, 1 << 32) & _M32)
    for k in range(2 * POOL_WORDS)
)


def _words(value: int) -> list[int]:
    """A non-negative integer's little-endian 32-bit words, as SeedSequence reads it."""
    words = [value & _M32]
    value >>= 32
    while value:
        words.append(value & _M32)
        value >>= 32
    return words


@lru_cache(maxsize=64)
def _prefix(prefix: tuple[int, ...]) -> tuple[np.random.SeedSequence, tuple[int, ...], int]:
    """The prefix's SeedSequence, its pool and its number of 32-bit words."""
    seq = np.random.SeedSequence(prefix)
    prefix_words = sum(len(_words(v)) for v in prefix)
    if prefix_words < POOL_WORDS:
        raise ValueError(f"a key prefix needs at least {POOL_WORDS} words, got {prefix_words}")
    return seq, tuple(int(w) for w in seq.pool), prefix_words


@lru_cache(maxsize=16)
def _word_hashes(prefix_words: int, words: int) -> tuple[tuple[int, ...], ...]:
    """Per word after the prefix, the (xor, multiply) constants of its four hashes.

    The hash constant starts at ``INIT_A`` and steps by ``MULT_A`` once per
    hash: four to fill the pool, twelve to mix it, then four per word past
    the fourth.  A hash xors the constant, steps it and multiplies by it.
    """
    h = INIT_A * pow(MULT_A, 16 + POOL_WORDS * (prefix_words - POOL_WORDS), 1 << 32) & _M32
    hashes = []
    for _ in range(words):
        consts = []
        for _ in range(POOL_WORDS):
            consts += (h, h * MULT_A & _M32)
            h = consts[-1]
        hashes.append(tuple(consts))
    return tuple(hashes)


def frame_generators(prefix: list[int], lo: int, hi: int) -> Iterator[np.random.Generator]:
    """Yield, for frames ``lo .. hi - 1`` in order, one generator in frame i's state.

    The state is that of ``np.random.default_rng(np.random.SeedSequence(prefix + [i]))``.
    The same generator is yielded each time, so a frame's draws must be done
    before the next frame is asked for.  ``prefix`` holds non-negative
    integers of at least four 32-bit words together.
    """
    if lo < 0:
        raise ValueError(f"frame indices must be >= 0, got {lo}")
    seq, pool, prefix_words = _prefix(tuple(prefix))
    bit_generator = np.random.PCG64(seq)
    rng = np.random.Generator(bit_generator)
    inner = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": inner, "has_uint32": 0, "uinteger": 0}
    hashes = _word_hashes(prefix_words, len(_words(max(hi - 1, 0))))
    mul_l, mul_r = MIX_MULT_L, MIX_MULT_R
    for frame in range(lo, hi):
        # mix(pool word, hashmix(frame word)) into each pool word, word by word
        p0, p1, p2, p3 = pool
        for word, (a0, b0, a1, b1, a2, b2, a3, b3) in zip(_words(frame), hashes):
            x = (word ^ a0) * b0 & _M32
            r = (mul_l * p0 - mul_r * (x ^ x >> 16)) & _M32
            p0 = r ^ r >> 16
            x = (word ^ a1) * b1 & _M32
            r = (mul_l * p1 - mul_r * (x ^ x >> 16)) & _M32
            p1 = r ^ r >> 16
            x = (word ^ a2) * b2 & _M32
            r = (mul_l * p2 - mul_r * (x ^ x >> 16)) & _M32
            p2 = r ^ r >> 16
            x = (word ^ a3) * b3 & _M32
            r = (mul_l * p3 - mul_r * (x ^ x >> 16)) & _M32
            p3 = r ^ r >> 16
        # generate_state(4, uint64): eight words, paired little-endian into
        # val[0..3]; initstate = val[0] << 64 | val[1], initseq likewise of val[2:]
        s0 = (p0 ^ _C0) * _D0 & _M32
        s1 = (p1 ^ _C1) * _D1 & _M32
        s2 = (p2 ^ _C2) * _D2 & _M32
        s3 = (p3 ^ _C3) * _D3 & _M32
        s4 = (p0 ^ _C4) * _D4 & _M32
        s5 = (p1 ^ _C5) * _D5 & _M32
        s6 = (p2 ^ _C6) * _D6 & _M32
        s7 = (p3 ^ _C7) * _D7 & _M32
        initstate = ((s0 ^ s0 >> 16) << 64 | (s1 ^ s1 >> 16) << 96
                     | s2 ^ s2 >> 16 | (s3 ^ s3 >> 16) << 32)
        initseq = ((s4 ^ s4 >> 16) << 64 | (s5 ^ s5 >> 16) << 96
                   | s6 ^ s6 >> 16 | (s7 ^ s7 >> 16) << 32)
        # srandom_r: inc = 2 * initseq + 1, state = (inc + initstate) * M + inc
        inc = (initseq << 1 | 1) & _M128
        inner["state"] = ((inc + initstate) * PCG_MULT + inc) & _M128
        inner["inc"] = inc
        bit_generator.state = state
        yield rng
