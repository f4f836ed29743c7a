"""Frame generators (``chirplink._keys``) against numpy's own keying.

The harness keys frame i of a sweep point by ``[seed, scheme, sf, point, i]``
through numpy's ``SeedSequence`` into PCG64.  ``_keys.frame_generators``
computes the same states without a ``SeedSequence`` per frame and hands them
out on one reused generator.  Each frame must start in exactly numpy's state,
whatever the previous frame drew, and make the same draws of every kind the
harness makes: bounded integers (with a scalar and an array bound), uniforms,
normals and floats in [0, 1).  Keys cover seeds and frame indices of one,
two and three 32-bit words, and a range that crosses from one to two.
"""

import itertools
import random

import numpy as np
import pytest

from chirplink._keys import frame_generators

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**70)
FRAMES = (0, 31, 32, 2**32 - 1, 2**32, 2**40 + 7, 2**64 + 3)


def numpy_rng(key: list[int]) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(key))


def draws(rng: np.random.Generator, sf: int) -> list[np.ndarray]:
    """One of each draw the harness makes; the odd count of 32-bit bounded
    integers leaves a buffered half-word in the generator."""
    n = 1 << sf
    return [
        rng.integers(0, n, size=3),
        rng.uniform(0.0, 2.0 * np.pi, size=(2, 3)),
        rng.standard_normal(5),
        rng.random(4),
        rng.integers(0, np.array([n - 1, n - 2, 1, 7]), size=4),
    ]


def assert_numpy_keying(prefix: list[int], lo: int, hi: int, sf: int) -> None:
    frames = list(range(lo, hi))
    for frame, rng in zip(frames, frame_generators(prefix, lo, hi), strict=True):
        ref = numpy_rng(prefix + [frame])
        assert rng.bit_generator.state == ref.bit_generator.state, (prefix, frame)
        for got, want in zip(draws(rng, sf), draws(ref, sf)):
            np.testing.assert_array_equal(got, want)
        assert rng.bit_generator.state == ref.bit_generator.state, (prefix, frame)


@pytest.mark.parametrize("seed", SEEDS)
def test_frames_match_numpy_keying(seed):
    # each listed frame and the one after it, so every second frame follows
    # a frame that left a half-word buffered
    for scheme, sf, point in itertools.product(range(3), (6, 12), (0, 999)):
        for frame in FRAMES:
            assert_numpy_keying([seed, scheme, sf, point], frame, frame + 2, sf)


def test_random_keys_match_numpy_keying():
    keys = random.Random(24)
    for _ in range(200):
        sf = keys.randint(6, 12)
        prefix = [keys.getrandbits(keys.randint(1, 80)), keys.randrange(3), sf, keys.randrange(1000)]
        frame = keys.getrandbits(keys.randint(1, 48))
        assert_numpy_keying(prefix, frame, frame + 1, sf)


def test_a_range_across_a_word_boundary_matches_numpy_keying():
    assert_numpy_keying([5, 2, 9, 17], 2**32 - 20, 2**32 + 20, 9)


def test_empty_range_yields_nothing():
    assert list(frame_generators([1, 0, 7, 0], 10, 10)) == []


@pytest.mark.parametrize("prefix, lo", [([1, 0, 7], 0), ([1, 0, 7, 0], -1)])
def test_rejects_short_prefix_and_negative_frame(prefix, lo):
    with pytest.raises(ValueError):
        next(frame_generators(prefix, lo, lo + 1))
