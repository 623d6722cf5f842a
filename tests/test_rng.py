"""Keyed Philox blocks against numpy's own Philox generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qslab import rng as rngmod

PURPOSES = [rngmod.MISC, rngmod.TRAJECTORY, rngmod.RESAMPLE,
            rngmod.BOOTSTRAP, rngmod.SAMPLING, rngmod.WALK]
LAST_INDEX = (1 << 48) - 1


def _scalar(gen, start, count):
    """`count` uniforms of `gen` after skipping `start` of them."""
    gen.random(start)
    return gen.random(count)


@pytest.mark.parametrize("seed", [0, 977, (1 << 63) + 5, (1 << 64) - 1])
@pytest.mark.parametrize("index", [0, 1, LAST_INDEX])
def test_uniforms_match_stream(seed, index):
    """Every purpose tag, the first and last index, master seeds at and
    past 2^63, starts off the 4-word block grid and counts that cross
    several blocks."""
    for purpose in PURPOSES:
        key = rngmod.keys(seed, purpose, [index])
        for start, count in ((0, 1), (0, 4), (1, 3), (3, 2), (5, 9),
                             (66, 70)):
            want = _scalar(rngmod.stream(seed, purpose, index), start, count)
            got = rngmod.uniforms(key, [start], count)
            assert got.shape == (1, count)
            assert np.array_equal(got[0], want)


@settings(max_examples=40, deadline=None)
@given(k0=st.integers(0, (1 << 64) - 1), k1=st.integers(0, (1 << 64) - 1),
       start=st.integers(0, 300), count=st.integers(1, 40))
def test_uniforms_match_philox_under_random_keys(k0, k1, start, count):
    gen = np.random.Generator(np.random.Philox(
        key=np.array([k0, k1], dtype=np.uint64)))
    key = np.array([[k0, k1]], dtype=np.uint64)
    assert np.array_equal(rngmod.uniforms(key, start, count)[0],
                          _scalar(gen, start, count))


def test_rows_with_mixed_starts():
    """One call serves rows at unrelated positions; a scalar start applies
    to every row."""
    n = 60
    starts = np.random.default_rng(4).integers(0, 500, n)
    key = rngmod.keys(31, rngmod.TRAJECTORY, np.arange(n) + 1000)
    got = rngmod.uniforms(key, starts, 13)
    for i in range(n):
        gen = rngmod.stream(31, rngmod.TRAJECTORY, 1000 + i)
        assert np.array_equal(got[i], _scalar(gen, int(starts[i]), 13))
    same = rngmod.uniforms(key, 7, 5)
    assert np.array_equal(same, rngmod.uniforms(key, np.full(n, 7), 5))


def test_position_of_a_stream_partway():
    gen = rngmod.stream(8, rngmod.TRAJECTORY, 3)
    for skip in (0, 1, 2, 3, 4, 7):
        gen.random(skip)
        key, pos = rngmod.position(gen)
        ahead = rngmod.uniforms(key[None, :], pos, 6)[0]
        assert np.array_equal(ahead, gen.random(6))


def test_position_refuses_other_generators():
    with pytest.raises(TypeError, match="Philox"):
        rngmod.position(np.random.default_rng(0))
    gen = rngmod.stream(0, rngmod.MISC, 0)
    gen.random(dtype=np.float32)   # a 32-bit draw leaves half a word
    with pytest.raises(TypeError, match="half a word"):
        rngmod.position(gen)


def test_key_ranges_are_checked():
    with pytest.raises(ValueError, match="index"):
        rngmod.keys(0, rngmod.TRAJECTORY, [LAST_INDEX + 1])
    with pytest.raises(ValueError, match="index"):
        rngmod.keys(0, rngmod.TRAJECTORY, [-1])
    with pytest.raises(ValueError, match="purpose"):
        rngmod.keys(0, 1 << 16, [0])
