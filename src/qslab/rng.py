"""Deterministic counter-based random streams for reproducible parallel runs.

Every stochastic consumer in the package draws from a Philox4x64-10 stream
keyed by (master seed, purpose, index): key word 0 is the master seed
modulo 2^64, key word 1 is (purpose << 48) | index.  Streams are independent
by key, so results never depend on worker count or on how work is chunked,
only on the indices.

Philox is counter-based (Salmon, Moraes, Dror & Shaw, SC 2011), so any
word of any stream can be computed without running the stream up to it.
Position j of a stream (0-based, counting the 64-bit words its generator
has handed out) is lane j mod 4 of Philox at counter (j // 4 + 1, 0, 0, 0):
numpy bumps the counter before it computes each block of four words.  The
j-th uniform of `stream(...).random()` is (word_j >> 11) * 2^-53.
`uniforms` computes these for many (key, position) rows at once, so
per-trajectory draws need no Generator object; `stream` stays for single
consumers and is the reference the block function is tested against.
"""

import numpy as np

# Purpose tags keep unrelated pipeline stages on disjoint keys; adding a new
# consumer must use a fresh tag instead of sharing an existing stream.
MISC = 0
TRAJECTORY = 1
RESAMPLE = 2
BOOTSTRAP = 3
SAMPLING = 4
WALK = 5

_INDEX_BITS = 48
_MASK64 = 0xFFFFFFFFFFFFFFFF

# the key alone determines the Philox output; seeding through a fixed
# SeedSequence skips the OS-entropy draw the keyed constructor would waste
_ZERO_SEED = np.random.SeedSequence(0)

# Philox4x64 round multipliers (split into 32-bit halves, so every partial
# product fits in 64 bits) and Weyl key increments, for lanes (0, 2) and the
# key words (0, 1)
_MUL = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_MUL_LO, _MUL_HI = _MUL & _LOW32, _MUL >> _SHIFT32
_WEYL = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]],
                 dtype=np.uint64)
_ROUNDS = 10
_TO_UNIT = 1.0 / 9007199254740992.0  # 2^-53


def keys(master_seed: int, purpose: int, indices) -> np.ndarray:
    """Philox keys of the streams (master_seed, purpose, i) for i in
    `indices`, shape (len(indices), 2) of uint64."""
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= (1 << _INDEX_BITS)):
        raise ValueError(f"stream index out of range [0, 2^{_INDEX_BITS})")
    if not 0 <= purpose < (1 << (64 - _INDEX_BITS)):
        raise ValueError(f"purpose tag {purpose} out of range")
    out = np.empty((idx.size, 2), dtype=np.uint64)
    out[:, 0] = master_seed & _MASK64
    out[:, 1] = idx.astype(np.uint64) | np.uint64(purpose << _INDEX_BITS)
    return out


def stream(master_seed: int, purpose: int, index: int = 0) -> np.random.Generator:
    """Generator keyed by (seed, purpose, index); bit-reproducible everywhere."""
    key = keys(master_seed, purpose, [index])[0]
    bg = np.random.Philox(_ZERO_SEED)
    state = bg.state
    state["state"]["key"][:] = key
    state["state"]["counter"][:] = 0
    bg.state = state
    return np.random.Generator(bg)


def _philox(key: np.ndarray, ctr: np.ndarray) -> np.ndarray:
    """Philox4x64-10 blocks at counters (ctr, 0, 0, 0) under the rows of
    `key` (shape (m, 2)); returns the four words of each, shape (m, 4).

    Lanes 0 and 2 are multiplied and lanes 1 and 3 carried, each pair as
    one (2, m) array; the 128-bit products come from 32-bit halves."""
    x02 = np.zeros((2, ctr.size), dtype=np.uint64)
    x02[0] = ctr
    x13 = np.zeros_like(x02)
    k = np.ascontiguousarray(key.T)
    lo32, hi32 = np.empty_like(x02), np.empty_like(x02)
    t, u, w, hi = (np.empty_like(x02) for _ in range(4))
    for r in range(_ROUNDS):
        # hi = high word of x * MUL, by schoolbook on 32-bit halves
        np.bitwise_and(x02, _LOW32, out=lo32)
        np.right_shift(x02, _SHIFT32, out=hi32)
        np.multiply(lo32, _MUL_LO, out=t)
        t >>= _SHIFT32
        np.multiply(hi32, _MUL_LO, out=u)
        u += t
        np.bitwise_and(u, _LOW32, out=w)
        np.multiply(lo32, _MUL_HI, out=t)
        w += t
        np.multiply(hi32, _MUL_HI, out=hi)
        u >>= _SHIFT32
        hi += u
        w >>= _SHIFT32
        hi += w
        # (c0, c1, c2, c3) <- (hi2 ^ c1 ^ k0, lo2, hi0 ^ c3 ^ k1, lo0)
        x13 ^= k
        hi ^= x13[::-1]
        x02 *= _MUL                  # the low words, modulo 2^64
        x13 = x02[::-1].copy()
        x02[:] = hi[::-1]
        if r + 1 < _ROUNDS:
            k += _WEYL
    return np.stack([x02[0], x13[0], x02[1], x13[1]], axis=1)


def uniforms(key: np.ndarray, starts, count: int) -> np.ndarray:
    """Uniforms of many keyed streams at once: row r holds the `count`
    values that successive `random()` calls of the stream with key
    `key[r]` (see `keys`) return from word position `starts[r]` on (the
    first call of a fresh stream reads position 0).  Shape (rows, count)."""
    n = key.shape[0]
    starts = np.broadcast_to(np.asarray(starts, dtype=np.int64), (n,))
    if n == 0:
        return np.empty((0, count))
    first, lane = np.divmod(starts, 4)
    n_blocks = (int(lane.max()) + count + 3) // 4
    ctr = (first[:, None] + np.arange(1, n_blocks + 1)).astype(np.uint64)
    words = _philox(np.repeat(key, n_blocks, axis=0),
                    ctr.reshape(-1)).reshape(n, 4 * n_blocks)
    if (lane == lane[0]).all():
        words = words[:, lane[0]:lane[0] + count]
    else:
        words = words[np.arange(n)[:, None], lane[:, None] + np.arange(count)]
    return (words >> np.uint64(11)).astype(np.float64) * _TO_UNIT


def position(gen: np.random.Generator) -> tuple[np.ndarray, int]:
    """Key and word position of a Philox generator: `uniforms(key[None],
    [pos], k)` gives the next k values its `random()` calls would return.
    The generator itself is not advanced."""
    state = gen.bit_generator.state
    if state.get("bit_generator") != "Philox":
        raise TypeError("keyed draws need a Philox generator, got "
                        f"{state.get('bit_generator')}")
    if state["has_uint32"]:
        raise TypeError("the Philox generator holds half a word from a "
                        "32-bit draw; its position is not a word boundary")
    ctr = [int(c) for c in state["state"]["counter"]]
    pos = 4 * (ctr[0] - 1) + int(state["buffer_pos"])
    if any(ctr[1:]) or pos < 0:
        raise ValueError(f"Philox counter {ctr} outside the supported range")
    return state["state"]["key"].astype(np.uint64), pos
