"""Deterministic, collision-free RNG streams.

Every random draw in the package flows through a named stream derived from
``numpy.random.SeedSequence`` so that runs are reproducible end to end and
independent stages (template synthesis, per-home bootstrap, training-attack
magnitudes, forest bagging) never share or reorder draws.

``stream_integers`` draws from many streams ``stream(*prefix, i)`` at once.
It re-implements, in uint32/uint64 array arithmetic over all the streams,
the numpy algorithms those draws go through: ``SeedSequence``'s entropy
mixing and ``generate_state``, ``PCG64``'s seeding and XSL-RR 128/64 output
(O'Neill 2014), the low-then-high uint32 halves ``Generator.integers``
takes from each 64-bit output, and its Lemire (2019) multiply-shift
bounded draw. The result is bit-identical to calling ``stream(*prefix,
i).integers(0, high, size)`` per stream; ``tests/test_seeds.py`` pins that.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["seed_sequence", "stream", "stream_integers"]

_MASK32 = 0xFFFF_FFFF
# numpy.random.SeedSequence's hash constants and pool size
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier, as (high, low) 64-bit limbs
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341


def _key_to_int(key) -> int:
    """Map a stream key component to a stable non-negative integer."""
    if isinstance(key, (int, np.integer)):
        return int(key)
    if isinstance(key, str):
        # stable across processes (unlike hash())
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    raise TypeError(f"stream key must be int or str, got {type(key).__name__}")


def seed_sequence(*keys) -> np.random.SeedSequence:
    """Build a SeedSequence from a tuple of ints / short strings."""
    return np.random.SeedSequence([_key_to_int(k) for k in keys])


def stream(*keys) -> np.random.Generator:
    """A Generator on the stream named by ``keys``.

    Same keys -> bit-identical draw sequence, on any platform.
    """
    return np.random.default_rng(seed_sequence(*keys))


def _words(n: int) -> list[int]:
    """The little-endian uint32 words SeedSequence makes of one entropy int."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix; each call moves its multiplier one step on."""

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> 16

    return hashmix


def _mix(x, y):
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ r >> 16


def _seed_state(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` per column."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    # entropy longer than the pool is mixed into every pool word
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    halves = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]


def _mulhi(a: np.ndarray, b: int) -> np.ndarray:
    """The high 64 bits of ``a * b`` for uint64 ``a`` and a 64-bit constant ``b``."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = np.uint64(b & _MASK32), np.uint64(b >> 32)
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """PCG64's LCG step ``state * mult + inc`` (mod 2**128) on (hi, lo) limbs."""
    prod_hi = _mulhi(lo, _PCG_MULT_LO) + lo * np.uint64(_PCG_MULT_HI) + hi * np.uint64(_PCG_MULT_LO)
    prod_lo = lo * np.uint64(_PCG_MULT_LO)
    lo = prod_lo + inc_lo
    return prod_hi + inc_hi + (lo < prod_lo), lo


def stream_integers(prefix: tuple, idx, high, size: int) -> np.ndarray:
    """``np.stack([stream(*prefix, i).integers(0, high_i, size) for i in idx])``.

    ``idx`` is a non-empty 1-d array of stream indices in [0, 2**32) and
    ``high`` the exclusive bound of each stream (a scalar or one per
    index), in [1, 2**32). All streams are seeded and drawn at once; a
    stream whose draw lands in Lemire's rejection zone (under 2**-32 * high
    per draw) is redrawn with ``stream``, so every row equals numpy's.
    """
    keys = [w for key in prefix for w in _words(_key_to_int(key))]
    idx = np.asarray(idx)
    if idx.min() < 0 or idx.max() > _MASK32:
        raise ValueError("stream indices must lie in [0, 2**32)")
    high = np.broadcast_to(np.asarray(high), idx.shape)
    if high.min() < 1 or high.max() > _MASK32:
        raise ValueError("high must lie in [1, 2**32)")
    high = high.astype(np.uint64)

    entropy = [np.full(idx.shape, w, dtype=np.uint32) for w in keys] + [idx.astype(np.uint32)]
    s0, s1, s2, s3 = _seed_state(entropy)
    # pcg_setseq_128_srandom_r: inc = seq << 1 | 1; state = inc + initstate, stepped
    inc_hi, inc_lo = s2 << 1 | s3 >> 63, s3 << 1 | 1
    lo = inc_lo + s1
    hi, lo = _pcg_step(inc_hi + s0 + (lo < s1), lo, inc_hi, inc_lo)
    raw = np.empty((idx.size, -(-size // 2)), dtype="<u8")
    for k in range(raw.shape[1]):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        rot = hi >> 58
        xored = hi ^ lo
        raw[:, k] = xored >> rot | xored << (64 - rot & 63)
    # each 64-bit output serves two uint32 draws, low half first
    scaled = raw.view("<u4")[:, :size].astype("<u8")
    del raw
    # Lemire: the draw is the high word of draw * high, rejected if the low word is under threshold
    scaled *= high[:, None]
    words = scaled.view("<u4")
    threshold = ((2**32 - high) % high).astype(np.uint32)
    redraw = np.flatnonzero((words[:, 0::2] < threshold[:, None]).any(axis=1))
    out = words[:, 1::2].astype(np.int64)
    for r in redraw:
        out[r] = stream(*prefix, int(idx[r])).integers(0, int(high[r]), size)
    return out
