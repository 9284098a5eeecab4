"""Deterministic, collision-free RNG streams.

Every random draw in the package is named by a tuple of ints and short
strings mixed through ``numpy.random.SeedSequence``, so runs are
reproducible end to end and independent stages never share or reorder
draws. Template synthesis and the training attacks draw from ``stream``;
the bootstrap's day picks and the forest's bootstrap rows and split
candidates draw through ``hash_integers``.

``hash_integers`` is counter-based (Salmon et al. 2011): draw ``j`` of
stream ``i`` is a pure function of (prefix, i, j), so a stream's draws do
not depend on how many streams or draws are taken beside it. One 64-bit
key is taken from ``seed_sequence(*prefix)``; the counter ``i << 32 | j``
is spread by SplitMix64's golden-ratio increment and mixed by its
finalizer (Steele, Lea and Flood 2014), and the top 32 bits are scaled to
``[0, high)`` by a multiply-shift, whose bias is at most ``high / 2**32``.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["hash_integers", "seed_sequence", "stream"]

_MASK32 = 0xFFFF_FFFF
# SplitMix64's counter increment (2**64 / golden ratio) and finalizer multipliers
_GOLDEN = np.uint64(0x9E37_79B9_7F4A_7C15)
_MIX_1, _MIX_2 = np.uint64(0xBF58_476D_1CE4_E5B9), np.uint64(0x94D0_49BB_1331_11EB)


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


def hash_integers(prefix: tuple, i, j, high) -> np.ndarray:
    """Draw ``j`` of stream ``i`` in ``[0, high)``, broadcast over ``i``, ``j`` and ``high``.

    Stream indices and draw counters lie in [0, 2**32), bounds in [1, 2**32);
    any of them may be empty. Pure uint64 array arithmetic in place, wrapping mod 2**64.
    """
    key = seed_sequence(*prefix).generate_state(1, np.uint64)[0]
    i, j, high = np.asarray(i), np.asarray(j), np.asarray(high)
    for name, a, lo in (("stream indices", i, 0), ("draw counters", j, 0), ("high", high, 1)):
        if np.any((a < lo) | (a > _MASK32)):
            raise ValueError(f"{name} must lie in [{lo}, 2**32)")
    z = np.empty(np.broadcast_shapes(i.shape, j.shape, high.shape), dtype=np.uint64)
    np.bitwise_or(i.astype(np.uint64) << 32, j.astype(np.uint64), out=z)
    z *= _GOLDEN
    z += key
    for shift, mix in ((30, _MIX_1), (27, _MIX_2)):
        z ^= z >> shift
        z *= mix
    z ^= z >> 31
    np.multiply(z >> 32, high.astype(np.uint64), out=z)
    z >>= 32
    return z.view(np.int64)
