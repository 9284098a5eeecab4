"""Deterministic, collision-free RNG streams.

Every random draw in the package flows through a named stream derived from
``numpy.random.SeedSequence`` so that runs are reproducible end to end and
independent stages (template synthesis, per-home bootstrap, training-attack
magnitudes, forest bagging) never share or reorder draws.

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


def hash_integers(prefix: tuple, idx, high, size: int) -> np.ndarray:
    """Draws in ``[0, high_r)``: row r holds draws 0..size-1 of stream ``idx[r]``.

    ``idx`` is a non-empty 1-d array of stream indices in [0, 2**32) and
    ``high`` the exclusive bound of each stream (a scalar or one per
    index), in [1, 2**32). Pure uint64 array arithmetic, wrapping mod 2**64.
    """
    key = seed_sequence(*prefix).generate_state(1, np.uint64)[0]
    idx = np.asarray(idx)
    if idx.min() < 0 or idx.max() > _MASK32:
        raise ValueError("stream indices must lie in [0, 2**32)")
    high = np.broadcast_to(np.asarray(high), idx.shape)
    if high.min() < 1 or high.max() > _MASK32:
        raise ValueError("high must lie in [1, 2**32)")
    z = (idx.astype(np.uint64)[:, None] << 32 | np.arange(size, dtype=np.uint64)) * _GOLDEN + key
    z = (z ^ z >> 30) * _MIX_1
    z = (z ^ z >> 27) * _MIX_2
    z = (z ^ z >> 31) >> 32
    return (z * high.astype(np.uint64)[:, None] >> 32).view(np.int64)
