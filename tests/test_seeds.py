import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridloop.seeds import hash_integers, seed_sequence, stream


def test_same_keys_same_stream():
    a = stream(7, "home", 3).random(8)
    b = stream(7, "home", 3).random(8)
    assert np.array_equal(a, b)


def test_different_keys_diverge():
    a = stream(7, "home", 3).random(8)
    b = stream(7, "home", 4).random(8)
    c = stream(8, "home", 3).random(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_label_matters():
    # distinct string labels carve out independent streams for the same ints
    a = stream(0, "home", 1).random(4)
    b = stream(0, "tree", 1).random(4)
    assert not np.array_equal(a, b)


def test_string_key_is_not_its_hash_collision():
    # a string key and a plain int key must not alias each other
    a = stream(0, 1).random(4)
    b = stream(0, "1").random(4)
    assert not np.array_equal(a, b)


def test_generate_state_deterministic():
    s1 = int(seed_sequence(0, "grid", 2).generate_state(1)[0])
    s2 = int(seed_sequence(0, "grid", 2).generate_state(1)[0])
    assert s1 == s2
    assert 0 <= s1 < 2**32


@given(st.integers(0, 2**31), st.integers(0, 1000))
def test_streams_reproducible_property(seed, idx):
    assert stream(seed, "x", idx).random() == stream(seed, "x", idx).random()


def test_rejects_unhashable_key_types():
    with pytest.raises(TypeError):
        seed_sequence(0, [1, 2])


_M64 = 2**64 - 1


def _splitmix_pick(key, i, j, high):
    """SplitMix64 (Steele, Lea and Flood 2014) on Python ints: draw j of stream i."""
    z = (key + ((i << 32) | j) * 0x9E3779B97F4A7C15) & _M64
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 & _M64
    z = (z ^ z >> 27) * 0x94D049BB133111EB & _M64
    z ^= z >> 31
    return (z >> 32) * high >> 32


# 0, one-word seeds, two-word seeds and seeds of three words and more
_SEEDS = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**80),
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(
    _SEEDS,
    st.one_of(st.integers(0, 2**20), st.integers(2**32 - 40, 2**32 - 12)),  # first stream index
    st.lists(st.integers(1, 28), min_size=1, max_size=12),  # one bound per stream
    st.sampled_from([1, 2, 7, 24, 31]),  # draws per stream
)
def test_hash_integers_match_the_splitmix_reference(seed, offset, highs, size):
    key = int(seed_sequence(seed, "home").generate_state(1, np.uint64)[0])
    idx = np.arange(offset, offset + len(highs))
    got = hash_integers((seed, "home"), idx[:, None], np.arange(size), np.array(highs)[:, None])
    want = [[_splitmix_pick(key, int(i), j, h) for j in range(size)] for i, h in zip(idx, highs)]
    assert got.dtype == np.int64
    assert got.tolist() == want


def test_hash_integers_do_not_depend_on_their_neighbours():
    alone = hash_integers((3, "home"), 5, np.arange(4), 28)
    assert np.array_equal(alone, hash_integers((3, "home"), np.arange(10)[:, None], np.arange(7), 28)[5, :4])


def test_hash_integers_are_uniform():
    # chi-square against uniform over 28 blocks: each draw, and each pair of successive draws
    picks = hash_integers((20190927, "home"), np.arange(3226)[:, None], np.arange(31), 28)
    assert picks.min() == 0 and picks.max() == 27

    def chi2(cells, n):
        counts = np.bincount(cells.ravel(), minlength=n)
        expected = cells.size / n
        return float(((counts - expected) ** 2 / expected).sum())

    # 27 and 783 degrees of freedom; each bound is about 6 standard deviations above its mean
    assert chi2(picks, 28) < 27 + 6 * np.sqrt(2 * 27)
    assert chi2(picks[:, :-1] * 28 + picks[:, 1:], 28 * 28) < 783 + 6 * np.sqrt(2 * 783)


def test_hash_integers_reject_what_stream_rejects():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        stream(-1, "home", 0)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        hash_integers((-1, "home"), np.arange(3), 0, 5)
    with pytest.raises(TypeError):
        hash_integers((0, 1.5), np.arange(3), 0, 5)
    for high in (0, 2**32):
        with pytest.raises(ValueError, match="high must lie in"):
            hash_integers((0, "home"), np.arange(3), 0, high)
    for idx in ([-1, 0], [2**32]):
        with pytest.raises(ValueError, match="stream indices must lie in"):
            hash_integers((0, "home"), np.array(idx), 0, 5)
    for j in ([-1, 0], [2**32]):
        with pytest.raises(ValueError, match="draw counters must lie in"):
            hash_integers((0, "home"), 0, np.array(j), 5)


def test_hash_integers_broadcast_and_take_empty_arrays():
    grid = hash_integers((4, "x"), np.arange(3)[:, None], np.arange(5), [[2], [9], [30]])
    assert grid.shape == (3, 5)
    assert grid[1, 3] == hash_integers((4, "x"), [1], [3], 9)[0]
    empty = hash_integers((4, "x"), np.zeros((0, 1), dtype=int), np.arange(5), 7)
    assert empty.shape == (0, 5) and empty.dtype == np.int64
