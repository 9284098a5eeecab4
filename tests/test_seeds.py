import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridloop.seeds import seed_sequence, stream, stream_integers


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


def _per_stream(prefix, idx, high, size):
    """The reference: one Generator per stream, as stream_integers' contract reads."""
    highs = np.broadcast_to(high, np.shape(idx))
    return np.stack([stream(*prefix, int(i)).integers(0, int(h), size) for i, h in zip(idx, highs)])


# 0 and one-word seeds fill the pool with the "home" and index words; from
# 2**32 up the entropy outgrows SeedSequence's 4-word pool
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
    st.integers(0, 2**32 - 16),  # first stream index
    st.lists(st.integers(1, 28), min_size=1, max_size=12),  # one bound per stream
    st.sampled_from([1, 2, 7, 24, 31]),  # draws per stream
)
def test_stream_integers_match_numpy_streams(seed, offset, highs, size):
    idx = np.arange(offset, offset + len(highs))
    got = stream_integers((seed, "home"), idx, highs, size)
    want = _per_stream((seed, "home"), idx, highs, size)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stream_integers_match_numpy_through_rejections():
    # at high = 2**31 + 1 about half of all draws land in Lemire's rejection zone
    idx = np.arange(40)
    got = stream_integers((5, "tree"), idx, 2**31 + 1, 5)
    assert np.array_equal(got, _per_stream((5, "tree"), idx, 2**31 + 1, 5))
    assert np.array_equal(stream_integers((5,), idx, 2**32 - 1, 3), _per_stream((5,), idx, 2**32 - 1, 3))


def test_stream_integers_rejects_what_stream_rejects():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        stream(-1, "home", 0)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        stream_integers((-1, "home"), np.arange(3), 5, 2)
    with pytest.raises(TypeError):
        stream_integers((0, 1.5), np.arange(3), 5, 2)
    for high in (0, 2**32):
        with pytest.raises(ValueError, match="high must lie in"):
            stream_integers((0, "home"), np.arange(3), high, 2)
    for idx in ([-1, 0], [2**32]):
        with pytest.raises(ValueError, match="stream indices must lie in"):
            stream_integers((0, "home"), np.array(idx), 5, 2)
