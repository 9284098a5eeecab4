import errno
import hashlib
import math
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gridloop import classifiers
from gridloop.classifiers import (
    _BATCH_ROWS,
    GaussianNaiveBayes,
    LogisticRegression,
    RandomForest,
)
from gridloop.detect import build_training_set, make_features
from gridloop.seeds import hash_integers


def _blobs(n=60, gap=8.0, sd=0.5, seed=17, d=2):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(0.0, sd, size=(n, d))
    X1 = rng.normal(gap, sd, size=(n, d))
    X = np.vstack([X0, X1])
    y = np.concatenate([np.zeros(n, dtype=int), np.ones(n, dtype=int)])
    perm = rng.permutation(len(y))
    return X[perm], y[perm]


ALL_MODELS = [
    lambda: LogisticRegression(),
    lambda: GaussianNaiveBayes(),
    lambda: RandomForest(n_trees=25, seed=1),
]


@pytest.mark.parametrize("factory", ALL_MODELS)
def test_separable_blobs(factory):
    X, y = _blobs()
    Xt, yt = _blobs(seed=18)
    model = factory().fit(X, y)
    scores = model.predict_score(X)
    assert np.all((scores >= 0) & (scores <= 1))
    # boundary-hugging cuts may shave an out-of-bag point or two
    assert np.mean((scores >= 0.5) == y) >= 0.98
    assert np.mean((model.predict_score(Xt) >= 0.5) == yt) >= 0.95


@pytest.mark.parametrize("factory", ALL_MODELS)
def test_fit_is_deterministic(factory):
    X, y = _blobs(seed=19)
    s1 = factory().fit(X, y).predict_score(X)
    s2 = factory().fit(X, y).predict_score(X)
    assert np.array_equal(s1, s2)


@pytest.mark.parametrize("factory", ALL_MODELS)
def test_constant_column_dropped_with_warning(factory):
    X, y = _blobs(seed=20)
    X = np.column_stack([X, np.full(len(y), 7.0)])
    with pytest.warns(UserWarning, match="constant feature"):
        model = factory().fit(X, y)
    scores = model.predict_score(X)
    assert np.mean((scores >= 0.5) == y) == 1.0


@pytest.mark.parametrize("factory", ALL_MODELS)
def test_all_constant_rejected(factory):
    X = np.full((20, 3), 2.0)
    y = np.array([0, 1] * 10)
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError, match="all feature columns are constant"):
            factory().fit(X, y)


@pytest.mark.parametrize("factory", ALL_MODELS)
def test_label_validation(factory):
    X = np.random.default_rng(0).normal(size=(10, 2))
    with pytest.raises(ValueError, match="0 or 1"):
        factory().fit(X, np.array([0, 2] * 5))
    with pytest.raises(ValueError, match="both classes"):
        factory().fit(X, np.zeros(10, dtype=int))
    with pytest.raises(ValueError, match="2-d"):
        factory().fit(X[:, 0], np.array([0, 1] * 5))
    with pytest.raises(ValueError, match="one label per row"):
        factory().fit(X, np.array([0, 1] * 3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("factory", ALL_MODELS)
def test_non_finite_features_rejected(factory, bad):
    X, y = _blobs(seed=43)
    X[5, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        factory().fit(X, y)


# ---------------------------------------------------------------------------
# logistic regression specifics

def test_logreg_scores_monotone_in_a_separating_feature():
    x = np.linspace(-2, 2, 40)
    y = (x > 0).astype(int)
    model = LogisticRegression().fit(x[:, None], y)
    scores = model.predict_score(np.linspace(-3, 3, 21)[:, None])
    assert np.all(np.diff(scores) >= 0)
    assert model.n_epochs_ >= 1


def test_logreg_l2_shrinks_weights(monkeypatch):
    X, y = _blobs(seed=23)
    monkeypatch.setattr(LogisticRegression, "l2", 0.01)
    loose = LogisticRegression().fit(X, y)
    monkeypatch.setattr(LogisticRegression, "l2", 100.0)
    tight = LogisticRegression().fit(X, y)
    assert np.linalg.norm(tight.weights) < np.linalg.norm(loose.weights)


def _penalized_gradient(X, y, l2, w, b):
    """Gradient of mean log(1 + exp(-s·m)) + l2/(2n)·|w|² over (w, b), s = 2y - 1."""
    n = len(y)
    Z = (X - X.mean(axis=0)) / X.std(axis=0)
    p = 1.0 / (1.0 + np.exp(-(Z @ w + b)))
    return np.append(Z.T @ (p - y) / n + l2 * w / n, np.mean(p - y))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(20, 400),
    d=st.integers(1, 10),
    l2=st.floats(0.01, 100.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_logreg_fit_reaches_the_penalized_optimum(n, d, l2, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, d) + rng.normal(0.0, 5.0, d)
    Z = (X - X.mean(axis=0)) / X.std(axis=0)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-Z @ rng.normal(0.0, 2.0, d)))).astype(int)
    assume(0 < y.sum() < n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LogisticRegression, "l2", l2)
        model = LogisticRegression().fit(X, y)
    assert model.converged_
    assert model.n_epochs_ < model.max_epochs
    grad = _penalized_gradient(X, y, l2, model.weights, model.bias)
    assert np.abs(grad).max() <= 1e-6


def test_logreg_converges_fast_on_lagged_features():
    X, y, _ = _lagged_case()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = LogisticRegression().fit(X, y)
    assert model.converged_
    assert model.n_epochs_ <= 20
    grad = _penalized_gradient(X[:, model.kept], y, model.l2, model.weights, model.bias)
    assert np.abs(grad).max() <= 1e-6


def test_logreg_separable_data_with_a_tiny_penalty(monkeypatch):
    X, y = _blobs(seed=48, d=3)
    monkeypatch.setattr(LogisticRegression, "l2", 1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow in the fit
        model = LogisticRegression().fit(X, y)
    assert np.all(np.isfinite(model.weights)) and np.isfinite(model.bias)
    assert model.n_epochs_ <= model.max_epochs
    assert np.all(model.weights > 0)
    line = np.linspace(X.min(), X.max(), 41)[:, None] * np.ones(3)
    assert np.all(np.diff(model.predict_score(line)) >= 0)
    assert np.mean((model.predict_score(X) >= 0.5) == y) == 1.0


def test_logreg_stops_at_max_epochs_without_converging(monkeypatch):
    X, y = _blobs(seed=49, gap=1.0, sd=1.5)
    monkeypatch.setattr(LogisticRegression, "max_epochs", 1)
    model = LogisticRegression().fit(X, y)
    assert (model.n_epochs_, model.converged_) == (1, False)
    assert np.all(np.isfinite(model.weights))


@pytest.mark.parametrize("failure", ["singular", "non-finite"])
def test_logreg_failed_solve_keeps_the_last_finite_weights(monkeypatch, failure):
    X, y = _blobs(seed=50, gap=1.0, sd=1.5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LogisticRegression, "max_epochs", 1)
        one_step = LogisticRegression().fit(X, y)
    solve, calls = np.linalg.solve, []

    def failing_solve(H, g):
        calls.append(1)
        if len(calls) == 1:
            return solve(H, g)
        if failure == "singular":
            raise np.linalg.LinAlgError("Singular matrix")
        return np.full_like(g, np.nan)

    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    model = LogisticRegression().fit(X, y)
    assert (model.n_epochs_, model.converged_) == (1, False)
    assert np.array_equal(model.weights, one_step.weights)
    assert model.bias == one_step.bias


# ---------------------------------------------------------------------------
# naive Bayes specifics

def test_gnb_midpoint_is_even_odds():
    X = np.concatenate([np.zeros(50), np.full(50, 10.0)])[:, None]
    y = np.array([0] * 50 + [1] * 50)
    model = GaussianNaiveBayes().fit(X, y)
    assert model.predict_score(np.array([[5.0]]))[0] == 0.5
    assert model.predict_score(np.array([[0.0]]))[0] < 1e-12
    assert model.predict_score(np.array([[10.0]]))[0] > 1 - 1e-12
    assert model.priors.tolist() == [0.5, 0.5]


def test_gnb_unbalanced_priors():
    X = np.concatenate([np.zeros(30), np.full(10, 10.0)])[:, None]
    y = np.array([0] * 30 + [1] * 10)
    model = GaussianNaiveBayes().fit(X, y)
    assert model.priors.tolist() == [0.75, 0.25]
    # prior tilts the midpoint toward the majority class
    assert model.predict_score(np.array([[5.0]]))[0] < 0.5


def test_gnb_survives_within_class_constant_feature():
    rng = np.random.default_rng(24)
    informative = np.concatenate([rng.normal(0, 1, 30), rng.normal(6, 1, 30)])
    half_constant = np.concatenate([np.zeros(30), rng.normal(1, 1, 30)])
    X = np.column_stack([informative, half_constant])
    y = np.array([0] * 30 + [1] * 30)
    scores = GaussianNaiveBayes().fit(X, y).predict_score(X)
    assert np.all(np.isfinite(scores))
    assert np.mean((scores >= 0.5) == y) >= 0.95


# ---------------------------------------------------------------------------
# random forest specifics

def test_forest_seed_controls_bagging():
    X, y = _blobs(seed=25, gap=2.0, sd=1.5)
    a = RandomForest(n_trees=30, seed=7).fit(X, y).predict_score(X)
    b = RandomForest(n_trees=30, seed=8).fit(X, y).predict_score(X)
    assert not np.array_equal(a, b)


def test_forest_scores_are_vote_fractions():
    X, y = _blobs(seed=26, gap=2.0, sd=1.5)
    scores = RandomForest(n_trees=40, seed=3).fit(X, y).predict_score(X)
    votes = scores * 40
    assert np.allclose(votes, np.rint(votes), atol=1e-9)


def test_forest_invariant_to_monotone_transforms():
    X, y = _blobs(seed=27, gap=3.0, sd=1.0, d=3)
    probe = np.random.default_rng(28).normal(1.5, 2.0, size=(50, 3))
    raw = RandomForest(n_trees=20, seed=5).fit(X, y).predict_score(probe)
    cubed = RandomForest(n_trees=20, seed=5).fit(X**3, y).predict_score(probe**3)
    assert np.array_equal(raw, cubed)


def test_forest_single_tree():
    X, y = _blobs(seed=29)
    scores = RandomForest(n_trees=1, seed=0).fit(X, y).predict_score(X)
    assert set(np.unique(scores)) <= {0.0, 1.0}


def test_forest_handles_many_distinct_values():
    # forces the 256-cut quantile binning path
    rng = np.random.default_rng(30)
    x = rng.normal(size=2000)
    y = (x > 0).astype(int)
    model = RandomForest(n_trees=10, seed=2).fit(x[:, None], y)
    acc = np.mean((model.predict_score(x[:, None]) >= 0.5) == y)
    assert acc >= 0.98


def test_forest_validation():
    with pytest.raises(ValueError, match="n_trees"):
        RandomForest(n_trees=0)


# ---------------------------------------------------------------------------
# golden forest: the grown trees and scores are pinned bit for bit


def _lagged_case():
    rng = np.random.default_rng(31)
    hours = np.arange(14 * 24)
    series = 100.0 + 30.0 * np.sin(2 * np.pi * hours / 24) + rng.normal(0.0, 5.0, len(hours))
    # the nominal series and its attacked copy, lagged as one series across the seam
    attacked, labels = build_training_set(series, np.random.default_rng(32))
    X = make_features(np.concatenate([series, attacked]), lags=24)
    y = np.concatenate([np.zeros(len(series), dtype=np.int8), labels])[24:]
    return X, y, dict(n_trees=20, seed=33)


def _lagged_two_batches_case():
    X, y, params = _lagged_case()
    assert 60 > _BATCH_ROWS // len(y)  # more than one batch, so more than one worker may grow it
    return X, y, dict(params, n_trees=60)


def _many_values_case():
    rng = np.random.default_rng(34)
    X = rng.normal(size=(2000, 2))
    y = (X[:, 0] + 0.5 * rng.normal(size=2000) > 0).astype(int)
    return X, y, dict(n_trees=10, seed=35)


def _constant_column_case():
    X, y = _blobs(seed=36, gap=2.0, sd=1.5, d=3)
    return np.column_stack([X[:, :1], np.full(len(y), 7.0), X[:, 1:]]), y, dict(n_trees=15, seed=37)


def _single_tree_case():
    X, y = _blobs(seed=38, gap=1.5, sd=1.5, d=4)
    return X, y, dict(n_trees=1, seed=39)


# sha256 of the tree arrays and of predict_score on a probe set, per case
GOLDEN_FORESTS = {
    "lagged_24": (
        _lagged_case,
        "e5a14afb359091e905daa4181f670c87fb65850a1b02260d340b2a47e63fe6e3",
        "12f54f5fc17ac59a78d5e5a0601254739ac4b12b3adb9c66bba1cc965c03a891",
    ),
    # computed by a serial fit, before the forest's trees were split among processes
    "lagged_24_two_batches": (
        _lagged_two_batches_case,
        "73c252545df2de8315cdb0b68f51d5b7d05a7339acabfb0a36178e7583988a00",
        "1686efba0b04a2f381c1e999df11f04fbc0d747e51f2944c14b8fbe346d5b8c1",
    ),
    "many_values": (
        _many_values_case,
        "a557d8f91038122e0e4fb76e4096675bdc532a731283bc23d427dd021aebfc8e",
        "961af0b80a53028656729b483596e60fc04ef35f54a77f47240872c6d55ccc07",
    ),
    "constant_column": (
        _constant_column_case,
        "00e1471aa9fe7ee3e936eb01630ed1469c49d5dc78e88dfd29090add10688475",
        "714f616f039ae97083b3dfb61fc7086fa0d52fd3e540f2cc017cc01e52008689",
    ),
    "single_tree": (
        _single_tree_case,
        "1c48675611ba030b1f7150ba762bfe357f94649a25d0891846fad29856a06363",
        "b18512be1183535549325c707b4dae2505e00a36dbe686a05e0cdc333cba40f4",
    ),
}


def _forest_digests(case):
    X, y, params = case()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = RandomForest(**params).fit(X, y)
    trees = hashlib.sha256()
    for tree in model.trees:
        for key in ("feature", "threshold", "left", "right", "vote"):
            trees.update(key.encode() + tree[key].dtype.str.encode() + tree[key].tobytes())
    probe = np.random.default_rng(42).normal(X.mean(axis=0), 2.0 * X.std(axis=0), size=(500, X.shape[1]))
    probe[::7] = X[: len(probe[::7])]
    scores = hashlib.sha256(model.predict_score(probe).tobytes())
    return trees.hexdigest(), scores.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_FORESTS))
def test_forest_golden_trees_and_scores(name):
    case, tree_digest, score_digest = GOLDEN_FORESTS[name]
    assert _forest_digests(case) == (tree_digest, score_digest)


# ---------------------------------------------------------------------------
# lockstep growth: a tree does not depend on the batch it grew in


def _assert_same_trees(a, b):
    assert len(a) == len(b)
    for ta, tb in zip(a, b):
        for key in ("feature", "threshold", "left", "right", "vote"):
            assert ta[key].dtype == tb[key].dtype, key
            assert np.array_equal(ta[key], tb[key]), key


def test_forest_first_trees_do_not_depend_on_the_batch(monkeypatch):
    X, y = _blobs(n=1500, seed=44, gap=1.5, sd=1.5, d=4)
    batch = _BATCH_ROWS // len(y)
    assert batch > 2
    full = RandomForest(n_trees=batch + 3, seed=45).fit(X, y)
    for k in (1, batch - 1, batch, batch + 1):
        _assert_same_trees(RandomForest(n_trees=k, seed=45).fit(X, y).trees, full.trees[:k])
    # every tree grown alone, in a batch of one
    monkeypatch.setattr(classifiers, "_BATCH_ROWS", 1)
    _assert_same_trees(RandomForest(n_trees=batch + 3, seed=45).fit(X, y).trees, full.trees)


def test_forest_fit_memory_stays_in_budget(monkeypatch):
    # tracemalloc sees only this process, so the whole fit grows here
    monkeypatch.setattr(classifiers, "_usable_cores", lambda: 1)
    # noisy labels grow deep, bushy trees: many open nodes per level
    rng = np.random.default_rng(46)
    X = rng.normal(size=(5000, 24))
    y = rng.integers(0, 2, size=5000)
    n_trees = _BATCH_ROWS // len(y) + 1  # two batches
    # the first fit in a process fills numpy's lazy caches; keep them out of the count
    RandomForest(n_trees=2, seed=47).fit(X[:200], y[:200])
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        RandomForest(n_trees=n_trees, seed=47).fit(X, y)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


# ---------------------------------------------------------------------------
# the trees split among forked workers: the same trees, and no child left


def _worker_case():
    X, y = _blobs(n=1500, seed=44, gap=1.5, sd=1.5, d=4)
    n_trees = 2 * (_BATCH_ROWS // len(y)) + 3  # three batches, the last shorter; 2 and 3 do not divide it
    return X, y, n_trees


@pytest.fixture
def forks(monkeypatch):
    """Count the fit's calls of ``os.fork``."""
    calls = []
    real_fork = os.fork

    def fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return calls


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_forest_worker_count_does_not_change_a_tree(monkeypatch, forks, cores):
    X, y, n_trees = _worker_case()
    monkeypatch.setattr(classifiers, "_usable_cores", lambda: cores)
    model = RandomForest(n_trees=n_trees, seed=45).fit(X, y)
    assert len(forks) == cores - 1
    _assert_no_child()
    # every tree grown alone, in a batch of one, in this process
    monkeypatch.setattr(classifiers, "_usable_cores", lambda: 1)
    monkeypatch.setattr(classifiers, "_BATCH_ROWS", 1)
    _assert_same_trees(model.trees, RandomForest(n_trees=n_trees, seed=45).fit(X, y).trees)


def test_forest_one_batch_never_forks(monkeypatch, forks):
    X, y, _ = _worker_case()
    monkeypatch.setattr(classifiers, "_usable_cores", lambda: 4)
    RandomForest(n_trees=_BATCH_ROWS // len(y), seed=45).fit(X, y)
    assert forks == []


@pytest.mark.parametrize("failing", ["child", "parent"])
def test_forest_worker_error_reraises_and_leaves_no_child(monkeypatch, failing):
    X, y, n_trees = _worker_case()
    parent, real_grow = os.getpid(), classifiers._grow_trees

    def grow(*args):
        if (os.getpid() == parent) == (failing == "parent"):
            raise FloatingPointError(f"{failing} share failed")
        return real_grow(*args)

    monkeypatch.setattr(classifiers, "_grow_trees", grow)
    monkeypatch.setattr(classifiers, "_usable_cores", lambda: 2)
    with pytest.raises(FloatingPointError) as excinfo:
        RandomForest(n_trees=n_trees, seed=45).fit(X, y)
    assert excinfo.type is FloatingPointError
    assert str(excinfo.value) == f"{failing} share failed"
    _assert_no_child()


def test_forest_failed_fork_raises_and_closes_its_pipe(monkeypatch):
    X, y, _ = _worker_case()

    def fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(classifiers, "_usable_cores", lambda: 2)
    before = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError):
        RandomForest(n_trees=2 * (_BATCH_ROWS // len(y)), seed=45).fit(X, y)  # two batches
    assert sorted(os.listdir("/proc/self/fd")) == before


def test_forest_grows_in_process_without_fork(monkeypatch):
    X, y, n_trees = _worker_case()
    monkeypatch.setattr(classifiers, "_usable_cores", lambda: 1)
    serial = RandomForest(n_trees=n_trees, seed=45).fit(X, y)
    monkeypatch.setattr(classifiers, "_usable_cores", lambda: 2)
    monkeypatch.delattr(os, "fork")
    _assert_same_trees(RandomForest(n_trees=n_trees, seed=45).fit(X, y).trees, serial.trees)


def test_forest_grows_in_process_beside_a_thread(monkeypatch, forks):
    X, y, n_trees = _worker_case()
    monkeypatch.setattr(classifiers, "_usable_cores", lambda: 1)
    serial = RandomForest(n_trees=n_trees, seed=45).fit(X, y)
    monkeypatch.setattr(classifiers, "_usable_cores", lambda: 2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        model = RandomForest(n_trees=n_trees, seed=45).fit(X, y)
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert forks == []
    _assert_same_trees(model.trees, serial.trees)


# ---------------------------------------------------------------------------
# the forest against a plain reference: the trees its docstring specifies, one at a time


def _reference_trees(X, y, n_trees, seed):
    """Grow each tree alone, node by node in level order, and score every cut by counting rows.

    The binning and the ``hash_integers`` draws are the forest's; nothing else is shared.
    A node's candidate features are keyed on its level-order number, so the nodes wait in a
    first-in first-out queue, each with its bootstrap rows.
    """
    X = X[:, X.min(axis=0) < X.max(axis=0)]  # constant columns dropped
    n, d = X.shape
    mtry = math.ceil(math.sqrt(d))
    cuts = []  # each feature's distinct values, or 256 of them at evenly spaced ranks
    for f in range(d):
        uniq = np.unique(X[:, f])
        if len(uniq) > 256:
            uniq = uniq[np.unique(np.round(np.linspace(0, len(uniq) - 1, 256)).astype(int))]
        cuts.append(uniq)
    bins = np.column_stack([np.searchsorted(c, X[:, f]) for f, c in enumerate(cuts)])
    trees = []
    for t in range(n_trees):
        queue = [hash_integers((seed, "rows"), t, np.arange(n), n)]
        nodes = []  # (feature, threshold, left, right, vote), in level order
        while len(nodes) < len(queue):
            node, rows = len(nodes), queue[len(nodes)]
            ones = int(y[rows].sum())
            best = (math.inf, None, None)
            if len(rows) >= 2 and 0 < ones < len(rows):
                keys = hash_integers((seed, "features"), t, node * d + np.arange(d), 2**32 - 1)
                for f in sorted(np.argsort(keys, kind="stable")[:mtry].tolist()):
                    col = bins[rows, f]
                    for b in sorted(set(col.tolist()))[:-1]:  # the largest bin leaves no row right
                        score = _weighted_gini(y[rows][col <= b], y[rows][col > b])
                        if score < best[0]:  # ties keep the lower feature, then the lower cut
                            best = (score, f, b)
            _, f, b = best
            if f is None:  # a leaf's children are itself; it votes its majority, a tie for 0
                nodes.append((0, math.inf, node, node, int(2 * ones > len(rows))))
            else:
                nodes.append((f, float(cuts[f][b]), len(queue), len(queue) + 1, -1))
                queue += [rows[bins[rows, f] <= b], rows[bins[rows, f] > b]]
        columns = zip(*nodes)
        dtypes = (np.int32, np.float64, np.int32, np.int32, np.int8)
        trees.append({key: np.array(col, dtype=dt) for key, col, dt in zip(_TREE_KEYS, columns, dtypes)})
    return trees


def _weighted_gini(left, right):
    """The two sides' Gini impurities weighted by their sizes, from each side's class counts."""
    sides = []
    for labels in (left, right):
        n, ones = len(labels), int(labels.sum())
        sides.append((n, 1.0 - ((n - ones) ** 2 + ones**2) / n**2))
    (nl, gl), (nr, gr) = sides
    return (nl * gl + nr * gr) / (nl + nr)


_TREE_KEYS = ("feature", "threshold", "left", "right", "vote")
# how a drawn feature column is filled: a few values with many ties, all distinct, or one value
_COLUMNS = {
    "ties": lambda rng, n: rng.integers(0, 3, n).astype(float),
    "distinct": lambda rng, n: rng.normal(size=n),
    "constant": lambda rng, n: np.full(n, 7.0),
}


@settings(max_examples=100, deadline=None)
@given(
    n=st.one_of(st.integers(2, 40), st.integers(257, 300)),  # past 256 distinct values, the cuts are binned
    kinds=st.lists(st.sampled_from(sorted(_COLUMNS)), min_size=1, max_size=5),
    noise=st.sampled_from([0.0, 0.1, 0.5]),
    data_seed=st.integers(0, 2**32 - 1),
    seed=st.integers(0, 2**32 - 1),
    n_trees=st.integers(1, 6),
    batch=st.integers(1, 6),
    cores=st.integers(1, 3),
)
@example(n=300, kinds=["distinct", "constant", "ties", "distinct"], noise=0.1, data_seed=1, seed=2,
         n_trees=6, batch=2, cores=3)
@example(n=12, kinds=["ties", "ties"], noise=0.5, data_seed=3, seed=4, n_trees=5, batch=1, cores=2)
def test_forest_grows_the_reference_trees(n, kinds, noise, data_seed, seed, n_trees, batch, cores):
    rng = np.random.default_rng(data_seed)
    X = np.column_stack([_COLUMNS[kind](rng, n) for kind in kinds])
    assume(np.any(X.min(axis=0) < X.max(axis=0)))
    total = X.sum(axis=1)
    y = ((total > np.median(total)) ^ (rng.random(n) < noise)).astype(int)
    y[:2] = 0, 1
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a constant column is dropped with a warning
        mp.setattr(classifiers, "_BATCH_ROWS", batch * n)  # batches of `batch` trees
        mp.setattr(classifiers, "_usable_cores", lambda: cores)
        model = RandomForest(n_trees=n_trees, seed=seed).fit(X, y)
    _assert_same_trees(model.trees, _reference_trees(X, y, n_trees, seed))
