import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridloop.classifiers import (
    _BATCH_ROWS,
    GaussianNaiveBayes,
    LogisticRegression,
    RandomForest,
)
from gridloop.detect import build_training_set, make_features


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


def test_logreg_l2_shrinks_weights():
    X, y = _blobs(seed=23)
    loose = LogisticRegression(l2=0.01).fit(X, y)
    tight = LogisticRegression(l2=100.0).fit(X, y)
    assert np.linalg.norm(tight.weights) < np.linalg.norm(loose.weights)


def test_logreg_validation():
    for l2 in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="l2"):
            LogisticRegression(l2=l2)
    for max_epochs in (0, -1):
        with pytest.raises(ValueError, match="max_epochs"):
            LogisticRegression(max_epochs=max_epochs)
    for tol in (0.0, -1e-8, np.nan, np.inf):
        with pytest.raises(ValueError, match="tol"):
            LogisticRegression(tol=tol)


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
    model = LogisticRegression(l2=l2).fit(X, y)
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


def test_logreg_separable_data_with_a_tiny_penalty():
    X, y = _blobs(seed=48, d=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow in the fit
        model = LogisticRegression(l2=1e-6).fit(X, y)
    assert np.all(np.isfinite(model.weights)) and np.isfinite(model.bias)
    assert model.n_epochs_ <= model.max_epochs
    assert np.all(model.weights > 0)
    line = np.linspace(X.min(), X.max(), 41)[:, None] * np.ones(3)
    assert np.all(np.diff(model.predict_score(line)) >= 0)
    assert np.mean((model.predict_score(X) >= 0.5) == y) == 1.0


def test_logreg_stops_at_max_epochs_without_converging():
    X, y = _blobs(seed=49, gap=1.0, sd=1.5)
    model = LogisticRegression(max_epochs=1).fit(X, y)
    assert (model.n_epochs_, model.converged_) == (1, False)
    assert np.all(np.isfinite(model.weights))


@pytest.mark.parametrize("failure", ["singular", "non-finite"])
def test_logreg_failed_solve_keeps_the_last_finite_weights(monkeypatch, failure):
    X, y = _blobs(seed=50, gap=1.0, sd=1.5)
    one_step = LogisticRegression(max_epochs=1).fit(X, y)
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
    for mtry in (0, -1):
        with pytest.raises(ValueError, match="mtry"):
            RandomForest(mtry=mtry)


# ---------------------------------------------------------------------------
# golden forest: the grown trees and scores are pinned bit for bit


def _lagged_case():
    rng = np.random.default_rng(31)
    hours = np.arange(14 * 24)
    series = 100.0 + 30.0 * np.sin(2 * np.pi * hours / 24) + rng.normal(0.0, 5.0, len(hours))
    X, y = make_features(*build_training_set(series, np.random.default_rng(32)), lags=24)
    return X, y, dict(n_trees=20, seed=33)


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


def _full_mtry_case():
    X, y = _blobs(seed=40, gap=1.5, sd=1.5, d=5)
    return X, y, dict(n_trees=12, mtry=5, seed=41)


# sha256 of the tree arrays and of predict_score on a probe set, per case
GOLDEN_FORESTS = {
    "lagged_24": (
        _lagged_case,
        "563bf54eac13096cb10e282e7bf0585083b28ec3c2610fdea8a006a113d30176",
        "ee40957b5c3537f2a05748b380eb9508db66cbc7792199ade3c89179a7e1894a",
    ),
    "many_values": (
        _many_values_case,
        "41216e56c277e35a260f753097c3d2ed80138cf60f779ec773515adb32e6f5ce",
        "b25e5277de34f3cd800716b3efe054578988d8e3b75e2718803ff035d046324a",
    ),
    "constant_column": (
        _constant_column_case,
        "5f0a6388686f812519aac81739c9b4e44c01f4aee518df6719c96266c102aa88",
        "10bef42cc31d6349638932dfa1e7f890fd57b3d1357f21a90f7a4c1ea83be607",
    ),
    "single_tree": (
        _single_tree_case,
        "e0cb0b1b075d6f49c719c41e245889aaf701404aab691caf44447a8112b1c1d7",
        "3c583a1a6dc05ee870a2bb824f7169e8b19e58dbd8d439fee45706d7ce98b8d3",
    ),
    "full_mtry": (
        _full_mtry_case,
        "1985cdef7afe13ae5d03898b4019a98e12f711818943255d990e91adc56b6696",
        "911fa5c65acb50057a3adb93df5d9f3d13ba4d9bc172878773a437a16a3c3522",
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


def test_forest_first_trees_do_not_depend_on_the_batch():
    X, y = _blobs(n=1500, seed=44, gap=1.5, sd=1.5, d=4)
    batch = _BATCH_ROWS // len(y)
    assert batch > 2
    full = RandomForest(n_trees=batch + 3, seed=45).fit(X, y)
    for k in (1, batch - 1, batch, batch + 1):
        _assert_same_trees(RandomForest(n_trees=k, seed=45).fit(X, y).trees, full.trees[:k])


def test_forest_fit_memory_stays_in_budget():
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
