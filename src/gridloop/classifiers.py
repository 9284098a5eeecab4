"""Supervised detectors: numpy-only binary classifiers.

Three binary classifiers share one small contract: ``fit(X, y)`` with
labels in {0, 1} (both present) and ``predict_score(X)`` returning an
attack probability/score in [0, 1].

All three drop constant feature columns at fit time (with a warning) and
remember which columns survived, because a zero-variance column breaks
z-scoring and likelihoods and can never carry a split.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from gridloop.seeds import stream

__all__ = [
    "GaussianNaiveBayes",
    "LogisticRegression",
    "RandomForest",
]

_MAX_BINS = 256
# (node, candidate, bin) cells per histogram and (row, candidate) keys per
# bincount in the forest fit; keeps a level's temporaries near 1 MB however
# many nodes are open
_BLOCK_CELLS = 1 << 13
# bootstrap rows grown in lockstep: a fit grows max(1, _BATCH_ROWS // n) trees at once
_BATCH_ROWS = 1 << 15


def _validate_xy(X, y):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2:
        raise ValueError("X must be 2-d (rows x features)")
    if y.shape != (X.shape[0],):
        raise ValueError("y must be 1-d with one label per row")
    if not np.all(np.isfinite(X)):
        raise ValueError("features must be finite (no NaN or inf)")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be 0 or 1")
    if y.min() == y.max():
        raise ValueError("training labels must contain both classes")
    return X, y.astype(np.int8)


def _drop_constant(X):
    keep = X.min(axis=0) < X.max(axis=0)
    if not np.all(keep):
        warnings.warn(
            f"dropping {int((~keep).sum())} constant feature column(s)",
            stacklevel=3,
        )
    if not np.any(keep):
        raise ValueError("all feature columns are constant")
    return X[:, keep], keep


class LogisticRegression:
    """L2-penalized logistic regression on z-scored features.

    Full-batch gradient descent with a backtracking step size: the step
    doubles down (x1.1) while the penalized mean log-loss improves and
    halves on any overshoot. Training stops when the loss improves by
    less than ``tol`` or after ``max_epochs`` accepted steps. The
    intercept is not penalized.
    """

    def __init__(self, l2: float = 1.0, max_epochs: int = 1000, tol: float = 1e-8):
        self.l2 = float(l2)
        self.max_epochs = int(max_epochs)
        self.tol = float(tol)
        self.mu = None
        self.sd = None
        self.weights = None
        self.bias = 0.0
        self.kept = None
        self.n_epochs_ = 0

    def _loss_grad(self, Z, y, w, b):
        n = len(y)
        margin = Z @ w + b
        # mean log(1 + exp(-s*margin)) with s = +-1, stably
        signed = np.where(y == 1, -margin, margin)
        loss = float(np.mean(np.logaddexp(0.0, signed)))
        loss += 0.5 * self.l2 * float(w @ w) / n
        p = 1.0 / (1.0 + np.exp(-np.clip(margin, -500, 500)))
        err = p - y
        grad_w = Z.T @ err / n + self.l2 * w / n
        grad_b = float(np.mean(err))
        return loss, grad_w, grad_b

    def fit(self, X, y):
        X, y = _validate_xy(X, y)
        X, self.kept = _drop_constant(X)
        self.mu = X.mean(axis=0)
        self.sd = X.std(axis=0)
        Z = (X - self.mu) / self.sd

        w = np.zeros(Z.shape[1])
        b = 0.0
        lr = 1.0
        loss, gw, gb = self._loss_grad(Z, y, w, b)
        for epoch in range(self.max_epochs):
            while True:
                w_new = w - lr * gw
                b_new = b - lr * gb
                new_loss, new_gw, new_gb = self._loss_grad(Z, y, w_new, b_new)
                if new_loss <= loss or lr < 1e-12:
                    break
                lr *= 0.5
            improved = loss - new_loss
            w, b, loss, gw, gb = w_new, b_new, new_loss, new_gw, new_gb
            lr *= 1.1
            self.n_epochs_ = epoch + 1
            if abs(improved) < self.tol:
                break
        self.weights = w
        self.bias = b
        return self

    def predict_score(self, X):
        X = np.asarray(X, dtype=float)[:, self.kept]
        z = (X - self.mu) / self.sd
        margin = z @ self.weights + self.bias
        return 1.0 / (1.0 + np.exp(-np.clip(margin, -500, 500)))


class GaussianNaiveBayes:
    """Per-class independent Gaussians with frequency priors.

    Class-conditional variances are smoothed by 1e-9 times the largest
    per-feature variance of the whole training matrix, so a feature that
    is constant within one class cannot zero out a likelihood.
    """

    VAR_SMOOTHING = 1e-9

    def __init__(self):
        self.kept = None
        self.priors = None
        self.means = None
        self.vars = None

    def fit(self, X, y):
        X, y = _validate_xy(X, y)
        X, self.kept = _drop_constant(X)
        eps = self.VAR_SMOOTHING * float(X.var(axis=0).max())
        means, variances, priors = [], [], []
        for cls in (0, 1):
            rows = X[y == cls]
            means.append(rows.mean(axis=0))
            variances.append(rows.var(axis=0) + eps)
            priors.append(len(rows) / len(y))
        self.means = np.stack(means)
        self.vars = np.stack(variances)
        self.priors = np.asarray(priors)
        return self

    def _joint_log_likelihood(self, X):
        jll = np.empty((len(X), 2))
        for cls in (0, 1):
            gauss = -0.5 * (
                np.log(2.0 * np.pi * self.vars[cls])
                + (X - self.means[cls]) ** 2 / self.vars[cls]
            ).sum(axis=1)
            jll[:, cls] = math.log(self.priors[cls]) + gauss
        return jll

    def predict_score(self, X):
        X = np.asarray(X, dtype=float)[:, self.kept]
        jll = self._joint_log_likelihood(X)
        shifted = jll - jll.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        return probs[:, 1] / probs.sum(axis=1)


class RandomForest:
    """Bagged Gini trees grown on quantile-binned features.

    Each tree bootstraps rows and, at every node, examines
    ceil(sqrt(n_features)) candidate features (``mtry``); the best Gini
    split wins, with ties resolved toward the lowest feature index and then
    the lowest cut. Split thresholds are actual training values (predicate
    ``x <= value``), so predictions depend only on feature order and are
    unchanged by order-preserving transforms applied consistently to
    training and test data. Nodes stop at purity, fewer than 2 samples,
    or when no cut separates them; leaves vote their majority class (tie
    -> 0) and the forest score is the fraction of trees voting 1.

    Features with more than 256 distinct values are binned to 256
    quantile-spaced cut points (still actual observed values).

    Trees grow level by level, max(1, 32768 // n_rows) of them in
    lockstep: the batch is one super-tree whose first level holds every
    tree's root and whose rows are the trees' bootstrap samples. Each tree
    draws from its own seed stream (its bootstrap, then its open nodes'
    candidates in level and slot order), so a tree does not depend on the
    batch it grew in, and ``n_trees=k`` gives the first k trees of any
    larger forest with the same seed. Each level counts the rows of the
    batch's open nodes in a histogram over (node, candidate, bin, class);
    cumulative sums over the bins then give every cut of every candidate,
    and the Gini score is computed at occupied bins only. A level is
    counted in blocks of at most 8192 (node, candidate, bin) cells and 8192
    (row, candidate) keys, so its temporaries stay near 1 MB however many
    nodes are open. Candidates are sorted ascending, so the first minimum
    of a node's flattened (candidate, cut) scores follows the tie rule
    above.
    """

    def __init__(self, n_trees: int = 100, mtry: int | None = None, seed: int = 0):
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if mtry is not None and mtry < 1:
            raise ValueError("mtry must be >= 1")
        self.n_trees = int(n_trees)
        self.mtry = mtry
        self.seed = int(seed)
        self.kept = None
        self.trees: list[dict] = []

    def fit(self, X, y):
        X, y = _validate_xy(X, y)
        X, self.kept = _drop_constant(X)
        n, d = X.shape
        mtry = self.mtry if self.mtry is not None else math.ceil(math.sqrt(d))
        mtry = min(mtry, d)

        bins = np.empty((n, d), dtype=np.uint8)
        # row f holds feature f's cut values, padded with inf to a common width
        cut_table = np.full((d, _MAX_BINS), np.inf)
        for f in range(d):
            uniq = np.unique(X[:, f])
            if len(uniq) > _MAX_BINS:
                pick = np.unique(
                    np.round(np.linspace(0, len(uniq) - 1, _MAX_BINS)).astype(int)
                )
                uniq = uniq[pick]
            cut_table[f, : len(uniq)] = uniq
            bins[:, f] = np.searchsorted(uniq, X[:, f], side="left")
        # each feature's largest value is its last cut, so this is the widest row
        cut_table = cut_table[:, : int(bins.max()) + 1]
        del X  # the trees see only the bins

        self.trees = []
        batch = max(1, _BATCH_ROWS // n)
        for lo in range(0, self.n_trees, batch):
            rngs = [stream(self.seed, "tree", t) for t in range(lo, min(lo + batch, self.n_trees))]
            self.trees += _grow_trees(bins, y, cut_table, mtry, rngs)
        return self

    def predict_score(self, X):
        X = np.asarray(X, dtype=float)[:, self.kept]
        # all trees walk together, level by level, over their concatenated nodes
        sizes = [len(tree["vote"]) for tree in self.trees]
        roots = np.cumsum([0] + sizes[:-1])
        feature, threshold, left, right, vote = (
            np.concatenate([tree[key] for tree in self.trees])
            for key in ("feature", "threshold", "left", "right", "vote")
        )
        left = left + np.repeat(roots, sizes)
        right = right + np.repeat(roots, sizes)
        n_trees = len(sizes)
        node = np.tile(roots, len(X))  # node[i * n_trees + t]: row i in tree t
        pending = np.flatnonzero(vote[node] == -1)
        while len(pending):
            cur = node[pending]
            go_left = X[pending // n_trees, feature[cur]] <= threshold[cur]
            node[pending] = np.where(go_left, left[cur], right[cur])
            pending = pending[vote[node[pending]] == -1]
        return vote[node].reshape(len(X), n_trees).sum(axis=1) / self.n_trees


def _grow_trees(bins, y, cut_table, mtry, rngs):
    """Grow one tree per generator in lockstep; returns per-tree flat node arrays.

    The batch is one super-tree: level 0 holds every tree's root and the
    rows are the trees' bootstrap samples, concatenated. Each generator
    draws its tree's bootstrap, then the candidates of the tree's open
    nodes in ascending slot order, level by level, as if the tree grew
    alone. A level's slots are ordered by tree, then slot; the children of
    the level's i-th split are the next level's slots 2i and 2i + 1, so
    each tree's nodes, taken level by level, get their numbers in its own
    order.
    """
    n, d = bins.shape
    n_bins = cut_table.shape[1]
    rows = np.concatenate([rng.integers(0, n, size=n) for rng in rngs])
    slot = np.repeat(np.arange(len(rngs)), n)
    tree = np.arange(len(rngs))  # tree of each slot of the level
    levels = []
    n_nodes = len(tree)  # nodes of all levels so far, the current one included
    while len(rows):
        n_slots = len(tree)
        per_class = np.bincount(slot * 2 + y[rows], minlength=2 * n_slots).reshape(n_slots, 2)
        counts = per_class.sum(axis=1)
        ones = per_class[:, 1]
        is_open = (counts >= 2) & (ones > 0) & (ones < counts)
        opened = np.flatnonzero(is_open)
        k = len(opened)
        cand = np.empty((k, mtry), dtype=np.int64)
        for i, t in enumerate(tree[opened]):
            cand[i] = rngs[t].choice(d, size=mtry, replace=False)
        cand.sort(axis=1)

        # score the open slots a block at a time; rows of closed slots rank -1
        rank = np.where(is_open, np.cumsum(is_open) - 1, -1)[slot]
        best = np.empty(k, dtype=np.int64)
        step = max(1, _BLOCK_CELLS // (mtry * n_bins))
        for lo in range(0, k, step):
            hi = min(lo + step, k)
            in_block = (rank >= lo) & (rank < hi)
            best[lo:hi] = _best_cuts(
                bins, y, rows[in_block], rank[in_block] - lo, cand[lo:hi], n_bins
            )
        found = best >= 0

        # open slots without a separating cut become leaves too
        split = opened[found]
        is_split = np.zeros(n_slots, dtype=bool)
        is_split[split] = True
        split_cand, split_bin = np.divmod(best[found], n_bins)
        split_feat = cand[found, split_cand]
        feature = np.zeros(n_slots, dtype=np.int32)
        feature[split] = split_feat
        threshold = np.full(n_slots, np.inf)
        threshold[split] = cut_table[split_feat, split_bin]
        # a leaf's children are itself; a split's are the next level's 2i, 2i + 1
        left = n_nodes - n_slots + np.arange(n_slots)
        left[split] = n_nodes + 2 * np.arange(len(split))
        vote = np.where(is_split, -1, 2 * ones > counts).astype(np.int8)  # tie -> 0
        levels.append((tree, feature, threshold, left, left + is_split, vote))

        # route the rows of split slots to their children, the next level's slots
        moving = is_split[slot]
        rows = rows[moving]
        j = (np.cumsum(is_split) - 1)[slot[moving]]
        slot = 2 * j + (bins[rows, split_feat[j]] > split_bin[j])
        tree = np.repeat(tree[split], 2)
        n_nodes += len(tree)

    # renumber each tree's nodes from 0, in level order, and cut the batch apart
    tree, feature, threshold, left, right, vote = (np.concatenate(c) for c in zip(*levels))
    order = np.argsort(tree, kind="stable")
    sizes = np.bincount(tree, minlength=len(rngs))
    local = np.empty(n_nodes, dtype=np.int32)
    local[order] = np.arange(n_nodes) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    cols = {"feature": feature, "threshold": threshold, "left": local[left],
            "right": local[right], "vote": vote}
    ends = np.cumsum(sizes)[:-1]
    split_cols = {key: np.split(col[order], ends) for key, col in cols.items()}
    return [{key: split_cols[key][t] for key in cols} for t in range(len(rngs))]


def _best_cuts(bins, y, rows, slot, cand, n_bins):
    """Flat (candidate, bin) index of each slot's best Gini split, -1 if none.

    One histogram over (slot, candidate, bin, class), counted a few
    thousand keys at a time, and its cumulative sums over the bins give
    every cut. Only cuts at occupied bins below a candidate's last occupied
    bin are scored: a cut at an empty bin repeats the previous cut, and one
    at or past the last leaves the right side empty. The first minimum in
    (slot, candidate, bin) order wins, so with ascending candidates ties go
    to the lowest feature index, then the lowest cut.
    """
    k, mtry = cand.shape
    d = bins.shape[1]
    cells = np.int64(k * mtry * n_bins)  # a numpy int, so cells * y (int8) is int64
    hist = np.zeros(2 * cells, dtype=np.int64)
    # keys are (candidate, row): rows run along the long axis
    offset = (np.arange(mtry) * n_bins)[:, None]
    chunk = max(1, _BLOCK_CELLS // mtry)
    for lo in range(0, len(rows), chunk):
        r, s = rows[lo : lo + chunk], slot[lo : lo + chunk]
        at = cand.T.take(s, axis=1) + r * d  # flat index of each candidate's bin in `bins`
        key = bins.take(at) + (s * (mtry * n_bins) + cells * y[r]) + offset
        hist += np.bincount(key.ravel(), minlength=2 * cells)
    # class-major: hist[c, slot * mtry + candidate, bin]
    hist = hist.reshape(2, k * mtry, n_bins)
    occupied = hist.any(axis=0)
    cum = np.cumsum(hist, axis=2, out=hist)
    n_left = cum[0] + cum[1]
    cut = np.flatnonzero(occupied & (n_left < n_left[:, -1:]))
    pair = cut // n_bins  # slot * mtry + candidate
    l0 = cum[0].ravel()[cut]
    l1 = cum[1].ravel()[cut]
    nl = l0 + l1
    r0 = cum[0, :, -1][pair] - l0
    r1 = cum[1, :, -1][pair] - l1
    nr = r0 + r1
    gini_l = 1.0 - (l0**2 + l1**2) / (nl**2)
    gini_r = 1.0 - (r0**2 + r1**2) / (nr**2)
    score = (nl * gini_l + nr * gini_r) / (nl + nr)

    # the first minimum of each slot's (candidate, bin) scores; unscored cuts are inf
    dense = np.full(cells, np.inf)
    dense[cut] = score
    dense = dense.reshape(k, mtry * n_bins)
    best = dense.argmin(axis=1)
    best[dense[np.arange(k), best] == np.inf] = -1
    return best
