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
import os
import pickle
import signal
import threading
import warnings

import numpy as np

from gridloop.seeds import hash_integers
from gridloop.tables import integer

__all__ = [
    "GaussianNaiveBayes",
    "LogisticRegression",
    "RandomForest",
]

_MAX_BINS = 256
# (node, candidate, bin) cells per histogram, (row, candidate) keys per
# bincount and (node, feature) keys per candidate draw in the forest fit;
# keeps a level's temporaries near 1 MB however many nodes are open
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

    Damped Newton steps, i.e. IRLS (Hastie, Tibshirani and Friedman, *ESL*
    §4.4.1), on the mean log-loss plus ``l2/(2n)·|w|²``, the intercept not
    penalized: one solve of ``H s = g`` per step, the step halved while the
    loss would rise. The fit stops when the Newton decrement ``½·gᵀH⁻¹g``
    falls below ``tol``, setting ``converged_``, or after ``max_epochs``
    steps, counted in ``n_epochs_``; all three are class constants. As
    ``|g|² <= 2·λmax(H)·decrement``, ``tol`` keeps ``|g| < 4e-7`` for d <= 10
    and l2/n <= 5. A singular or non-finite solve, or a step that cannot
    lower the loss, ends the fit at the last weights, not converged.
    """

    l2, max_epochs, tol = 1.0, 50, 1e-14

    def __init__(self):
        self.mu = self.sd = self.weights = self.bias = self.kept = None
        self.n_epochs_, self.converged_ = 0, False

    def fit(self, X, y):
        X, y = _validate_xy(X, y)
        X, self.kept = _drop_constant(X)
        self.mu, self.sd = X.mean(axis=0), X.std(axis=0)
        n, d = X.shape
        A = np.column_stack([(X - self.mu) / self.sd, np.ones(n)])
        pen = np.append(np.full(d, self.l2 / n), 0.0)
        sign = np.where(y == 1, -1.0, 1.0)  # loss per row: log(1 + exp(sign * margin))
        def objective(theta):
            margin = A @ theta
            return np.mean(np.logaddexp(0.0, sign * margin)) + 0.5 * pen @ theta**2, margin

        theta = np.zeros(d + 1)
        loss, margin = objective(theta)
        self.n_epochs_ = 0
        while self.n_epochs_ < self.max_epochs:
            # sigmoid(margin) and its derivative from one exp that cannot overflow
            e = np.exp(-np.abs(margin))
            p = np.where(margin >= 0, 1.0, e) / (1.0 + e)
            g = A.T @ (p - y) / n + pen * theta
            H = (A.T * (e / (n * (1.0 + e) ** 2))) @ A + np.diag(pen)
            try:
                decrement = 0.5 * g @ (step := np.linalg.solve(H, g))
            except np.linalg.LinAlgError:
                decrement = np.nan
            self.converged_ = bool(decrement < self.tol)
            if self.converged_ or not np.isfinite(decrement):
                break
            t = 1.0
            while (trial := objective(theta - t * step))[0] > loss and t > 1e-10:
                t *= 0.5
            if not trial[0] <= loss:
                break
            theta, (loss, margin) = theta - t * step, trial
            self.n_epochs_ += 1
        self.weights, self.bias = theta[:d], float(theta[d])
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

    Each tree bootstraps rows and, at every node, examines mtry =
    ceil(sqrt(n_features)) candidate features, a rule and not an argument;
    the best Gini split wins, with ties resolved toward the lowest feature
    index and then the lowest cut. Both draws go through ``seeds.hash_integers``:
    bootstrap row j of tree t is draw j of stream t under (seed, "rows"),
    and node n of tree t, numbered in level order within the tree, takes
    the ``mtry`` features with the smallest keys, feature f's key being
    draw n*d + f of stream t under (seed, "features"), ties to the lower
    index. A tree is thus a pure function of (seed, t), whichever batch or
    process grew it, and ``n_trees=k`` gives the first k trees of any larger
    forest with the same seed. Split thresholds are actual training values (predicate
    ``x <= value``), so predictions depend only on feature order and are
    unchanged by order-preserving transforms applied consistently to
    training and test data. Nodes stop at purity, fewer than 2 samples,
    or when no cut separates them; leaves vote their majority class (tie
    -> 0) and the forest score is the fraction of trees voting 1.

    Features with more than 256 distinct values are binned to 256
    quantile-spaced cut points (still actual observed values).

    The trees are split into one share per usable core, at most one per
    batch of max(1, 32768 // n_rows) trees. The fit grows the first share
    and forked children the others, and gets the trees of a serial fit, in
    order; it grows them all in-process without ``os.fork``, beside other
    threads or under ``taskset -c 0``. A batch grows as one super-tree.
    """

    def __init__(self, n_trees: int = 100, seed: int = 0):
        if not (integer(n_trees) and n_trees >= 1):
            raise ValueError("n_trees must be an integer >= 1")
        if not (integer(seed) and seed >= 0):
            raise ValueError("seed must be an integer >= 0")
        self.n_trees, self.seed = n_trees, seed
        self.kept = None
        self.trees: list[dict] = []

    def fit(self, X, y):
        X, y = _validate_xy(X, y)
        X, self.kept = _drop_constant(X)
        n, d = X.shape
        mtry = math.ceil(math.sqrt(d))  # never more than d

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

        batch = max(1, _BATCH_ROWS // n)
        def grow(share):  # in batches of at most `batch` trees
            parts = np.array_split(share, -(-len(share) // batch))
            return [tree for p in parts for tree in _grow_trees(bins, y, cut_table, mtry, self.seed, p)]
        workers = min(_usable_cores(), -(-self.n_trees // batch))
        can_fork = hasattr(os, "fork") and threading.active_count() == 1  # a fork beside threads can deadlock
        shares = np.array_split(np.arange(self.n_trees), workers if can_fork else 1)
        children = []
        try:
            for share in shares[1:]:
                read, write = os.pipe()
                try:
                    pid = os.fork()
                except BaseException:  # e.g. EAGAIN: no child owns the pipe
                    os.close(read)
                    os.close(write)
                    raise
                if pid == 0:  # the child sends its trees, or its error, and exits
                    try:
                        with os.fdopen(write, "wb") as pipe:
                            try:
                                pickle.dump(grow(share), pipe)
                            except BaseException as exc:
                                pickle.dump(exc, pipe)
                    finally:
                        os._exit(0)
                os.close(write)
                children.append((pid, os.fdopen(read, "rb")))
            self.trees = grow(shares[0])
            for _, pipe in children:
                if isinstance(out := pickle.load(pipe), BaseException):
                    raise out
                self.trees += out
        finally:
            for pid, pipe in children:  # a child that is still growing is not waited for
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
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


def _usable_cores():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _grow_trees(bins, y, cut_table, mtry, seed, trees):
    """Grow the forest's trees numbered ``trees`` in lockstep; returns per-tree flat node arrays.

    The batch is one super-tree: level 0 holds every tree's root and the
    rows are the trees' bootstrap samples, concatenated. The children of a
    level's i-th split are the next level's slots 2i and 2i + 1, so a
    level's slots are ordered by tree and, within a tree, by level order.
    """
    n, d = bins.shape
    n_bins = cut_table.shape[1]
    rows = hash_integers((seed, "rows"), trees[:, None], np.arange(n), n).ravel()
    slot = np.repeat(np.arange(len(trees)), n)
    tree = np.arange(len(trees))  # batch position of each slot's tree
    seen = np.zeros(len(trees), dtype=np.int64)  # each tree's nodes in the levels so far
    levels = []
    n_nodes = len(tree)  # nodes of all levels so far, the current one included
    while len(rows):
        n_slots = len(tree)
        node = seen[tree] + np.arange(n_slots) - np.searchsorted(tree, tree)  # number in its tree
        seen += np.bincount(tree, minlength=len(trees))
        per_class = np.bincount(slot * 2 + y[rows], minlength=2 * n_slots).reshape(n_slots, 2)
        counts = per_class.sum(axis=1)
        ones = per_class[:, 1]
        is_open = (counts >= 2) & (ones > 0) & (ones < counts)
        opened = np.flatnonzero(is_open)
        k = len(opened)
        cand = np.empty((k, mtry), dtype=np.int64)
        step = max(1, _BLOCK_CELLS // d)
        for lo in range(0, k, step):
            o = opened[lo : lo + step, None]
            key = hash_integers((seed, "features"), trees[tree[o]], node[o] * d + np.arange(d), 2**32 - 1)
            cand[lo : lo + step] = np.argsort(key, axis=1, kind="stable")[:, :mtry]
        cand.sort(axis=1)

        # score the open slots a block at a time; rows of closed slots rank -1
        rank = np.where(is_open, np.cumsum(is_open) - 1, -1)[slot]
        best = np.empty(k, dtype=np.int64)
        step = max(1, _BLOCK_CELLS // (mtry * n_bins))
        for lo in range(0, k, step):
            hi = min(lo + step, k)
            in_block = (rank >= lo) & (rank < hi)
            best[lo:hi] = _best_cuts(bins, y, rows[in_block], rank[in_block] - lo, cand[lo:hi], n_bins)
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
        levels.append((tree, node.astype(np.int32), feature, threshold, left, left + is_split, vote))

        # route the rows of split slots to their children, the next level's slots
        moving = is_split[slot]
        rows = rows[moving]
        j = (np.cumsum(is_split) - 1)[slot[moving]]
        slot = 2 * j + (bins[rows, split_feat[j]] > split_bin[j])
        tree = np.repeat(tree[split], 2)
        n_nodes += len(tree)

    # renumber the children within their trees, and cut the batch apart
    tree, node, feature, threshold, left, right, vote = (np.concatenate(c) for c in zip(*levels))
    order = np.argsort(tree, kind="stable")
    cols = (feature, threshold, node[left], node[right], vote)
    parts = [np.split(col[order], np.cumsum(seen)[:-1]) for col in cols]
    return [dict(zip(("feature", "threshold", "left", "right", "vote"), p)) for p in zip(*parts)]


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
