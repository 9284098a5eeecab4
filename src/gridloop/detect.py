"""Sequential detectors over forecast residuals, plus feature building.

Both sequential detectors watch the aggregate load's forecast residuals
for a positive mean shift: the errors of one multi-step forecast made at
the end of the training window, over the whole test window.

GLRT: the score at time t is the mean residual over the trailing window
(shorter prefix windows are used until the window fills, and a window
longer than the series averages the whole prefix); an alarm fires when the
score exceeds sqrt(sigma^2 / n) * Qinv(p_fa), the threshold that holds the
per-window false-alarm probability at p_fa for white residuals. The
detector and its p_fa sweep share this one threshold rule. Qinv is the
upper-tail normal quantile from statistics.NormalDist (AS241).

CUSUM: g_t = max(0, g_{t-1} + x_t - k) accumulates drift-corrected
evidence; crossing h raises an alarm and resets g. Times where the
pre-reset statistic sits at zero are candidate change points, which also
yields an interval-scored variant: on an alarm, every step since the last
candidate change point is marked attacked. One pass of the recursion, with
g a vector over thresholds, serves both the detector at its one h and the
h sweep.

Supervised detection reuses the same residual-free series directly: each
row's features are the previous `lags` observations (strictly past, never
the current one). The classifiers train on the nominal series' rows and
on the rows of a synthetically attacked copy of it, so they see both
classes; each series takes its lags from itself alone.

The functions take plain values; ExperimentConfig holds the protocol's
settings (window, p_fa, k and h as multiples of sigma, sweep sizes, lags).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

__all__ = [
    "CusumResult",
    "GlrtResult",
    "build_training_set",
    "cusum_detect",
    "cusum_sweep",
    "glrt_detect",
    "glrt_sweep",
    "make_features",
    "sliding_means",
]

@dataclass
class GlrtResult:
    scores: np.ndarray
    thresholds: np.ndarray
    decisions: np.ndarray


def sliding_means(x, window: int) -> np.ndarray:
    """Trailing-window means; the first window-1 entries use prefixes."""
    x = np.asarray(x, dtype=float)
    if window < 1:
        raise ValueError("window must be >= 1")
    window = min(window, len(x))  # the same means, and t - window + 1 cannot overflow int64
    csum = np.concatenate(([0.0], np.cumsum(x)))
    n = len(x)
    t = np.arange(n)
    lo = np.maximum(t - window + 1, 0)
    return (csum[t + 1] - csum[lo]) / (t + 1 - lo)


def _check_sigma(sigma: float) -> None:
    if not 0.0 < sigma < np.inf:  # NaN fails too
        raise ValueError("sigma must be finite and positive")
    # the GLRT thresholds are sqrt(sigma**2 / n): a subnormal square loses them to 0 * inf
    sigma = float(sigma)
    if not np.finfo(float).tiny <= sigma * sigma < np.inf:
        raise ValueError(f"sigma {sigma!r} squared leaves the float range")


def _upper_quantile(p: float) -> float:
    """Q^{-1}(p), the x with P(Z > x) = p; p = 0 gives +inf and p = 1 gives -inf."""
    if p in (0.0, 1.0):  # the sweep's never- and always-alarm corners
        return np.inf if p == 0.0 else -np.inf
    # the exact reflection of the lower quantile; inv_cdf(1 - p) would cancel for tiny p
    return -NormalDist().inv_cdf(p)


def _glrt(x, sigma: float, window: int, p_fas):
    """Window means, the thresholds sqrt(sigma^2 / n) * Qinv(p) (one row per p in p_fas)
    and the int8 decisions scores > thresholds."""
    _check_sigma(sigma)
    scores = sliding_means(x, window)
    n_eff = np.minimum(np.arange(len(scores)) + 1, min(window, len(scores)))
    thresholds = np.sqrt(sigma**2 / n_eff) * np.array([_upper_quantile(p) for p in p_fas])[:, None]
    return scores, thresholds, (scores > thresholds).astype(np.int8)


def glrt_detect(x, sigma: float, window: int, p_fa: float) -> GlrtResult:
    """Window-mean detector with an exact-false-alarm threshold."""
    if not 0.0 < p_fa < 1.0:
        raise ValueError("p_fa must lie strictly inside (0, 1)")
    scores, thresholds, decisions = _glrt(x, sigma, window, [p_fa])
    return GlrtResult(scores=scores, thresholds=thresholds[0], decisions=decisions[0])


def glrt_sweep(x, sigma: float, window: int, n_points: int):
    """Decisions for a grid of false-alarm rates spanning [0, 1].

    Returns (p_fa grid, decisions matrix of shape (n_points, len(x))).
    The endpoints 0 and 1 give the never/always-alarm corners.
    """
    p_fas = np.linspace(0.0, 1.0, n_points)
    return p_fas, _glrt(x, sigma, window, p_fas)[2]


@dataclass
class CusumResult:
    scores: np.ndarray  # pre-reset statistic g_t
    decisions: np.ndarray  # alarm at t (point-wise)
    interval_decisions: np.ndarray  # attacked interval per alarm


def _finite_residuals(x):
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("CUSUM residuals must be finite (no NaN or inf)")
    return x


def _check_drift(k: float) -> None:
    if not 0.0 <= k < np.inf:  # NaN fails too
        raise ValueError("drift k must be finite and >= 0")


def _cusum(x, k: float, hs):
    """The CUSUM recursion at drift k for every threshold in hs, in one pass over x.

    Returns the pre-reset statistic g_t, the int8 point alarms g_t > h (each
    resets g to 0) and the int8 interval alarms, each of shape (len(hs), len(x)).
    An hour is in an alarm's interval when the first hour from it on where g is
    0 or an alarm fires is an alarm: the climb since g last sat at zero.
    """
    hs = np.asarray(hs, dtype=float)
    scores = np.empty((len(x), len(hs)))  # hours down the rows until the return
    g = np.zeros(len(hs))
    for t in range(len(x)):
        # max(0.0, -0.0) is 0.0 and np.maximum(0.0, -0.0) is -0.0, but (g + x_t) - k is -0.0
        # only where g is, and g starts at +0.0
        g = np.maximum(0.0, g + x[t] - k)
        scores[t] = g
        g[g > hs] = 0.0
    alarms = scores > hs
    # per hour, the first hour from it on where g is 0 or an alarm fires; len(x) where none does
    hours = np.arange(len(x))[:, None]
    next_event = np.minimum.accumulate(np.where(alarms | (scores == 0.0), hours, len(x))[::-1])[::-1]
    intervals = np.take_along_axis(np.pad(alarms, ((0, 1), (0, 0))), next_event, axis=0)
    return scores.T.copy(), alarms.T.astype(np.int8, order="C"), intervals.T.astype(np.int8, order="C")


def cusum_detect(x, k: float, h: float) -> CusumResult:
    """The one-sided CUSUM recursion at drift k and alarm threshold h: the sweep's kernel at one h."""
    _check_drift(k)
    if not 0.0 < h < np.inf:
        raise ValueError("threshold h must be finite and > 0")
    scores, alarms, intervals = _cusum(_finite_residuals(x), k, [h])
    return CusumResult(scores=scores[0], decisions=alarms[0], interval_decisions=intervals[0])


def cusum_sweep(x, sigma: float, k: float, n_points: int, h_max_sigmas: float):
    """Point and interval decisions at drift k over hs = linspace(0, h_max_sigmas*sigma).

    Returns (hs, alarms, intervals), both matrices (n_points, len(x)) from the
    one pass cusum_detect also makes. h = 0 is allowed inside the sweep (it
    alarms on any positive g) even though cusum_detect requires h > 0.
    """
    _check_sigma(sigma)
    _check_drift(k)
    if not 0.0 < h_max_sigmas < np.inf:
        raise ValueError("h_max_sigmas must be finite and > 0")
    h_max = float(h_max_sigmas) * float(sigma)
    if h_max == np.inf:  # linspace(0, inf) starts with NaN
        raise ValueError(f"h_max_sigmas * sigma = {h_max_sigmas!r} * {sigma!r} exceeds the largest float")
    x = _finite_residuals(x)
    hs = np.linspace(0.0, h_max, n_points)
    return hs, *_cusum(x, k, hs)[1:]


# ---------------------------------------------------------------------------
# supervised feature pipeline

def make_features(values, lags: int) -> np.ndarray:
    """Lagged-window design matrix, a read-only view of `values`.

    Row i scores hour t = lags + i and holds values[t-lags .. t-1] -- only
    strictly past observations. Its shape is (n - lags, lags).
    """
    values = np.asarray(values, dtype=float)
    if lags < 1:
        raise ValueError("lags must be >= 1")
    if len(values) <= lags:
        raise ValueError(f"need more than {lags} observations")
    return np.lib.stride_tricks.sliding_window_view(values, lags)[:-1]


def build_training_set(train_values, rng: np.random.Generator):
    """A synthetically attacked copy of a nominal training series, and its per-hour labels.

    The copy is split into three equal parts carrying a ramp (step drawn
    uniform [2, 10]), a sudden shift (level uniform [50, 300]), and point
    spikes (five per day, each uniform [50, 300]; a trailing partial day
    gets a proportional count, at least one). Every hour of the copy is
    labeled 1.
    """
    train = np.asarray(train_values, dtype=float)
    n = len(train)
    if n < 6:
        raise ValueError("training series too short to attack in three parts")
    third = n // 3
    copy = train.copy()

    step = rng.uniform(2.0, 10.0)
    copy[:third] += step * np.arange(1, third + 1)

    level = rng.uniform(50.0, 300.0)
    copy[third : 2 * third] += level

    start = 2 * third
    while start < n:
        chunk = min(24, n - start)
        k = 5 if chunk == 24 else max(1, round(5 * chunk / 24))
        hours = rng.choice(chunk, size=k, replace=False)
        copy[start + np.sort(hours)] += rng.uniform(50.0, 300.0, size=k)
        start += chunk

    return copy, np.ones(n, dtype=np.int8)
