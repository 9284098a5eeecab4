import hashlib
import re
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridloop.detect import (
    build_training_set,
    cusum_detect,
    cusum_sweep,
    glrt_detect,
    glrt_sweep,
    make_features,
    sliding_means,
)
from gridloop.experiment import ExperimentConfig

# ---------------------------------------------------------------------------
# window means / GLRT

def test_sliding_means_prefix_windows():
    out = sliding_means([1.0, 2.0, 3.0, 4.0], window=2)
    assert out.tolist() == [1.0, 1.5, 2.5, 3.5]


def test_sliding_means_window_wider_than_series():
    out = sliding_means([2.0, 4.0], window=10)
    assert out.tolist() == [2.0, 3.0]


def test_glrt_threshold_formula():
    # Q(2.0) = 0.02275...: with sigma 1 and 25 samples the threshold is
    # sqrt(1/25) * 2 = 0.4 once the window fills
    res = glrt_detect(np.zeros(30), sigma=1.0, window=25, p_fa=0.02275013194817921)
    assert res.thresholds[-1] == pytest.approx(0.4, abs=1e-6)
    # prefix windows scale the threshold up: 1 sample -> sigma * 2
    assert res.thresholds[0] == pytest.approx(2.0, abs=1e-6)
    assert res.thresholds[3] == pytest.approx(1.0, abs=1e-6)


def test_glrt_decision_is_strict():
    # at p_fa = 0.5 the threshold is exactly zero
    res = glrt_detect(np.array([0.0, 0.1, -0.1]), sigma=1.0, window=1, p_fa=0.5)
    assert res.thresholds.tolist() == [0.0, 0.0, 0.0]
    assert res.decisions.tolist() == [0, 1, 0]


def test_glrt_flags_a_shift():
    rng = np.random.default_rng(14)
    x = rng.normal(0, 1, size=200)
    x[100:] += 3.0
    res = glrt_detect(x, sigma=1.0, window=24, p_fa=0.01)
    assert res.decisions[:100].mean() < 0.05
    assert res.decisions[130:].mean() > 0.9


def test_glrt_sweep_corners_and_consistency():
    rng = np.random.default_rng(15)
    x = rng.normal(0, 1, size=50)
    p_fas, decisions = glrt_sweep(x, sigma=1.0, window=24, n_points=11)
    assert decisions.shape == (11, 50)
    assert not decisions[0].any()   # p_fa = 0 never alarms
    assert decisions[-1].all()      # p_fa = 1 always alarms
    mid = glrt_detect(x, sigma=1.0, window=24, p_fa=float(p_fas[5]))
    assert np.array_equal(decisions[5], mid.decisions)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_sigma_must_be_finite_and_positive(bad):
    x = np.zeros(5)
    for call in (lambda: glrt_detect(x, bad, 24, 0.05), lambda: glrt_sweep(x, bad, 24, 11),
                 lambda: cusum_sweep(x, bad, 0.5, 11, 6.0)):
        with pytest.raises(ValueError, match="sigma must be finite and positive"):
            call()


def test_glrt_config_validation():
    x = np.zeros(5)
    with pytest.raises(ValueError, match="window must be >= 1"):
        glrt_detect(x, 1.0, 0, 0.05)
    for bad in (0.0, 1.0, -0.1, np.nan):
        with pytest.raises(ValueError, match="p_fa"):
            glrt_detect(x, 1.0, 24, bad)


# ---------------------------------------------------------------------------
# CUSUM

def test_cusum_recursion_hand_case():
    res = cusum_detect([1.0, -2.0, 1.0], k=0.5, h=2.0)
    assert res.scores.tolist() == [0.5, 0.0, 0.5]
    assert res.decisions.sum() == 0


def test_cusum_alarm_and_reset():
    res = cusum_detect([0.6, 0.6, 0.3], k=0.0, h=1.0)
    assert res.scores.tolist() == [0.6, pytest.approx(1.2), 0.3]
    assert res.decisions.tolist() == [0, 1, 0]  # reset: 0.3 starts from zero


def test_cusum_interval_marks_back_to_last_zero():
    res = cusum_detect([1.0, -1.0, 3.0, 0.0, 0.5], k=0.5, h=2.0)
    assert res.scores.tolist() == [0.5, 0.0, 2.5, 0.0, 0.0]
    assert res.decisions.tolist() == [0, 0, 1, 0, 0]
    assert res.interval_decisions.tolist() == [0, 0, 1, 0, 0]


def test_cusum_interval_spans_the_climb():
    res = cusum_detect([1.5, 1.0, 0.2, 2.0], k=0.5, h=2.0)
    assert res.decisions.tolist() == [0, 0, 0, 1]
    # g never touched zero, so the whole climb is implicated
    assert res.interval_decisions.tolist() == [1, 1, 1, 1]


def test_cusum_detection_delay():
    x = np.zeros(16)
    x[10:] = 1.5  # drift-adjusted growth of 1.0 per step
    res = cusum_detect(x, k=0.5, h=2.0)
    assert res.decisions.tolist() == [0] * 12 + [1, 0, 0, 1]


def test_cusum_config_validation():
    x = np.zeros(5)
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="drift k must be finite and >= 0"):
            cusum_detect(x, k=bad, h=2.0)
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="threshold h must be finite and > 0"):
            cusum_detect(x, k=0.5, h=bad)
    assert not cusum_detect(x, k=0.0, h=1e-300).decisions.any()  # the edges are allowed


@pytest.mark.parametrize("bad", [1e300, 1e-300, np.float64(1e155)])
def test_sigma_squared_must_stay_in_float_range(bad):
    # a square past the largest float, or below the smallest normal one, makes NaN or inf thresholds
    x = np.zeros(5)
    for call in (lambda: glrt_detect(x, bad, 24, 0.05), lambda: glrt_sweep(x, bad, 24, 11),
                 lambda: cusum_sweep(x, bad, 0.5, 11, 6.0)):
        with pytest.raises(ValueError, match=re.escape(f"sigma {float(bad)!r} squared leaves the float range")):
            call()


def test_cusum_sweep_config_validation():
    # the same drift check as cusum_detect, plus a finite, positive sweep span
    x = np.zeros(5)
    for bad in (-0.1, -1e6, np.nan, np.inf):
        with pytest.raises(ValueError, match="drift k must be finite and >= 0"):
            cusum_sweep(x, sigma=1.0, k=bad, n_points=4, h_max_sigmas=6.0)
    for bad in (0.0, -6.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="h_max_sigmas must be finite and > 0"):
            cusum_sweep(x, sigma=1.0, k=0.5, n_points=4, h_max_sigmas=bad)
    with pytest.raises(ValueError, match=r"h_max_sigmas \* sigma = 1e\+300 \* 10000000000.0 exceeds"):
        cusum_sweep(x, sigma=1e10, k=0.5, n_points=4, h_max_sigmas=1e300)
    hs, alarms, _ = cusum_sweep(x, sigma=1.0, k=0.0, n_points=4, h_max_sigmas=1e-300)  # the edges
    assert hs[-1] == 1e-300 and not alarms.any()


def test_cusum_sweep_grid_and_consistency():
    rng = np.random.default_rng(16)
    x = rng.normal(0, 1, size=60)
    x[40:] += 2.0
    hs, decisions, intervals = cusum_sweep(x, sigma=1.0, k=0.5, n_points=13, h_max_sigmas=6.0)
    assert hs[0] == 0.0 and hs[-1] == 6.0
    assert decisions.shape == (13, 60)
    # interior rows reproduce the point detector at that threshold
    for i in (1, 6, 12):
        res = cusum_detect(x, k=0.5, h=float(hs[i]))
        assert np.array_equal(decisions[i], res.decisions)
    assert intervals[6].sum() >= decisions[6].sum()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cusum_rejects_non_finite_residuals(bad):
    # a NaN would stick in g, since np.maximum propagates it, and silence every later alarm:
    # on [3, nan, 3, 3] at k 0.5, h 2 the alarms would be [1, 0, 0, 0]; both refuse the input instead
    x = [3.0, bad, 3.0, 3.0]
    with pytest.raises(ValueError, match="must be finite"):
        cusum_detect(x, k=0.5, h=2.0)
    with pytest.raises(ValueError, match="must be finite"):
        cusum_sweep(x, sigma=1.0, k=0.5, n_points=4, h_max_sigmas=6.0)


@settings(max_examples=50)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=60),
       st.floats(0.0, 2.0), st.floats(0.1, 5.0))
def test_cusum_invariants(xs, k, h):
    res = cusum_detect(np.array(xs), k=k, h=h)
    assert np.all(res.scores >= 0)
    alarm_at = res.decisions == 1
    assert np.all(res.scores[alarm_at] > h)
    # every alarm hour is inside its own implicated interval
    assert np.all(res.interval_decisions[alarm_at] == 1)


# ---------------------------------------------------------------------------
# the sweeps match their per-threshold loops bit for bit


def _glrt_sweep_loop(x, sigma, window, n_points):
    scores = sliding_means(x, window)
    scale = np.sqrt(sigma**2 / np.minimum(np.arange(len(x)) + 1, window))
    p_fas = np.linspace(0.0, 1.0, n_points)
    rows = [np.full(len(x), p == 1.0) if p in (0.0, 1.0) else scores > scale * -NormalDist().inv_cdf(p)
            for p in p_fas]
    return p_fas, np.array(rows, dtype=np.int8)


def _cusum_loop(x, k, hs):
    """The scalar CUSUM recursion, one threshold at a time: pre-reset g, point and interval rows."""
    scores = np.zeros((len(hs), len(x)))
    alarms = np.zeros((len(hs), len(x)), dtype=np.int8)
    intervals = np.zeros((len(hs), len(x)), dtype=np.int8)
    for i, h in enumerate(hs):
        g, last_zero = 0.0, -1
        for t in range(len(x)):
            g = max(0.0, g + x[t] - k)
            scores[i, t] = g
            if g == 0.0:
                last_zero = t
            elif g > h:
                alarms[i, t] = 1
                intervals[i, last_zero + 1 : t + 1] = 1
                g, last_zero = 0.0, t
    return scores, alarms, intervals


def _cusum_sweep_loop(x, sigma, k, n_points, h_max_sigmas):
    hs = np.linspace(0.0, h_max_sigmas * sigma, n_points)
    return hs, *_cusum_loop(x, k, hs)


def _sweep_series(kind, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, size=240)
    if kind == "shift":
        x[150:] += 1.5
    elif kind == "spikes":
        x[rng.choice(240, size=8, replace=False)] += 6.0
    elif kind == "onset":  # alarms from the first hour on
        x[:3] += 6.0
    elif kind == "integer":
        # integer steps with k = 0 land g exactly on grid thresholds (g == h: no alarm)
        x = rng.integers(-2, 3, size=240).astype(float)
    return x


@pytest.mark.parametrize("kind", ["noise", "shift", "spikes", "onset", "integer"])
@pytest.mark.parametrize("interval", [False, True])
def test_cusum_sweep_matches_the_per_threshold_loop(kind, interval):
    x = _sweep_series(kind, seed=50)
    k, n_points = (0.0, 13) if kind == "integer" else (0.5, 101)
    # one pass gives both outputs; `interval` picks the one a case checks
    hs, alarms, intervals = cusum_sweep(x, 1.0, k=k, n_points=n_points, h_max_sigmas=6.0)
    ref_hs, _, ref_alarms, ref_intervals = _cusum_sweep_loop(x, 1.0, k, n_points, 6.0)
    rows, ref_rows = (intervals, ref_intervals) if interval else (alarms, ref_alarms)
    assert hs[0] == 0.0  # h = 0 alarms on any positive g
    assert np.array_equal(hs, ref_hs)
    assert rows.dtype == np.int8 and np.array_equal(rows, ref_rows)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
           st.tuples(st.lists(st.floats(-5, 5), max_size=80), st.floats(0.0, 2.0), st.floats(0.01, 5.0)),
           # integer steps at k = 0 land g exactly on whole thresholds: g == h must not alarm
           st.tuples(st.lists(st.integers(-5, 5).map(float), max_size=80), st.just(0.0),
                     st.integers(1, 5).map(float))),
       st.integers(1, 25))
def test_cusum_matches_the_scalar_loop(case, n_points):
    xs, k, h = case
    x = np.array(xs, dtype=float)
    hs, alarms, intervals = cusum_sweep(x, 1.0, k=k, n_points=n_points, h_max_sigmas=6.0)
    ref_hs, _, ref_alarms, ref_intervals = _cusum_sweep_loop(x, 1.0, k, n_points, 6.0)
    assert np.array_equal(hs, ref_hs)
    assert alarms.dtype == intervals.dtype == np.int8
    assert np.array_equal(alarms, ref_alarms) and np.array_equal(intervals, ref_intervals)
    # the detector at one h, off the sweep's grid for float residuals
    res = cusum_detect(x, k=k, h=h)
    ref_scores, ref_point, ref_interval = _cusum_loop(x, k, [h])
    assert res.scores.tobytes() == ref_scores[0].tobytes()  # bit for bit, the sign of zero too
    assert res.decisions.dtype == res.interval_decisions.dtype == np.int8
    assert np.array_equal(res.decisions, ref_point[0])
    assert np.array_equal(res.interval_decisions, ref_interval[0])


@pytest.mark.parametrize("x, alarm_rows, alarm", [
    ([], [], []),
    ([3.0], [1, 1, 0, 0, 0], [1]),  # g = 2.5 against the sweep's 0, 1.5, 3, 4.5, 6 and h = 2
    ([0.5], [0] * 5, [0]),  # g = 0 alarms nowhere, not even at h = 0
])
def test_cusum_on_series_of_zero_and_one_hour(x, alarm_rows, alarm):
    # one hour has no climb before it: its interval is the alarm hour alone
    _, alarms, intervals = cusum_sweep(x, 1.0, k=0.5, n_points=5, h_max_sigmas=6.0)
    assert alarms.shape == intervals.shape == (5, len(x))
    assert alarms.ravel().tolist() == intervals.ravel().tolist() == alarm_rows
    res = cusum_detect(x, k=0.5, h=2.0)
    assert res.scores.tolist() == [max(0.0, v - 0.5) for v in x]
    assert res.decisions.tolist() == res.interval_decisions.tolist() == alarm


@pytest.mark.parametrize("kind", ["noise", "shift", "spikes"])
@pytest.mark.parametrize("window, n_points", [(24, 101), (1, 21), (500, 2)])
def test_glrt_sweep_matches_the_per_threshold_loop(kind, window, n_points):
    x = _sweep_series(kind, seed=51)
    p_fas, rows = glrt_sweep(x, sigma=1.3, window=window, n_points=n_points)
    ref_p, ref_rows = _glrt_sweep_loop(x, 1.3, window, n_points)
    assert np.array_equal(p_fas, ref_p)
    assert rows.dtype == np.int8 and np.array_equal(rows, ref_rows)
    assert not rows[0].any() and rows[-1].all()  # p_fa 0 never alarms, 1 always


def test_golden_glrt_thresholds():
    # digest of the quantiles statistics.NormalDist.inv_cdf gives; a Python release that
    # changes them, or another approximation in its place, fails here
    x = _sweep_series("shift", seed=52)
    thresholds = np.concatenate(
        [glrt_detect(x, sigma=1.3, window=24, p_fa=p).thresholds for p in (0.05, 0.01, 1e-9)]
    )
    assert hashlib.sha256(thresholds.tobytes()).hexdigest() == (
        "5df07454eaf96ce0236d35430e53de1c8839da17dd00e3905bb90f7a60e46a88"
    )


def test_golden_glrt_sweep_rows():
    # computed with Acklam's rational approximation; the stdlib quantile keeps every decision
    x = _sweep_series("shift", seed=52)
    _, rows = glrt_sweep(x, sigma=1.3, window=24, n_points=101)
    assert rows.shape == (101, 240)
    assert hashlib.sha256(rows.tobytes()).hexdigest() == (
        "03a9d9640b2f68b1bb7030588416a46cc21b0785603ad50f2e1471ecbdaaea24"
    )

# ---------------------------------------------------------------------------
# supervised feature pipeline

def test_make_features_uses_strictly_past_values():
    values = np.arange(30.0)
    X = make_features(values, lags=24)
    assert X.shape == (6, 24)
    assert np.array_equal(X[0], np.arange(24.0))  # hour 24 sees hours 0..23
    assert np.array_equal(X[5], np.arange(5.0, 29.0))
    assert X[0].max() == 23.0  # the scored hour itself is excluded
    # a read-only view: no copy, and no caller can write through it into the series
    assert np.shares_memory(X, values) and not X.flags.writeable


def test_make_features_default_lag_count():
    # the lag count lives in ExperimentConfig alone
    lags = ExperimentConfig().feature_lags
    assert lags == 24
    assert make_features(np.zeros(1344), lags).shape == (1320, 24)


def test_make_features_validation():
    with pytest.raises(ValueError, match="lags"):
        make_features(np.zeros(30), lags=0)
    with pytest.raises(ValueError, match="more than"):
        make_features(np.zeros(10), lags=24)


def test_training_set_doubling_layout():
    train = np.full(96, 100.0)
    attacked, labels = build_training_set(train, np.random.default_rng(0))
    assert len(attacked) == 96
    assert labels.dtype == np.int8 and labels.tolist() == [1] * 96
    assert np.array_equal(train, np.full(96, 100.0))  # the nominal series is not touched

    third = 32
    ramp = attacked[:third] - 100.0
    steps = np.diff(ramp)
    assert np.all(steps > 0)
    assert np.allclose(steps, steps[0])       # constant increment
    assert 2.0 <= steps[0] <= 10.0
    assert ramp[0] == pytest.approx(steps[0])  # starts at one step, not zero

    sudden = attacked[third : 2 * third] - 100.0
    assert np.all(sudden == sudden[0])
    assert 50.0 <= sudden[0] <= 300.0

    point = attacked[2 * third :] - 100.0
    spikes = point[point > 0]
    # full day gets 5 spikes, the trailing 8-hour stub gets round(5*8/24)=2
    assert len(spikes) == 7
    assert np.all((spikes >= 50.0) & (spikes <= 300.0))
    assert np.all(point[point <= 0] == 0.0)


def test_training_set_deterministic():
    train = np.linspace(80, 120, 72)
    a = build_training_set(train, np.random.default_rng(5))
    b = build_training_set(train, np.random.default_rng(5))
    assert np.array_equal(a[0], b[0])
    c = build_training_set(train, np.random.default_rng(6))
    assert not np.array_equal(a[0], c[0])


def test_training_set_too_short():
    with pytest.raises(ValueError, match="too short"):
        build_training_set(np.ones(5), np.random.default_rng(0))
