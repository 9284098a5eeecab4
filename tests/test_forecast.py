import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridloop.forecast import (
    SeasonalARModel,
    acf,
    acf_band,
    fit_seasonal_ar,
    forecast,
    jarque_bera,
)

# ---------------------------------------------------------------------------
# seasonal AR fit

def _seasonal_series(d, head=None, period=24):
    """Integrate a difference series into levels: y[t] = y[t-period] + d."""
    if head is None:
        head = np.full(period, 50.0)
    y = np.empty(period + len(d))
    y[:period] = head
    for t in range(len(d)):
        y[period + t] = y[t] + d[t]
    return y


def _ar_series(coeffs, n, sigma, seed):
    rng = np.random.default_rng(seed)
    p = len(coeffs)
    d = np.zeros(n + 100)
    eps = rng.normal(0, sigma, size=n + 100)
    for t in range(p, n + 100):
        d[t] = sum(coeffs[j] * d[t - 1 - j] for j in range(p)) + eps[t]
    return d[100:]


def test_recovers_ar1_coefficient():
    d = _ar_series([0.5], 1200, sigma=1.0, seed=4)
    model = fit_seasonal_ar(_seasonal_series(d), order=1)
    assert model.order == 1
    assert model.coeffs[0] == pytest.approx(0.5, abs=0.1)
    assert model.sigma == pytest.approx(1.0, rel=0.15)


def test_recovers_ar2_coefficients():
    d = _ar_series([0.5, -0.3], 2400, sigma=0.8, seed=5)
    model = fit_seasonal_ar(_seasonal_series(d), order=2)
    assert model.coeffs == pytest.approx([0.5, -0.3], abs=0.1)


def test_periodic_series_falls_back_to_seasonal_persistence():
    pattern = 10.0 + np.sin(np.arange(24) / 24 * 2 * np.pi)
    y = np.tile(pattern, 10)
    model = fit_seasonal_ar(y, order=2)
    # differences are identically zero: AR(2) is singular, order drops to 0
    assert model.order == 0
    assert model.sigma == 1e-6  # floored
    assert np.max(np.abs(model.residuals)) == 0.0
    assert np.array_equal(forecast(model, 48), np.tile(pattern, 2))


def test_sigma_matches_training_residual_spread():
    d = _ar_series([0.4], 800, sigma=2.0, seed=6)
    y = _seasonal_series(d)
    model = fit_seasonal_ar(y, order=2)
    assert np.std(model.residuals, ddof=1) == pytest.approx(model.sigma, rel=1e-12)


def test_residuals_are_the_one_step_training_errors():
    # rebuilt by hand: the seasonal difference minus the AR(2) lag products
    y = _seasonal_series(_ar_series([0.5, -0.3], 600, sigma=1.0, seed=9))
    model = fit_seasonal_ar(y, order=2)
    assert model.order == 2
    d = y[24:] - y[:-24]
    expected = d[2:] - model.coeffs[0] * d[1:-1] - model.coeffs[1] * d[:-2]
    assert model.residuals == pytest.approx(expected, rel=0, abs=1e-12)


def test_minimum_length_enforced():
    with pytest.raises(ValueError, match="need at least 74 observations, got 73"):
        fit_seasonal_ar(np.ones(73), order=2)


def test_forecast_recursion_closed_form():
    # AR(1) with phi = 0.5 on a zero level: the k-step difference forecast
    # is 0.5^(k+1), and one period out the re-added level is itself the
    # first forecast. Powers of two are exact in floats.
    model = SeasonalARModel(
        order=1, coeffs=np.array([0.5]), sigma=1.0,
        y_tail=np.zeros(24), d_tail=np.array([1.0]), residuals=np.empty(0),
    )
    out = forecast(model, 26)
    assert out[0] == 0.5
    assert out[1] == 0.25
    assert out[23] == 0.5**24
    assert out[24] == 0.5 + 0.5**25  # recycled level + decayed difference
    with pytest.raises(ValueError):
        forecast(model, 0)


# ---------------------------------------------------------------------------
# residual diagnostics

def test_acf_lag0_is_one():
    rng = np.random.default_rng(7)
    r = acf(rng.normal(size=100), 10)
    assert r[0] == 1.0


def test_acf_alternating_series():
    # x = +1,-1,+1,... has mean 0 and acf(1) = -(n-1)/n exactly
    n = 10
    x = np.array([1.0, -1.0] * (n // 2))
    r = acf(x, 2)
    assert r[1] == -(n - 1) / n
    assert r[2] == (n - 2) / n


def test_white_noise_acf_is_small():
    rng = np.random.default_rng(8)
    r = acf(rng.normal(size=10000), 10)
    assert np.all(np.abs(r[1:]) < 4 * acf_band(10000))


def test_acf_validation():
    with pytest.raises(ValueError, match="degenerate residuals"):
        acf(np.ones(50), 5)
    with pytest.raises(ValueError, match="nlags"):
        acf(np.arange(5.0), 5)


def test_acf_band_formula():
    assert acf_band(646) == pytest.approx(1.96 / np.sqrt(646), rel=1e-15)


def test_jarque_bera_hand_case():
    # mean 0, m2 = m4 = 1, skew 0, kurtosis 1: JB = n/6 * (1-3)^2/4 = n/6
    x = np.array([-1.0, -1.0, 1.0, 1.0])
    assert jarque_bera(x) == pytest.approx(4 / 6, rel=1e-12)


def test_jarque_bera_separates_normal_from_skewed():
    rng = np.random.default_rng(11)
    assert jarque_bera(rng.normal(size=5000)) < 15
    assert jarque_bera(rng.exponential(size=5000)) > 100


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31), st.floats(-0.8, 0.8))
def test_fit_tracks_random_ar1(seed, phi):
    d = _ar_series([phi], 1500, sigma=1.0, seed=seed)
    model = fit_seasonal_ar(_seasonal_series(d), order=1)
    assert model.coeffs[0] == pytest.approx(phi, abs=0.15)
