"""Load forecasting and residual diagnostics for the detectors.

Demand is modeled as a daily-seasonal AR process: seasonally difference
at PERIOD = 24 hours, fit AR(p) to the differenced series by conditional
least squares (no intercept), and forecast by recursing the AR over the
differences and re-adding the level from 24 hours back. One-step-ahead
residuals on the training window give the noise scale sigma that
calibrates the sequential detectors; the fitted model keeps them as
`residuals`. (The utility's own in-loop forecast is plain persistence
inside feedback.simulate.)

Diagnostics (sample ACF, Jarque-Bera) verify the residuals are close
enough to white noise for that calibration to be honest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SeasonalARModel",
    "acf",
    "acf_band",
    "fit_seasonal_ar",
    "forecast",
    "jarque_bera",
]

PERIOD = 24  # hours in the seasonal cycle
SIGMA_FLOOR = 1e-6


@dataclass
class SeasonalARModel:
    """AR(p) over the PERIOD-differenced series.

    coeffs may be shorter than the requested order when degenerate training
    data forced a fallback to a smaller model (order 0 = pure seasonal
    persistence). residuals are the one-step in-sample residuals on the
    training differences, and sigma is their ddof=1 standard deviation,
    floored at 1e-6.
    """

    order: int
    coeffs: np.ndarray
    sigma: float
    y_tail: np.ndarray  # last PERIOD training observations
    d_tail: np.ndarray  # last `order` training differences
    residuals: np.ndarray  # d[order:] minus its AR predictions


def fit_seasonal_ar(y, order: int) -> SeasonalARModel:
    """Fit by conditional least squares on the differenced series.

    Needs at least 3 periods plus `order` observations. If the normal
    equations are singular (e.g. a perfectly periodic series differences
    to all zeros) the order is reduced until they solve; order 0 always
    does.
    """
    y = np.asarray(y, dtype=float)
    if order < 0:
        raise ValueError("order must be >= 0")
    if len(y) < 3 * PERIOD + order:
        raise ValueError(f"need at least {3 * PERIOD + order} observations, got {len(y)}")

    d = y[PERIOD:] - y[:-PERIOD]
    p = order
    while (coeffs := _fit_ar(d, p)) is None:
        p -= 1
    resid = d[p:] - _lags(d, p) @ coeffs if p else d
    sigma = float(np.std(resid, ddof=1)) if len(resid) > 1 else 0.0
    return SeasonalARModel(
        order=p,
        coeffs=coeffs,
        sigma=max(sigma, SIGMA_FLOOR),
        y_tail=y[-PERIOD:].copy(),
        d_tail=d[len(d) - p :].copy() if p else np.empty(0),
        residuals=resid,
    )


def _lags(d: np.ndarray, p: int) -> np.ndarray:
    """AR(p) design matrix: the row for target d[t] (t = p .. len(d)-1) holds d[t-1] ... d[t-p]."""
    return np.column_stack([d[p - 1 - j : len(d) - 1 - j] for j in range(p)])


def _fit_ar(d: np.ndarray, p: int):
    """Least-squares AR(p) coefficients on d, or None if singular."""
    if p == 0:
        return np.empty(0)
    X = _lags(d, p)
    gram = X.T @ X
    if not np.all(np.isfinite(gram)) or np.linalg.cond(gram) > 1e12:
        return None
    try:
        coeffs = np.linalg.solve(gram, X.T @ d[p:])
    except np.linalg.LinAlgError:
        return None
    return coeffs


def forecast(model: SeasonalARModel, steps: int) -> np.ndarray:
    """Multi-step forecast, substituting forecasts for unseen values.

    Differences recurse through the AR (forecast differences feed back in),
    and beyond one period ahead the level re-added is itself a forecast.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    p = model.order
    d_hist = list(model.d_tail)
    # levels at lag PERIOD: observed tail first, then our own forecasts
    levels = list(model.y_tail)
    out = np.empty(steps)
    for k in range(steps):
        d_hat = sum(model.coeffs[j] * d_hist[-1 - j] for j in range(p)) if p else 0.0
        y_hat = d_hat + levels[k]
        out[k] = y_hat
        d_hist.append(d_hat)
        levels.append(y_hat)
    return out


# ---------------------------------------------------------------------------
# residual diagnostics

def _demeaned(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if len(x) < 2:
        raise ValueError("need at least 2 observations")
    c = x - x.mean()
    if np.allclose(c, 0.0):
        raise ValueError("degenerate residuals: zero variance")
    return c


def acf(x, nlags: int) -> np.ndarray:
    """Sample autocorrelation for lags 0..nlags (lag 0 is 1 by construction)."""
    c = _demeaned(x)
    denom = float(c @ c)
    n = len(c)
    if nlags >= n:
        raise ValueError("nlags must be smaller than the series length")
    out = np.empty(nlags + 1)
    for k in range(nlags + 1):
        out[k] = float(c[k:] @ c[: n - k]) / denom
    return out


def acf_band(n: int) -> float:
    """Half-width of the white-noise 95% band for a length-n series."""
    return 1.96 / np.sqrt(n)


def jarque_bera(x) -> float:
    """JB normality statistic n/6 * (S^2 + (K-3)^2 / 4) from moment estimators."""
    c = _demeaned(x)
    n = len(c)
    m2 = float(np.mean(c**2))
    skew = float(np.mean(c**3)) / m2**1.5
    kurt = float(np.mean(c**4)) / m2**2
    return n / 6.0 * (skew**2 + 0.25 * (kurt - 3.0) ** 2)
