"""Bundled synthetic meter templates.

The pipeline is normally driven by real minute-level meter CSVs, but the
suite must run without that proprietary data, so this module fabricates a
small fleet of statistically plausible homes: a smooth double-peaked daily
shape, a slowly wandering day level, lognormal hour-to-hour jitter, and
minute noise that ``ingest.hourly_series`` averages into each home's hourly
kWh series, as it does for a meter CSV. Parameters are tuned so a
200-home bootstrap aggregate averages ~330 kWh/h with ~2-3% hourly
dispersion, which keeps attack magnitudes in the tens-of-kWh range
detectable but not trivial.
"""

from __future__ import annotations

import numpy as np

from gridloop.ingest import HourlySeries, hourly_series
from gridloop.seeds import stream

__all__ = ["synthetic_hourly_templates"]

# mean-1 daily profile: broad evening peak plus a softer morning shoulder
_HOURS = np.arange(24)
_DAY_SHAPE = (
    1.0
    + 0.32 * np.cos(2.0 * np.pi * (_HOURS - 18.0) / 24.0)
    + 0.18 * np.cos(4.0 * np.pi * (_HOURS - 7.5) / 24.0)
)

_BASE_KWH_LOW = 1.55
_BASE_KWH_HIGH = 1.77
_DAY_LEVEL_SIGMA = 0.05  # lognormal sigma of the per-day level factor
_HOUR_JITTER_SIGMA = 0.32  # lognormal sigma of per-hour jitter
_MINUTE_NOISE_KW = 0.04


def synthetic_hourly_templates(
    n_homes: int = 7, days: int = 28, seed: int = 0
) -> list[HourlySeries]:
    """Generate ``n_homes`` hourly templates of ``days`` days each from minute readings.

    Deterministic: home j draws from RNG stream (seed, "synth", j), so
    adding homes or reordering calls never perturbs existing templates.
    """
    if n_homes < 1 or days < 1:
        raise ValueError("need at least one home and one day")
    homes = []
    for j in range(n_homes):
        rng = stream(seed, "synth", j)
        base = rng.uniform(_BASE_KWH_LOW, _BASE_KWH_HIGH)
        # lognormal factors with unit mean: exp(N(-s^2/2, s))
        day_level = np.exp(
            rng.normal(-0.5 * _DAY_LEVEL_SIGMA**2, _DAY_LEVEL_SIGMA, size=days)
        )
        jitter = np.exp(
            rng.normal(-0.5 * _HOUR_JITTER_SIGMA**2, _HOUR_JITTER_SIGMA, size=(days, 24))
        )
        hourly_kw = base * day_level[:, None] * _DAY_SHAPE[None, :] * jitter
        minute_kw = np.repeat(hourly_kw.reshape(-1), 60)
        minute_kw = minute_kw + rng.normal(0.0, _MINUTE_NOISE_KW, size=minute_kw.size)
        np.maximum(minute_kw, 0.0, out=minute_kw)
        homes.append(hourly_series(f"synth_{j}", np.arange(minute_kw.size), minute_kw))
    return homes
