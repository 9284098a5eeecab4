"""Minute-level meter readings -> hourly energy series.

A template CSV is a gridloop table ``minute,kw`` of one home's instantaneous
power draw, one reading per minute and row. The reader checks it, fills
short gaps and returns the home's hourly series at once: hourly energy is
the sampling period times the mean power over the hour's readings, i.e. for
a full hour of minutes E[kWh] = mean(kW). Short gaps in the minute index are
linearly interpolated; anything longer is refused rather than guessed at.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from gridloop.tables import NON_NEGATIVE, WHOLE, read_table

__all__ = [
    "HourlySeries",
    "hourly_series",
    "load_template",
    "load_template_dir",
]

MAX_GAP_MINUTES = 5


@dataclass
class HourlySeries:
    """Hourly energy series in kWh (0-based hour index, contiguous)."""

    home_id: str
    hours: np.ndarray
    kwh: np.ndarray

    def __post_init__(self):
        self.hours = np.asarray(self.hours, dtype=np.int64)
        self.kwh = np.asarray(self.kwh, dtype=float)
        if self.hours.shape != self.kwh.shape or self.hours.ndim != 1:
            raise ValueError("hours and kwh must be 1-d arrays of equal length")
        if len(self.hours) and np.any(np.diff(self.hours) != 1):
            raise ValueError("hour index must be contiguous")
        if np.any(self.kwh < 0) or not np.all(np.isfinite(self.kwh)):
            raise ValueError("invalid reading: energy must be finite and non-negative")


def load_template(path: str) -> HourlySeries:
    """Read one ``minute,kw`` table into its hourly series, short gaps filled.

    Raises ValueError naming ``path:line`` for a malformed row, negative
    power, a minute index that is outside [0, 2**31) or not increasing, or
    a gap too wide to fill.
    """
    cols = read_table(path, {"minute": WHOLE, "kw": NON_NEGATIVE})
    minutes = cols["minute"]
    if not len(minutes):
        raise ValueError(f"{path}: template has no readings")
    huge = minutes >= 2**31
    bad = np.flatnonzero(huge | (np.diff(minutes, prepend=-1.0) <= 0))
    if len(bad):
        i = bad[0]
        why = (f"minute {float(minutes[i])!r} outside [0, 2**31)" if huge[i]
               else "minute index must be strictly increasing")
        raise ValueError(f"{path}:{i + 2}: {why}")
    home_id = os.path.splitext(os.path.basename(path))[0]
    filled_m, filled_kw = _fill_gaps(minutes.astype(np.int64), cols["kw"], path)
    return hourly_series(home_id, filled_m, filled_kw)


def _fill_gaps(minutes: np.ndarray, kw: np.ndarray, path: str):
    """Linearly interpolate internal gaps of at most MAX_GAP_MINUTES minutes."""
    gaps = np.diff(minutes)
    if np.all(gaps == 1):
        return minutes, kw
    too_wide = np.where(gaps > MAX_GAP_MINUTES + 1)[0]
    if len(too_wide):
        i = too_wide[0]
        raise ValueError(  # on the line of the reading after the gap, row i + 1
            f"{path}:{i + 3}: unfillable gap of {gaps[i] - 1} minutes after minute {minutes[i]}"
        )
    full = np.arange(minutes[0], minutes[-1] + 1)
    return full, np.interp(full, minutes, kw)


def load_template_dir(path: str) -> list[HourlySeries]:
    """All ``*.csv`` templates under ``path``, sorted by filename."""
    names = sorted(n for n in os.listdir(path) if n.endswith(".csv"))
    if not names:
        raise ValueError(f"{path}: no template CSVs found")
    return [load_template(os.path.join(path, n)) for n in names]


def hourly_series(home_id: str, minutes: np.ndarray, kw: np.ndarray) -> HourlySeries:
    """Aggregate gap-free minute kW readings into hourly kWh.

    Each hour bucket (minute // 60) carries 1..60 readings; its energy is
    the bucket's mean power times the one-hour period. Buckets are indexed
    from the first hour present so the output is contiguous.
    """
    idx = minutes // 60 - minutes[0] // 60
    kwh = np.bincount(idx, weights=kw) / np.bincount(idx)
    return HourlySeries(home_id=home_id, hours=np.arange(len(kwh)), kwh=kwh)
