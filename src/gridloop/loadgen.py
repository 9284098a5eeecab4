"""Micro-grid population synthesis by day-block bootstrap.

A population is its day picks: home i is assigned template i mod K (round
robin) and each of its simulated days is one of that template's complete
24-hour day blocks, drawn uniformly with replacement. ``Microgrid`` keeps
every template's day blocks side by side and one block index per (home,
day); the (hours x homes) base-load matrix is built from them on first use.

Day d of home i is pick ``hash_integers((seed, "home"), i, d, blocks_i)``,
a counter-based hash of (seed, home, day), so growing the population or
the horizon never reshuffles a home's days. The picks are drawn for a
block of homes at once, and the matrix is filled one simulated day of
every home at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from gridloop.ingest import HourlySeries
from gridloop.seeds import hash_integers
from gridloop.tables import integer, number, read_json, write_json

__all__ = ["BootstrapConfig", "Microgrid", "read_microgrid", "synthesize_microgrid", "write_microgrid"]

BLOCK_HOURS = 24
# homes bootstrapped per vectorized pass; bounds the scratch memory beside the grid
_BLOCK_HOMES = 4096


@dataclass(frozen=True)
class BootstrapConfig:
    """Day-block bootstrap parameters.

    n_homes:  population size (>= 1)
    num_days: simulated horizon in days (>= 1); output has 24*num_days hours
    seed:     master seed for the per-home streams
    """

    n_homes: int
    num_days: int
    seed: int = 0

    def __post_init__(self):
        if not (integer(self.n_homes) and self.n_homes >= 1):
            raise ValueError("n_homes must be an integer >= 1")
        if not (integer(self.num_days) and self.num_days >= 1):
            raise ValueError("num_days must be an integer >= 1")


@dataclass
class Microgrid:
    """A simulated population as its day picks.

    day_rows: (24 x B) loads; column j is day block j, the templates' blocks in template order
    picks:    (homes x days) block indices, in the smallest unsigned dtype that holds B - 1;
              day d of home i is day_rows[:, picks[i, d]]
    kwh:      (hours x homes) base loads kwh[t, i], built from the two on first use
    """

    day_rows: np.ndarray
    picks: np.ndarray

    @property
    def n_hours(self) -> int:
        return self.picks.shape[1] * BLOCK_HOURS

    @property
    def n_homes(self) -> int:
        return self.picks.shape[0]

    @cached_property
    def kwh(self) -> np.ndarray:
        if not 0 <= self.picks.min() <= self.picks.max() < self.day_rows.shape[1]:
            raise ValueError(f"every pick must be a day block (0..{self.day_rows.shape[1] - 1})")
        out = np.empty((self.n_hours, self.n_homes))
        for d, day in enumerate(out.reshape(-1, BLOCK_HOURS, self.n_homes)):
            # mode="raise" would fill a buffer the size of `day`; the check above makes "clip" a no-op
            np.take(self.day_rows, self.picks[:, d], axis=1, out=day, mode="clip")
        return out


def synthesize_microgrid(templates: list[HourlySeries], cfg: BootstrapConfig) -> Microgrid:
    """Bootstrap a population from hourly templates.

    Every simulated day of home i is a verbatim aligned day-block of its
    template, so marginal hourly statistics are preserved exactly.
    """
    if not templates:
        raise ValueError("need at least one template")
    usable = np.array([len(t.kwh) // BLOCK_HOURS for t in templates])
    if usable.min() < 1:
        short = templates[int(np.argmin(usable))].home_id
        raise ValueError(f"template {short!r} has no complete day block")

    # every template's day blocks side by side: column first[k] + j is day j of template k
    day_rows = np.concatenate([t.kwh[: b * BLOCK_HOURS] for t, b in zip(templates, usable)])
    day_rows = np.ascontiguousarray(day_rows.reshape(-1, BLOCK_HOURS).T)
    first = np.cumsum(usable) - usable
    which = np.arange(cfg.n_homes) % len(templates)
    picks = np.empty((cfg.n_homes, cfg.num_days), dtype=np.min_scalar_type(day_rows.shape[1] - 1))
    days = np.arange(cfg.num_days)
    for lo in range(0, cfg.n_homes, _BLOCK_HOMES):
        hi = min(lo + _BLOCK_HOMES, cfg.n_homes)
        k = which[lo:hi]
        block = hash_integers((cfg.seed, "home"), np.arange(lo, hi)[:, None], days, usable[k, None])
        picks[lo:hi] = block + first[k, None]
    return Microgrid(day_rows=day_rows, picks=picks)


def write_microgrid(grid: Microgrid, path: str) -> None:
    """JSON object: "days", B lists of 24 loads, and "picks", each home's day block per day."""
    write_json(path, {"days": grid.day_rows.T.tolist(), "picks": grid.picks.tolist()})


def read_microgrid(path: str) -> Microgrid:
    """Read a micro-grid file; every load must be finite and non-negative, every pick a day block."""
    payload = read_json(path, {"days": None, "picks": None})
    days, picks = payload["days"], payload["picks"]
    if not (isinstance(days, list) and days and all(
            isinstance(day, list) and len(day) == BLOCK_HOURS and all(map(number, day)) for day in days)):
        raise ValueError(f"{path}: days must be a non-empty list of lists of {BLOCK_HOURS} numbers")
    loads = np.array(days, dtype=float)
    bad = np.argwhere(~(np.isfinite(loads) & (loads >= 0)))
    if len(bad):
        j, h = bad[0]
        raise ValueError(f"{path}: days[{j}][{h}] {days[j][h]!r} must be finite and non-negative")
    if not (isinstance(picks, list) and picks and all(isinstance(row, list) for row in picks)
            and picks[0] and all(len(row) == len(picks[0]) for row in picks)):
        raise ValueError(f"{path}: picks must be a non-empty list of equal-length, non-empty lists")
    # one pass over the types (a bool, float or list is no pick: -1), then one range comparison;
    # an int past int64 makes a float or object array, which compares all the same
    index = np.array([v if integer(v) else -1 for row in picks for v in row])
    if len(bad := np.flatnonzero((index < 0) | (index >= len(days)))):
        i, d = divmod(int(bad[0]), len(picks[0]))
        raise ValueError(f"{path}: picks[{i}][{d}] {picks[i][d]!r} is not a day block (0..{len(days) - 1})")
    return Microgrid(day_rows=np.ascontiguousarray(loads.T),
                     picks=index.reshape(len(picks), -1).astype(np.min_scalar_type(len(days) - 1)))
