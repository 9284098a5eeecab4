"""Micro-grid population synthesis by day-block bootstrap.

Builds an (hours x homes) base-load matrix from a handful of hourly
templates: home i is assigned template i mod K (round robin) and each of
its simulated days is an aligned 24-hour block drawn uniformly, with
replacement, from that template's complete days. Per-home RNG streams are
keyed (seed, "home", i), so growing the population or re-drawing one home
never reshuffles the others.

Home i's day picks are ``stream(seed, "home", i).integers(0, blocks_i,
num_days)``. ``seeds.stream_integers`` computes them for a block of homes at
once, bit-identical to building each home's Generator, and the grid is
filled one simulated day at a time across the block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gridloop.ingest import HourlySeries
from gridloop.seeds import stream_integers
from gridloop.tables import FINITE, NON_NEGATIVE, read_table, write_table

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
        if self.n_homes < 1:
            raise ValueError("n_homes must be >= 1")
        if self.num_days < 1:
            raise ValueError("num_days must be >= 1")


@dataclass
class Microgrid:
    """Base loads for a simulated population: kwh[t, i] for hour t, home i."""

    kwh: np.ndarray
    template_ids: tuple[str, ...]

    @property
    def n_hours(self) -> int:
        return self.kwh.shape[0]

    @property
    def n_homes(self) -> int:
        return self.kwh.shape[1]


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
    out = np.empty((cfg.num_days * BLOCK_HOURS, cfg.n_homes))
    for lo in range(0, cfg.n_homes, _BLOCK_HOMES):
        hi = min(lo + _BLOCK_HOMES, cfg.n_homes)
        k = which[lo:hi]
        picks = stream_integers((cfg.seed, "home"), np.arange(lo, hi), usable[k], cfg.num_days)
        picks += first[k, None]
        for d in range(cfg.num_days):
            rows = slice(d * BLOCK_HOURS, (d + 1) * BLOCK_HOURS)
            np.take(day_rows, picks[:, d], axis=1, out=out[rows, lo:hi])
    ids = [t.home_id for t in templates]
    assigned = [ids[k] for k in which]
    return Microgrid(kwh=out, template_ids=tuple(assigned))


def write_microgrid(grid: Microgrid, path: str) -> None:
    """CSV with header hour,home_0,...,home_{N-1}; full float precision."""
    header = ["hour"] + [f"home_{i}" for i in range(grid.n_homes)]
    write_table(path, header, [np.arange(grid.n_hours)] + list(grid.kwh.T))


def read_microgrid(path: str) -> Microgrid:
    """Read a micro-grid CSV; every load must be finite and non-negative."""
    cols = read_table(path, {"hour": FINITE}, more=NON_NEGATIVE)
    homes = list(cols)[1:]
    return Microgrid(kwh=np.stack([cols[h] for h in homes], axis=1), template_ids=tuple(homes))
