"""Integrity attacks on the pricing loop: schedules and the schedule file.

Two attack surfaces exist. A *price* attack perturbs the price signal a
set of victim homes receives (their meters see P + a and respond to it,
and P + a must stay positive); a *load* attack adds energy directly to
victim loads, each truncated at zero. An AttackSchedule says when, whom
and by how much; feedback.simulate applies it inside the closed loop,
while feedback.inject_post_hoc adds a load schedule to the recorded
aggregate of a finished run. Because households respond to price
deterministically, a price offset a_P at posted price P moves a victim's
load by

    a_L = kappa * phi * ((P + a_P)**eps - P**eps)

so a load attack of that size reproduces the price attack; the tests
check the identity inside the closed loop. With kappa = 0 nothing
responds to price.

Temporal shapes: ramp (grows by a fixed step each hour in the window),
sudden (constant level), point (isolated spikes at chosen hours).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from gridloop.tables import integer, number, read_json

__all__ = [
    "AttackSchedule",
    "make_point",
    "make_ramp",
    "make_sudden",
    "read_schedule",
]

MODES = ("load", "price")
KINDS = ("ramp", "sudden", "point")


@dataclass(frozen=True)
class AttackSchedule:
    """When, whom, and by how much to attack.

    window is [start, end) in hours. values are aggregate magnitudes: a
    load attack splits the hour's value equally across victims when applied
    per home, while a price attack broadcasts it to every victim unscaled
    (a price offset is not divisible across meters). victims = None means
    every home; window, victims and point hours are ints (``tables.integer``).
    """

    mode: str
    kind: str
    window: tuple[int, int]
    params: dict = field(default_factory=dict)
    victims: tuple[int, ...] | None = None

    def __post_init__(self):
        window, victims = self.window, self.victims
        if not (type(window) in (list, tuple) and len(window) == 2 and all(map(integer, window))):
            raise ValueError(f"window {window!r} must be a list [start, end] of hours")
        if not (victims is None or type(victims) in (list, tuple) and all(map(integer, victims))):
            raise ValueError(f"victims {victims!r} must be null or a list of home indices")
        object.__setattr__(self, "window", tuple(window))
        object.__setattr__(self, "victims", None if victims is None else tuple(victims))
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        start, end = window
        if not (0 <= start < end):
            raise ValueError("window must satisfy 0 <= start < end")
        if self.victims is not None:
            if len(self.victims) == 0:
                raise ValueError("victims must be None (all homes) or non-empty")
            if len(set(self.victims)) != len(self.victims):
                raise ValueError("victims must be distinct")
        if self.kind == "ramp":
            if not _finite(step := self.params.get("step")):
                raise ValueError("ramp needs a finite 'step' parameter")
            if step and end - start > sys.float_info.max / abs(float(step)):  # step * (end - start) overflows
                raise ValueError(f"ramp step {step!r} over window [{start}, {end}) exceeds the largest float")
        elif self.kind == "sudden":
            if not _finite(self.params.get("level")):
                raise ValueError("sudden needs a finite 'level' parameter")
        else:
            values = self.params.get("values")
            if not isinstance(values, dict) or not values:
                raise ValueError("point needs a non-empty 'values' map")
            for t, v in values.items():
                if not integer(t):
                    raise ValueError(f"point hour {t!r} must be an integer")
                if not (start <= t < end):
                    raise ValueError(f"point hour {t} outside window [{start}, {end})")
                if not _finite(v):
                    raise ValueError(f"point value at hour {t} must be finite")

    def value_at(self, t: int) -> float:
        """Aggregate attack magnitude at hour t (0 outside the window)."""
        start, end = self.window
        if not (start <= t < end):
            return 0.0
        if self.kind == "ramp":
            return float(self.params["step"]) * (t - start + 1)
        if self.kind == "sudden":
            return float(self.params["level"])
        return float(self.params["values"].get(t, 0.0))

    def victim_indices(self, n_homes: int) -> np.ndarray:
        if self.victims is None:
            return np.arange(n_homes)
        try:
            idx = np.asarray(self.victims, dtype=np.int64)
        except OverflowError:  # an index past int64 is out of range too
            idx = np.array([n_homes])
        if np.any(idx < 0) or np.any(idx >= n_homes):
            raise ValueError(f"victim index out of range for {n_homes} homes")
        return idx


def make_ramp(window, step: float, mode: str = "load", victims=None) -> AttackSchedule:
    """Magnitude step, 2*step, ... across the window."""
    return AttackSchedule(mode=mode, kind="ramp", window=window, params={"step": step}, victims=victims)


def make_sudden(window, level: float, mode: str = "load", victims=None) -> AttackSchedule:
    """Constant magnitude across the window."""
    return AttackSchedule(mode=mode, kind="sudden", window=window, params={"level": level}, victims=victims)


def make_point(values: dict, window, mode: str = "load", victims=None) -> AttackSchedule:
    """Isolated spikes {hour: magnitude}, each hour inside the window."""
    return AttackSchedule(mode=mode, kind="point", window=window, params={"values": values}, victims=victims)


# ---------------------------------------------------------------------------
# the schedule file

def read_schedule(path: str) -> AttackSchedule:
    """Read a schedule JSON (a point hour's key as an int); a missing key or a bad field names the file."""
    payload = read_json(path, dict.fromkeys(("mode", "kind", "window", "params")))
    params = payload["params"]
    if not isinstance(params, dict):
        raise ValueError(f"{path}: 'params' must be an object")
    try:
        if payload["kind"] == "point" and isinstance(params.get("values"), dict):
            values = {}
            for t, v in params["values"].items():  # "15" and "015" are one hour
                if (hour := int(t)) in values:
                    raise ValueError(f"point hour {hour} is given twice")
                values[hour] = v
            params = {**params, "values": values}
        return AttackSchedule(
            mode=payload["mode"],
            kind=payload["kind"],
            window=payload["window"],
            params=params,
            victims=payload.get("victims"),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _finite(value) -> bool:
    return number(value) and abs(value) <= sys.float_info.max
