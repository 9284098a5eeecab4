"""Price <-> load feedback loop between a utility and DSM households.

Demand is price-elastic: a participating household facing price P serves
only the elastic fraction of its base need phi, so its realized load is

    l = kappa * phi * P**eps + (1 - kappa) * phi

with kappa the DSM participation fraction and eps < 0 the demand
elasticity. At a posted price every home serves the same fraction
c = (1 - kappa) + kappa * P**eps of its need, so the loop runs on the
aggregate base load Phi and, under attack, the victims' share Phi_v:

    L = c * (Phi - Phi_v) + ((1 - kappa) + kappa * (P + a)**eps) * Phi_v

under a price offset a, and c * (Phi - Phi_v) + sum_v max(0, c * phi_v + d)
under a load delta d per victim, the only case that reads single homes.
The utility inverts the same model to steer the aggregate toward one
target load L': given a forecast of the aggregate base load and an
assumed elasticity it posts

    P_t = (L*_t / forecast) ** (1 / eps_hat)

where L*_t is hour t's adjusted target (see the goals below). Because the
posted price shapes the very loads the utility observes next, the two form
a closed loop -- which is exactly the surface the attack and detection
modules probe. simulate applies an attack schedule inside that loop;
inject_post_hoc instead forges the recorded aggregate of a finished run.

Targeting goals
---------------
goal1: L*_t = L' (track the target directly)
goal2: L*_t = L' + (L' - L_{t-1}) (correct last hour's miss)

A non-positive L*_t is replaced by a small positive floor so the posted
price stays physical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from gridloop.tables import BINARY, NON_NEGATIVE, POSITIVE, WHOLE, integer, number, read_table, write_table

__all__ = [
    "BaseLoadError",
    "GridConfig",
    "SimulationTrace",
    "inject_post_hoc",
    "read_trace",
    "simulate",
    "write_trace",
]

# each trace column and what it must hold
_TRACE_DOMAINS = {
    "hour": WHOLE,
    "price": POSITIVE,
    **dict.fromkeys(("base_load", "forecast", "target", "lstar", "observed_load"), NON_NEGATIVE),
    "attack_truth": BINARY,
}
TRACE_COLUMNS = list(_TRACE_DOMAINS)


class BaseLoadError(ValueError):
    """An hour whose total base load is zero, negative or not finite: no price steers it."""


@dataclass(frozen=True)
class GridConfig:
    """Closed-loop simulation parameters.

    target is the load L' the utility steers every hour toward.
    eps_dsm_hat is the utility's assumed elasticity; None means it matches
    the true household elasticity.
    """

    n_homes: int
    kappa: float
    eps_dsm: float = -1.0
    eps_dsm_hat: float | None = None
    goal: str = "goal1"
    target: float = 200.0
    lstar_floor: float = 10.0

    def __post_init__(self):
        if not (integer(self.n_homes) and self.n_homes >= 1):
            raise ValueError("n_homes must be an integer >= 1")
        # a number (tables.number) in range; NaN fails every range check
        if not (number(self.kappa) and 0.0 <= self.kappa <= 1.0):
            raise ValueError("kappa must lie in [0, 1]")
        if not (number(self.eps_dsm) and -np.inf < self.eps_dsm < 0):
            raise ValueError("eps_dsm must be finite and negative")
        if self.eps_dsm_hat is not None and not (number(self.eps_dsm_hat) and -np.inf < self.eps_dsm_hat < 0):
            raise ValueError("eps_dsm_hat must be finite and negative")
        if self.goal not in ("goal1", "goal2"):
            raise ValueError(f"unknown goal {self.goal!r}")
        if not (number(self.target) and 0 < self.target < np.inf):
            raise ValueError("target must be finite and positive")
        if not (number(self.lstar_floor) and 0 < self.lstar_floor < np.inf):
            raise ValueError("lstar_floor must be finite and positive")

    @property
    def effective_eps_hat(self) -> float:
        return self.eps_dsm if self.eps_dsm_hat is None else self.eps_dsm_hat


@dataclass
class SimulationTrace:
    """Hourly record of one closed-loop run; an array's position is its hour.

    clamped counts household loads that a direct manipulation pushed below
    zero (truncated to 0).
    """

    price: np.ndarray
    base_load: np.ndarray
    forecast: np.ndarray
    target: np.ndarray
    lstar: np.ndarray
    observed_load: np.ndarray
    attack_truth: np.ndarray
    clamped: int = 0

    def __len__(self) -> int:
        return len(self.observed_load)


def simulate(grid, cfg: GridConfig, schedule=None) -> SimulationTrace:
    """Run the pricing loop over a base-load matrix.

    grid: (hours x homes) array of base loads phi[t, i]. The utility
        forecasts hour t's aggregate base load by persistence, as hour
        t - 1's total; hour 0 uses its own total (no history yet).
    schedule: optional AttackSchedule, applied inside the loop, where its
        effect feeds back through prices and history.

    The loop itself draws no randomness: identical inputs give bit-identical
    traces.
    """
    base = np.asarray(grid, dtype=float)
    if base.ndim != 2:
        raise ValueError("grid must be a (hours x homes) matrix")
    n_hours, n_homes = base.shape
    if n_homes != cfg.n_homes:
        raise ValueError(f"grid has {n_homes} homes but config says {cfg.n_homes}")

    # the pricing step stays on Python floats, whose ** raises on overflow
    eps, eps_hat, target = float(cfg.eps_dsm), float(cfg.effective_eps_hat), float(cfg.target)
    goal2, lstar_floor = cfg.goal == "goal2", float(cfg.lstar_floor)

    victims = schedule.victim_indices(n_homes) if schedule is not None else None
    # a victim set that names every home spares none: its base load is the total
    subset = schedule is not None and len(victims) < n_homes
    kappa = cfg.kappa

    base_total = base.sum(axis=1)
    price = np.empty(n_hours)
    forecast = np.empty(n_hours)
    lstar = np.empty(n_hours)
    observed = np.empty(n_hours)
    truth = np.zeros(n_hours, dtype=np.int8)
    clamped = 0

    for t in range(n_hours):
        phi_hat = float(base_total[max(t - 1, 0)])
        if not np.isfinite(phi_hat) or phi_hat <= 0:
            raise BaseLoadError(f"hour {max(t - 1, 0)}: base-load total {phi_hat!r} "
                                "must be finite and positive")

        # goal2 adds last hour's miss to the target; a non-positive L* takes the floor
        l_t = target + (target - float(observed[t - 1])) if goal2 and t > 0 else target
        if l_t <= 0:
            l_t = lstar_floor
        try:
            p_t = (l_t / phi_hat) ** (1.0 / eps_hat)
            # every home serves c_t of its need at the posted price
            c_t = (1.0 - kappa) + kappa * p_t**eps
        except (OverflowError, ZeroDivisionError):
            # the price overflowed, or underflowed to 0 and 0**eps divides by zero
            raise _out_of_float_range(t, eps, eps_hat) from None
        price[t] = p_t
        forecast[t] = phi_hat
        lstar[t] = l_t

        delta = schedule.value_at(t) if schedule is not None else 0.0
        if delta == 0.0:
            observed[t] = c_t * base_total[t]
            continue
        if subset:
            phi_v = base[t, victims]
            phi_v_total = phi_v.sum()
        else:
            phi_v, phi_v_total = base[t], base_total[t]
        if schedule.mode == "price":
            seen = p_t + delta
            if seen <= 0:
                raise ValueError("non-physical price: attacked price must stay positive")
            try:
                hit = ((1.0 - kappa) + kappa * seen**eps) * phi_v_total
            except OverflowError:
                raise _out_of_float_range(t, eps, eps_hat) from None
        else:  # load manipulation, split across victims
            loads = c_t * phi_v + delta / len(victims)
            neg = loads < 0
            clamped += int(neg.sum())
            hit = np.where(neg, 0.0, loads).sum()
        # the difference of two sums can round below zero where the
        # spared homes need nothing
        observed[t] = c_t * max(base_total[t] - phi_v_total, 0.0) + hit
        truth[t] = 1

    return SimulationTrace(
        price=price,
        base_load=base_total,
        forecast=forecast,
        target=np.full(n_hours, target),
        lstar=lstar,
        observed_load=observed,
        attack_truth=truth,
        clamped=clamped,
    )


def inject_post_hoc(trace: SimulationTrace, schedule) -> SimulationTrace:
    """Tamper the recorded aggregate of a finished run (no feedback).

    Only load-mode schedules make sense here: households already responded
    to the genuine price, so a price schedule has nothing to act on. The
    attack forges the aggregate record, not the physical behavior. Negative
    results truncate to zero and are counted in ``clamped``.
    """
    if schedule.mode != "load":
        raise ValueError(
            "a price schedule acts only inside the loop (gridloop simulate --schedule)"
        )
    values = np.array([schedule.value_at(t) for t in range(len(trace))])
    observed = trace.observed_load + values
    neg = observed < 0
    truth = np.where(values != 0.0, 1, trace.attack_truth).astype(np.int8)
    return replace(
        trace,
        observed_load=np.where(neg, 0.0, observed),
        attack_truth=truth,
        clamped=trace.clamped + int(neg.sum()),
    )


def _out_of_float_range(t: int, eps: float, eps_hat: float) -> ValueError:
    return ValueError(
        f"hour {t}: the price or its power leaves the float range; "
        f"eps_dsm={eps} and eps_dsm_hat={eps_hat} are too extreme for these loads"
    )


def write_trace(trace: SimulationTrace, path: str) -> None:
    """Aggregate trace CSV, one row per hour; its hour column is the row's position."""
    write_table(path, TRACE_COLUMNS, [np.arange(len(trace)), *(getattr(trace, c) for c in TRACE_COLUMNS[1:])])


def read_trace(path: str) -> SimulationTrace:
    """Read a trace CSV; hours 0..n-1 down the rows, prices positive, loads non-negative, truth 0 or 1."""
    col = read_table(path, _TRACE_DOMAINS)
    hour = col.pop("hour")
    if len(off := np.flatnonzero(hour != np.arange(len(hour)))):
        raise ValueError(f"{path}:{off[0] + 2}: hour must be {off[0]}, the row's position")
    col["attack_truth"] = col["attack_truth"].astype(np.int8)
    return SimulationTrace(**col)
