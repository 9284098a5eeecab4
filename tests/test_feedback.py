import dataclasses
import hashlib
import re

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from gridloop.attack import make_point, make_ramp, make_sudden
from gridloop.feedback import (
    TRACE_COLUMNS,
    BaseLoadError,
    GridConfig,
    inject_post_hoc,
    read_trace,
    simulate,
    write_trace,
)

# ---------------------------------------------------------------------------
# a household's load, seen through the loop: one home, one hour, and a
# target that makes the utility post the price the example needs

def _one_hour(base, kappa, eps, target):
    base = np.atleast_1d(np.asarray(base, dtype=float))
    cfg = GridConfig(n_homes=len(base), kappa=kappa, eps_dsm=eps, target=target)
    trace = simulate(base[None, :], cfg)
    return float(trace.price[0]), float(trace.observed_load[0])


def test_household_load_worked_example():
    # base 2, target 0.5 -> P = (0.5 / 2)^-1 = 4; half the 2 kWh need
    # responds: 0.5*2*4^-1 + 0.5*2 = 1.25
    assert _one_hour(2.0, kappa=0.5, eps=-1.0, target=0.5) == (4.0, 1.25)


def test_household_load_kappa_edges():
    price, load = _one_hour(3.0, kappa=0.0, eps=-1.0, target=3.0 / 7.0)
    assert price == pytest.approx(7.0, rel=1e-15)
    assert load == 3.0
    assert _one_hour(3.0, kappa=1.0, eps=-1.0, target=1.5) == (2.0, 1.5)
    # price 1 is the fixed point regardless of participation
    for kappa in (0.0, 0.3, 1.0):
        assert _one_hour(5.0, kappa=kappa, eps=-2.0, target=5.0) == (1.0, 5.0)


def test_household_load_vector():
    # homes of 1 and 2 kWh at P = 4, eps = -0.5 serve 0.5 and 1.0
    assert _one_hour([1.0, 2.0], kappa=1.0, eps=-0.5, target=1.5) == (4.0, 1.5)


def test_household_load_validation():
    with pytest.raises(ValueError, match="kappa"):
        GridConfig(n_homes=1, kappa=1.2)
    with pytest.raises(ValueError, match="eps_dsm"):
        GridConfig(n_homes=1, kappa=0.5, eps_dsm=0.0)
    # the posted price is 1; an offset of -1 leaves the victim a price of 0
    cfg = GridConfig(n_homes=1, kappa=0.5, target=1.0)
    with pytest.raises(ValueError, match="non-physical price"):
        simulate(np.ones((1, 1)), cfg, schedule=make_sudden((0, 1), -1.0, mode="price"))


# ---------------------------------------------------------------------------
# pricing rule, on one- and two-hour grids of one unresponsive home
# (kappa = 0 serves the whole need); the forecast is the true total at
# hour 0 and hour 0's total (persistence) at hour 1

def _price_step(totals, target, goal="goal1", lstar_floor=10.0):
    """(price, L*) of the grid's last hour."""
    base = np.asarray(totals, dtype=float)[:, None]
    cfg = GridConfig(n_homes=1, kappa=0.0, eps_dsm=-1.0, goal=goal, target=target,
                     lstar_floor=lstar_floor)
    trace = simulate(base, cfg)
    return float(trace.price[-1]), float(trace.lstar[-1])


def test_price_tracks_target():
    assert _price_step([400.0], 200.0) == (2.0, 200.0)
    assert _price_step([400.0], 400.0) == (1.0, 400.0)


def test_goal2_folds_in_tracking_error():
    # hour 0 overshoots the target of 200 by 100 -> aim 100 below it at hour 1
    assert _price_step([300.0, 300.0], 200.0, goal="goal2") == (3.0, 100.0)
    assert _price_step([300.0, 300.0], 200.0, goal="goal1") == (1.5, 200.0)


def test_goal2_without_history_matches_goal1():
    assert _price_step([400.0], 200.0, goal="goal2") == _price_step([400.0], 200.0)


def test_adjusted_target_floor():
    # 40 + (40 - 160) < 0 -> the floor, against a forecast of 160
    assert _price_step([160.0, 160.0], 40.0, goal="goal2") == (16.0, 10.0)
    assert _price_step([160.0, 160.0], 40.0, goal="goal2", lstar_floor=20.0) == (8.0, 20.0)


# ---------------------------------------------------------------------------
# closed loop

def _flat_grid(hours, homes, level=100.0):
    return np.full((hours, homes), level / homes)


def _tracking_error(trace):
    """Worst relative miss of the load a perfect forecast would serve, against L*.

    At kappa = 1 with eps_hat = eps the served load is
    base_load * (L* / forecast), so observed * forecast / base_load = L*
    exactly; with forecast = base_load that is exact tracking.
    """
    served = trace.observed_load * trace.forecast / trace.base_load
    return float(np.max(np.abs(served - trace.lstar) / trace.lstar))


def test_zero_participation_is_identity():
    rng = np.random.default_rng(0)
    base = rng.uniform(0.5, 2.5, size=(48, 5))
    cfg = GridConfig(n_homes=5, kappa=0.0)
    trace = simulate(base, cfg)
    assert np.array_equal(trace.observed_load, base.sum(axis=1))
    assert trace.attack_truth.sum() == 0


def test_full_participation_oracle_tracks_target():
    rng = np.random.default_rng(1)
    base = rng.uniform(0.5, 2.5, size=(48, 5))
    cfg = GridConfig(n_homes=5, kappa=1.0, target=60.0)
    trace = simulate(base, cfg)
    assert np.array_equal(trace.target, np.full(48, 60.0))
    assert np.array_equal(trace.lstar, np.full(48, 60.0))
    assert _tracking_error(trace) <= 1e-9


@st.composite
def _identity_cases(draw, same_eps_hat=False):
    """A random grid, elasticity, utility elasticity, goal and target."""
    hours, homes = draw(st.integers(1, 48)), draw(st.integers(1, 8))
    base = np.random.default_rng(draw(st.integers(0, 2**31))).uniform(0.05, 5.0, size=(hours, homes))
    eps = draw(st.floats(-3.0, -0.2))
    eps_hat = draw(st.sampled_from([None, eps]) if same_eps_hat else st.one_of(st.none(), st.floats(-3.0, -0.2)))
    target = draw(st.floats(0.5, 2.0)) * float(base.sum(axis=1).mean())
    goal = draw(st.sampled_from(["goal1", "goal2"]))
    return base, GridConfig(homes, 0.0, eps_dsm=eps, eps_dsm_hat=eps_hat, goal=goal, target=target)


@settings(max_examples=100, deadline=None)
@given(_identity_cases())
def test_zero_participation_identity_property(case):
    base, cfg = case
    total = base.sum(axis=1)
    trace = simulate(base, cfg)
    assert np.max(np.abs(trace.observed_load - total) / total) <= 1e-9


@settings(max_examples=100, deadline=None)
@given(_identity_cases(same_eps_hat=True))
def test_full_participation_oracle_tracking_property(case):
    # exact tracking needs the utility to know the elasticity (eps_hat = eps)
    base, cfg = case
    trace = simulate(base, dataclasses.replace(cfg, kappa=1.0))
    assert _tracking_error(trace) <= 1e-6


def test_goal2_recursion_hand_case():
    # unresponsive homes, target 200, base 100: goal2 keeps asking for the
    # accumulated miss (200 + 100 = 300) from hour 1 on
    base = _flat_grid(3, 1)
    cfg = GridConfig(n_homes=1, kappa=0.0, goal="goal2", target=200.0)
    trace = simulate(base, cfg)
    assert trace.lstar.tolist() == [200.0, 300.0, 300.0]
    assert trace.price.tolist() == [0.5, pytest.approx(1 / 3), pytest.approx(1 / 3)]
    assert np.array_equal(trace.observed_load, [100.0, 100.0, 100.0])


def test_goal2_floor_in_the_loop():
    base = _flat_grid(3, 1)
    cfg = GridConfig(n_homes=1, kappa=0.0, goal="goal2", target=50.0)
    trace = simulate(base, cfg)
    # 50 + (50 - 100) = 0 -> floored
    assert trace.lstar.tolist() == [50.0, 10.0, 10.0]


def test_forecaster_sees_base_history():
    base = np.random.default_rng(5).uniform(0.5, 2.5, size=(6, 2))
    trace = simulate(base, GridConfig(n_homes=2, kappa=0.5))
    total = base.sum(axis=1)
    # hour 0 has no history and uses its own total
    assert np.array_equal(trace.forecast, np.concatenate(([total[0]], total[:-1])))


def test_bad_forecast_rejected():
    # a bad total at hour 1 is hour 2's forecast; at hour 0 it is hour 0's own
    for hour in (0, 1):
        for bad in (-1.0, 0.0, float("nan"), float("inf")):
            base = _flat_grid(4, 2)
            base[hour] = (bad, 0.0)
            message = f"hour {hour}: base-load total {bad!r} must be finite and positive"
            with pytest.raises(BaseLoadError, match="^" + re.escape(message) + "$"):
                simulate(base, GridConfig(n_homes=2, kappa=0.5))


def test_price_attack_in_the_loop():
    base = _flat_grid(3, 1)
    cfg = GridConfig(n_homes=1, kappa=1.0, target=100.0)
    schedule = make_sudden((0, 2), level=1.0, mode="price")
    trace = simulate(base, cfg, schedule=schedule)
    # nominal price is 1; victims see 2 and halve their demand
    assert np.allclose(trace.observed_load, [50.0, 50.0, 100.0])
    assert trace.attack_truth.tolist() == [1, 1, 0]
    assert np.allclose(trace.price, 1.0)  # posted price itself is untouched


def test_price_attack_must_stay_positive():
    base = _flat_grid(3, 1)
    cfg = GridConfig(n_homes=1, kappa=1.0, target=100.0)
    schedule = make_sudden((0, 2), level=-5.0, mode="price")
    with pytest.raises(ValueError, match="non-physical price"):
        simulate(base, cfg, schedule=schedule)


def test_price_out_of_float_range_names_the_hour():
    # price 1 at hour 0; the attacked price 0.5 ** -1100 overflows at hour 1
    cfg = GridConfig(n_homes=1, kappa=0.5, eps_dsm=-1100.0, eps_dsm_hat=-1.0, target=100.0)
    schedule = make_sudden((1, 2), level=-0.5, mode="price")
    with pytest.raises(ValueError, match="hour 1: the price or its power leaves the float range"):
        simulate(_flat_grid(3, 1), cfg, schedule=schedule)
    # the posted price overflows, or underflows to 0 and 0 ** eps divides by zero
    for target in (25.0, 400.0):
        cfg = GridConfig(n_homes=1, kappa=0.5, eps_dsm_hat=-0.001, target=target)
        with pytest.raises(ValueError, match="hour 0: the price"):
            simulate(_flat_grid(3, 1), cfg)


def test_load_attack_split_across_victims():
    base = np.column_stack([np.full(3, 60.0), np.full(3, 40.0)])
    cfg = GridConfig(n_homes=2, kappa=0.0)
    hit_first = simulate(base, cfg, schedule=make_sudden((1, 2), 30.0, victims=(0,)))
    hit_all = simulate(base, cfg, schedule=make_sudden((1, 2), 30.0))
    assert hit_first.observed_load.tolist() == [100.0, 130.0, 100.0]
    assert hit_all.observed_load.tolist() == [100.0, 130.0, 100.0]
    assert hit_first.attack_truth.tolist() == [0, 1, 0]
    # -80 on home 0 alone drives it to -20, clamped at 0; split over both
    # homes it leaves 20 and 0
    first = simulate(base, cfg, schedule=make_sudden((0, 1), -80.0, victims=(0,)))
    both = simulate(base, cfg, schedule=make_sudden((0, 1), -80.0))
    assert (first.observed_load[0], first.clamped) == (40.0, 1)
    assert (both.observed_load[0], both.clamped) == (20.0, 0)


def test_load_attack_clamps_at_zero():
    base = _flat_grid(2, 1, level=10.0)
    cfg = GridConfig(n_homes=1, kappa=0.0)
    trace = simulate(base, cfg, schedule=make_sudden((0, 1), -50.0))
    assert trace.observed_load[0] == 0.0
    assert trace.clamped == 1


def test_load_attack_on_every_home_listed_out_of_order():
    # the victims' base-load sum in this order differs from the row total
    # in the last bit; every home is clamped, so the aggregate is exactly 0
    base = np.array([[1.25, 2.9, 0.2]])
    cfg = GridConfig(n_homes=3, kappa=0.0)
    trace = simulate(base, cfg, schedule=make_sudden((0, 1), -9.0, victims=(2, 0, 1)))
    assert trace.observed_load[0] == 0.0
    assert trace.clamped == 3


def test_simulate_validation():
    base = _flat_grid(3, 2)
    with pytest.raises(ValueError, match="config says"):
        simulate(base, GridConfig(n_homes=3, kappa=0.5))
    with pytest.raises(ValueError, match="matrix"):
        simulate(np.ones(5), GridConfig(n_homes=1, kappa=0.5))


def test_grid_config_validation():
    GridConfig(n_homes=1, kappa=1.0)  # inclusive upper edge
    with pytest.raises(ValueError, match="kappa"):
        GridConfig(n_homes=1, kappa=1.0001)
    with pytest.raises(ValueError):
        GridConfig(n_homes=0, kappa=0.5)
    for bad in (True, 2.0, np.int64(2)):  # a home count is a Python int
        with pytest.raises(ValueError, match="n_homes must be an integer >= 1"):
            GridConfig(n_homes=bad, kappa=0.5)
    with pytest.raises(ValueError):
        GridConfig(n_homes=1, kappa=0.5, eps_dsm=0.0)
    with pytest.raises(ValueError, match="unknown goal"):
        GridConfig(n_homes=1, kappa=0.5, goal="goal9")
    for target in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="target must be finite and positive"):
            GridConfig(n_homes=1, kappa=0.5, target=target)
    # NaN fails every comparison; each check rejects it and the infinities
    for bad in (float("nan"), float("-inf"), float("inf")):
        with pytest.raises(ValueError, match="eps_dsm must be finite and negative"):
            GridConfig(n_homes=1, kappa=0.5, eps_dsm=bad)
        with pytest.raises(ValueError, match="eps_dsm_hat must be finite and negative"):
            GridConfig(n_homes=1, kappa=0.5, eps_dsm_hat=bad)
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lstar_floor must be finite and positive"):
            GridConfig(n_homes=1, kappa=0.5, lstar_floor=bad)
    # a number is never a bool, and an int only inside the float range (float() of it would overflow)
    for bad, negative in ((10**400, -(10**400)), (True, True)):
        with pytest.raises(ValueError, match=re.escape("kappa must lie in [0, 1]")):
            GridConfig(n_homes=1, kappa=bad)
        with pytest.raises(ValueError, match="target must be finite and positive"):
            GridConfig(n_homes=1, kappa=0.5, target=bad)
        with pytest.raises(ValueError, match="lstar_floor must be finite and positive"):
            GridConfig(n_homes=1, kappa=0.5, lstar_floor=bad)
        with pytest.raises(ValueError, match="eps_dsm must be finite and negative"):
            GridConfig(n_homes=1, kappa=0.5, eps_dsm=negative)
        with pytest.raises(ValueError, match="eps_dsm_hat must be finite and negative"):
            GridConfig(n_homes=1, kappa=0.5, eps_dsm_hat=negative)
    assert GridConfig(n_homes=1, kappa=0.5, eps_dsm_hat=-2.0).effective_eps_hat == -2.0
    assert GridConfig(n_homes=1, kappa=0.5).effective_eps_hat == -1.0


def test_trace_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    base = rng.uniform(0.5, 2.0, size=(5, 2))
    trace = inject_post_hoc(simulate(base, GridConfig(n_homes=2, kappa=0.7, target=3.0)),
                            make_sudden((3, 5), 9.0))
    path = tmp_path / "trace.csv"
    write_trace(trace, str(path))
    back = read_trace(str(path))
    assert len(back) == len(trace) == 5
    for col in TRACE_COLUMNS[1:]:  # the hour column is the row's position, not a field
        assert np.array_equal(getattr(back, col), getattr(trace, col)), col


@pytest.mark.parametrize(
    "column, value, rule",
    [
        ("observed_load", "inf", "must be finite and non-negative"),
        ("base_load", "nan", "must be finite and non-negative"),
        ("forecast", "-1.0", "must be finite and non-negative"),
        ("price", "0.0", "must be finite and positive"),
        ("attack_truth", "7", "must be 0 or 1"),
        ("hour", "0.5", "must be a whole number >= 0"),
        ("hour", "-7", "must be a whole number >= 0"),
    ],
)
def test_read_trace_rejects_bad_values(tmp_path, column, value, rule):
    base = np.full((3, 1), 2.0)
    path = tmp_path / "trace.csv"
    write_trace(simulate(base, GridConfig(n_homes=1, kappa=0.5, target=1.0)), str(path))
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[TRACE_COLUMNS.index(column)] = value
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    want = f"{path}:3: {column} {float(value)!r} {rule}"
    with pytest.raises(ValueError, match="^" + re.escape(want)):
        read_trace(str(path))


@pytest.mark.parametrize(
    "hours, line, want",
    [([1, 2, 3, 4], 2, 0), ([0, 1, 1, 2], 4, 2), ([0, 1, 3, 4], 4, 2), ([0, 1, 2, 2], 5, 3)],
    ids=["shifted", "repeated", "skipped", "last-repeated"],
)
def test_read_trace_rejects_hours_off_their_rows(tmp_path, hours, line, want):
    # attacks land and detectors slice by row, so an hour column that disagrees is malformed
    path = tmp_path / "trace.csv"
    write_trace(simulate(np.full((4, 1), 2.0), GridConfig(n_homes=1, kappa=0.5, target=1.0)), str(path))
    header, *rows = path.read_text().splitlines()
    rows = [f"{h},{row.split(',', 1)[1]}" for h, row in zip(hours, rows, strict=True)]
    path.write_text("\n".join([header, *rows]) + "\n")
    want = f"{path}:{line}: hour must be {want}, the row's position"
    with pytest.raises(ValueError, match="^" + re.escape(want) + "$"):
        read_trace(str(path))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 20),                      # hours
    st.integers(1, 4),                       # homes
    st.floats(0.0, 1.0),                     # kappa
    st.floats(10.0, 500.0),                  # target
    st.integers(0, 2**31),                   # seed
)
def test_loop_invariants(hours, homes, kappa, target, seed):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.2, 3.0, size=(hours, homes))
    cfg = GridConfig(n_homes=homes, kappa=kappa, target=target, goal="goal2")
    trace = simulate(base, cfg)
    assert len(trace) == hours
    assert np.all(trace.price > 0)
    assert np.all(trace.lstar > 0)
    assert np.all(trace.observed_load > 0)
    assert trace.attack_truth.sum() == 0


def _per_home_loop(base, cfg, schedule):
    """The closed loop evaluated home by home: every home's load each hour.

    Reference for simulate's aggregate form. Returns (price, lstar,
    observed, truth, clamped, well_posed). The two forms round the loads
    differently, so an hour is ill-posed for comparison where an attacked
    victim's load lies within 1e-9 of zero (it may clamp in one form only)
    or where goal2's target + (target - prev_load) cancels to under
    5% of its terms (the cancellation magnifies the rounding difference).
    """
    n_hours, n_homes = base.shape
    target = cfg.target
    total = base.sum(axis=1)
    victims = schedule.victim_indices(n_homes) if schedule is not None else None
    kappa, eps = cfg.kappa, cfg.eps_dsm
    price, lstar, observed = np.empty(n_hours), np.empty(n_hours), np.empty(n_hours)
    truth = np.zeros(n_hours, dtype=np.int8)
    clamped, well_posed = 0, True
    for t in range(n_hours):
        raw = target
        if cfg.goal == "goal2" and t:
            terms = target + target + observed[t - 1]
            raw = target + (target - observed[t - 1])
            well_posed &= abs(raw) > 0.05 * terms
        lstar[t] = raw if raw > 0 else cfg.lstar_floor
        price[t] = (lstar[t] / total[max(t - 1, 0)]) ** (1.0 / cfg.effective_eps_hat)
        delta = schedule.value_at(t) if schedule is not None else 0.0
        seen = np.full(n_homes, price[t])
        if delta != 0.0 and schedule.mode == "price":
            seen[victims] += delta
            if np.any(seen <= 0):
                raise ValueError("non-physical price: attacked price must stay positive")
        loads = kappa * base[t] * seen**eps + (1.0 - kappa) * base[t]
        if delta != 0.0 and schedule.mode == "load":
            loads[victims] += delta / len(victims)
            well_posed &= bool(np.all(np.abs(loads[victims]) > 1e-9))
            clamped += int(np.sum(loads < 0))
            loads = np.maximum(loads, 0.0)
        truth[t] = delta != 0.0
        observed[t] = loads.sum()
    return price, lstar, observed, truth, clamped, well_posed


@st.composite
def _loop_cases(draw):
    hours = draw(st.integers(2, 12))
    homes = draw(st.integers(1, 6))
    base = np.random.default_rng(draw(st.integers(0, 2**31))).uniform(
        0.2, 3.0, size=(hours, homes)
    )
    cfg = GridConfig(
        n_homes=homes,
        kappa=draw(st.floats(0.0, 1.0)),
        eps_dsm=draw(st.floats(-3.0, -0.2)),
        goal=draw(st.sampled_from(["goal1", "goal2"])),
        target=draw(st.floats(0.5, 2.0)) * float(base.sum(axis=1).mean()),
        lstar_floor=0.1,
    )
    victims = draw(st.one_of(
        st.none(),
        st.lists(st.integers(0, homes - 1), min_size=1, max_size=homes, unique=True).map(tuple),
    ))
    mode = draw(st.sampled_from(["price", "load"]))
    start = draw(st.integers(0, hours - 1))
    window = (start, draw(st.integers(start + 1, hours)))
    n_victims = homes if victims is None else len(victims)
    if mode == "price":  # offsets below -P make the price non-physical
        level = draw(st.floats(-2.0, 2.0))
        schedule = make_sudden(window, level, mode="price", victims=victims)
    else:  # per victim, -4 kWh clamps most homes and +1 none
        per_victim = draw(st.floats(-4.0, 1.0))
        schedule = make_ramp(window, per_victim * n_victims / (window[1] - start),
                             mode="load", victims=victims)
    return base, cfg, draw(st.sampled_from([None, schedule]))


@settings(max_examples=200, deadline=None)
@given(_loop_cases())
def test_loop_matches_per_home_reference(case):
    base, cfg, schedule = case
    try:
        price, lstar, observed, truth, clamped, well_posed = _per_home_loop(
            base, cfg, schedule
        )
    except ValueError as exc:
        assert "non-physical price" in str(exc)
        with pytest.raises(ValueError, match="non-physical price"):
            simulate(base, cfg, schedule=schedule)
        return
    assume(well_posed)
    trace = simulate(base, cfg, schedule=schedule)
    np.testing.assert_allclose(trace.observed_load, observed, rtol=1e-12)
    np.testing.assert_allclose(trace.price, price, rtol=1e-12)
    np.testing.assert_allclose(trace.lstar, lstar, rtol=1e-12)
    assert trace.attack_truth.tolist() == truth.tolist()
    assert trace.clamped == clamped


# ---------------------------------------------------------------------------
# a price attack inside the loop equals the load attack it converts to


@st.composite
def _price_attacks(draw):
    """A random grid and loop, and a sudden price offset on some victims over a window."""
    hours, homes = draw(st.integers(2, 24)), draw(st.integers(1, 6))
    base = np.random.default_rng(draw(st.integers(0, 2**31))).uniform(0.2, 3.0, size=(hours, homes))
    cfg = GridConfig(
        n_homes=homes,
        kappa=draw(st.floats(0.0, 1.0, exclude_min=True)),
        eps_dsm=draw(st.floats(-3.0, -0.2)),
        goal=draw(st.sampled_from(["goal1", "goal2"])),
        target=draw(st.floats(0.5, 2.0)) * float(base.sum(axis=1).mean()),
        lstar_floor=0.1,
    )
    victims = draw(st.one_of(
        st.none(),
        st.lists(st.integers(0, homes - 1), min_size=1, max_size=homes, unique=True).map(tuple),
    ))
    start = draw(st.integers(0, hours - 1))
    window = (start, draw(st.integers(start + 1, hours)))
    return base, cfg, make_sudden(window, draw(st.floats(-2.0, 2.0)), mode="price", victims=victims)


@settings(max_examples=200, deadline=None)
@given(_price_attacks())
def test_closed_loop_price_attack_equals_its_load_equivalent(case):
    base, cfg, attack = case
    try:
        price_run = simulate(base, cfg, schedule=attack)
    except ValueError as exc:  # an offset below -P leaves a victim no positive price
        assert "non-physical price" in str(exc)
        reject()
    # each hour, the victims' load deltas a_L = kappa * phi * ((P + a_P)**eps - P**eps)
    # at the price P the price run posted
    level, (start, end) = attack.params["level"], attack.window
    victims, eps = attack.victim_indices(cfg.n_homes), cfg.eps_dsm
    values = {}
    for t in range(start, end):
        p = price_run.price[t]
        values[t] = float(np.sum(cfg.kappa * base[t, victims] * ((p + level) ** eps - p**eps)))
    load_run = simulate(base, cfg, schedule=make_point(values, attack.window, victims=attack.victims))
    assume(load_run.clamped == 0)
    np.testing.assert_allclose(load_run.price, price_run.price, rtol=1e-9)
    np.testing.assert_allclose(load_run.observed_load, price_run.observed_load, rtol=1e-9)


# ---------------------------------------------------------------------------
# the loop's gain: with eps_hat = eps a home serves c_t = (1 - kappa) + kappa * L*_t / Phi_{t-1},
# affine in L*, and goal2 feeds back -dL_{t-1}; so a one-hour load attack of a kWh at t0 moves
# hour t0 + j by a * (-kappa)^j * Phi_{t0+j} / Phi_{t0} until L* takes its floor

@st.composite
def _one_hour_attacks(draw):
    """A random grid and loop with eps_hat = eps, and a one-hour attack of a kWh on every home at t0."""
    hours, homes = draw(st.integers(2, 72)), draw(st.integers(1, 8))
    a = draw(st.floats(1.0, 300.0))
    # the loads round relative to Phi, so the grid's mean total stays within 50 a of the attack
    base = np.random.default_rng(draw(st.integers(0, 2**31))).uniform(0.2, 3.0, size=(hours, homes))
    level = draw(st.floats(0.5, 50.0)) * a
    base *= level / base.sum(axis=1).mean()
    cfg = GridConfig(n_homes=homes, kappa=draw(st.floats(0.0, 0.95)), eps_dsm=draw(st.floats(-3.0, -0.2)),
                     target=draw(st.floats(0.5, 2.0)) * level)
    t0 = draw(st.integers(0, hours - 1))
    return base, cfg, t0, a


@settings(max_examples=200, deadline=None)
@given(_one_hour_attacks())
def test_one_hour_load_attack_follows_the_closed_form(case):
    base, cfg, t0, a = case
    attack = make_point({t0: a}, window=(t0, t0 + 1))
    for goal in ("goal1", "goal2"):
        goal_cfg = dataclasses.replace(cfg, goal=goal)
        nominal, attacked = simulate(base, goal_cfg), simulate(base, goal_cfg, schedule=attack)
        diff = attacked.observed_load - nominal.observed_load
        assert np.all(diff[:t0] == 0.0), goal
        if goal == "goal1":  # L* is the target: the attack never reaches the price
            assert np.all(diff[t0 + 1 :] == 0.0)
            continue
        phi = nominal.base_load
        floored = (nominal.lstar <= cfg.lstar_floor) | (attacked.lstar <= cfg.lstar_floor)
        end = t0 + 1 + int(np.argmax(np.append(floored[t0 + 1 :], True)))
        want = a * (-cfg.kappa) ** np.arange(end - t0) * phi[t0:end] / phi[t0]
        assert np.max(np.abs(diff[t0:end] - want)) <= 1e-12 * a


# ---------------------------------------------------------------------------
# the closed loop's bytes on paths run_experiment never takes: goal2, kappa
# 0 and 1, a mismatched utility elasticity, and schedules inside the loop

_GOLDEN_SCHEDULES = (
    None,
    make_sudden((5, 11), -10.0, victims=(1, 3)),  # a load subset that clamps
    make_ramp((6, 18), step=0.5),  # a load ramp on every home
    make_sudden((4, 12), 0.3, mode="price", victims=(0, 2, 4)),  # a price subset
)


def test_golden_closed_loop_traces():
    rng = np.random.default_rng(20190927)
    base = rng.uniform(0.2, 3.0, size=(24, 5))
    # each run's target off the binary grid, so goal2's association shows in the last bits
    runs = [
        (GridConfig(n_homes=5, kappa=kappa, eps_dsm=-0.8, eps_dsm_hat=eps_hat, goal=goal,
                    target=float(rng.uniform(6.0, 10.0))), schedule)
        for goal in ("goal1", "goal2")
        for kappa in (0.0, 0.5, 1.0)
        for eps_hat in (None, -1.3)
        for schedule in _GOLDEN_SCHEDULES
    ]
    # goal2 keeps over-correcting for a ramp it cannot see coming: L* takes the floor
    floor_cfg = GridConfig(n_homes=5, kappa=0.5, eps_dsm=-0.8, goal="goal2", target=4.0,
                           lstar_floor=0.5)
    runs.append((floor_cfg, make_ramp((2, 20), step=1.0)))
    digest = hashlib.sha256()
    clamped = 0
    for cfg, schedule in runs:
        trace = simulate(base, cfg, schedule=schedule)
        for col in ("price", "lstar", "forecast", "observed_load", "attack_truth"):
            digest.update(getattr(trace, col).tobytes())
        digest.update(str(trace.clamped).encode())
        clamped += trace.clamped
    assert clamped > 0
    assert np.sum(trace.lstar == floor_cfg.lstar_floor) > 0
    assert digest.hexdigest() == "d903be037d0cc6112a517ad9c864820d1fad717f43c09a7fb8e8fb4949c0eb8f"
