import json
import re

import numpy as np
import pytest

from gridloop.attack import (
    AttackSchedule,
    make_point,
    make_ramp,
    make_sudden,
    read_schedule,
)
from gridloop.feedback import GridConfig, inject_post_hoc, simulate

# ---------------------------------------------------------------------------
# schedule values

def test_ramp_values():
    s = make_ramp((24, 48), step=5.0)
    assert s.value_at(23) == 0.0
    assert s.value_at(24) == 5.0
    assert s.value_at(25) == 10.0
    assert s.value_at(47) == 120.0
    assert s.value_at(48) == 0.0


def test_sudden_values():
    s = make_sudden((10, 13), level=150.0)
    assert [s.value_at(t) for t in range(9, 14)] == [0.0, 150.0, 150.0, 150.0, 0.0]


def test_point_values():
    s = make_point({24: 250.0, 29: 200.0, 34: 300.0}, window=(24, 48))
    assert s.value_at(24) == 250.0
    assert s.value_at(29) == 200.0
    assert s.value_at(25) == 0.0  # inside the window but not a spike hour
    assert s.value_at(48) == 0.0


def test_schedule_validation():
    with pytest.raises(ValueError, match="unknown mode"):
        AttackSchedule(mode="voltage", kind="ramp", window=(0, 2), params={"step": 1.0})
    with pytest.raises(ValueError, match="unknown kind"):
        AttackSchedule(mode="load", kind="drift", window=(0, 2), params={})
    with pytest.raises(ValueError, match="window"):
        make_ramp((5, 5), step=1.0)
    with pytest.raises(ValueError, match="window"):
        make_ramp((-1, 5), step=1.0)
    with pytest.raises(ValueError, match="step"):
        make_ramp((0, 5), step=float("nan"))
    with pytest.raises(ValueError, match="finite 'step'"):  # a whole number past the float range
        AttackSchedule(mode="load", kind="ramp", window=(0, 5), params={"step": 10**400})
    # the builders pass the magnitude on as given, so one past the float range is rejected, not overflowed
    with pytest.raises(ValueError, match="finite 'step'"):
        make_ramp((0, 5), step=10**400)
    with pytest.raises(ValueError, match="finite 'level'"):
        make_sudden((0, 5), level=-(10**400))
    with pytest.raises(ValueError, match="point value at hour 2 must be finite"):
        make_point({1: 1.0, 2: 10**400}, window=(0, 5))
    with pytest.raises(ValueError, match=re.escape("ramp step -1e+308 over window [100, 110) exceeds")):
        make_ramp((100, 110), step=-1e308)
    assert np.isfinite(make_ramp((100, 110), step=1.7e307).value_at(109))  # the largest magnitude
    with pytest.raises(ValueError, match="level"):
        make_sudden((0, 5), level=float("inf"))
    with pytest.raises(ValueError, match="non-empty"):
        make_sudden((0, 5), level=1.0, victims=())
    with pytest.raises(ValueError, match="distinct"):
        make_sudden((0, 5), level=1.0, victims=(1, 1))
    with pytest.raises(ValueError, match="outside window"):
        make_point({9: 1.0}, window=(0, 5))
    with pytest.raises(ValueError, match="non-empty"):
        make_point({}, window=(0, 5))
    # hours and home indices are Python ints, from a caller as from a file: no float or bool
    with pytest.raises(ValueError, match=re.escape("window (1.5, 3.0) must be a list [start, end] of hours")):
        make_sudden((1.5, 3.0), 150.0)
    with pytest.raises(ValueError, match=re.escape("window (True, 3) must be a list [start, end] of hours")):
        make_ramp((True, 3), step=1.0)
    for victims in ((1.5, 2.0), (True, 2)):
        with pytest.raises(ValueError, match=re.escape(f"victims {victims} must be null or a list of home")):
            make_sudden((0, 5), 1.0, victims=victims)
    with pytest.raises(ValueError, match="point hour 1.5 must be an integer"):
        make_point({1.5: 3.0}, window=(0, 5))


def test_schedule_stores_window_and_victims_as_tuples():
    s = AttackSchedule(mode="load", kind="sudden", window=[0, 2], params={"level": 1.0}, victims=[1, 0])
    assert (s.window, s.victims) == ((0, 2), (1, 0))
    hash((s.window, s.victims))


def test_victim_indices():
    assert make_sudden((0, 1), 1.0).victim_indices(3).tolist() == [0, 1, 2]
    assert make_sudden((0, 1), 1.0, victims=(2, 0)).victim_indices(3).tolist() == [2, 0]
    with pytest.raises(ValueError, match="out of range"):
        make_sudden((0, 1), 1.0, victims=(3,)).victim_indices(3)
    with pytest.raises(ValueError, match="out of range"):  # past int64
        make_sudden((0, 1), 1.0, victims=(0, 2**70)).victim_indices(3)


# ---------------------------------------------------------------------------
# equivalence between the attack surfaces

def test_closed_loop_price_equals_converted_load_attack():
    # inject a price offset; then inject its per-hour aggregate load
    # equivalent instead -- the observed aggregates must coincide
    rng = np.random.default_rng(13)
    base = rng.uniform(0.5, 2.0, size=(12, 3))
    cfg = GridConfig(n_homes=3, kappa=0.7, target=4.0)
    delta_p = 0.4
    price_run = simulate(base, cfg, schedule=make_sudden((4, 9), delta_p, mode="price"))

    # a_L = kappa * phi * ((P + a_P)**eps - P**eps) per home, at the posted price P
    clean = simulate(base, cfg)
    values = {}
    for t in range(4, 9):
        p = clean.price[t]
        values[t] = sum(
            cfg.kappa * base[t, i] * ((p + delta_p) ** cfg.eps_dsm - p**cfg.eps_dsm)
            for i in range(3)
        )
    load_run = simulate(base, cfg, schedule=make_point(values, window=(4, 9)))

    assert np.allclose(price_run.observed_load, load_run.observed_load, rtol=1e-12)
    assert np.array_equal(price_run.attack_truth, load_run.attack_truth)


# ---------------------------------------------------------------------------
# post-hoc injection

def test_post_hoc_adds_to_recorded_aggregate():
    base = np.full((6, 2), 5.0)
    trace = simulate(base, GridConfig(n_homes=2, kappa=0.0))
    attacked = inject_post_hoc(trace, make_ramp((2, 5), step=2.0))
    assert attacked.observed_load.tolist() == [10.0, 10.0, 12.0, 14.0, 16.0, 10.0]
    assert attacked.attack_truth.tolist() == [0, 0, 1, 1, 1, 0]
    assert np.array_equal(trace.observed_load, np.full(6, 10.0))  # original intact


def test_post_hoc_clamps_and_counts():
    base = np.full((3, 1), 5.0)
    trace = simulate(base, GridConfig(n_homes=1, kappa=0.0))
    attacked = inject_post_hoc(trace, make_sudden((1, 2), -50.0))
    assert attacked.observed_load.tolist() == [5.0, 0.0, 5.0]
    assert attacked.clamped == 1


def test_post_hoc_rejects_price_mode():
    base = np.full((3, 1), 5.0)
    trace = simulate(base, GridConfig(n_homes=1, kappa=0.0))
    with pytest.raises(ValueError, match=r"acts only inside the loop \(gridloop simulate --schedule\)"):
        inject_post_hoc(trace, make_sudden((0, 2), 1.0, mode="price"))


# ---------------------------------------------------------------------------
# the schedule file

def test_schedule_json_round_trip(tmp_path):
    # the payloads are written out literally: they pin the format read_schedule accepts
    cases = [
        ({"mode": "load", "kind": "ramp", "window": [3, 9], "victims": [0, 4],
          "params": {"step": 2.5}}, make_ramp((3, 9), step=2.5, victims=(0, 4))),
        ({"mode": "price", "kind": "sudden", "window": [0, 24], "victims": None,
          "params": {"level": 150.0}}, make_sudden((0, 24), level=150.0, mode="price")),
        ({"mode": "load", "kind": "point", "window": [4, 12],
          "params": {"values": {"5": 1.0, "9": -2}}}, make_point({5: 1.0, 9: -2.0}, window=(4, 12))),
    ]
    for i, (payload, want) in enumerate(cases):
        path = tmp_path / f"s{i}.json"
        path.write_text(json.dumps(payload))
        back = read_schedule(str(path))
        assert back == want
        assert back.value_at(5) == want.value_at(5)
        assert back.value_at(9) == want.value_at(9)


def test_schedule_equality():
    a = make_ramp((0, 4), step=1.0)
    b = make_ramp((0, 4), step=1.0)
    c = make_ramp((0, 4), step=2.0)
    assert a == b
    assert a != c
    assert a != "not a schedule"


@pytest.mark.parametrize("key", ["mode", "kind", "window", "params"])
def test_read_schedule_names_a_missing_key(tmp_path, key):
    path = tmp_path / "s.json"
    payload = {"mode": "load", "kind": "sudden", "window": [0, 4], "params": {"level": 1.0}}
    del payload[key]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=re.escape(f"{path}: missing key '{key}'")):
        read_schedule(str(path))


def test_read_schedule_names_the_file_on_invalid_fields(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"mode": "load", "kind": "point", "window": [0, 4], "params": {}}))
    with pytest.raises(ValueError, match=re.escape(f"{path}: point needs a non-empty 'values' map")):
        read_schedule(str(path))
