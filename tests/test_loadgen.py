import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridloop.ingest import HourlySeries
from gridloop.loadgen import (
    _BLOCK_HOMES,
    BootstrapConfig,
    Microgrid,
    read_microgrid,
    synthesize_microgrid,
    write_microgrid,
)
from gridloop.synth import synthetic_hourly_templates


def _template(home_id, days, base=1.0):
    kwh = base + np.arange(days * 24, dtype=float) % 24 / 10.0
    return HourlySeries(home_id, np.arange(days * 24), kwh)


def _day_blocks(kwh):
    blocks = len(kwh) // 24
    return kwh[: blocks * 24].reshape(blocks, 24)


def _days_follow_round_robin(grid, templates):
    """Every day of home i is a day block of template i mod len(templates)."""
    days = grid.kwh.reshape(-1, 24, grid.n_homes)  # (day, hour, home)
    for k, tpl in enumerate(templates):
        homes = days[:, None, :, k :: len(templates)]  # (day, 1, hour, home)
        blocks = _day_blocks(tpl.kwh)[None, :, :, None]  # (1, block, hour, 1)
        if not (homes == blocks).all(axis=2).any(axis=1).all():
            return False
    return True


def test_single_day_template_tiles():
    # one complete day available -> every simulated day is that day
    tpl = HourlySeries("t", np.arange(24), np.arange(24, dtype=float) + 1)
    grid = synthesize_microgrid([tpl], BootstrapConfig(n_homes=2, num_days=3))
    assert grid.kwh.shape == (72, 2)
    expected = np.tile(tpl.kwh, 3)
    assert np.array_equal(grid.kwh[:, 0], expected)
    assert np.array_equal(grid.kwh[:, 1], expected)


def test_output_days_are_verbatim_template_days():
    tpl = _template("t", days=4)
    grid = synthesize_microgrid([tpl], BootstrapConfig(n_homes=3, num_days=6, seed=9))
    source = _day_blocks(tpl.kwh)
    for i in range(3):
        for day in _day_blocks(grid.kwh[:, i]):
            assert any(np.array_equal(day, s) for s in source)


def test_round_robin_assignment():
    tpls = [_template("a", 2, base=1.0), _template("b", 2, base=5.0)]
    grid = synthesize_microgrid(tpls, BootstrapConfig(n_homes=5, num_days=2, seed=1))
    assert _days_follow_round_robin(grid, tpls)
    # homes on template b sit at the higher base level
    assert grid.kwh[:, 1].mean() > grid.kwh[:, 0].mean() + 3


def test_same_seed_identical():
    tpl = _template("t", 5)
    cfg = BootstrapConfig(n_homes=4, num_days=7, seed=42)
    a = synthesize_microgrid([tpl], cfg)
    b = synthesize_microgrid([tpl], cfg)
    assert a.kwh.tobytes() == b.kwh.tobytes()


def test_homes_stable_under_population_growth():
    tpl = _template("t", 5)
    small = synthesize_microgrid([tpl], BootstrapConfig(3, 4, seed=2))
    big = synthesize_microgrid([tpl], BootstrapConfig(6, 4, seed=2))
    assert np.array_equal(small.kwh, big.kwh[:, :3])


def test_homes_stable_under_horizon_growth():
    tpls = _uneven_templates()
    short = synthesize_microgrid(tpls, BootstrapConfig(5, 4, seed=2))
    long = synthesize_microgrid(tpls, BootstrapConfig(5, 7, seed=2))
    assert np.array_equal(short.kwh, long.kwh[:96])


def test_partial_trailing_day_ignored():
    # 2 complete days + 5 stray hours: only the full blocks are drawn from
    kwh = np.concatenate([np.full(24, 1.0), np.full(24, 2.0), np.full(5, 99.0)])
    tpl = HourlySeries("t", np.arange(len(kwh)), kwh)
    grid = synthesize_microgrid([tpl], BootstrapConfig(1, 20, seed=0))
    assert set(np.unique(grid.kwh)) <= {1.0, 2.0}


def test_no_complete_day_rejected():
    tpl = HourlySeries("short", np.arange(23), np.ones(23))
    with pytest.raises(ValueError, match="no complete day block"):
        synthesize_microgrid([tpl], BootstrapConfig(1, 1))


def test_no_templates_rejected():
    with pytest.raises(ValueError, match="at least one template"):
        synthesize_microgrid([], BootstrapConfig(1, 1))


def test_config_validation():
    with pytest.raises(ValueError):
        BootstrapConfig(n_homes=0, num_days=1)
    with pytest.raises(ValueError):
        BootstrapConfig(n_homes=1, num_days=0)


def test_file_round_trip(tmp_path):
    tpl = _template("t", 3)
    grid = synthesize_microgrid([tpl], BootstrapConfig(3, 2, seed=7))
    path = tmp_path / "grid.json"
    write_microgrid(grid, str(path))
    back = read_microgrid(str(path))
    assert np.array_equal(back.kwh, grid.kwh)
    assert back.kwh.shape == grid.kwh.shape


def _grid_file(path, days=None, picks=None, **extra):
    """A micro-grid file of two day blocks (zeros, ones) and two homes over two days."""
    payload = {"days": [[0.0] * 24, [1.0] * 24] if days is None else days,
               "picks": [[0, 1], [1, 1]] if picks is None else picks, **extra}
    path.write_text(json.dumps({k: v for k, v in payload.items() if v != "drop"}))
    return path


def _day(h, value):
    return [1.0] * h + [value] + [1.0] * (23 - h)


_DAYS = "days must be a non-empty list of lists of 24 numbers"
_PICKS = "picks must be a non-empty list of equal-length, non-empty lists"


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"days": "drop"}, "missing key 'days'"),
        ({"picks": "drop"}, "missing key 'picks'"),
        ({"days": [_day(0, 1.0), _day(1, float("nan"))]}, "days[1][1] nan must be finite and non-negative"),
        ({"days": [_day(5, -2.0), _day(1, 1.0)]}, "days[0][5] -2.0 must be finite and non-negative"),
        ({"days": [_day(0, 1.0), _day(23, float("inf"))]}, "days[1][23] inf must be finite and non-negative"),
        ({"days": [_day(0, 1.0), _day(3, -1)]}, "days[1][3] -1 must be finite and non-negative"),
        ({"days": [_day(0, 1.0), _day(2, 10**400)]}, "days hold an integer past the float range"),
        ({"days": [_day(0, 1.0), _day(2, "x")]}, _DAYS),
        ({"days": [_day(0, 1.0), _day(2, True)]}, _DAYS),
        ({"days": [_day(0, 1.0), _day(2, None)]}, _DAYS),
        ({"days": [_day(0, 1.0), _day(2, [1.0])]}, _DAYS),
        ({"days": [_day(0, 1.0), [1.0] * 23]}, _DAYS),
        ({"days": []}, _DAYS),
        ({"days": 5.0}, _DAYS),
        ({"days": [[_day(0, 1.0)]]}, _DAYS),
        ({"picks": [[0, 1], [1]]}, _PICKS),
        ({"picks": [[], []]}, _PICKS),
        ({"picks": []}, _PICKS),
        ({"picks": [0, 1]}, _PICKS),
        ({"picks": {"0": [0, 1]}}, _PICKS),
        ({"picks": [[0, 1], [1, 0.5]]}, "picks[1][1] 0.5 is not a day block (0..1)"),
        ({"picks": [[0, -7], [1, 1]]}, "picks[0][1] -7 is not a day block (0..1)"),
        ({"picks": [[0, 1], [True, 1]]}, "picks[1][0] True is not a day block (0..1)"),
        ({"picks": [[0, 1], [1, 2]]}, "picks[1][1] 2 is not a day block (0..1)"),
        ({"picks": [[0, 1], [1, 1.0]]}, "picks[1][1] 1.0 is not a day block (0..1)"),
        ({"picks": [[10**30, 1], [1, 1]]}, f"picks[0][0] {10**30} is not a day block (0..1)"),
        ({"picks": [[0, 1], [1, [1]]]}, "picks[1][1] [1] is not a day block (0..1)"),
    ],
    ids=["no-days", "no-picks", "load-nan", "load-negative", "load-inf", "load-negative-int",
         "load-huge-int", "load-string", "load-bool", "load-null", "load-list", "day-short",
         "days-empty", "days-number", "days-nested", "picks-ragged", "picks-empty-rows",
         "picks-empty", "picks-flat", "picks-object", "pick-float", "pick-negative", "pick-bool",
         "pick-past-blocks", "pick-whole-float", "pick-huge", "pick-list"],
)
def test_read_microgrid_rejects_malformed_input(tmp_path, fields, message):
    path = _grid_file(tmp_path / "grid.json", **fields)
    with pytest.raises(ValueError) as exc:
        read_microgrid(str(path))
    assert str(exc.value) == f"{path}: {message}"


def test_read_microgrid_ignores_the_suffix(tmp_path):
    # a picks file may carry any name, microgrid.csv included
    grid = read_microgrid(str(_grid_file(tmp_path / "microgrid.csv")))
    assert grid.picks.tolist() == [[0, 1], [1, 1]]
    assert np.array_equal(grid.kwh, np.repeat([[0.0, 1.0], [1.0, 1.0]], 24, axis=0))


@settings(max_examples=25)
@given(
    st.integers(1, 4),   # templates
    st.integers(1, 5),   # complete days per template
    st.integers(1, 6),   # homes
    st.integers(1, 8),   # simulated days
    st.integers(0, 2**31),
)
def test_bootstrap_membership_property(k, days, homes, num_days, seed):
    tpls = [_template(f"t{j}", days, base=float(j)) for j in range(k)]
    grid = synthesize_microgrid(tpls, BootstrapConfig(homes, num_days, seed=seed))
    assert grid.kwh.shape == (num_days * 24, homes)
    for i in range(homes):
        source = _day_blocks(tpls[i % k].kwh)
        for day in _day_blocks(grid.kwh[:, i]):
            assert any(np.array_equal(day, s) for s in source)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 4),   # templates
    st.integers(1, 5),   # complete days per template
    st.integers(1, 6),   # homes
    st.integers(1, 8),   # simulated days
    st.integers(0, 2**31),
)
def test_file_round_trip_property(tmp_path_factory, k, days, homes, num_days, seed):
    tpls = [_template(f"t{j}", days, base=float(j) + 1 / 3) for j in range(k)]
    grid = synthesize_microgrid(tpls, BootstrapConfig(homes, num_days, seed=seed))
    path = tmp_path_factory.mktemp("grid") / "grid.json"
    write_microgrid(grid, str(path))
    back = read_microgrid(str(path))
    assert back.day_rows.tobytes() == grid.day_rows.tobytes()
    assert back.picks.dtype == grid.picks.dtype == np.uint8
    assert np.array_equal(back.picks, grid.picks)
    assert back.kwh.tobytes() == grid.kwh.tobytes()


def test_picks_take_the_smallest_unsigned_dtype():
    # 256 day blocks need index 255, the most uint8 holds; 257 need uint16
    for blocks, dtype in ((256, np.uint8), (257, np.uint16)):
        grid = synthesize_microgrid([_template("t", blocks)], BootstrapConfig(3, 40, seed=1))
        assert grid.day_rows.shape == (24, blocks)
        assert grid.picks.dtype == dtype
        assert grid.picks.max() < blocks


def _uneven_templates():
    """Three templates of 3, 1 and 5 complete days, each with 5 stray hours."""
    out = []
    for j, days in enumerate((3, 1, 5)):
        hours = np.arange(days * 24 + 5)
        out.append(HourlySeries("abc"[j], hours, 0.5 + np.sin(hours * 0.37 + j) ** 2 + hours / 1000.0))
    return out


@pytest.mark.parametrize(
    "n_homes, num_days, seed, digest",
    [
        # one block of homes plus one: the second block holds home 4096 alone
        (4097, 3, 7, "05864cfa8c39474419bcc931a703c75010b523c608d10a4636823a82296cc0f0"),
        (10, 4, 2**40, "1cca57bb4244d6579c0500feb4bb213df164741fea0d068052135386bd0e820f"),
        (5, 2, 0, "e127a05c9b0f8543dd488955b20954dfba213e8bb7e6fd6ad89d183182b081bf"),
    ],
)
def test_golden_microgrid_bytes(n_homes, num_days, seed, digest):
    # digests of the grid built home by home from pure-Python SplitMix64 picks
    grid = synthesize_microgrid(_uneven_templates(), BootstrapConfig(n_homes, num_days, seed=seed))
    assert hashlib.sha256(grid.kwh.tobytes()).hexdigest() == digest
    assert _days_follow_round_robin(grid, _uneven_templates())


def test_golden_grid_spans_a_block_seam():
    assert _BLOCK_HOMES + 1 == 4097


def test_hand_built_grid_rejects_a_pick_past_its_day_blocks():
    # the fill clips its indices, so it checks every pick first
    days = np.arange(48.0).reshape(24, 2)
    for picks in (np.array([[0, 2]], dtype=np.uint8), np.array([[1], [-1]])):
        with pytest.raises(ValueError, match=re.escape("every pick must be a day block (0..1)")):
            Microgrid(day_rows=days, picks=picks).kwh


def test_bootstrap_memory_stays_beside_the_grid():
    # the homes are drawn in blocks and the grid is filled in place, so scratch memory does not
    # grow with the population
    templates = synthetic_hourly_templates(7, 28, seed=0)
    synthesize_microgrid(templates, BootstrapConfig(10, 2))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        grid = synthesize_microgrid(templates, BootstrapConfig(20_000, 31))
        kwh = grid.kwh  # built here, a day of every home per np.take
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # a fill buffered by np.take's mode="raise" holds 4.4 MB more than the grid; the picks and the
    # unbuffered fill 0.8 MB
    assert peak - kwh.nbytes < 3 * 2**20
