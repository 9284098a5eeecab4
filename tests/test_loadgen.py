import hashlib
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


def test_csv_round_trip(tmp_path):
    tpl = _template("t", 3)
    grid = synthesize_microgrid([tpl], BootstrapConfig(3, 2, seed=7))
    path = tmp_path / "grid.csv"
    write_microgrid(grid, str(path))
    back = read_microgrid(str(path))
    assert np.array_equal(back.kwh, grid.kwh)
    assert back.kwh.shape == grid.kwh.shape


@pytest.mark.parametrize(
    "rows, where",
    [
        (["0,1.0,nan", "1,-2.0,1.0"], ":2: home_1 nan"),
        (["0,1.0,0.5", "1,-2.0,1.0"], ":3: home_0 -2.0"),
        (["0,1.0,0.5", "1,1.0,inf"], ":3: home_1 inf"),
        (["0,1.0,0.5", "1,1.0,x"], ":3: malformed row"),
        (["0.5,1.0,0.5", "1,1.0,1.0"], ":2: hour 0.5 must be a whole number >= 0"),
        (["0,1.0,0.5", "-7,1.0,1.0"], ":3: hour -7.0 must be a whole number >= 0"),
    ],
)
def test_read_microgrid_rejects_bad_loads(tmp_path, rows, where):
    path = tmp_path / "grid.csv"
    path.write_text("\n".join(["hour,home_0,home_1"] + rows) + "\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}{where}")):
        read_microgrid(str(path))


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


def test_bootstrap_memory_stays_beside_the_grid():
    # the homes are drawn in blocks, so scratch memory does not grow with the population
    templates = synthetic_hourly_templates(7, 28, seed=0)
    synthesize_microgrid(templates, BootstrapConfig(10, 2))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        grid = synthesize_microgrid(templates, BootstrapConfig(20_000, 31))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak - grid.kwh.nbytes < 5 * 2**20
