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
    assert grid.template_ids == ("a", "b", "a", "b", "a")
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
        (4097, 3, 7, "5b584b3e51b4db75993bb4513c1dcf72b29c02d9d4706765c8f683df89ea1e58"),
        (10, 4, 2**40, "c7fa518a3ba12937fab10c797df7c7f777f30aa03d7cb3a8f5d095e75a49b4f8"),
        (5, 2, 0, "ffffcff8fb257554870100066b3efe18a3fce39d03f639104c38b08abb1baa4e"),
    ],
)
def test_golden_microgrid_bytes(n_homes, num_days, seed, digest):
    # digests of the grid built with one numpy Generator per home
    grid = synthesize_microgrid(_uneven_templates(), BootstrapConfig(n_homes, num_days, seed=seed))
    assert hashlib.sha256(grid.kwh.tobytes()).hexdigest() == digest
    assert grid.template_ids == tuple("abc"[i % 3] for i in range(n_homes))


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
