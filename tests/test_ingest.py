import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridloop.ingest import HourlySeries, hourly_series, load_template, load_template_dir
from gridloop.synth import synthetic_hourly_templates


def _write_csv(path, rows, header="minute,kw"):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for r in rows:
            fh.write(",".join(str(v) for v in r) + "\n")


# ---------------------------------------------------------------------------
# resampling

def test_full_hour_mean():
    # one hour of kW readings 0..59 averages to 29.5 kWh
    series = hourly_series("h", np.arange(60), np.arange(60, dtype=float))
    assert series.hours.tolist() == [0]
    assert series.kwh[0] == 29.5


def test_two_hours_partial_second():
    minutes = np.concatenate([np.arange(60), [60, 61]])
    kw = np.concatenate([np.full(60, 2.0), [3.0, 5.0]])
    series = hourly_series("h", minutes, kw)
    assert series.kwh.tolist() == [2.0, 4.0]


def test_offset_start_is_contiguous():
    # readings beginning mid-day still produce hours 0..n-1
    minutes = np.arange(3 * 60) + 7 * 60
    series = hourly_series("h", minutes, np.ones(3 * 60))
    assert series.hours.tolist() == [0, 1, 2]


@given(st.integers(1, 5), st.integers(0, 2**31))
def test_energy_conservation(hours, seed):
    # with full hours, total energy equals total power / 60
    rng = np.random.default_rng(seed)
    kw = rng.uniform(0, 4, size=hours * 60)
    series = hourly_series("h", np.arange(hours * 60), kw)
    assert np.isclose(series.kwh.sum(), kw.sum() / 60)


# ---------------------------------------------------------------------------
# template files and gap filling

def test_load_template_round_trip(tmp_path):
    path = tmp_path / "home_3.csv"
    _write_csv(path, [(m, 1.5) for m in range(120)])
    series = load_template(str(path))
    assert series.home_id == "home_3"
    assert series.hours.tolist() == [0, 1]
    assert series.kwh.tolist() == [1.5, 1.5]


def test_small_gap_interpolated(tmp_path):
    path = tmp_path / "h.csv"
    _write_csv(path, [(0, 1.0), (1, 1.0), (3, 3.0)])
    series = load_template(str(path))  # minute 2 filled with 2.0: mean of 1, 1, 2, 3
    assert series.home_id == "h"
    assert series.hours.tolist() == [0]
    assert series.kwh.tolist() == [1.75]


def test_five_minute_gap_is_the_limit(tmp_path):
    ok = tmp_path / "ok.csv"
    _write_csv(ok, [(0, 1.0), (6, 13.0)])  # 5 missing minutes -> filled with 3, 5, 7, 9, 11
    series = load_template(str(ok))
    assert series.hours.tolist() == [0]
    assert series.kwh.tolist() == [7.0]

    bad = tmp_path / "bad.csv"
    _write_csv(bad, [(0, 1.0), (7, 1.0)])  # 6 missing minutes -> refused
    msg = f"{bad}:3: unfillable gap of 6 minutes after minute 0"  # line of the reading after the gap
    with pytest.raises(ValueError, match="^" + re.escape(msg)):
        load_template(str(bad))


def test_malformed_row_reports_line(tmp_path):
    path = tmp_path / "h.csv"
    _write_csv(path, [(0, 1.0), ("oops", 2.0)])
    with pytest.raises(ValueError, match=r"h\.csv:3"):
        load_template(str(path))


def test_negative_power_rejected(tmp_path):
    path = tmp_path / "h.csv"
    _write_csv(path, [(0, 1.0), (1, -0.5)])
    with pytest.raises(ValueError, match=re.escape(":3: kw -0.5 must be finite and non-negative")):
        load_template(str(path))


@pytest.mark.parametrize(
    "data, where",
    [
        (b"minute,kw\n0,1\n1," + b"1" * 131_073 + b"\n", ":3: malformed row: field larger than field limit"),
        (b"minute,kw\n0,1\n1,\xff\n", ":3: not utf-8 text: byte 0xff"),
        (b"minute,kw\n99999999999999999999,1\n", ":2: minute 1e+20 outside [0, 2**31)"),
        (b"minute,kw\n-3,1\n-2,1\n", ":2: minute -3.0 must be a whole number >= 0"),
        (b"minute,kw\n0,1\n\n1,1\n", ":3: malformed row: 0 cells, expected 2"),
        (b" minute , kw\n0,1\n", ":1: unexpected header  minute , kw; expected minute,kw"),
        (b"minute,kw\n0,1\n0,2\n", ":3: minute index must be strictly increasing"),
        (b"minute,kw\n0,1\n1.5,1\n", ":3: minute 1.5 must be a whole number >= 0"),
        # a quoted line break is no white space in a number; the later repeated minute is on line 5
        (b'minute,kw\n0,"1\n"\n1,2\n1,3\n', ":2: malformed row: kw '1\\n' is not a number"),
    ],
    ids=["long-cell", "bad-byte", "huge-minute", "negative-minute", "blank-line", "padded-header",
         "repeated-minute", "fractional-minute", "line-break-in-number"],
)
def test_unreadable_row_names_path_and_line(tmp_path, data, where):
    path = tmp_path / "h.csv"
    path.write_bytes(data)
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}{where}")):
        load_template(str(path))


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "h.csv"
    _write_csv(path, [(0, 1.0)], header="time,power")
    msg = f"{path}:1: unexpected header time,power; expected minute,kw"
    with pytest.raises(ValueError, match="^" + re.escape(msg) + "$"):
        load_template(str(path))


def test_template_dir_sorted(tmp_path):
    for name in ("b.csv", "a.csv", "notes.txt"):
        if name.endswith(".csv"):
            _write_csv(tmp_path / name, [(m, 1.0) for m in range(60)])
        else:
            (tmp_path / name).write_text("ignore me\n")
    homes = load_template_dir(str(tmp_path))
    assert [h.home_id for h in homes] == ["a", "b"]


def test_empty_dir_rejected(tmp_path):
    with pytest.raises(ValueError, match="no template CSVs"):
        load_template_dir(str(tmp_path))


def test_hourly_contiguity_enforced():
    with pytest.raises(ValueError, match="contiguous"):
        HourlySeries("h", np.array([0, 2]), np.ones(2))


# ---------------------------------------------------------------------------
# synthetic templates

def test_synthetic_templates_deterministic():
    a = synthetic_hourly_templates(2, 3, seed=11)
    b = synthetic_hourly_templates(2, 3, seed=11)
    assert all(np.array_equal(x.kwh, y.kwh) for x, y in zip(a, b))
    c = synthetic_hourly_templates(2, 3, seed=12)
    assert not np.array_equal(a[0].kwh, c[0].kwh)


def test_synthetic_templates_shape_and_level():
    homes = synthetic_hourly_templates(3, 4, seed=0)
    assert [h.home_id for h in homes] == ["synth_0", "synth_1", "synth_2"]
    for series in homes:
        assert series.hours.tolist() == list(range(4 * 24))
        assert np.all(series.kwh >= 0)
        # nominal household level is ~1.66 kWh per hour
        assert 1.3 < series.kwh.mean() < 2.0


def test_first_homes_stable_under_growth():
    # per-home streams: adding homes must not disturb existing ones
    small = synthetic_hourly_templates(2, 2, seed=5)
    big = synthetic_hourly_templates(4, 2, seed=5)
    assert np.array_equal(small[1].kwh, big[1].kwh)
