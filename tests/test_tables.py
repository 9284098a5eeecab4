"""The on-disk formats: exact bytes of the writers, exact floats back from
the reader, and the one error shape every reader raises."""

import csv
import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gridloop import tables
from gridloop.attack import read_schedule
from gridloop.experiment import _META_KEYS, ExperimentConfig, _read_detections, scenario_dir
from gridloop.feedback import GridConfig, SimulationTrace, read_trace, simulate, write_trace
from gridloop.ingest import load_template
from gridloop.loadgen import BootstrapConfig, Microgrid, read_microgrid, synthesize_microgrid, write_microgrid
from gridloop.synth import synthetic_hourly_templates
from gridloop.tables import (
    BINARY,
    FINITE,
    NON_NEGATIVE,
    POSITIVE,
    read_json,
    read_table,
    write_json,
    write_table,
)

# ---------------------------------------------------------------------------
# golden bytes: a drift in the format fails here, not only between two runs


def test_trace_bytes(tmp_path):
    trace = SimulationTrace(
        price=np.array([0.1, 1 / 3]),
        base_load=np.array([1e-300, 2.0]),
        forecast=np.array([250.0, 0.30000000000000004]),
        target=np.array([200.0, 200.0]),
        lstar=np.array([200.0, 12.5]),
        observed_load=np.array([0.0, 1e22]),
        attack_truth=np.array([0, 1], dtype=np.int8),
    )
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    assert path.read_bytes() == (
        b"hour,price,base_load,forecast,target,lstar,observed_load,attack_truth\r\n"
        b"0,0.1,1e-300,250.0,200.0,200.0,0.0,0\r\n"
        b"1,0.3333333333333333,2.0,0.30000000000000004,200.0,12.5,1e+22,1\r\n"
    )


def test_microgrid_bytes(tmp_path):
    # two day blocks of 24 loads, three homes over two days
    days = np.array([[0.1, 1 / 3] * 12, [1e-300, 2.0] * 12])
    grid = Microgrid(day_rows=days.T, picks=np.array([[0, 1], [1, 1], [1, 0]], dtype=np.uint8))
    path = tmp_path / "grid.json"
    write_microgrid(grid, path)

    def inner(cells):  # a list inside a list inside the object: one cell a line, 6 spaces in
        return "    [\n" + ",\n".join(f"      {c}" for c in cells) + "\n    ]"

    assert path.read_bytes() == (
        '{\n  "days": [\n' + inner(["0.1", "0.3333333333333333"] * 12) + ",\n"
        + inner(["1e-300", "2.0"] * 12) + '\n  ],\n  "picks": [\n'
        + ",\n".join([inner([0, 1]), inner([1, 1]), inner([1, 0])]) + "\n  ]\n}\n"
    ).encode()


def test_json_bytes(tmp_path):
    path = tmp_path / "x.json"
    write_json(path, {"b": [1, 0.1], "a": {"d": None, "c": "s"}})
    assert path.read_text() == (
        '{\n  "a": {\n    "c": "s",\n    "d": null\n  },\n  "b": [\n    1,\n    0.1\n  ]\n}\n'
    )


def test_floats_round_trip_bit_for_bit(tmp_path):
    # 40k rows of every magnitude, and the edges of the float range; the reader
    # takes them in several blocks of rows
    rng = np.random.default_rng(0)
    values = np.concatenate([
        rng.standard_normal(40_000) * 10.0 ** rng.integers(-300, 300, 40_000),
        [0.1, 1 / 3, 1e-300, 5e-324, -0.0, np.finfo(float).max, np.finfo(float).tiny],
    ])
    path = tmp_path / "t.csv"
    write_table(path, ["i", "x"], [np.arange(len(values)), values])
    cols = read_table(path, {"i": FINITE, "x": FINITE})
    assert cols["x"].view(np.int64).tolist() == values.view(np.int64).tolist()
    assert cols["i"].tolist() == list(range(len(values)))


# ---------------------------------------------------------------------------
# the writer against csv.writer: each distinct value is formatted once per
# file, and the bytes must not show it

def _csv_writer_bytes(path, header, columns) -> bytes:
    """The reference: csv.writer over the columns' Python values, row by row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*[c.tolist() if isinstance(c, np.ndarray) else c for c in columns]))
    return path.read_bytes()


# cells csv must quote: commas, quotes, CR, LF, and the empty text
_TEXT = st.text(alphabet='ab ,"\r\n', max_size=4)
_NANS = np.array([0x7FF8000000000000, 0x7FF0000000000001, -0x0008000000000000 - 1], dtype=np.int64).view(float)
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.inf, -np.inf, *_NANS]


@st.composite
def _column(draw, n):
    kind = draw(st.sampled_from(["distinct", "repeats", "int8", "int64", "bool", "cells"]))
    if kind == "distinct":
        return np.array(draw(st.lists(st.floats(), min_size=n, max_size=n, unique_by=float.hex)))
    if kind == "repeats":
        pool = draw(st.lists(st.floats() | st.sampled_from(_EDGES), min_size=1, max_size=3))
        return np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    if kind == "int8":
        return np.array(draw(st.lists(st.integers(-128, 127), min_size=n, max_size=n)), dtype=np.int8)
    if kind == "int64":
        return np.array(draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n)),
                        dtype=np.int64)
    if kind == "bool":
        return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    return draw(st.lists(_TEXT | st.integers() | st.floats() | st.sampled_from(_EDGES),
                         min_size=n, max_size=n))


@st.composite
def _table(draw):
    """Up to 6 drawn columns, repeated out to a width of 1 to 300."""
    n, width = draw(st.integers(0, 30)), draw(st.integers(1, 300))
    drawn = draw(st.lists(_column(n), min_size=1, max_size=6))
    header = draw(st.lists(_TEXT, min_size=width, max_size=width))
    return header, [drawn[j % len(drawn)] for j in range(width)]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=_table())
def test_write_table_matches_csv_writer(tmp_path, table):
    header, columns = table
    write_table(tmp_path / "t.csv", header, columns)
    assert (tmp_path / "t.csv").read_bytes() == _csv_writer_bytes(tmp_path / "ref.csv", header, columns)


_FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=st.lists(st.tuples(st.integers(-(2**53), 2**53), _FINITE_FLOATS | st.sampled_from([-0.0, 5e-324])),
                  max_size=40),
    block_cells=st.integers(1, 100),
)
def test_read_table_reads_back_what_was_written(tmp_path, rows, block_cells):
    i, x = (list(c) for c in zip(*rows)) if rows else ([], [])
    columns = [np.array(i, dtype=np.int64), np.array(x, dtype=float)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tables, "_BLOCK_CELLS", block_cells)
        write_table(tmp_path / "t.csv", ["i", "x"], columns)
        cols = read_table(tmp_path / "t.csv", {"i": FINITE, "x": FINITE})
    assert cols["i"].tolist() == i
    assert cols["x"].view(np.int64).tolist() == columns[1].view(np.int64).tolist()


@pytest.mark.parametrize("rows", [90, 110])
def test_write_table_rejects_columns_of_unequal_length(tmp_path, rows):
    path = tmp_path / "t.csv"  # a longer column once lost its tail rows
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: column b has {rows} rows, expected 100")):
        write_table(path, ["a", "b"], [np.arange(100), np.zeros(rows)])
    assert not path.exists()


def test_microgrid_io_memory(tmp_path):
    """A 1392 h x 200 home grid goes out and back as its picks, never as its loads."""
    templates = synthetic_hourly_templates(7, 28, seed=0)
    grid = synthesize_microgrid(templates, BootstrapConfig(n_homes=200, num_days=58, seed=0))
    path = tmp_path / "grid.json"
    tracemalloc.start()
    try:
        write_microgrid(grid, path)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = read_microgrid(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "kwh" not in vars(grid) and "kwh" not in vars(back)  # neither built the matrix
    assert path.stat().st_size < 300e3
    assert write_peak < 1e6
    assert read_peak < 2e6
    assert np.array_equal(back.kwh, grid.kwh)


# ---------------------------------------------------------------------------
# reader checks

_DOMAINS = {"hour": FINITE, "load": NON_NEGATIVE, "price": POSITIVE, "flag": BINARY}


@pytest.mark.parametrize(
    "text, where",
    [
        ("", ":1: unexpected header ; expected hour,load,price,flag"),
        ("hour,load,price\n", ":1: unexpected header hour,load,price;"),
        ("hour,load,price,flag,who,extra\n", ":1: unexpected header"),
        ("hour,load,price,flag\n0,1,1,0\n1,1,1\n", ":3: malformed row: 3 cells, expected 4"),
        ("hour,load,price,flag\n0,1,1,0\n1,1,x,0\n", ":3: malformed row: price 'x' is not a number"),
        ("hour,load,price,flag\n0,-1,1,0\n", ":2: load -1.0 must be finite and non-negative"),
        ("hour,load,price,flag\n0,1,0,0\n", ":2: price 0.0 must be finite and positive"),
        ("hour,load,price,flag\n0,1,1,0.5\n", ":2: flag 0.5 must be 0 or 1"),
        ("hour,load,price,flag\n0,1,1,0\nnan,1,1,0\n", ":3: hour nan must be finite"),
        # a line break in a cell is named at its row, before the errors of the rows after it
        ('hour,load,price,flag\n0,1,1,"0\n"\n1,-1,1,0\n', ":2: malformed row: flag '0\\n' is not a number"),
        ('hour,load,price,flag\n0,1,1,"0\r\n"\n1,1,1\n', ":2: malformed row: flag '0\\r\\n' is not a number"),
        ('hour,load,price,flag\n0,1,1,0\n1,1,"\n\r",0\n1,1,x,0\n',
         ":3: malformed row: price '\\n\\r' is not a number"),
        ('hour,load,price,flag\n0,"1\n",1,0\n', ":2: malformed row: load '1\\n' is not a number"),
        # the first malformed row is named, whatever is wrong with it
        ('hour,load,price,flag\n0,1,1\n0,"1\n",1,0\n', ":2: malformed row: 3 cells, expected 4"),
        ("hour,load,price,flag\n0,1,x,0\n0,1,1\n", ":2: malformed row: price 'x' is not a number"),
    ],
)
def test_read_table_names_path_and_line(tmp_path, text, where):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}{where}")):
        read_table(path, _DOMAINS)


@pytest.mark.parametrize(
    "row, where",
    [
        ("0,1", ":25002: malformed row: 2 cells, expected 3"),
        ("0,1,x", ":25002: malformed row: b 'x' is not a number"),
        ("0,1,-1", ":25002: b -1.0 must be finite and non-negative"),
        ("0,1,\udcff", ":25002: not utf-8 text: byte 0xff"),  # far past the reader's first chunk
    ],
)
def test_line_numbers_hold_across_blocks(tmp_path, row, where):
    rows = ["0,1,1"] * 30_000
    rows[25_000] = row
    path = tmp_path / "t.csv"
    path.write_text("\n".join(["hour,a,b"] + rows) + "\n", errors="surrogateescape")
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}{where}")):
        read_table(path, {"hour": FINITE, "a": NON_NEGATIVE, "b": NON_NEGATIVE})


_BREAKS = st.sampled_from(["\n", "\r", "\r\n", "\n\r"])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(1, 30), width=st.integers(1, 4), data=st.data(), block_cells=st.integers(1, 20))
def test_the_first_malformed_row_is_named_at_its_line(tmp_path, n, width, data, block_cells):
    # row k holds a line break, a cell that is not a number, or too few cells; the rows before
    # it are numbers, some out of their domain (checked once every row is read), and the rows
    # after it may be malformed too: row k is named at line k + 2 at every block size
    k, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, width - 1))
    later = st.sampled_from(["1", "x", "1\n"])
    rows = [[data.draw(st.sampled_from(["1", "-1", "2.5"]) if i <= k else later) for _ in range(width)]
            for i in range(n)]
    for row in rows[k + 1 :]:
        del row[: data.draw(st.integers(0, 1))]  # a short row
    fault = data.draw(st.sampled_from(["break", "text", "short"]))
    if fault == "break":
        rows[k][j] = data.draw(st.sampled_from(["", "1"])) + data.draw(_BREAKS)
        error = f"malformed row: c{j} {rows[k][j]!r} is not a number"
    elif fault == "text":
        rows[k][j] = "x"
        error = f"malformed row: c{j} 'x' is not a number"
    else:
        del rows[k][j]
        error = f"malformed row: {width - 1} cells, expected {width}"
    header = [f"c{c}" for c in range(width)]
    path = tmp_path / "t.csv"
    path.write_text("".join(",".join(f'"{c}"' if "\r" in c or "\n" in c else c for c in row) + "\r\n"
                            for row in [header, *rows]), newline="")
    where = f"{path}:{k + 2}: {error}"
    with pytest.MonkeyPatch.context() as mp, pytest.raises(ValueError, match="^" + re.escape(where)):
        mp.setattr(tables, "_BLOCK_CELLS", block_cells)  # rows split at every seam
        read_table(path, dict.fromkeys(header, NON_NEGATIVE))


@pytest.mark.parametrize(
    "data, where",
    [
        (b"hour,a\n0,1\n1," + b"1" * 131_073 + b"\n", ":3: malformed row: field larger than field limit"),
        (b"hour,a\n0,1\n1,\xff\n", ":3: not utf-8 text: byte 0xff"),
        (b"hour,\xe9\n", ":1: not utf-8 text: byte 0xe9"),
    ],
    ids=["long-cell", "bad-byte", "bad-header"],
)
def test_read_table_names_csv_and_decoding_errors(tmp_path, data, where):
    path = tmp_path / "t.csv"
    path.write_bytes(data)
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}{where}")):
        read_table(path, {"hour": FINITE, "a": NON_NEGATIVE})


def test_read_table_reads_each_named_column(tmp_path):
    domains = {"hour": FINITE, "a": NON_NEGATIVE, "b": NON_NEGATIVE}
    path = tmp_path / "t.csv"
    path.write_text("hour,a,b\n0,1.5,2\n1,0,3\n")
    cols = read_table(path, domains)
    assert list(cols) == ["hour", "a", "b"]
    assert cols["b"].tolist() == [2.0, 3.0]
    for header in ("hour", "hour,a,a"):
        path.write_text(header + "\n")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:1: unexpected header {header}; "
                                                             "expected hour,a,b")):
            read_table(path, domains)


def test_read_table_empty_body(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("hour,a\n")
    cols = read_table(path, {"hour": FINITE, "a": NON_NEGATIVE})
    assert [(name, c.dtype, len(c)) for name, c in cols.items()] == [("hour", float, 0), ("a", float, 0)]


@pytest.mark.parametrize(
    "text, where",
    [
        ("{", ":1: Expecting property name"),
        ("{}\n\n]", ":3: Extra data"),
        ("[1, 2]", ": expected a JSON object"),
        ('{"a": 1}', ": missing key 'b'"),
        ('{"a": 1, "b": 2}', ": missing key 'b.c'"),
        ('{"a": 1, "b": {"c": "x"}}', ": b.c 'x' must be a number, finite and positive"),
        ('{"a": 1, "b": {"c": true}}', ": b.c True must be a number, finite and positive"),
        ('{"a": 1, "b": {"c": NaN}}', ": b.c nan must be a number, finite and positive"),
        ('{"a": 1, "b": {"c": -1}}', ": b.c -1 must be a number, finite and positive"),
        ('{"a": 1, "b": {"c": 1e400}}', ": b.c inf must be a number, finite and positive"),
        ('{"a": 1, "b": {"c": 1%s}}' % ("0" * 400), ": b.c 1000"),
        ('{"a": 1, "b": {"c": 1, "c": 2}}', ": repeated key 'c'"),
        ('{"a":\n "\udcff"}', ":2: not utf-8 text: byte 0xff"),
        ('{"a": 1%s}' % ("0" * 5000), ": Exceeds the limit (4300 digits)"),
        ("[" * 100_000, ": maximum recursion depth exceeded"),
    ],
    ids=["truncated", "extra-data", "list", "missing", "missing-nested", "string", "bool", "nan",
         "negative", "overflowing-float", "overflowing-int", "repeated-key", "bad-byte", "too-many-digits",
         "too-deep"],
)
def test_read_json_names_path_and_key(tmp_path, text, where):
    path = tmp_path / "x.json"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}{where}")):
        read_json(path, {"a": None, "b.c": POSITIVE})


def test_read_json_returns_the_object(tmp_path):
    path = tmp_path / "x.json"
    payload = {"a": [1, 2], "b": {"c": 0.5}}
    path.write_text(json.dumps(payload))
    assert read_json(path, {"a": None, "b.c": POSITIVE}) == payload


# ---------------------------------------------------------------------------
# fuzz: a mutated file is read, or rejected with a ValueError naming it


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory, tiny_run, tiny_cfg):
    root = tmp_path_factory.mktemp("valid")
    grid = synthesize_microgrid(synthetic_hourly_templates(2, 2, seed=0), BootstrapConfig(3, 2))
    write_microgrid(grid, root / "grid.json")
    write_trace(simulate(grid.kwh, GridConfig(n_homes=3, kappa=0.5)), root / "trace.csv")
    write_json(root / "cfg.json", dataclasses.asdict(ExperimentConfig()))
    files = {name: (root / name).read_bytes() for name in ("grid.json", "trace.csv", "cfg.json")}
    sdir = scenario_dir(tiny_run[0], tiny_cfg.kappas[0], tiny_cfg.attacks[0], 0)
    files.update({name: (sdir / name).read_bytes() for name in ("detections.csv", "detect_meta.json")})
    files["schedule.json"] = json.dumps({
        "mode": "load", "kind": "point", "window": [4, 12], "victims": [0, 2],
        "params": {"values": {"5": 1.5, "9": -2}},
    }).encode()
    files["template.csv"] = ("minute,kw\r\n" + "".join(f"{m},{m % 7 / 4}\r\n" for m in range(0, 180, 3))).encode()
    return files


_READERS = {
    "grid.json": read_microgrid,
    "trace.csv": read_trace,
    "cfg.json": ExperimentConfig.from_json,
    "detections.csv": lambda path: _read_detections(path, 96),  # tiny_cfg's train_hours
    "detect_meta.json": lambda path: read_json(path, _META_KEYS),
    "schedule.json": read_schedule,
    "template.csv": load_template,
}
# what a mutation splices in: random bytes, or bytes each reader must name the file for
_SPLICES = st.one_of(
    st.binary(min_size=1, max_size=3),
    st.sampled_from([b"x" * 131_073, b"\xff", b"7" * 5000, b"[" * 3000, b"\x00", b'"', b"\r\n", b","]),
)


@pytest.mark.parametrize("name", list(_READERS))
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 3), _SPLICES), min_size=1, max_size=4))
def test_mutated_files_raise_only_a_value_error_naming_the_file(tmp_path, valid_files, name, edits):
    data = valid_files[name]
    for where, cut, splice in edits:
        at = int(where * len(data))
        data = data[:at] + splice + data[at + cut :]
    path = tmp_path / name
    path.write_bytes(data)
    try:
        _READERS[name](str(path))
    except ValueError as exc:
        assert str(exc).startswith(f"{path}:"), exc
