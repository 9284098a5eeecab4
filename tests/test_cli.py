"""Command-line tests.

The central claim: chaining synth -> simulate -> attack -> detect ->
evaluate with matching --rep/--kappa/--attack reproduces the files a
run_experiment scenario writes, byte for byte."""

import dataclasses
import json
import shutil

import pytest

from gridloop.cli import main
from gridloop.experiment import run_experiment
from gridloop.loadgen import read_microgrid


@pytest.fixture()
def cfg_json(tiny_cfg, tmp_path):
    path = tmp_path / "cfg.json"
    tiny_cfg.to_json(path)
    return str(path)


def run(*argv) -> int:
    return main([str(a) for a in argv])


def _assert_chain_matches(cfg_json, root, tmp_path):
    """Chain the stage subcommands and compare with root's scenario files."""
    sdir = root / "kappa_0.2" / "sudden" / "rep_000"

    grid = tmp_path / "grid.csv"
    nominal = tmp_path / "nominal.csv"
    attacked = tmp_path / "attacked.csv"
    det = tmp_path / "det"
    assert run("synth", "--config", cfg_json, "--rep", 0, "--out", grid) == 0
    assert run("simulate", "--config", cfg_json, "--grid", grid,
               "--kappa", 0.2, "--out", nominal) == 0
    assert run("attack", "--config", cfg_json, "--trace", nominal,
               "--kind", "sudden", "--out", attacked) == 0
    assert run("detect", "--config", cfg_json, "--trace", attacked,
               "--kappa", 0.2, "--attack", "sudden", "--rep", 0, "--out", det) == 0
    assert run("evaluate", "--config", cfg_json, "--detections", det) == 0

    assert attacked.read_bytes() == (sdir / "trace.csv").read_bytes()
    for name in ("detections.csv", "detect_meta.json", "metrics.json", "roc.csv"):
        assert (det / name).read_bytes() == (sdir / name).read_bytes(), name


def test_pipeline_matches_run_experiment(cfg_json, tiny_run, tmp_path):
    root, _ = tiny_run
    _assert_chain_matches(cfg_json, root, tmp_path)


def test_pipeline_matches_run_experiment_with_non_default_loop(tiny_cfg, tmp_path):
    # goal, eps_dsm_hat and lstar_floor off their defaults: a path that drops one fails
    cfg = dataclasses.replace(tiny_cfg, goal="goal2", eps_dsm_hat=-1.5, lstar_floor=5.0)
    cfg_json = tmp_path / "cfg.json"
    cfg.to_json(cfg_json)
    root = tmp_path / "runs"
    run_experiment(cfg, root)
    _assert_chain_matches(cfg_json, root, tmp_path)


def test_run_experiment_command(cfg_json, tiny_run, tmp_path, capsys):
    root, _ = tiny_run
    out = tmp_path / "runs"
    assert run("run_experiment", "--config", cfg_json, "--out", out) == 0
    assert (out / "summary.json").read_bytes() == (root / "summary.json").read_bytes()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"wrote {out}/summary.json and {out}/summary.csv"
    # one table line per detector
    assert sum("detector" not in ln and "kappa=" in ln for ln in lines) == 6


def test_seed_flag_beats_env(cfg_json, tmp_path, monkeypatch):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    run("synth", "--config", cfg_json, "--seed", 5, "--out", a)
    monkeypatch.setenv("GRIDLOOP_SEED", "7")
    run("synth", "--config", cfg_json, "--seed", 5, "--out", b)
    run("synth", "--config", cfg_json, "--out", c)
    assert b.read_bytes() == a.read_bytes()  # flag wins over env
    assert c.read_bytes() != a.read_bytes()  # env wins over config seed 3


def test_seed_env_beats_config(cfg_json, tmp_path, monkeypatch):
    via_flag = tmp_path / "flag.csv"
    via_env = tmp_path / "env.csv"
    run("synth", "--config", cfg_json, "--seed", 7, "--out", via_flag)
    monkeypatch.setenv("GRIDLOOP_SEED", "7")
    run("synth", "--config", cfg_json, "--out", via_env)
    assert via_env.read_bytes() == via_flag.read_bytes()


def test_out_directory_gets_default_name(cfg_json, tmp_path):
    out_dir = tmp_path / "stage"
    assert run("synth", "--config", cfg_json, "--out", out_dir) == 0
    grid = read_microgrid(out_dir / "microgrid.csv")
    assert grid.n_homes == 6
    assert grid.n_hours == 144  # horizon 126 rounded up to whole days

    nested = tmp_path / "deep" / "tree" / "grid.csv"
    assert run("synth", "--config", cfg_json, "--out", nested) == 0
    assert nested.is_file()


def test_errors_exit_2(cfg_json, tmp_path, capsys):
    # missing input file
    assert run("simulate", "--config", cfg_json, "--grid", tmp_path / "nope.csv",
               "--kappa", 0.2) == 2
    assert capsys.readouterr().err.startswith("gridloop: error:")

    # attack needs a schedule source
    grid = tmp_path / "grid.csv"
    trace = tmp_path / "trace.csv"
    run("synth", "--config", cfg_json, "--out", grid)
    run("simulate", "--config", cfg_json, "--grid", grid, "--kappa", 0.2, "--out", trace)
    capsys.readouterr()
    assert run("attack", "--config", cfg_json, "--trace", trace) == 2
    assert "--schedule FILE or --kind" in capsys.readouterr().err

    # kappa must be one of the config's sweep values
    assert run("detect", "--config", cfg_json, "--trace", trace,
               "--kappa", 0.5, "--attack", "sudden", "--out", tmp_path / "d") == 2
    assert "kappa 0.5 not in config kappas" in capsys.readouterr().err

    # evaluate on a directory with no detect output
    assert run("evaluate", "--detections", tmp_path / "empty") == 2
    assert capsys.readouterr().err.startswith("gridloop: error:")


def test_overflowing_price_power_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"target": 800, "eps_dsm": -1100, "eps_dsm_hat": -1}))
    grid = tmp_path / "grid.csv"
    assert run("synth", "--config", cfg, "--out", grid) == 0
    capsys.readouterr()
    assert run("simulate", "--config", cfg, "--grid", grid, "--kappa", 0.5,
               "--out", tmp_path / "t.csv") == 2
    err = capsys.readouterr().err
    assert err.startswith("gridloop: error: hour 0: the price or its power leaves the float range")
    assert "Traceback" not in err


def test_bad_config_key_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"horizon_hours": 10}))
    assert run("synth", "--config", bad, "--out", tmp_path / "g.csv") == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--grid", "g.csv", "--kappa", 0.2],
        ["attack", "--trace", "t.csv", "--kind", "sudden"],
        ["detect", "--trace", "t.csv", "--kappa", 0.2, "--attack", "sudden"],
        ["evaluate", "--detections", "det"],
    ],
    ids=lambda argv: argv[0],
)
def test_templates_flag_only_where_read(argv, tmp_path, capsys):
    # only synth and run_experiment read --templates; elsewhere it is a usage error
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--templates", tmp_path)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: gridloop")
    assert err.splitlines()[-1] == f"gridloop: error: unrecognized arguments: --templates {tmp_path}"
    assert "Traceback" not in err


def test_schedule_missing_key_exits_2(cfg_json, tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    schedule = tmp_path / "s.json"
    schedule.write_text(json.dumps({"mode": "load", "kind": "sudden", "window": [0, 4]}))
    run("synth", "--config", cfg_json, "--out", grid)
    capsys.readouterr()
    assert run("simulate", "--config", cfg_json, "--grid", grid, "--kappa", 0.2,
               "--schedule", schedule, "--out", tmp_path / "t.csv") == 2
    err = capsys.readouterr().err
    assert err == f"gridloop: error: {schedule}: missing key 'params'\n"
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# malformed input: exit 2, the file named, no traceback


def _assert_names_file(capsys, path, fragment):
    err = capsys.readouterr().err
    assert err.startswith(f"gridloop: error: {path}"), err
    assert fragment in err
    assert "Traceback" not in err


def _first(rows, detector, col, value):
    row = next(r for r in rows if r[1] == detector)
    row[col] = value
    return rows


@pytest.mark.parametrize(
    "edit, fragment",
    [
        (lambda rows: [rows[0][:4]] + rows[1:], ":2: malformed row: 4 cells, expected 5"),
        (lambda rows: [r for r in rows if r[1] != "residual"], ": no rows for detector 'residual'"),
        (lambda rows: [r for r in rows if r[1] != "forest"], ": no rows for detector 'forest'"),
        (lambda rows: _first(rows, "residual", 2, "nan"), "score nan must be finite"),
        (lambda rows: _first(rows, "gnb", 4, "2"), "label 2.0 must be 0 or 1"),
        (lambda rows: _first(rows, "glrt", 3, "2"), "decision 2.0 must be 0 or 1"),
        (lambda rows: [r[:4] + ["1"] for r in rows], ": labels of detector 'glrt' hold one class"),
    ],
    ids=["short-row", "no-residual", "no-forest", "nan-residual", "label-2", "decision-2",
         "one-class"],
)
def test_malformed_detections_exit_2(tiny_run, tmp_path, capsys, edit, fragment):
    sdir = tiny_run[0] / "kappa_0.2" / "sudden" / "rep_000"
    shutil.copy(sdir / "detect_meta.json", tmp_path / "detect_meta.json")
    header, *lines = (sdir / "detections.csv").read_text().splitlines()
    rows = edit([ln.split(",") for ln in lines])
    path = tmp_path / "detections.csv"
    path.write_text("\n".join([header] + [",".join(r) for r in rows]) + "\n")
    assert run("evaluate", "--detections", tmp_path) == 2
    _assert_names_file(capsys, path, fragment)


@pytest.mark.parametrize(
    "edit, fragment",
    [
        (lambda meta: meta.pop("sweep"), ": missing key 'sweep'"),
        (lambda meta: meta.update(sigma="x"), ": sigma 'x' must be a number, finite and positive"),
        (lambda meta: meta["glrt"].update(window=0.5), ": glrt.window 0.5 must be a number, a whole"),
        (lambda meta: meta["sweep"].update(points=0), ": sweep.points 0 must be a number, a whole"),
        (lambda meta: meta["sweep"].update(points=2.5), ": sweep.points 2.5 must be a number, a whole"),
    ],
    ids=["no-sweep", "sigma-x", "window-half", "points-0", "points-fraction"],
)
def test_malformed_detect_meta_exits_2(tiny_run, tmp_path, capsys, edit, fragment):
    sdir = tiny_run[0] / "kappa_0.2" / "sudden" / "rep_000"
    shutil.copy(sdir / "detections.csv", tmp_path / "detections.csv")
    meta = json.loads((sdir / "detect_meta.json").read_text())
    edit(meta)
    path = tmp_path / "detect_meta.json"
    path.write_text(json.dumps(meta))
    assert run("evaluate", "--detections", tmp_path) == 2
    _assert_names_file(capsys, path, fragment)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("[1, 2]", ": expected a JSON object"),
        ('{"kappas": 0.5}', ": kappas 0.5 must be a list of numbers"),
        ('{"n_homes": "a"}', ": n_homes 'a' must be an integer"),
        ('{"seed": 1.5}', ": seed 1.5 must be an integer"),
        ('{"attacks": ["sudden", 3]}', ": attacks ['sudden', 3] must be a list of strings"),
        ('{"kappas": [0.5, 2]}', ": kappa must lie in [0, 1]"),
        ("{", ":1: Expecting property name"),
    ],
    ids=["list", "kappas-number", "n_homes-string", "seed-float", "attacks-mixed", "kappa-range",
         "truncated"],
)
def test_malformed_config_exits_2(tmp_path, capsys, text, fragment):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert run("synth", "--config", path, "--out", tmp_path / "g.csv") == 2
    _assert_names_file(capsys, path, fragment)


@pytest.mark.parametrize(
    "field, value, fragment",
    [
        ("forest_trees", 0, ": forest_trees must be >= 1"),
        ("glrt_window", 0, ": glrt_window must be >= 1"),
        ("feature_lags", 0, ": feature_lags must be >= 1"),
        ("template_homes", 0, ": template_homes must be >= 1"),
        ("template_days", -1, ": template_days must be >= 1"),
        ("glrt_p_fa", 0.0, ": glrt_p_fa must lie strictly inside (0, 1)"),
        ("glrt_p_fa", 1, ": glrt_p_fa must lie strictly inside (0, 1)"),
        ("seed", -1, ": seed must be >= 0"),
        ("cusum_k_sigma", -0.5, ": cusum_k_sigma must be finite and >= 0"),
        ("cusum_k_sigma", float("inf"), ": cusum_k_sigma must be finite and >= 0"),
        ("cusum_h_sigma", 0, ": cusum_h_sigma must be finite and > 0"),
        ("cusum_h_sigma", float("nan"), ": cusum_h_sigma must be finite and > 0"),
        ("cusum_sweep_sigmas", -1, ": cusum_sweep_sigmas must be finite and > 0"),
        ("cusum_sweep_sigmas", 0.0, ": cusum_sweep_sigmas must be finite and > 0"),
    ],
)
def test_out_of_range_config_exits_2_before_writing(tmp_path, capsys, field, value, fragment):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({field: value}))
    out = tmp_path / "out"
    assert run("run_experiment", "--config", path, "--out", out) == 2
    _assert_names_file(capsys, path, fragment)
    assert not out.exists()


_SUDDEN = '{"mode": "load", "kind": "sudden", "window": [0, 4], "params": {"level": 1.0}}'


@pytest.mark.parametrize(
    "text, fragment",
    [
        (_SUDDEN.replace("[0, 4]", "5"), ": window 5 must be a list [start, end] of hours"),
        (_SUDDEN.replace("}}", '}, "victims": 3}'), ": victims 3 must be null or a list"),
        (_SUDDEN.replace("1.0", '"x"'), ": sudden needs a finite 'level' parameter"),
        ('{"mode": "load", "kind": "point", "window": [0, 4], "params": {"values": [1, 2]}}',
         ": point needs a non-empty 'values' map"),
        ("{", ":1: Expecting property name"),
    ],
    ids=["window-number", "victims-number", "level-string", "point-values-list", "truncated"],
)
def test_malformed_schedule_exits_2(cfg_json, tmp_path, capsys, text, fragment):
    grid = tmp_path / "grid.csv"
    assert run("synth", "--config", cfg_json, "--out", grid) == 0
    path = tmp_path / "s.json"
    path.write_text(text)
    capsys.readouterr()
    assert run("simulate", "--config", cfg_json, "--grid", grid, "--kappa", 0.2,
               "--schedule", path, "--out", tmp_path / "t.csv") == 2
    _assert_names_file(capsys, path, fragment)
