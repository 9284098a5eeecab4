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
from gridloop.tables import write_json


def run(*argv) -> int:
    return main([str(a) for a in argv])


def _assert_chain_matches(cfg_json, root, tmp_path, kappa=0.2):
    """Chain the stage subcommands and compare with root's scenario files."""
    sdir = root / f"kappa_{kappa}" / "sudden" / "rep_000"

    grid = tmp_path / "grid.json"
    nominal = tmp_path / "nominal.csv"
    attacked = tmp_path / "attacked.csv"
    det = tmp_path / "det"
    assert run("synth", "--config", cfg_json, "--rep", 0, "--out", grid) == 0
    assert run("simulate", "--config", cfg_json, "--grid", grid,
               "--kappa", kappa, "--out", nominal) == 0
    assert run("attack", "--config", cfg_json, "--trace", nominal,
               "--kind", "sudden", "--out", attacked) == 0
    assert run("detect", "--config", cfg_json, "--trace", attacked,
               "--kappa", kappa, "--attack", "sudden", "--rep", 0, "--out", det) == 0
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
    write_json(cfg_json, dataclasses.asdict(cfg))
    root = tmp_path / "runs"
    run_experiment(cfg, root)
    _assert_chain_matches(cfg_json, root, tmp_path)


def test_pipeline_matches_run_experiment_at_the_second_kappa(tiny_cfg, tmp_path):
    # detect looks up the kappa's index in the config, which keys the training attacks and the
    # forest's draws; the first kappa's index is 0 however it is looked up
    cfg = dataclasses.replace(tiny_cfg, kappas=(0.2, 0.7))
    cfg_json = tmp_path / "cfg.json"
    write_json(cfg_json, dataclasses.asdict(cfg))
    root = tmp_path / "runs"
    run_experiment(cfg, root)
    _assert_chain_matches(cfg_json, root, tmp_path, kappa=0.7)


def test_run_experiment_command(cfg_json, tiny_run, tmp_path, capsys):
    root, _ = tiny_run
    out = tmp_path / "runs"
    assert run("run_experiment", "--config", cfg_json, "--out", out) == 0
    assert (out / "summary.json").read_bytes() == (root / "summary.json").read_bytes()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"wrote {out}/summary.json and {out}/summary.csv"
    # one table line per detector
    assert sum("detector" not in ln and "kappa=" in ln for ln in lines) == 6


def test_seed_flag_beats_config(tiny_cfg, cfg_json, tmp_path):
    flag, config, seed_5 = (tmp_path / n for n in ("flag.json", "config.json", "seed_5.json"))
    write_json(seed_5, dataclasses.asdict(dataclasses.replace(tiny_cfg, seed=5)))
    assert run("synth", "--config", cfg_json, "--seed", 5, "--out", flag) == 0
    assert run("synth", "--config", seed_5, "--out", config) == 0
    assert flag.read_bytes() == config.read_bytes()
    # without the flag, the config's seed 3 draws another grid
    assert run("synth", "--config", cfg_json, "--out", config) == 0
    assert flag.read_bytes() != config.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [["synth"], ["detect", "--trace", "t.csv", "--kappa", 0.2, "--attack", "sudden"]],
    ids=lambda argv: argv[0],
)
def test_negative_rep_exits_2(argv, cfg_json, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(*argv, "--config", cfg_json, "--rep", -1, "--out", out) == 2
    assert capsys.readouterr().err == "gridloop: error: --rep -1 must be >= 0\n"
    assert not out.exists()


def test_out_directory_gets_default_name(cfg_json, tmp_path):
    out_dir = tmp_path / "stage"
    assert run("synth", "--config", cfg_json, "--out", out_dir) == 0
    grid = read_microgrid(out_dir / "microgrid.json")
    assert grid.n_homes == 6
    assert grid.n_hours == 144  # horizon 126 rounded up to whole days

    nested = tmp_path / "deep" / "tree" / "grid.json"
    assert run("synth", "--config", cfg_json, "--out", nested) == 0
    assert nested.is_file()


def test_errors_exit_2(cfg_json, tmp_path, capsys):
    # missing input file
    assert run("simulate", "--config", cfg_json, "--grid", tmp_path / "nope.csv",
               "--kappa", 0.2) == 2
    assert capsys.readouterr().err.startswith("gridloop: error:")

    # attack takes only the protocol's kinds, so --kind is a required argument
    grid = tmp_path / "grid.json"
    trace = tmp_path / "trace.csv"
    run("synth", "--config", cfg_json, "--out", grid)
    run("simulate", "--config", cfg_json, "--grid", grid, "--kappa", 0.2, "--out", trace)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run("attack", "--config", cfg_json, "--trace", trace)
    assert exc.value.code == 2
    assert "the following arguments are required: --kind" in capsys.readouterr().err

    # detect labels its output with a protocol kind, so --attack takes those alone
    with pytest.raises(SystemExit) as exc:
        run("detect", "--config", cfg_json, "--trace", trace, "--kappa", 0.2, "--attack", "bogus",
            "--out", tmp_path / "d")
    assert exc.value.code == 2
    assert "argument --attack: invalid choice: 'bogus'" in capsys.readouterr().err

    # kappa must be one of the config's sweep values
    assert run("detect", "--config", cfg_json, "--trace", trace,
               "--kappa", 0.5, "--attack", "sudden", "--out", tmp_path / "d") == 2
    assert "kappa 0.5 not in config kappas" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()

    # evaluate on a directory with no detect output
    assert run("evaluate", "--detections", tmp_path / "empty") == 2
    assert capsys.readouterr().err.startswith("gridloop: error:")


def test_attack_rejects_a_trace_of_another_horizon(tiny_cfg, cfg_json, tmp_path, capsys):
    # the schedule sits at the end of the config's horizon; on a shorter trace most of it
    # once fell off the end, and detect then scored the stub under the attack's name
    grid, trace, out = tmp_path / "grid.json", tmp_path / "trace.csv", tmp_path / "out" / "attacked.csv"
    assert run("synth", "--config", cfg_json, "--out", grid) == 0
    assert run("simulate", "--config", cfg_json, "--grid", grid, "--kappa", 0.2, "--out", trace) == 0
    longer = tmp_path / "longer.json"
    write_json(longer, dataclasses.asdict(dataclasses.replace(tiny_cfg, test_hours=40)))
    capsys.readouterr()
    assert run("attack", "--config", longer, "--trace", trace, "--kind", "sudden", "--out", out) == 2
    assert capsys.readouterr().err == f"gridloop: error: {trace}: trace has 126 hours, config wants 136\n"
    assert not out.parent.exists()


def test_attack_rejects_a_trace_whose_hours_are_shifted(cfg_json, tmp_path, capsys):
    # the attack lands by row; a trace numbered 10..135 once took it 10 rows early
    grid, trace, out = tmp_path / "grid.json", tmp_path / "shift.csv", tmp_path / "out" / "attacked.csv"
    assert run("synth", "--config", cfg_json, "--out", grid) == 0
    assert run("simulate", "--config", cfg_json, "--grid", grid, "--kappa", 0.2, "--out", trace) == 0
    header, *lines = trace.read_text().splitlines()
    rows = [ln.split(",", 1) for ln in lines]
    trace.write_text("\n".join([header, *(f"{int(h) + 10},{rest}" for h, rest in rows)]) + "\n")
    capsys.readouterr()
    assert run("attack", "--config", cfg_json, "--trace", trace, "--kind", "sudden", "--out", out) == 2
    assert capsys.readouterr().err == f"gridloop: error: {trace}:2: hour must be 0, the row's position\n"
    assert not out.parent.exists()


def test_overflowing_price_power_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"target": 800, "eps_dsm": -1100, "eps_dsm_hat": -1}))
    grid = tmp_path / "grid.json"
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


def test_evaluate_has_no_seed_flag(capsys):
    # evaluate reads no config value, and simulate and attack draw nothing, so a seed could change
    # nothing; only synth, detect and run_experiment take one
    for argv in (["evaluate", "--detections", "det"], ["simulate", "--grid", "g.json", "--kappa", 0.2],
                 ["attack", "--trace", "t.csv", "--kind", "sudden"]):
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--seed", 1)
        assert exc.value.code == 2, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("usage: gridloop")
        assert err.splitlines()[-1] == "gridloop: error: unrecognized arguments: --seed 1"
        assert "Traceback" not in err


def test_schedule_missing_key_exits_2(cfg_json, tmp_path, capsys):
    grid = tmp_path / "grid.json"
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
    assert err.startswith(f"gridloop: error: {path}") and err.count("\n") == 1, err
    assert fragment in err
    assert "Traceback" not in err


def _set(rows, column, value, row=1):
    """rows (the header first) with one cell of the named column replaced."""
    rows[row][rows[0].index(column)] = value
    return rows


def _drop(rows, *columns):
    """rows (the header first) without the named columns."""
    keep = [j for j, name in enumerate(rows[0]) if name not in columns]
    return [[r[j] for j in keep] for r in rows]


@pytest.mark.parametrize(
    "edit, fragment",
    [
        (lambda rows: [rows[0], rows[1][:4]] + rows[2:], ":2: malformed row: 4 cells, expected 15"),
        (lambda rows: _drop(rows, "residual"), ":1: unexpected header hour,label,glrt_score,"),
        (lambda rows: _drop(rows, "forest_score", "forest_decision"),
         ",gnb_decision; expected hour,label,residual,"),
        (lambda rows: _set(rows, "residual", "nan"), ":2: residual nan must be finite"),
        (lambda rows: _set(rows, "label", "2"), ":2: label 2.0 must be 0 or 1"),
        (lambda rows: _set(rows, "glrt_decision", "2"), ":2: glrt_decision 2.0 must be 0 or 1"),
        (lambda rows: [rows[0]] + [[r[0], "1", *r[2:]] for r in rows[1:]],
         ": the labels hold 1 of the 2 classes a ROC curve needs"),
        (lambda rows: rows[:1], ": the labels hold 0 of the 2 classes a ROC curve needs"),
        (lambda rows: _set(rows, "hour", "0.5"), ":2: hour 0.5 must be a whole number >= 0"),
        (lambda rows: _set(rows, "hour", "-7", row=-1), ":31: hour -7.0 must be a whole number >= 0"),
        # the sweeps run in row order, so the rows must be the test hours 96..125 in order
        (lambda rows: [rows[0]] + [["96", *r[1:]] for r in rows[1:]], ":3: hour must be 97, the row's test hour"),
        (lambda rows: [rows[0]] + rows[:0:-1], ":2: hour must be 96, the row's test hour"),
        (lambda rows: [rows[0]] + [[str(int(r[0]) + 1), *r[1:]] for r in rows[1:]],
         ":2: hour must be 96, the row's test hour"),
    ],
    ids=["short-row", "no-residual", "no-forest", "nan-residual", "label-2", "decision-2",
         "one-class", "empty", "hour-half", "hour-negative", "hours-same", "rows-reversed", "hours-shifted"],
)
def test_malformed_detections_exit_2(tiny_run, tmp_path, capsys, edit, fragment):
    sdir = tiny_run[0] / "kappa_0.2" / "sudden" / "rep_000"
    shutil.copy(sdir / "detect_meta.json", tmp_path / "detect_meta.json")
    rows = edit([ln.split(",") for ln in (sdir / "detections.csv").read_text().splitlines()])
    path = tmp_path / "detections.csv"
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")
    assert run("evaluate", "--detections", tmp_path) == 2
    _assert_names_file(capsys, path, fragment)


@pytest.mark.parametrize(
    "edit, fragment",
    [
        (lambda meta: meta.pop("sweep_points"), ": missing key 'sweep_points'"),
        (lambda meta: meta.update(attack_type="bogus"), ": attack_type 'bogus' is not one of ramp, sudden"),
        (lambda meta: meta.update(attack_type=None), ": attack_type None is not one of ramp, sudden, point"),
        (lambda meta: meta.update(sigma="x"), ": sigma 'x' must be a number, finite and positive"),
        (lambda meta: meta.update(glrt_window=0.5), ": glrt_window 0.5 must be a number, a whole"),
        (lambda meta: meta.update(sweep_points=0), ": sweep_points 0 must be a number, a whole"),
        (lambda meta: meta.update(sweep_points=2.5), ": sweep_points 2.5 must be a number, a whole"),
        # each value lies in its domain; the sweeps' products of them leave the float range
        (lambda meta: meta.update(sigma=1e300), ": sigma 1e+300 squared leaves the float range"),
        (lambda meta: meta.update(sigma=1e-300), ": sigma 1e-300 squared leaves the float range"),
        (lambda meta: meta.update(sigma=1e10, cusum_sweep_sigmas=1e300),
         ": h_max_sigmas * sigma = 1e+300 * 10000000000.0 exceeds the largest float"),
        (lambda meta: meta.update(kappa="bogus"), ": kappa 'bogus' must be a number, in [0, 1]"),
        (lambda meta: meta.update(kappa=None), ": kappa None must be a number, in [0, 1]"),
        (lambda meta: meta.update(kappa=2.0), ": kappa 2.0 must be a number, in [0, 1]"),
        (lambda meta: meta.pop("train_hours"), ": missing key 'train_hours'"),
        (lambda meta: meta.update(train_hours=-1), ": train_hours -1 must be a number, a whole number >= 0"),
    ],
    ids=["no-sweep", "attack-bogus", "attack-null", "sigma-x", "window-half", "points-0",
         "points-fraction", "sigma-square-overflows", "sigma-square-underflows", "cusum-span-overflows",
         "kappa-bogus", "kappa-null", "kappa-2", "no-train-hours", "train-hours-negative"],
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
    "key, value, domain",
    [
        ("cusum_k", -1e6, "finite and non-negative"),
        ("cusum_k", -0.5, "finite and non-negative"),
        ("cusum_sweep_sigmas", -6.0, "finite and positive"),
        ("cusum_sweep_sigmas", 0.0, "finite and positive"),
    ],
    ids=["k-huge-negative", "k-negative", "sigmas-negative", "sigmas-zero"],
)
def test_out_of_range_cusum_sweep_exits_2(tiny_run, tmp_path, capsys, key, value, domain):
    # no config can write these: ExperimentConfig rejects a negative cusum_k_sigma and a
    # non-positive cusum_sweep_sigmas, and sigma is positive
    sdir = tiny_run[0] / "kappa_0.2" / "sudden" / "rep_000"
    shutil.copy(sdir / "detections.csv", tmp_path / "detections.csv")
    meta = json.loads((sdir / "detect_meta.json").read_text())
    meta[key] = value
    path = tmp_path / "detect_meta.json"
    path.write_text(json.dumps(meta))
    assert run("evaluate", "--detections", tmp_path) == 2
    _assert_names_file(capsys, path, f": {key} {value!r} must be a number, {domain}")
    assert not (tmp_path / "metrics.json").exists()


def _evaluate_copy(sdir, out, edit):
    """Evaluate a copy of scenario sdir whose detect_meta.json edit() changed; the exit code."""
    out.mkdir()
    shutil.copy(sdir / "detections.csv", out / "detections.csv")
    meta = json.loads((sdir / "detect_meta.json").read_text())
    edit(meta)
    (out / "detect_meta.json").write_text(json.dumps(meta))
    return run("evaluate", "--detections", out)


def test_glrt_window_past_the_series_averages_the_whole_prefix(tiny_cfg, tiny_run, tmp_path):
    # a window past int64 once overflowed; any window of at least the test window's length
    # scores each hour on every residual so far
    full, huge = tmp_path / "full", tmp_path / "huge"
    for out, window in ((full, tiny_cfg.test_hours), (huge, 10**30)):
        cfg_json = tmp_path / f"{out.name}.json"
        write_json(cfg_json, dataclasses.asdict(dataclasses.replace(tiny_cfg, glrt_window=window)))
        assert run("run_experiment", "--config", cfg_json, "--out", out) == 0
    scenario = "kappa_0.2/sudden/rep_000"
    for name in ("detections.csv", "metrics.json", "roc.csv"):
        assert (huge / scenario / name).read_bytes() == (full / scenario / name).read_bytes(), name

    # evaluate reads the window back from detect_meta.json
    sdir = tiny_run[0] / scenario
    for out, window in (("e_full", tiny_cfg.test_hours), ("e_huge", 1e300)):
        assert _evaluate_copy(sdir, tmp_path / out, lambda meta: meta.update(glrt_window=window)) == 0
    for name in ("metrics.json", "roc.csv"):
        assert (tmp_path / "e_huge" / name).read_bytes() == (tmp_path / "e_full" / name).read_bytes()


def test_absurd_sweep_size_exits_2(tiny_run, tmp_path, capsys):
    # 10**18 points fail at the allocation request; a size a machine could try to allocate
    # would not, so no such size belongs in a test
    sdir = tiny_run[0] / "kappa_0.2" / "sudden" / "rep_000"
    assert _evaluate_copy(sdir, tmp_path / "out", lambda m: m.update(sweep_points=10**18)) == 2
    err = capsys.readouterr().err
    assert err.startswith("gridloop: error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out" / "metrics.json").exists()


_HUGE = "1" + "0" * 400


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
        ('{"seed": 1, "seed": 2}', ": repeated key 'seed'"),
        # integers past the float range, which the stages would convert to float
        ('{"target": %s}' % _HUGE, f": target {_HUGE} must be a number"),
        ('{"kappas": [0.5, %s]}' % _HUGE, f": kappas [0.5, {_HUGE}] must be a list of numbers"),
        ('{"lstar_floor": %s}' % _HUGE, f": lstar_floor {_HUGE} must be a number"),
        ('{"eps_dsm": -%s}' % _HUGE, f": eps_dsm -{_HUGE} must be a number"),
        ('{"cusum_k_sigma": %s}' % _HUGE, f": cusum_k_sigma {_HUGE} must be a number"),
    ],
    ids=["list", "kappas-number", "n_homes-string", "seed-float", "attacks-mixed", "kappa-range",
         "truncated", "repeated-key", "target-huge", "kappas-huge", "lstar_floor-huge", "eps_dsm-huge",
         "cusum_k_sigma-huge"],
)
def test_malformed_config_exits_2(tmp_path, capsys, text, fragment):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert run("synth", "--config", path, "--out", tmp_path / "g.csv") == 2
    _assert_names_file(capsys, path, fragment)


def test_undecodable_config_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(b'{"seed": "\xff"}')
    assert run("synth", "--config", path, "--out", tmp_path / "g.csv") == 2
    _assert_names_file(capsys, path, ":1: not utf-8 text: byte 0xff")


def _edit_grid(grid, edit):
    payload = json.loads(grid.read_text())
    edit(payload)
    grid.write_text(json.dumps(payload))


@pytest.mark.parametrize(
    "edit, fragment",
    [
        # the tiny config's 3 templates of 6 days give 18 day blocks
        (lambda g: g["picks"][1].__setitem__(3, 18), ": picks[1][3] 18 is not a day block (0..17)"),
        (lambda g: g["picks"][0].__setitem__(0, 10**30), f": picks[0][0] {10**30} is not a day block (0..17)"),
        (lambda g: g["picks"][2].pop(), ": picks must be a non-empty list of equal-length"),
        (lambda g: g["days"][4].__setitem__(7, -0.5), ": days[4][7] -0.5 must be finite and non-negative"),
        (lambda g: g["days"][4].__setitem__(7, "1.0"), ": days must be a non-empty list of lists of 24 numbers"),
        (lambda g: g.pop("days"), ": missing key 'days'"),
        # 5 days of picks per home: 120 hours, short of the tiny config's 126
        (lambda g: [row.pop() for row in g["picks"]], ": grid has 120 hours, config wants 126"),
    ],
    ids=["pick-past-blocks", "pick-huge", "picks-ragged", "load-negative", "load-string", "no-days",
         "too-few-days"],
)
def test_malformed_grid_exits_2(cfg_json, tmp_path, capsys, edit, fragment):
    grid = tmp_path / "grid.json"
    assert run("synth", "--config", cfg_json, "--out", grid) == 0
    _edit_grid(grid, edit)
    capsys.readouterr()
    assert run("simulate", "--config", cfg_json, "--grid", grid, "--kappa", 0.2,
               "--out", tmp_path / "t.csv") == 2
    _assert_names_file(capsys, grid, fragment)
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize(
    "edit, fragment",
    [
        (lambda rows: rows[:-1], ": trace has 125 hours, config wants 126"),
        (lambda rows: rows + [["126", *rows[-1][1:]]], ": trace has 127 hours, config wants 126"),
        # the tiny config trains on its first 96 hours; attack_truth is the last column
        (lambda rows: rows[:10] + [rows[10][:-1] + ["1"]] + rows[11:],
         ": training window is attacked; detectors assume a clean train set"),
        # attacks land and detectors slice by row, so the hours must be the rows' positions
        (lambda rows: [[str(int(r[0]) + 10), *r[1:]] for r in rows], ":2: hour must be 0, the row's position"),
    ],
    ids=["short", "long", "attacked-train-window", "shifted-hours"],
)
def test_bad_trace_for_detect_exits_2(cfg_json, tmp_path, capsys, edit, fragment):
    grid, trace, det = tmp_path / "grid.json", tmp_path / "trace.csv", tmp_path / "det"
    assert run("synth", "--config", cfg_json, "--out", grid) == 0
    assert run("simulate", "--config", cfg_json, "--grid", grid, "--kappa", 0.2, "--out", trace) == 0
    header, *lines = trace.read_text().splitlines()
    rows = edit([ln.split(",") for ln in lines])
    trace.write_text("\n".join([header] + [",".join(r) for r in rows]) + "\n")
    capsys.readouterr()
    assert run("detect", "--config", cfg_json, "--trace", trace, "--kappa", 0.2, "--attack", "sudden",
               "--out", det) == 2
    _assert_names_file(capsys, trace, fragment)
    assert not det.exists()


def test_zero_total_hour_names_the_grid_file(cfg_json, tmp_path, capsys):
    # day block 0 is all zeros and every home picks it on day 0, so hour 0 totals 0.0
    grid = tmp_path / "grid.json"
    assert run("synth", "--config", cfg_json, "--out", grid) == 0

    def zero_day_0(payload):
        payload["days"][0] = [0.0] * 24
        for row in payload["picks"]:
            row[0] = 0

    _edit_grid(grid, zero_day_0)
    capsys.readouterr()
    assert run("simulate", "--config", cfg_json, "--grid", grid, "--kappa", 0.2,
               "--out", tmp_path / "t.csv") == 2
    assert capsys.readouterr().err == (
        f"gridloop: error: {grid}: hour 0: base-load total 0.0 must be finite and positive\n"
    )
    assert not (tmp_path / "t.csv").exists()


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
        # json writes and reads the NaN and Infinity literals
        ("eps_dsm", float("nan"), ": eps_dsm must be finite and negative"),
        ("eps_dsm", -float("inf"), ": eps_dsm must be finite and negative"),
        ("eps_dsm_hat", float("nan"), ": eps_dsm_hat must be finite and negative"),
        ("eps_dsm_hat", -float("inf"), ": eps_dsm_hat must be finite and negative"),
        ("lstar_floor", float("nan"), ": lstar_floor must be finite and positive"),
        ("lstar_floor", float("inf"), ": lstar_floor must be finite and positive"),
        ("attacks", [], ": need at least one attack"),
        ("ar_order", -1, ": ar_order must lie in [0, train_hours - 72 = 600]"),
        ("ar_order", 601, ": ar_order must lie in [0, train_hours - 72 = 600]"),
        ("feature_lags", 672, ": feature_lags must be < train_hours = 672"),
        ("kappas", [-0.0, 0.0], ": kappa 0.0 is repeated"),
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
        ('{"mode": "load", "kind": "point", "window": [0, 24], "params": {"values": {"15": 5, "015": 6}}}',
         ": point hour 15 is given twice"),
        ("{", ":1: Expecting property name"),
        (_SUDDEN.replace("}}", '}, "victims": [0, 6]}'), ": victim index out of range for 6 homes"),
        (_SUDDEN.replace("}}", '}, "victims": [1180591620717411303424]}'),
         ": victim index out of range for 6 homes"),
        ('{"mode": "load", "kind": "ramp", "window": [100, 110], "params": {"step": 1e308}}',
         ": ramp step 1e+308 over window [100, 110) exceeds the largest float"),
        # true is no number, so no 1 kWh attack
        ('{"mode": "load", "kind": "ramp", "window": [0, 4], "params": {"step": true}}',
         ": ramp needs a finite 'step' parameter"),
        (_SUDDEN.replace("1.0", "true"), ": sudden needs a finite 'level' parameter"),
        ('{"mode": "load", "kind": "point", "window": [0, 4], "params": {"values": {"1": 2.0, "3": true}}}',
         ": point value at hour 3 must be finite"),
    ],
    ids=["window-number", "victims-number", "level-string", "point-values-list", "point-hour-twice",
         "truncated", "victim-out-of-range", "victim-huge", "ramp-overflow", "step-true", "level-true",
         "point-value-true"],
)
def test_malformed_schedule_exits_2(cfg_json, tmp_path, capsys, text, fragment):
    grid = tmp_path / "grid.json"
    assert run("synth", "--config", cfg_json, "--out", grid) == 0
    path = tmp_path / "s.json"
    path.write_text(text)
    capsys.readouterr()
    assert run("simulate", "--config", cfg_json, "--grid", grid, "--kappa", 0.2,
               "--schedule", path, "--out", tmp_path / "t.csv") == 2
    _assert_names_file(capsys, path, fragment)
