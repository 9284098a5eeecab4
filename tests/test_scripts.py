"""Smoke tests: each script's main(argv) runs at a tiny size and prints its table,
and bad input exits 2 with one error line.

The scripts build their grids and loops from an ExperimentConfig, so on
the tiny config they meet the run_experiment scenario's own numbers."""

import importlib.util
import json
from pathlib import Path

import pytest

from gridloop.experiment import scenario_dir
from gridloop.feedback import read_trace
from gridloop.tables import FINITE, read_table

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kappa_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    main = _load("kappa_sweep").main
    assert main(["--reps", "1", "--kappas", "0", "0.5", "--csv", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "base load (no DSM)" in printed
    assert out.read_text().splitlines()[0] == "kappa,mean_load_kwh,std_load_kwh,mean_price"
    assert len(out.read_text().splitlines()) == 3


def test_kappa_sweep_runs_the_protocol_loop(cfg_json, tiny_run, tmp_path):
    # the scenario's trace.csv carries an attack on its load, not on its price
    out = tmp_path / "sweep.csv"
    assert _load("kappa_sweep").main(["--config", cfg_json, "--kappas", "0.2", "--reps", "1",
                                      "--csv", str(out)]) == 0
    table = read_table(out, dict.fromkeys(["kappa", "mean_load_kwh", "std_load_kwh", "mean_price"], FINITE))
    trace = read_trace(scenario_dir(tiny_run[0], 0.2, "sudden", 0) / "trace.csv")
    assert table["kappa"].tolist() == [0.2]
    assert table["mean_price"].tolist() == [trace.price.mean()]


def test_residual_diagnostics(capsys):
    assert _load("residual_diagnostics").main([]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("kappa=0.1 rep=0: AR(")
    assert "lags inside the band" in printed


def test_residual_diagnostics_fits_the_protocol_ar(cfg_json, tiny_run, capsys):
    assert _load("residual_diagnostics").main(["--config", cfg_json, "--kappa", "0.2"]) == 0
    meta = json.loads((scenario_dir(tiny_run[0], 0.2, "sudden", 0) / "detect_meta.json").read_text())
    assert f"sigma = {meta['sigma']:.4f} kWh" in capsys.readouterr().out.splitlines()[1]


@pytest.mark.parametrize(
    "script,args,message",
    [
        ("kappa_sweep", ["--config", "{bad_seed}"], "{bad_seed}: seed must be >= 0"),
        ("kappa_sweep", ["--config", "{cfg}", "--kappas", "1.5"], "kappa must lie in [0, 1]"),
        ("kappa_sweep", ["--config", "{missing}"], "[Errno 2] No such file or directory: '{missing}'"),
        ("kappa_sweep", ["--config", "{cfg}", "--reps", "0"], "--reps 0 must be >= 1"),
        ("residual_diagnostics", ["--config", "{cfg}", "--rep", "-1"], "--rep -1 must be >= 0"),
        ("residual_diagnostics", ["--config", "{missing}"], "[Errno 2] No such file or directory: '{missing}'"),
    ],
    ids=["seed", "kappa", "missing-config", "reps", "rep", "diagnostics-missing-config"],
)
def test_bad_input_exits_2(cfg_json, tmp_path, capsys, script, args, message):
    bad_seed = tmp_path / "bad_seed.json"
    bad_seed.write_text('{"seed": -1}')
    paths = {"cfg": cfg_json, "bad_seed": bad_seed, "missing": tmp_path / "nope.json"}
    assert _load(script).main([a.format(**paths) for a in args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"{script}.py: error: {message.format(**paths)}\n"
