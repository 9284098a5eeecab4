"""Smoke tests: each script's main(argv) runs at a tiny size and prints its table."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kappa_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    main = _load("kappa_sweep").main
    assert main(["--reps", "1", "--homes", "20", "--days", "5",
                 "--kappas", "0", "0.5", "--csv", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "base load (no DSM)" in printed
    assert out.read_text().splitlines()[0] == "kappa,mean_load_kwh,std_load_kwh,mean_price"
    assert len(out.read_text().splitlines()) == 3


def test_residual_diagnostics(capsys):
    assert _load("residual_diagnostics").main([]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("kappa=0.1 rep=0: AR(")
    assert "lags inside the band" in printed


def test_run_detection_experiments(tiny_cfg, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    tiny_cfg.to_json(cfg)
    out = tmp_path / "runs"
    main = _load("run_detection_experiments").main
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "summary.json").is_file()
    table = capsys.readouterr().out.splitlines()
    # one row per detector for the single (kappa, attack) pair
    assert sum(line.startswith(" 0.20 sudden") for line in table) == 6
