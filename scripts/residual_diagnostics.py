"""Check whether the seasonal-AR residuals on a training window are white.

Builds one protocol scenario (bootstrap grid + pricing loop) from the
experiment config (defaults if --config is omitted), fits the config's
daily-seasonal AR(ar_order) to the training window, and prints sigma, the
Jarque-Bera statistic, and the residual ACF at lags 1..24 with the
95% white-noise band. The sequential detectors assume roughly white
Gaussian residuals, so this is the thing to look at before trusting a
calibration on new templates.
"""

import argparse
import sys

import numpy as np

from gridloop.experiment import ExperimentConfig
from gridloop.feedback import simulate
from gridloop.forecast import acf, acf_band, fit_seasonal_ar, jarque_bera
from gridloop.loadgen import synthesize_microgrid
from gridloop.synth import synthetic_hourly_templates


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="residual_diagnostics.py", description=__doc__.splitlines()[0])
    ap.add_argument("--config", help="experiment config JSON (defaults if omitted)")
    ap.add_argument("--kappa", type=float, default=0.1)
    ap.add_argument("--rep", type=int, default=0)
    args = ap.parse_args(argv)

    try:
        if args.rep < 0:
            raise ValueError(f"--rep {args.rep} must be >= 0")
        cfg = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
        templates = synthetic_hourly_templates(cfg.template_homes, cfg.template_days, seed=cfg.seed)
        grid = synthesize_microgrid(templates, cfg.bootstrap_config(args.rep))
        trace = simulate(grid.kwh[: cfg.horizon], cfg.grid_config(args.kappa))
        model = fit_seasonal_ar(trace.observed_load[: cfg.train_hours], order=cfg.ar_order)
        resid = model.residuals
        r = acf(resid, 24)
        jb = jarque_bera(resid)
    except (ValueError, OSError) as exc:
        print(f"{ap.prog}: error: {exc}", file=sys.stderr)
        return 2
    band = acf_band(len(resid))

    print(f"kappa={args.kappa} rep={args.rep}: AR({model.order}) coeffs {np.round(model.coeffs, 4)}")
    print(f"sigma = {model.sigma:.4f} kWh over {len(resid)} residuals")
    print(f"jarque-bera = {jb:.2f}  (chi2_2 95% point: 5.99)")
    print(f"acf band +-{band:.4f}")
    inside = 0
    for lag in range(1, 25):
        flag = " " if abs(r[lag]) < band else "*"
        inside += abs(r[lag]) < band
        bar = "#" * int(abs(r[lag]) * 80)
        print(f"  lag {lag:2d}  {r[lag]:+.4f} {flag} {bar}")
    print(f"{inside}/24 lags inside the band")
    return 0


if __name__ == "__main__":
    sys.exit(main())
