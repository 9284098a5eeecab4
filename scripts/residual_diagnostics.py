"""Check whether the seasonal-AR residuals on a training window are white.

Builds one protocol scenario (bootstrap grid + pricing loop) from the
experiment config (defaults if --config is omitted), fits the config's
daily-seasonal AR(ar_order) to the training window, and prints sigma, the
Jarque-Bera statistic, and the residual ACF at lags 1..24 with the
95% white-noise band. The sequential detectors assume roughly white
Gaussian residuals, so this is the thing to look at before trusting a
calibration on new templates. --plot saves ACF and Q-Q figures when
matplotlib is importable.
"""

import argparse
import sys

import numpy as np

from gridloop.experiment import ExperimentConfig
from gridloop.feedback import simulate
from gridloop.forecast import acf, acf_band, fit_seasonal_ar, jarque_bera, one_step_residuals, qq_points
from gridloop.loadgen import synthesize_microgrid
from gridloop.synth import synthetic_hourly_templates


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", help="experiment config JSON (defaults if omitted)")
    ap.add_argument("--kappa", type=float, default=0.1)
    ap.add_argument("--rep", type=int, default=0)
    ap.add_argument("--plot", metavar="PREFIX", help="save PREFIX_acf.png and PREFIX_qq.png")
    args = ap.parse_args(argv)

    cfg = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    templates = synthetic_hourly_templates(cfg.template_homes, cfg.template_days, seed=cfg.seed)
    grid = synthesize_microgrid(templates, cfg.bootstrap_config(args.rep))
    trace = simulate(grid.kwh[: cfg.horizon], cfg.grid_config(args.kappa))
    train = trace.observed_load[: cfg.train_hours]

    model = fit_seasonal_ar(train, order=cfg.ar_order)
    resid = one_step_residuals(model, train)
    band = acf_band(len(resid))
    r = acf(resid, 24)

    print(f"kappa={args.kappa} rep={args.rep}: AR({model.order}) coeffs {np.round(model.coeffs, 4)}")
    print(f"sigma = {model.sigma:.4f} kWh over {len(resid)} residuals")
    print(f"jarque-bera = {jarque_bera(resid):.2f}  (chi2_2 95% point: 5.99)")
    print(f"acf band +-{band:.4f}")
    inside = 0
    for lag in range(1, 25):
        flag = " " if abs(r[lag]) < band else "*"
        inside += abs(r[lag]) < band
        bar = "#" * int(abs(r[lag]) * 80)
        print(f"  lag {lag:2d}  {r[lag]:+.4f} {flag} {bar}")
    print(f"{inside}/24 lags inside the band")

    if args.plot:
        try:
            import matplotlib
            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError:
            print("matplotlib not installed; skipping figures", file=sys.stderr)
            return 1
        fig, ax = plt.subplots(figsize=(7, 3))
        ax.stem(range(1, 25), r[1:])
        ax.axhspan(-band, band, alpha=0.2)
        ax.set_xlabel("lag (h)")
        ax.set_ylabel("residual ACF")
        fig.tight_layout()
        fig.savefig(f"{args.plot}_acf.png", dpi=150)
        theo, emp = qq_points(resid)
        fig, ax = plt.subplots(figsize=(4, 4))
        ax.plot(theo, emp, ".", ms=3)
        lim = [min(theo.min(), emp.min()), max(theo.max(), emp.max())]
        ax.plot(lim, lim, "k-", lw=0.8)
        ax.set_xlabel("normal quantile")
        ax.set_ylabel("residual quantile")
        fig.tight_layout()
        fig.savefig(f"{args.plot}_qq.png", dpi=150)
        print(f"wrote {args.plot}_acf.png and {args.plot}_qq.png")
    return 0


if __name__ == "__main__":
    sys.exit(main())
