"""Sweep the participation fraction and tabulate what the pricing loop does.

For each kappa, bootstrap a few of the protocol's micro-grids, run the
closed loop, and report mean observed load and mean price against the
no-DSM base load. Grids, horizon, target and goal come from the experiment
config (defaults if --config is omitted), through the same
cfg.bootstrap_config(rep) and cfg.grid_config(kappa) as run_experiment;
only the kappa axis and the replication count are the sweep's own. This
is the quickest way to sanity-check a template calibration: with the
defaults' 200 kWh target the load lands around 332 kWh at kappa=0 falling
to ~202 kWh at kappa=0.99.

    python3 scripts/kappa_sweep.py --reps 20 --kappas 0 0.5 0.9 0.99
"""

import argparse
import sys

import numpy as np

from gridloop.experiment import ExperimentConfig
from gridloop.feedback import simulate
from gridloop.loadgen import synthesize_microgrid
from gridloop.synth import synthetic_hourly_templates
from gridloop.tables import write_table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="kappa_sweep.py", description=__doc__.splitlines()[0])
    ap.add_argument("--config", help="experiment config JSON (defaults if omitted)")
    ap.add_argument("--kappas", type=float, nargs="+", default=[0.0, 0.25, 0.5, 0.75, 0.9, 0.99])
    ap.add_argument("--reps", type=int, default=20)
    ap.add_argument("--csv", help="also write the table to this file")
    args = ap.parse_args(argv)

    try:
        if args.reps < 1:
            raise ValueError(f"--reps {args.reps} must be >= 1")
        cfg = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
        templates = synthetic_hourly_templates(cfg.template_homes, cfg.template_days, seed=cfg.seed)

        rows = []
        base_means = []
        for rep in range(args.reps):
            base = synthesize_microgrid(templates, cfg.bootstrap_config(rep)).kwh[: cfg.horizon]
            base_means.append(base.sum(axis=1).mean())
            for kappa in args.kappas:
                trace = simulate(base, cfg.grid_config(kappa))
                rows.append((kappa, rep, trace.observed_load.mean(), trace.price.mean()))

        print(f"base load (no DSM): {np.mean(base_means):8.2f} kWh mean over {args.reps} grids")
        print(f"{'kappa':>6}  {'mean load kWh':>13}  {'std':>6}  {'mean price':>10}")
        table = []
        for kappa in args.kappas:
            loads = [r[2] for r in rows if r[0] == kappa]
            prices = [r[3] for r in rows if r[0] == kappa]
            table.append((kappa, np.mean(loads), np.std(loads), np.mean(prices)))
            print(f"{kappa:6.2f}  {table[-1][1]:13.2f}  {table[-1][2]:6.2f}  {table[-1][3]:10.4f}")

        if args.csv:
            write_table(args.csv, ["kappa", "mean_load_kwh", "std_load_kwh", "mean_price"],
                        list(np.array(table).T))
            print(f"wrote {args.csv}")
    except (ValueError, OSError) as exc:
        print(f"{ap.prog}: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
