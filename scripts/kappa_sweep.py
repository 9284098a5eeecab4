"""Sweep the participation fraction and tabulate what the pricing loop does.

For each kappa, bootstrap a few micro-grids, run the closed loop, and
report mean observed load and mean price against the no-DSM base load.
This is the quickest way to sanity-check a template calibration: with a
200 kWh target the defaults land around 332 kWh at kappa=0 falling to
~202 kWh at kappa=0.99.

    python3 scripts/kappa_sweep.py --reps 20 --kappas 0 0.5 0.9 0.99
"""

import argparse
import csv
import sys

import numpy as np

from gridloop.experiment import ExperimentConfig
from gridloop.feedback import GridConfig, simulate
from gridloop.loadgen import BootstrapConfig, synthesize_microgrid
from gridloop.synth import synthetic_hourly_templates


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kappas", type=float, nargs="+", default=[0.0, 0.25, 0.5, 0.75, 0.9, 0.99])
    ap.add_argument("--reps", type=int, default=20)
    ap.add_argument("--homes", type=int, default=200)
    ap.add_argument("--days", type=int, default=30)
    ap.add_argument("--target", type=float, default=200.0)
    ap.add_argument("--goal", choices=("goal1", "goal2"), default="goal1")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--csv", help="also write the table to this file")
    args = ap.parse_args(argv)

    templates = synthetic_hourly_templates(7, 28, seed=args.seed)
    horizon = 24 * args.days
    # the protocol's grid seeds; the sweep sets its own size and horizon
    proto = ExperimentConfig(seed=args.seed)

    rows = []
    base_means = []
    for rep in range(args.reps):
        gseed = proto.bootstrap_config(rep).seed
        grid = synthesize_microgrid(
            templates, BootstrapConfig(n_homes=args.homes, num_days=args.days, seed=gseed)
        )
        base = grid.kwh[:horizon]
        base_means.append(base.sum(axis=1).mean())
        for kappa in args.kappas:
            cfg = GridConfig(n_homes=args.homes, kappa=kappa, goal=args.goal, target=args.target)
            trace = simulate(base, cfg)
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
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["kappa", "mean_load_kwh", "std_load_kwh", "mean_price"])
            w.writerows(table)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
