"""Command-line front end.

Subcommands mirror the pipeline stages:

    synth           hourly templates -> bootstrapped micro-grid CSV
    simulate        micro-grid -> closed-loop trace CSV
    attack          trace -> post-hoc attacked trace CSV
    detect          attacked trace -> detections.csv + detect_meta.json
    evaluate        detections dir -> metrics.json + roc.csv
    run_experiment  full protocol sweep into an output tree

Every stage but evaluate reads one experiment config JSON (defaults apply
when --config is omitted). Seed precedence: --seed flag, then the
GRIDLOOP_SEED environment variable, then the config value. synth and
run_experiment take --templates DIR of minute-level meter CSVs in place of
the synthetic templates. Chaining subcommands with matching
--rep/--kappa/--attack reproduces the corresponding run_experiment
scenario byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from gridloop.attack import inject_post_hoc, read_schedule
from gridloop.experiment import (
    ExperimentConfig,
    detect_stage,
    evaluate_stage,
    protocol_schedule,
    run_experiment,
)
from gridloop.feedback import read_trace, simulate, write_trace
from gridloop.ingest import load_template_dir, resample_hourly
from gridloop.loadgen import read_microgrid, synthesize_microgrid, write_microgrid
from gridloop.synth import synthetic_hourly_templates


def _add_common(sub):
    sub.add_argument("--config", help="experiment config JSON (defaults if omitted)")
    sub.add_argument("--seed", type=int, help="override the config seed")
    sub.add_argument("--out", help="output file or directory")


def _add_templates(sub):
    sub.add_argument("--templates", help="directory of minute-level template CSVs")


def _load_cfg(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    seed = args.seed
    if seed is None and os.environ.get("GRIDLOOP_SEED"):
        seed = int(os.environ["GRIDLOOP_SEED"])
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed)
    return cfg


def _hourly_templates(args, cfg):
    if args.templates:
        return [resample_hourly(t) for t in load_template_dir(args.templates)]
    return synthetic_hourly_templates(cfg.template_homes, cfg.template_days, seed=cfg.seed)


def _out_file(args, default_name: str) -> Path:
    if args.out is None:
        return Path(default_name)
    out = Path(args.out)
    if out.suffix:
        out.parent.mkdir(parents=True, exist_ok=True)
        return out
    out.mkdir(parents=True, exist_ok=True)
    return out / default_name


def cmd_synth(args) -> int:
    cfg = _load_cfg(args)
    templates = _hourly_templates(args, cfg)
    grid = synthesize_microgrid(templates, cfg.bootstrap_config(args.rep))
    out = _out_file(args, "microgrid.csv")
    write_microgrid(grid, str(out))
    print(f"wrote {grid.n_hours}h x {grid.n_homes} homes to {out}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    grid = read_microgrid(args.grid)
    if grid.n_hours < cfg.horizon:
        raise ValueError(f"grid has {grid.n_hours} hours, config wants {cfg.horizon}")
    # the grid file, not the config, says how many homes there are
    gcfg = dataclasses.replace(cfg.grid_config(args.kappa), n_homes=grid.n_homes)
    schedule = read_schedule(args.schedule) if args.schedule else None
    trace = simulate(grid.kwh[: cfg.horizon], gcfg, schedule=schedule, injection=args.injection)
    out = _out_file(args, "trace.csv")
    write_trace(trace, str(out))
    print(f"wrote {len(trace)}h trace to {out}")
    return 0


def cmd_attack(args) -> int:
    cfg = _load_cfg(args)
    trace = read_trace(args.trace)
    if args.schedule:
        schedule = read_schedule(args.schedule)
    elif args.kind:
        schedule = protocol_schedule(args.kind, cfg)
    else:
        raise ValueError("attack needs --schedule FILE or --kind ramp|sudden|point")
    attacked = inject_post_hoc(trace, schedule)
    out = _out_file(args, "attacked.csv")
    write_trace(attacked, str(out))
    print(f"wrote attacked trace to {out}")
    return 0


def cmd_detect(args) -> int:
    cfg = _load_cfg(args)
    trace = read_trace(args.trace)
    try:
        k_idx = cfg.kappas.index(args.kappa)
    except ValueError:
        raise ValueError(f"kappa {args.kappa} not in config kappas {cfg.kappas}") from None
    out = Path(args.out or ".")
    detect_stage(trace, cfg, args.kappa, args.attack, k_idx, args.rep, out)
    print(f"wrote detections.csv and detect_meta.json to {out}")
    return 0


def cmd_evaluate(args) -> int:
    entries = evaluate_stage(args.detections, args.out)
    out = Path(args.out) if args.out else Path(args.detections)
    print(f"wrote metrics.json and roc.csv to {out}")
    for e in entries:
        print(
            f"  {e['detector']:<15} accuracy={_fmt(e['accuracy'])} "
            f"recall={_fmt(e['recall'])} fpr={_fmt(e['fpr'])} auc={_fmt(e['auc'])}"
        )
    return 0


def cmd_run_experiment(args) -> int:
    cfg = _load_cfg(args)
    templates = _hourly_templates(args, cfg) if args.templates else None
    out = Path(args.out or "runs")
    summary = run_experiment(cfg, out, templates=templates)
    print(f"wrote {out}/summary.json and {out}/summary.csv")
    for row in summary["table"]:
        print(
            f"  kappa={row['kappa']:<4} {row['attack_type']:<7} {row['detector']:<15}"
            f" accuracy={_fmt(row['accuracy'])} auc={_fmt(row['auc'])}"
        )
    return 0


def _fmt(v) -> str:
    if v is None:
        return "nan"
    if isinstance(v, str):
        return v
    return f"{v:.3f}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gridloop", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="bootstrap a micro-grid CSV")
    _add_common(p)
    _add_templates(p)
    p.add_argument("--rep", type=int, default=0, help="replication index (seed stream)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simulate", help="run the closed pricing loop")
    _add_common(p)
    p.add_argument("--grid", required=True, help="microgrid CSV from synth")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--schedule", help="attack schedule JSON")
    p.add_argument(
        "--injection", choices=("closed_loop", "post_hoc"), default="closed_loop"
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("attack", help="inject a post-hoc attack into a trace")
    _add_common(p)
    p.add_argument("--trace", required=True)
    p.add_argument("--schedule", help="attack schedule JSON")
    p.add_argument("--kind", choices=("ramp", "sudden", "point"), help="protocol attack")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("detect", help="run all detectors over a trace")
    _add_common(p)
    p.add_argument("--trace", required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--attack", required=True, help="attack kind label for the metadata")
    p.add_argument("--rep", type=int, default=0)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", help="score a detections directory")
    _add_common(p)
    p.add_argument("--detections", required=True, help="directory from detect")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run_experiment", help="full protocol sweep")
    _add_common(p)
    _add_templates(p)
    p.set_defaults(func=cmd_run_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"gridloop: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
