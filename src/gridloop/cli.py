"""Command-line front end.

Subcommands mirror the pipeline stages:

    synth           hourly templates -> micro-grid file: template day blocks and day picks
    simulate        micro-grid -> closed-loop trace CSV
    attack          trace -> trace CSV with a protocol attack forged post-hoc
    detect          attacked trace -> detections.csv + detect_meta.json
    evaluate        detections dir -> metrics.json + roc.csv
    run_experiment  full protocol sweep into an output tree

Every stage but evaluate reads one experiment config JSON (defaults apply
when --config is omitted); evaluate accepts --config and ignores it. The
stages that draw random numbers, synth, detect and run_experiment, take
--seed, which overrides the config's seed; the others reject it. synth
and run_experiment take --templates DIR of minute-level meter CSVs in
place of the synthetic templates. Chaining subcommands with matching
--rep/--kappa/--attack reproduces the corresponding run_experiment
scenario byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from gridloop.attack import KINDS, read_schedule
from gridloop.experiment import (
    ExperimentConfig,
    detect_stage,
    evaluate_stage,
    protocol_schedule,
    run_experiment,
)
from gridloop.feedback import BaseLoadError, inject_post_hoc, read_trace, simulate, write_trace
from gridloop.ingest import load_template_dir
from gridloop.loadgen import read_microgrid, synthesize_microgrid, write_microgrid
from gridloop.synth import synthetic_hourly_templates


def _add_common(sub):
    sub.add_argument("--config", help="experiment config JSON (defaults if omitted)")
    sub.add_argument("--out", help="output file or directory")


def _add_seed(sub):
    sub.add_argument("--seed", type=int, help="override the config seed")


def _add_templates(sub):
    sub.add_argument("--templates", help="directory of minute-level template CSVs")


def _load_cfg(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    return cfg if getattr(args, "seed", None) is None else dataclasses.replace(cfg, seed=args.seed)


def _hourly_templates(args, cfg):
    if args.templates:
        return load_template_dir(args.templates)
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
    out = _out_file(args, "microgrid.json")
    write_microgrid(grid, str(out))
    print(f"wrote {grid.n_hours}h x {grid.n_homes} homes to {out}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    grid = read_microgrid(args.grid)
    if grid.n_hours < cfg.horizon:
        raise ValueError(f"{args.grid}: grid has {grid.n_hours} hours, config wants {cfg.horizon}")
    # the grid file, not the config, says how many homes there are
    gcfg = dataclasses.replace(cfg.grid_config(args.kappa), n_homes=grid.n_homes)
    schedule = read_schedule(args.schedule) if args.schedule else None
    if schedule is not None:
        try:
            schedule.victim_indices(grid.n_homes)
        except ValueError as exc:
            raise ValueError(f"{args.schedule}: {exc}") from None
    try:
        trace = simulate(grid.kwh[: cfg.horizon], gcfg, schedule=schedule)
    except BaseLoadError as exc:  # its hour is the grid file's
        raise ValueError(f"{args.grid}: {exc}") from None
    out = _out_file(args, "trace.csv")
    write_trace(trace, str(out))
    print(f"wrote {len(trace)}h trace to {out}")
    return 0


def cmd_attack(args) -> int:
    cfg = _load_cfg(args)
    trace = read_trace(args.trace)
    if len(trace) != cfg.horizon:  # detect_stage's check: the schedule sits at the config's horizon
        raise ValueError(f"{args.trace}: trace has {len(trace)} hours, config wants {cfg.horizon}")
    attacked = inject_post_hoc(trace, protocol_schedule(args.kind, cfg))
    out = _out_file(args, "attacked.csv")
    write_trace(attacked, str(out))
    print(f"wrote attacked trace to {out}")
    return 0


def cmd_detect(args) -> int:
    cfg = _load_cfg(args)
    trace = read_trace(args.trace)
    out = Path(args.out or ".")
    try:
        detect_stage(trace, cfg, args.kappa, args.attack, args.rep, out)
    except ValueError as exc:
        if args.kappa not in cfg.kappas:  # the flag, not the trace, is at fault
            raise
        raise ValueError(f"{args.trace}: {exc}") from None
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
    return "nan" if v is None else f"{v:.3f}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gridloop", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="bootstrap a micro-grid as its day picks")
    _add_common(p)
    _add_seed(p)
    _add_templates(p)
    p.add_argument("--rep", type=int, default=0, help="replication index (seed stream)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("simulate", help="run the closed pricing loop")
    _add_common(p)
    p.add_argument("--grid", required=True, help="micro-grid file from synth")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--schedule", help="attack schedule JSON, applied inside the loop")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("attack", help="forge a protocol attack into a trace post-hoc")
    _add_common(p)
    p.add_argument("--trace", required=True)
    p.add_argument("--kind", required=True, choices=KINDS, help="protocol attack")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("detect", help="run all detectors over a trace")
    _add_common(p)
    _add_seed(p)
    p.add_argument("--trace", required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--attack", required=True, choices=KINDS, help="attack kind label for the metadata")
    p.add_argument("--rep", type=int, default=0)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", help="score a detections directory")
    p.add_argument("--config", help="accepted so one config can go to every stage; not read")
    p.add_argument("--out", help="output directory (default: the detections directory)")
    p.add_argument("--detections", required=True, help="directory from detect")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run_experiment", help="full protocol sweep")
    _add_common(p)
    _add_seed(p)
    _add_templates(p)
    p.set_defaults(func=cmd_run_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "rep", 0) < 0:
            raise ValueError(f"--rep {args.rep} must be >= 0")
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: an absurd size in an input file
        print(f"gridloop: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
