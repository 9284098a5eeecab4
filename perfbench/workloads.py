"""The three benchmark workloads: their inputs, one timed pass, and its checks.

Every workload is a closed loop in one process: the next pass starts only
after the previous one has returned. A pass calls gridloop through module
attributes (``gridloop.experiment.run_experiment``, ``gridloop.cli.main``,
``gridloop.feedback.simulate``) so that a traced pass sees the wrappers
installed there. Output checks run after a pass, outside its timed region.

``size="tiny"`` shrinks each workload to the scale of the test suite's
``tiny_cfg`` for the benchmark's own smoke tests.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gridloop.cli
import gridloop.experiment
import gridloop.feedback
import gridloop.loadgen
from gridloop.attack import make_sudden
from gridloop.experiment import ExperimentConfig, scenario_dir
from gridloop.feedback import GridConfig
from gridloop.ingest import HourlySeries
from gridloop.loadgen import BootstrapConfig
from gridloop.synth import synthetic_hourly_templates

__all__ = ["WORKLOADS", "LoopScaleConfig", "PassOutcome", "loop_closed_form", "make_inputs"]

# the detectors averaged into auc_mean (the experiment module's comparison set)
AUC_DETECTORS = ("glrt", "cusum", "logreg", "gnb", "forest")
# rows per (kappa, attack) in summary.json: one per detector emitted
DETECTORS_PER_SCENARIO = 6

_TINY_EXPERIMENT = dict(
    n_homes=6, kappas=(0.2,), attacks=("sudden",), train_days=4, test_hours=30,
    attack_hours=12, replications=1, template_homes=3, template_days=6,
    forest_trees=10, sweep_points=21,
)


@dataclass
class PassOutcome:
    """What the checks of one pass found."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    aucs: list[float] = field(default_factory=list)
    fingerprint: str | None = None

    def fail(self, units: int, problem: str) -> None:
        self.failed = min(self.attempted, self.failed + units)
        self.problems.append(problem)


@dataclass
class Inputs:
    config: object
    templates: list[HourlySeries]
    directory: Path


# ---------------------------------------------------------------------------
# inputs, written by the set-up process

def _write_templates(templates, path: Path) -> None:
    np.savez(
        path,
        ids=np.array([t.home_id for t in templates]),
        kwh=np.stack([t.kwh for t in templates]),
    )


def _read_templates(path: Path) -> list[HourlySeries]:
    with np.load(path) as data:
        return [
            HourlySeries(home_id=str(i), hours=np.arange(len(k)), kwh=k)
            for i, k in zip(data["ids"], data["kwh"])
        ]


def make_inputs(workload: str, seed: int, size: str, out_dir: Path) -> None:
    """Synthesize the templates and write everything a pass reads."""
    cfg = WORKLOADS[workload]().config(seed, size)
    out_dir.mkdir(parents=True, exist_ok=True)
    templates = synthetic_hourly_templates(cfg.template_homes, cfg.template_days, seed=seed)
    _write_templates(templates, out_dir / "templates.npz")
    with open(out_dir / "config.json", "w") as fh:
        json.dump(dataclasses.asdict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_inputs(workload: str, in_dir: Path) -> Inputs:
    spec = WORKLOADS[workload]
    with open(in_dir / "config.json") as fh:
        payload = json.load(fh)
    return Inputs(spec.config_from(payload), _read_templates(in_dir / "templates.npz"), in_dir)


def _experiment_config(seed: int, size: str, **overrides) -> ExperimentConfig:
    base = _TINY_EXPERIMENT if size == "tiny" else {}
    return ExperimentConfig(**{**base, **overrides, "seed": seed})


def _experiment_from(payload: dict) -> ExperimentConfig:
    for key in ("kappas", "attacks"):
        payload[key] = tuple(payload[key])
    return ExperimentConfig(**payload)


def _check_scenario(out: PassOutcome, sdir: Path, label: str) -> None:
    """metrics.json and roc.csv exist and every AUC lies in [0, 1]."""
    if not (sdir / "roc.csv").is_file():
        out.fail(1, f"{label}: roc.csv missing")
        return
    try:
        with open(sdir / "metrics.json") as fh:
            entries = json.load(fh)
    except (OSError, ValueError) as exc:
        out.fail(1, f"{label}: metrics.json unreadable: {exc}")
        return
    aucs = [e["auc"] for e in entries if e["detector"] in AUC_DETECTORS]
    if len(aucs) != len(AUC_DETECTORS) or not all(
        isinstance(a, float) and 0.0 <= a <= 1.0 for a in aucs
    ):
        out.fail(1, f"{label}: AUCs {aucs} not all in [0, 1]")
        return
    out.aucs.extend(aucs)


# ---------------------------------------------------------------------------
# protocol_ref: run_experiment at the default config

class ProtocolRef:
    name = "protocol_ref"
    warmup_passes = 0

    def config(self, seed: int, size: str) -> ExperimentConfig:
        return _experiment_config(seed, size, replications=1)

    config_from = staticmethod(_experiment_from)

    def units(self, cfg: ExperimentConfig) -> int:
        return cfg.replications * len(cfg.kappas) * len(cfg.attacks)

    def home_hours(self, cfg: ExperimentConfig) -> int:
        return cfg.replications * len(cfg.kappas) * cfg.n_homes * cfg.horizon

    def prepare(self, inputs: Inputs, work: Path) -> None:
        pass

    def run_pass(self, inputs: Inputs, out_dir: Path, tracer) -> None:
        gridloop.experiment.run_experiment(inputs.config, out_dir, templates=inputs.templates)

    def check(self, inputs: Inputs, out_dir: Path, out: PassOutcome) -> None:
        cfg = inputs.config
        summary_path = out_dir / "summary.json"
        try:
            raw = summary_path.read_bytes()
            table = json.loads(raw)["table"]
        except (OSError, ValueError, KeyError) as exc:
            out.fail(out.attempted, f"summary.json unreadable: {exc}")
            return
        want = len(cfg.kappas) * len(cfg.attacks) * DETECTORS_PER_SCENARIO
        if len(table) != want:
            out.fail(out.attempted, f"summary has {len(table)} rows, want {want}")
        out.fingerprint = hashlib.sha256(raw).hexdigest()
        for rep in range(cfg.replications):
            for kappa in cfg.kappas:
                for attack in cfg.attacks:
                    sdir = scenario_dir(out_dir, kappa, attack, rep)
                    _check_scenario(out, sdir, f"rep {rep} kappa {kappa:g} {attack}")


# ---------------------------------------------------------------------------
# cli_long_window: the CLI stage chain over a 720 h test window

class CliLongWindow:
    name = "cli_long_window"
    warmup_passes = 0  # the reference run in prepare() warms the same code

    def config(self, seed: int, size: str) -> ExperimentConfig:
        if size == "tiny":
            return _experiment_config(seed, size)
        return _experiment_config(
            seed, size, test_hours=720, attack_hours=168, forest_trees=10, replications=1
        )

    config_from = staticmethod(_experiment_from)

    def units(self, cfg: ExperimentConfig) -> int:
        return len(cfg.kappas) * len(cfg.attacks)

    def home_hours(self, cfg: ExperimentConfig) -> int:
        return len(cfg.kappas) * cfg.n_homes * cfg.horizon

    def prepare(self, inputs: Inputs, work: Path) -> None:
        """Write the reference run the chained files must match, before timing."""
        self.reference = work / "reference"
        gridloop.experiment.run_experiment(inputs.config, self.reference, templates=inputs.templates)

    def run_pass(self, inputs: Inputs, out_dir: Path, tracer) -> None:
        cfg = inputs.config
        config = str(inputs.directory / "config.json")
        grid = out_dir / "microgrid.csv"
        self.broken = set()  # (kappa, attack) pairs whose chain stopped
        ok = self._cli(tracer, "rep=0", "synth", "--config", config, "--rep", 0, "--out", grid)
        for kappa in cfg.kappas:
            nominal = out_dir / f"nominal_kappa_{kappa:g}.csv"
            ok_k = ok and self._cli(tracer, f"kappa={kappa:g}", "simulate", "--config", config,
                                    "--grid", grid, "--kappa", kappa, "--out", nominal)
            for attack in cfg.attacks:
                det = scenario_dir(out_dir, kappa, attack, 0)
                unit = f"kappa={kappa:g}/{attack}"
                ok_s = (
                    ok_k
                    and self._cli(tracer, unit, "attack", "--config", config, "--trace", nominal,
                                  "--kind", attack, "--out", det / "trace.csv")
                    and self._cli(tracer, unit, "detect", "--config", config,
                                  "--trace", det / "trace.csv", "--kappa", kappa,
                                  "--attack", attack, "--rep", 0, "--out", det)
                    and self._cli(tracer, unit, "evaluate", "--config", config,
                                  "--detections", det)
                )
                if not ok_s:
                    self.broken.add((kappa, attack))

    @staticmethod
    def _cli(tracer, unit: str, *argv) -> bool:
        with tracer.span("bench.unit", unit), contextlib.redirect_stdout(io.StringIO()):
            return gridloop.cli.main([str(a) for a in argv]) == 0

    def check(self, inputs: Inputs, out_dir: Path, out: PassOutcome) -> None:
        cfg = inputs.config
        for kappa in cfg.kappas:
            for attack in cfg.attacks:
                label = f"kappa {kappa:g} {attack}"
                if (kappa, attack) in self.broken:
                    out.fail(1, f"{label}: a CLI stage exited non-zero")
                    continue
                det = scenario_dir(out_dir, kappa, attack, 0)
                ref = scenario_dir(self.reference, kappa, attack, 0)
                differ = [
                    name for name in ("detections.csv", "metrics.json")
                    if not (det / name).is_file() or (det / name).read_bytes() != (ref / name).read_bytes()
                ]
                if differ:
                    out.fail(1, f"{label}: {', '.join(differ)} differ from run_experiment")
                    continue
                _check_scenario(out, det, label)


# ---------------------------------------------------------------------------
# loop_scale: bootstrap 100k homes and run the closed loop twelve times

@dataclass(frozen=True)
class LoopScaleConfig:
    """A population, its closed-loop settings and the two in-loop attacks.

    The target scales with the population (``target_per_home`` kWh/h per
    home). The price attack adds ``price_offset`` to the price every
    ``victim_stride``-th home sees; the load attack adds ``load_per_victim``
    kWh to each of those homes, enough to clamp some of their loads at 0.
    Both cover the last ``attack_hours`` of the horizon.
    """

    seed: int
    n_homes: int = 100_000
    num_days: int = 31
    template_homes: int = 7
    template_days: int = 28
    kappas: tuple[float, ...] = (0.1, 0.9)
    goals: tuple[str, ...] = ("goal1", "goal2")
    eps_dsm: float = -1.0
    target_per_home: float = 1.0
    lstar_floor: float = 10.0
    attack_hours: int = 168
    victim_stride: int = 10
    price_offset: float = 0.5
    load_per_victim: float = -1.0

    @property
    def hours(self) -> int:
        return 24 * self.num_days

    @property
    def victims(self) -> tuple[int, ...]:
        return tuple(range(0, self.n_homes, self.victim_stride))

    def schedules(self) -> dict:
        window = (self.hours - self.attack_hours, self.hours)
        victims = self.victims
        return {
            "nominal": None,
            "price": make_sudden(window, self.price_offset, mode="price", victims=victims),
            "load": make_sudden(window, self.load_per_victim * len(victims), mode="load",
                                victims=victims),
        }


_TINY_LOOP = dict(n_homes=60, num_days=6, template_homes=3, template_days=6, attack_hours=24)


def loop_closed_form(Phi, base_v, kappa, eps, target, goal, floor, price_add, load_add):
    """Posted prices and observed aggregate of the closed loop, from aggregates.

    With Phi the total base load and Phi_v the victims' base load, the
    observed aggregate is (1-k)Phi + k P^e (Phi - Phi_v) + k (P+a)^e Phi_v
    under a price offset a. Under a per-victim load delta d the victims
    contribute sum_i max(0, c phi_i + d) instead, c = (1-k) + k P^e.
    goal1 prices from persistence of Phi alone; goal2 feeds each hour's
    aggregate into the next hour's adjusted target.
    """
    Phi_v = base_v.sum(axis=1)
    phi_hat = np.concatenate((Phi[:1], Phi[:-1]))

    def observed(rows, P):
        c = (1.0 - kappa) + kappa * P**eps
        victims = (1.0 - kappa) * Phi_v[rows] + kappa * (P + price_add[rows]) ** eps * Phi_v[rows]
        hit = load_add[rows] != 0.0
        if np.any(hit):
            rows_hit = np.arange(len(Phi))[rows][hit]
            clamped = np.maximum(c[hit, None] * base_v[rows_hit] + load_add[rows_hit, None], 0.0)
            victims = np.where(hit, 0.0, victims)
            victims[hit] = clamped.sum(axis=1)
        return c * (Phi[rows] - Phi_v[rows]) + victims

    if goal == "goal1":
        P = (target / phi_hat) ** (1.0 / eps)
        return P, observed(slice(None), P)
    P = np.empty(len(Phi))
    obs = np.empty(len(Phi))
    for t in range(len(Phi)):
        lstar = target if t == 0 else target + (target - obs[t - 1])
        if lstar <= 0:
            lstar = floor
        P[t] = (lstar / phi_hat[t]) ** (1.0 / eps)
        obs[t] = observed(slice(t, t + 1), P[t : t + 1])[0]
    return P, obs


class LoopScale:
    name = "loop_scale"
    # the first pass runs about 30% slower while the allocator grows its heap
    warmup_passes = 1

    def config(self, seed: int, size: str) -> LoopScaleConfig:
        return LoopScaleConfig(seed=seed, **(_TINY_LOOP if size == "tiny" else {}))

    @staticmethod
    def config_from(payload: dict) -> LoopScaleConfig:
        for key in ("kappas", "goals"):
            payload[key] = tuple(payload[key])
        return LoopScaleConfig(**payload)

    def units(self, cfg: LoopScaleConfig) -> int:
        return len(cfg.kappas) * len(cfg.goals) * len(cfg.schedules())

    def home_hours(self, cfg: LoopScaleConfig) -> int:
        return self.units(cfg) * cfg.n_homes * cfg.hours

    def prepare(self, inputs: Inputs, work: Path) -> None:
        pass

    def run_pass(self, inputs: Inputs, out_dir: Path, tracer) -> None:
        cfg = inputs.config
        grid = gridloop.loadgen.synthesize_microgrid(
            inputs.templates, BootstrapConfig(n_homes=cfg.n_homes, num_days=cfg.num_days, seed=cfg.seed)
        )
        self.base = grid.kwh
        self.runs = {}
        schedules = cfg.schedules()
        for kappa in cfg.kappas:
            for goal in cfg.goals:
                gcfg = GridConfig(
                    n_homes=cfg.n_homes, kappa=kappa, eps_dsm=cfg.eps_dsm, goal=goal,
                    target=cfg.target_per_home * cfg.n_homes, lstar_floor=cfg.lstar_floor,
                )
                for run, schedule in schedules.items():
                    with tracer.span("bench.unit", f"kappa={kappa:g}/{goal}/{run}"):
                        trace = gridloop.feedback.simulate(self.base, gcfg, schedule=schedule)
                    # keep the aggregates only; the per-home matrix is as large as the grid
                    self.runs[(kappa, goal, run)] = (trace.price, trace.observed_load, trace.clamped)
                    del trace

    def check(self, inputs: Inputs, out_dir: Path, out: PassOutcome) -> None:
        cfg = inputs.config
        base, runs = self.base, self.runs
        self.base = self.runs = None
        Phi = base.sum(axis=1)
        victims = np.asarray(cfg.victims)
        base_v = base[:, victims]
        zero = np.zeros(cfg.hours)
        schedules = cfg.schedules()
        for (kappa, goal, run), (price, observed, clamped) in runs.items():
            schedule = schedules[run]
            values = zero if schedule is None else np.array(
                [schedule.value_at(t) for t in range(cfg.hours)]
            )
            price_add = values if run == "price" else zero
            load_add = values / len(victims) if run == "load" else zero
            want_p, want_obs = loop_closed_form(
                Phi, base_v, kappa, cfg.eps_dsm, cfg.target_per_home * cfg.n_homes, goal,
                cfg.lstar_floor, price_add, load_add,
            )
            label = f"kappa {kappa:g} {goal} {run}"
            if not (np.allclose(price, want_p, rtol=1e-9, atol=0.0)
                    and np.allclose(observed, want_obs, rtol=1e-9, atol=0.0)):
                err = np.max(np.abs(observed - want_obs) / np.abs(want_obs))
                out.fail(1, f"{label}: trace departs from the closed form (rel err {err:.3g})")
            elif (run == "load") != (clamped > 0):
                out.fail(1, f"{label}: clamped = {clamped}")


WORKLOADS = {w.name: w for w in (ProtocolRef, LoopScale, CliLongWindow)}
