"""End-to-end experiment protocol and the per-scenario pipeline stages.

A full run sweeps participation levels x attack kinds over seeded
replications. Each replication bootstraps a fresh micro-grid, simulates
the nominal pricing loop per participation level, injects each attack
kind post-hoc into the recorded aggregate over the last attack_hours of
the horizon, runs every detector over the test window, and scores each
at the operating point picked on its own ROC curve. Per-scenario
artifacts (trace.csv, detections.csv, metrics.json, roc.csv) land in
kappa_*/<attack>/rep_*/ directories under the output root, plus
summary.json / summary.csv aggregated over replications.

The detect/evaluate stage functions here are exactly what the CLI
subcommands call, so chaining the subcommands by hand reproduces a
run_experiment scenario bit for bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from gridloop import classifiers, detect, evaluation, forecast
from gridloop.attack import KINDS, AttackSchedule, make_point, make_ramp, make_sudden
from gridloop.feedback import GridConfig, SimulationTrace, inject_post_hoc, simulate, write_trace
from gridloop.ingest import HourlySeries
from gridloop.loadgen import BootstrapConfig, synthesize_microgrid
from gridloop.seeds import seed_sequence, stream
from gridloop.synth import synthetic_hourly_templates
from gridloop.tables import (BINARY, COUNT, FINITE, NON_NEGATIVE, POSITIVE, UNIT, WHOLE,
                             read_json, read_table, write_json, write_table)

__all__ = [
    "DETECTORS",
    "METRICS",
    "ExperimentConfig",
    "detect_stage",
    "evaluate_stage",
    "prepare_detectors",
    "protocol_schedule",
    "run_experiment",
    "scenario_dir",
]

# everything emitted per scenario
DETECTORS = ("glrt", "cusum", "cusum_interval", "logreg", "gnb", "forest")
# each detector's scores at its operating point, in metrics.json and summed up in summary.json
METRICS = ("accuracy", "precision", "recall", "fpr", "auc")

# point-spike template: (fraction of the attack window as 24ths, magnitude)
_POINT_PATTERN = ((0, 250.0), (5, 200.0), (10, 300.0), (13, 100.0), (22, 150.0))
_RAMP_STEP = 5.0
_SUDDEN_LEVEL = 150.0

# one row per test hour: the truth label and residual, then each detector's score and default decision
_DETECTION_COLUMNS = {"hour": WHOLE, "label": BINARY, "residual": FINITE,
                      **{f"{name}_{col}": domain for name in DETECTORS
                         for col, domain in (("score", FINITE), ("decision", BINARY))}}
# what evaluate_stage reads from detect_meta.json: any value (None) or a number in a domain
_META_KEYS = {"kappa": UNIT, "attack_type": None, "sigma": POSITIVE, "train_hours": WHOLE,
              "glrt.window": COUNT, "sweep.points": COUNT, "sweep.cusum_sigmas": POSITIVE,
              "sweep.cusum_k": NON_NEGATIVE}


def _number(v) -> bool:
    """A float, or an integer inside the float range; bools are no numbers."""
    return type(v) is float or (type(v) is int and abs(v) <= sys.float_info.max)


# config field type -> (what its JSON value must be, the check)
_CONFIG_JSON = {
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a number", _number),
    "float | None": ("a number or null", lambda v: v is None or _number(v)),
    "str": ("a string", lambda v: type(v) is str),
    "tuple[float, ...]": ("a list of numbers", lambda v: type(v) is list and all(map(_number, v))),
    "tuple[str, ...]": ("a list of strings", lambda v: type(v) is list and {*map(type, v)} <= {str}),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Full protocol description; defaults reproduce the reference setup."""

    n_homes: int = 200
    kappas: tuple[float, ...] = (0.1, 0.9)
    attacks: tuple[str, ...] = KINDS
    train_days: int = 28
    test_hours: int = 48
    attack_hours: int = 24
    eps_dsm: float = -1.0
    eps_dsm_hat: float | None = None
    goal: str = "goal1"
    target: float = 200.0
    lstar_floor: float = 10.0
    seed: int = 0
    replications: int = 1
    template_homes: int = 7
    template_days: int = 28
    glrt_window: int = 24
    glrt_p_fa: float = 0.05
    cusum_k_sigma: float = 0.5
    cusum_h_sigma: float = 2.0
    ar_order: int = 2
    feature_lags: int = 24
    forest_trees: int = 100
    sweep_points: int = 101
    cusum_sweep_sigmas: float = 6.0

    def __post_init__(self):
        if not self.kappas:
            raise ValueError("need at least one kappa")
        for n, k in enumerate(self.kappas):  # -0.0 and 0.0 are one participation level
            if k in self.kappas[:n]:
                raise ValueError(f"kappa {k!r} is repeated")
        if not self.attacks:
            raise ValueError("need at least one attack")
        for n, a in enumerate(self.attacks):
            if a not in KINDS:
                raise ValueError(f"unknown attack kind {a!r}")
            if a in self.attacks[:n]:
                raise ValueError(f"attack kind {a!r} is repeated")
        if self.train_days < 4:
            raise ValueError("train_days must be >= 4")
        if not 1 <= self.attack_hours < self.test_hours:
            raise ValueError("need 1 <= attack_hours < test_hours: the test window needs "
                             "nominal hours before the attack")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.sweep_points < 2:
            raise ValueError("sweep_points must be >= 2")
        for name in ("forest_trees", "glrt_window", "feature_lags", "template_homes", "template_days"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 <= self.ar_order <= self.train_hours - 72:  # the AR fit needs 3 days + ar_order hours
            raise ValueError(f"ar_order must lie in [0, train_hours - 72 = {self.train_hours - 72}]")
        if self.feature_lags >= self.train_hours:
            raise ValueError(f"feature_lags must be < train_hours = {self.train_hours}")
        if not 0.0 < self.glrt_p_fa < 1.0:
            raise ValueError("glrt_p_fa must lie strictly inside (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0.0 <= self.cusum_k_sigma < math.inf:
            raise ValueError("cusum_k_sigma must be finite and >= 0")
        for name in ("cusum_h_sigma", "cusum_sweep_sigmas"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        labels = [_kappa_dir(k) for k in self.kappas]
        if len(set(labels)) != len(labels):
            raise ValueError(
                f"kappas {self.kappas} share a scenario directory ({', '.join(labels)})"
            )
        for k in self.kappas:  # GridConfig range-checks each kappa and the grid parameters
            self.grid_config(k)

    @property
    def train_hours(self) -> int:
        return 24 * self.train_days

    @property
    def horizon(self) -> int:
        return self.train_hours + self.test_hours

    def bootstrap_config(self, rep: int) -> BootstrapConfig:
        """Bootstrap of replication `rep`: whole days covering the horizon."""
        seed = int(seed_sequence(self.seed, "grid", rep).generate_state(1)[0])
        return BootstrapConfig(n_homes=self.n_homes, num_days=-(-self.horizon // 24), seed=seed)

    def grid_config(self, kappa: float) -> GridConfig:
        """Closed-loop parameters at participation level `kappa`."""
        return GridConfig(
            n_homes=self.n_homes,
            kappa=kappa,
            eps_dsm=self.eps_dsm,
            eps_dsm_hat=self.eps_dsm_hat,
            goal=self.goal,
            target=self.target,
            lstar_floor=self.lstar_floor,
        )

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        """Read a config JSON; a missing field takes its default."""
        payload = read_json(path)
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"{path}: unknown config keys: {sorted(unknown)}")
        for key, value in payload.items():
            kind, fits = _CONFIG_JSON[cls.__dataclass_fields__[key].type]
            if not fits(value):
                raise ValueError(f"{path}: {key} {value!r} must be {kind}")
            if type(value) is list:
                payload[key] = tuple(value)
        try:
            return cls(**payload)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def protocol_schedule(kind: str, cfg: ExperimentConfig) -> AttackSchedule:
    """The reference attack for `kind`, aimed at the run's final hours.

    Window is the last attack_hours of the horizon. Ramp grows by 5 kWh
    each hour, sudden adds a constant 150 kWh, and point drops five
    spikes (250/200/300/100/150 kWh) at fixed offsets of the window.
    """
    start = cfg.horizon - cfg.attack_hours
    end = cfg.horizon
    if kind == "ramp":
        return make_ramp((start, end), step=_RAMP_STEP)
    if kind == "sudden":
        return make_sudden((start, end), level=_SUDDEN_LEVEL)
    if kind == "point":
        values = {}
        for frac24, magnitude in _POINT_PATTERN:
            t = start + int(frac24 * cfg.attack_hours / 24)
            values.setdefault(t, magnitude)
        return make_point(values, window=(start, end))
    raise ValueError(f"unknown attack kind {kind!r}")


def _kappa_dir(kappa: float) -> str:
    return f"kappa_{kappa:g}"


def scenario_dir(out_root, kappa: float, attack: str, rep: int) -> Path:
    return Path(out_root) / _kappa_dir(kappa) / attack / f"rep_{rep:03d}"


# ---------------------------------------------------------------------------
# detect stage

@dataclass
class SharedDetectors:
    """Per-(kappa, replication) fits reused across attack kinds."""

    ar_model: forecast.SeasonalARModel
    predictions: np.ndarray
    models: dict


def _forest_seed(cfg: ExperimentConfig, rep: int, kappa_index: int) -> int:
    return int(seed_sequence(cfg.seed, "forest", rep, kappa_index).generate_state(1)[0])


def prepare_detectors(
    train_series: np.ndarray, cfg: ExperimentConfig, kappa_index: int, rep: int
) -> SharedDetectors:
    """Fit everything that depends only on the nominal training window."""
    model = forecast.fit_seasonal_ar(train_series, order=cfg.ar_order)
    predictions = forecast.forecast(model, cfg.test_hours)

    rng = stream(cfg.seed, "train_attacks", rep, kappa_index)
    attacked, labels = detect.build_training_set(train_series, rng)
    lags = cfg.feature_lags  # each series lags itself alone: no attacked row holds a nominal hour
    X = np.vstack([detect.make_features(train_series, lags), detect.make_features(attacked, lags)])
    y = np.concatenate([np.zeros(len(train_series) - lags, dtype=np.int8), labels[lags:]])
    models = {
        "logreg": classifiers.LogisticRegression().fit(X, y),
        "gnb": classifiers.GaussianNaiveBayes().fit(X, y),
        "forest": classifiers.RandomForest(
            n_trees=cfg.forest_trees, seed=_forest_seed(cfg, rep, kappa_index)
        ).fit(X, y),
    }
    return SharedDetectors(ar_model=model, predictions=predictions, models=models)


def detect_stage(
    trace: SimulationTrace,
    cfg: ExperimentConfig,
    kappa: float,
    attack: str,
    rep: int,
    out_dir,
    shared: SharedDetectors | None = None,
) -> None:
    """Run every detector over the trace's test window.

    Writes detections.csv (one row per test hour: the truth label, the raw
    forecast residual, and each detector's score and default-config
    decision) and detect_meta.json (noise scale and detector settings,
    enough for the evaluate stage to rebuild threshold sweeps exactly).
    """
    if shared is None and kappa not in cfg.kappas:
        raise ValueError(f"kappa {kappa} not in config kappas {cfg.kappas}")
    observed = trace.observed_load
    labels = trace.attack_truth
    if len(observed) != cfg.horizon:
        raise ValueError(f"trace has {len(observed)} hours, config wants {cfg.horizon}")
    train = observed[: cfg.train_hours]
    if np.any(labels[: cfg.train_hours]):
        raise ValueError("training window is attacked; detectors assume a clean train set")

    if shared is None:
        shared = prepare_detectors(train, cfg, cfg.kappas.index(kappa), rep)
    sigma = shared.ar_model.sigma
    test = observed[cfg.train_hours :]
    test_labels = labels[cfg.train_hours :]
    residuals = test - shared.predictions

    glrt_res = detect.glrt_detect(residuals, sigma, cfg.glrt_window, cfg.glrt_p_fa)
    cusum_res = detect.cusum_detect(residuals, cfg.cusum_k_sigma * sigma, cfg.cusum_h_sigma * sigma)

    X_test = detect.make_features(observed[cfg.train_hours - cfg.feature_lags :], cfg.feature_lags)
    scores = {name: model.predict_score(X_test) for name, model in shared.models.items()}

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = {
        "glrt": (glrt_res.scores, glrt_res.decisions),
        "cusum": (cusum_res.scores, cusum_res.decisions),
        "cusum_interval": (cusum_res.scores, cusum_res.interval_decisions),
        **{name: (s, s >= 0.5) for name, s in scores.items()},  # logreg, gnb, forest
    }
    write_table(out_dir / "detections.csv", list(_DETECTION_COLUMNS), [
        np.arange(cfg.train_hours, cfg.horizon), test_labels, residuals,
        *(column for name in DETECTORS for column in (outputs[name][0], outputs[name][1].astype(np.int8))),
    ])

    meta = {
        "kappa": kappa,
        "attack_type": attack,
        "rep": rep,
        "sigma": sigma,
        "ar_order": shared.ar_model.order,
        "train_hours": cfg.train_hours,
        "glrt": {"window": cfg.glrt_window, "p_fa": cfg.glrt_p_fa},
        "cusum": {"k": cfg.cusum_k_sigma * sigma, "h": cfg.cusum_h_sigma * sigma},
        "sweep": {
            "points": cfg.sweep_points,
            "cusum_sigmas": cfg.cusum_sweep_sigmas,
            "cusum_k": cfg.cusum_k_sigma * sigma,
        },
    }
    write_json(out_dir / "detect_meta.json", meta)


# ---------------------------------------------------------------------------
# evaluate stage

def _read_detections(path, train_hours: int):
    """Every column of detections.csv by name; hours train_hours, train_hours + 1, ... down
    the rows, and labels holding both classes."""
    table = read_table(path, _DETECTION_COLUMNS)
    hour = table["hour"]
    if len(off := np.flatnonzero(hour != np.arange(train_hours, train_hours + len(hour)))):
        raise ValueError(f"{path}:{off[0] + 2}: hour must be {train_hours + off[0]}, the row's test hour")
    if (classes := len(np.unique(table["label"]))) < 2:
        raise ValueError(f"{path}: the labels hold {classes} of the 2 classes a ROC curve needs")
    return table


def _json_float(x: float):
    if math.isnan(x):
        return None
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return x


def evaluate_stage(det_dir, out_dir=None) -> list[dict]:
    """Score a detect-stage directory into metrics.json and roc.csv.

    Classifier-style detectors are evaluated from their stored scores;
    GLRT and CUSUM threshold sweeps are rebuilt from the stored residuals
    and noise scale. Every metric is read off the curve point that
    best_operating_index picks. Returns the metrics entries, one per
    detector in DETECTORS order.
    """
    det_dir = Path(det_dir)
    out_dir = det_dir if out_dir is None else Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta_path = det_dir / "detect_meta.json"
    meta = read_json(meta_path, _META_KEYS)
    if meta["attack_type"] not in KINDS:
        raise ValueError(f"{meta_path}: attack_type {meta['attack_type']!r} is not one of {', '.join(KINDS)}")
    table = _read_detections(det_dir / "detections.csv", int(meta["train_hours"]))
    residuals, labels = table["residual"], table["label"]
    sigma = float(meta["sigma"])
    sweep = meta["sweep"]

    try:  # the residuals are finite, so only the settings read from the meta file can be out of range
        glrt = detect.glrt_sweep(residuals, sigma, int(meta["glrt"]["window"]), int(sweep["points"]))
        hs, alarms, intervals = detect.cusum_sweep(
            residuals, sigma, float(sweep["cusum_k"]), int(sweep["points"]), float(sweep["cusum_sigmas"]))
    except ValueError as exc:
        raise ValueError(f"{meta_path}: {exc}") from None
    sweeps = {"glrt": glrt, "cusum": (hs, alarms), "cusum_interval": (hs, intervals)}
    curves = {name: evaluation.roc_from_sweep(*sweeps[name], labels) if name in sweeps
              else evaluation.roc_from_scores(table[f"{name}_score"], labels) for name in DETECTORS}

    entries = []
    for name, roc in curves.items():
        i = evaluation.best_operating_index(roc)
        ms = evaluation.metrics_at(roc, i)
        entries.append({
            "detector": name, "kappa": meta["kappa"], "attack_type": meta["attack_type"],
            **{key: _json_float(roc.auc if key == "auc" else getattr(ms, key)) for key in METRICS},
            "best_threshold": _json_float(float(roc.thresholds[i])),
            "undefined": list(ms.undefined),
        })

    write_json(out_dir / "metrics.json", entries)
    write_table(out_dir / "roc.csv", ["detector", "threshold", "fpr", "tpr"], [
        [name for name, roc in curves.items() for _ in roc.thresholds],
        *(np.concatenate([getattr(roc, c) for roc in curves.values()]) for c in ("thresholds", "fpr", "tpr")),
    ])
    return entries


# ---------------------------------------------------------------------------
# full protocol

def run_experiment(cfg: ExperimentConfig, out_root, templates: list[HourlySeries] | None = None) -> dict:
    """Run the whole protocol; returns the summary (also written to disk)."""
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    if templates is None:
        templates = synthetic_hourly_templates(
            cfg.template_homes, cfg.template_days, seed=cfg.seed
        )

    per_scenario: dict[tuple, list[list[dict]]] = {}
    for rep in range(cfg.replications):
        grid = synthesize_microgrid(templates, cfg.bootstrap_config(rep))
        base = grid.kwh[: cfg.horizon]
        for k_idx, kappa in enumerate(cfg.kappas):
            nominal = simulate(base, cfg.grid_config(kappa))
            shared = prepare_detectors(
                nominal.observed_load[: cfg.train_hours], cfg, k_idx, rep
            )
            for attack in cfg.attacks:
                schedule = protocol_schedule(attack, cfg)
                trace = inject_post_hoc(nominal, schedule)
                sdir = scenario_dir(out_root, kappa, attack, rep)
                sdir.mkdir(parents=True, exist_ok=True)
                write_trace(trace, sdir / "trace.csv")
                detect_stage(trace, cfg, kappa, attack, rep, sdir, shared=shared)
                entries = evaluate_stage(sdir)
                per_scenario.setdefault((kappa, attack), []).append(entries)

    table, scenarios = [], []
    for (kappa, attack), reps in sorted(per_scenario.items()):
        scenarios.append({"kappa": kappa, "attack_type": attack, "replications": len(reps),
                          "dir": str(scenario_dir("", kappa, attack, 0).parent)})
        for d, detector in enumerate(DETECTORS):  # evaluate_stage returns its entries in this order
            row = {"kappa": kappa, "attack_type": attack, "detector": detector, "replications": len(reps)}
            for key in METRICS:
                # as float, an undefined metric (null) is nan; the mean and std of finite values are finite
                vals = np.array([entries[d][key] for entries in reps], dtype=float)
                finite = vals[np.isfinite(vals)]
                row[key] = float(np.mean(finite)) if len(finite) else None
                row[f"{key}_std"] = float(np.std(finite, ddof=1)) if len(finite) > 1 else 0.0
            table.append(row)

    summary = {"config": asdict(cfg), "table": table, "scenarios": scenarios}
    write_json(out_root / "summary.json", summary)
    header = list(table[0])
    write_table(out_root / "summary.csv", header, [
        ["nan" if row[c] is None else row[c] for row in table] for c in header
    ])
    return summary
