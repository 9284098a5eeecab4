"""End-to-end experiment protocol and the per-scenario pipeline stages.

A full run sweeps participation levels x attack kinds over seeded
replications. Each replication bootstraps a fresh micro-grid, simulates
the nominal pricing loop per participation level, injects each attack
kind post-hoc into the recorded aggregate of the final day, runs every
detector over the test window, and scores them at their ROC-selected
operating points. Per-scenario artifacts (trace.csv, detections.csv,
metrics.json, roc.csv) land in kappa_*/<attack>/rep_*/ directories under
the output root, plus summary.json / summary.csv aggregated over
replications.

The detect/evaluate stage functions here are exactly what the CLI
subcommands call, so chaining the subcommands by hand reproduces a
run_experiment scenario bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from gridloop import classifiers, detect, evaluation, forecast
from gridloop.attack import AttackSchedule, inject_post_hoc, make_point, make_ramp, make_sudden
from gridloop.feedback import GridConfig, SimulationTrace, simulate, write_trace
from gridloop.ingest import HourlySeries
from gridloop.loadgen import BootstrapConfig, synthesize_microgrid
from gridloop.seeds import seed_sequence, stream
from gridloop.synth import synthetic_hourly_templates
from gridloop.tables import (BINARY, COUNT, FINITE, POSITIVE, TEXT, read_json, read_table, write_json,
                             write_table)

__all__ = [
    "DETECTORS",
    "TABLE_DETECTORS",
    "ExperimentConfig",
    "detect_stage",
    "evaluate_stage",
    "prepare_detectors",
    "protocol_schedule",
    "run_experiment",
    "scenario_dir",
]

# everything emitted per scenario; TABLE_DETECTORS is the comparison set
# used for cross-detector aggregate statements (interval-scored CUSUM is a
# reporting variant of the same statistic, not an extra detector)
DETECTORS = ("glrt", "cusum", "cusum_interval", "logreg", "gnb", "forest")
TABLE_DETECTORS = ("glrt", "cusum", "logreg", "gnb", "forest")

ATTACK_KINDS = ("ramp", "sudden", "point")

# point-spike template: (fraction of the attack window as 24ths, magnitude)
_POINT_PATTERN = ((0, 250.0), (5, 200.0), (10, 300.0), (13, 100.0), (22, 150.0))
_RAMP_STEP = 5.0
_SUDDEN_LEVEL = 150.0

_DETECTION_COLUMNS = {"hour": FINITE, "detector": TEXT, "score": FINITE, "decision": BINARY, "label": BINARY}
# what evaluate_stage reads from detect_meta.json: any value (None) or a number in a domain
_META_KEYS = {"kappa": None, "attack_type": None, "sigma": POSITIVE, "glrt.window": COUNT,
              "sweep.points": COUNT, "sweep.cusum_sigmas": FINITE, "sweep.cusum_k": FINITE}

_NUMBER = (int, float)
# config field type -> (what its JSON value must be, the check); bools are no numbers
_CONFIG_JSON = {
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a number", lambda v: type(v) in _NUMBER),
    "float | None": ("a number or null", lambda v: v is None or type(v) in _NUMBER),
    "str": ("a string", lambda v: type(v) is str),
    "tuple[float, ...]": ("a list of numbers", lambda v: type(v) is list and {*map(type, v)} <= {*_NUMBER}),
    "tuple[str, ...]": ("a list of strings", lambda v: type(v) is list and {*map(type, v)} <= {str}),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Full protocol description; defaults reproduce the reference setup."""

    n_homes: int = 200
    kappas: tuple[float, ...] = (0.1, 0.9)
    attacks: tuple[str, ...] = ATTACK_KINDS
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
        for k in self.kappas:
            if not 0.0 <= k <= 1.0:
                raise ValueError("kappa must lie in [0, 1]")
        for a in self.attacks:
            if a not in ATTACK_KINDS:
                raise ValueError(f"unknown attack kind {a!r}")
        if self.train_days < 4:
            raise ValueError("train_days must be >= 4")
        if not 1 <= self.attack_hours <= self.test_hours:
            raise ValueError("need 1 <= attack_hours <= test_hours")
        if self.attack_hours >= self.test_hours:
            raise ValueError("test window needs nominal hours before the attack")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.sweep_points < 2:
            raise ValueError("sweep_points must be >= 2")
        for name in ("forest_trees", "glrt_window", "feature_lags", "template_homes", "template_days"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
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
        # delegate the grid-parameter checks
        self.grid_config(self.kappas[0])

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

    def to_json(self, path) -> None:
        write_json(path, asdict(self))

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
    doubled, labels = detect.build_training_set(train_series, rng)
    X, y = detect.make_features(doubled, labels, cfg.feature_lags)
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
    kappa_index: int,
    rep: int,
    out_dir,
    shared: SharedDetectors | None = None,
) -> None:
    """Run every detector over the trace's test window.

    Writes detections.csv (per-hour score, default-config decision, truth
    label for each detector, plus the raw forecast residuals) and
    detect_meta.json (noise scale and detector settings, enough for the
    evaluate stage to rebuild threshold sweeps exactly).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    observed = trace.observed_load
    labels = trace.attack_truth
    if len(observed) != cfg.horizon:
        raise ValueError(f"trace has {len(observed)} hours, config wants {cfg.horizon}")
    train = observed[: cfg.train_hours]
    if np.any(labels[: cfg.train_hours]):
        raise ValueError("training window is attacked; detectors assume a clean train set")

    if shared is None:
        shared = prepare_detectors(train, cfg, kappa_index, rep)
    sigma = shared.ar_model.sigma
    test = observed[cfg.train_hours :]
    test_labels = labels[cfg.train_hours :]
    residuals = test - shared.predictions

    glrt_res = detect.glrt_detect(
        residuals,
        detect.GlrtConfig(sigma=sigma, window=cfg.glrt_window, p_fa=cfg.glrt_p_fa),
    )
    cusum_res = detect.cusum_detect(
        residuals,
        detect.CusumConfig(
            sigma=sigma, k=cfg.cusum_k_sigma * sigma, h=cfg.cusum_h_sigma * sigma
        ),
    )

    X_all, _ = detect.make_features(observed, labels, cfg.feature_lags)
    X_test = X_all[cfg.train_hours - cfg.feature_lags :]
    scores = {name: model.predict_score(X_test) for name, model in shared.models.items()}

    # one block of rows per detector, then the residual series
    rows = {
        "glrt": (glrt_res.scores, glrt_res.decisions),
        "cusum": (cusum_res.scores, cusum_res.decisions),
        "cusum_interval": (cusum_res.scores, cusum_res.interval_decisions),
        **{name: (s, s >= 0.5) for name, s in scores.items()},  # logreg, gnb, forest
        "residual": (residuals, np.zeros(len(residuals), dtype=np.int8)),
    }
    write_table(out_dir / "detections.csv", list(_DETECTION_COLUMNS), [
        np.tile(trace.hour[cfg.train_hours :], len(rows)),
        [name for name in rows for _ in test_labels],
        np.concatenate([svals for svals, _ in rows.values()]),
        np.concatenate([dvals for _, dvals in rows.values()]).astype(np.int8),
        np.tile(test_labels, len(rows)),
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

def _read_detections(path):
    """Scores and labels of every detector and of the residual series, in file order."""
    cols = read_table(path, _DETECTION_COLUMNS)
    table = {}
    for name in DETECTORS + ("residual",):
        rows = cols["detector"] == name
        if not rows.any():
            raise ValueError(f"{path}: no rows for detector {name!r}")
        labels = cols["label"][rows].astype(np.int8)
        if labels.min() == labels.max():
            raise ValueError(f"{path}: labels of detector {name!r} hold one class; a ROC curve needs both")
        table[name] = (cols["score"][rows], labels)
    return table


def _json_float(x: float):
    if math.isnan(x):
        return None
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return x


def _sweep_best(thresholds, rows, labels):
    """ROC + metrics at the distance-optimal threshold of a sweep."""
    roc = evaluation.roc_from_sweep(thresholds, rows, labels)
    th = evaluation.best_threshold(roc)
    if np.isposinf(th):
        decisions = np.zeros(len(labels), dtype=np.int8)
    elif np.isneginf(th):
        decisions = np.ones(len(labels), dtype=np.int8)
    else:
        decisions = rows[int(np.nonzero(thresholds == th)[0][0])]
    ms = evaluation.metrics_from_confusion(evaluation.confusion(labels, decisions))
    return roc, th, ms


def evaluate_stage(det_dir, out_dir=None) -> list[dict]:
    """Score a detect-stage directory into metrics.json and roc.csv.

    Classifier-style detectors are evaluated from their stored scores;
    GLRT and CUSUM threshold sweeps are rebuilt from the stored residuals
    and noise scale. Returns the metrics entries (one per detector).
    """
    det_dir = Path(det_dir)
    out_dir = det_dir if out_dir is None else Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = read_json(det_dir / "detect_meta.json", _META_KEYS)
    table = _read_detections(det_dir / "detections.csv")
    residuals, labels = table["residual"]
    sigma = float(meta["sigma"])
    sweep = meta["sweep"]

    curves: dict[str, evaluation.RocCurve] = {}
    entries = []
    for name in DETECTORS:
        if name == "glrt":
            ths, rows = detect.glrt_sweep(
                residuals, sigma, window=int(meta["glrt"]["window"]), n_points=int(sweep["points"])
            )
            roc, th, ms = _sweep_best(ths, rows, labels)
        elif name in ("cusum", "cusum_interval"):
            ths, rows = detect.cusum_sweep(
                residuals,
                sigma,
                k=float(sweep["cusum_k"]),
                n_points=int(sweep["points"]),
                h_max_sigmas=float(sweep["cusum_sigmas"]),
                interval=name == "cusum_interval",
            )
            roc, th, ms = _sweep_best(ths, rows, labels)
        else:
            scores, labels_c = table[name]
            roc = evaluation.roc_from_scores(scores, labels_c)
            th = evaluation.best_threshold(roc)
            ms = evaluation.metrics_at_threshold(scores, labels_c, th)
        curves[name] = roc
        entries.append(
            {
                "detector": name,
                "kappa": meta["kappa"],
                "attack_type": meta["attack_type"],
                "accuracy": _json_float(ms.accuracy),
                "precision": _json_float(ms.precision),
                "recall": _json_float(ms.recall),
                "fpr": _json_float(ms.fpr),
                "auc": _json_float(roc.auc),
                "best_threshold": _json_float(th),
                "undefined": list(ms.undefined),
            }
        )

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
                detect_stage(trace, cfg, kappa, attack, k_idx, rep, sdir, shared=shared)
                entries = evaluate_stage(sdir)
                per_scenario.setdefault((kappa, attack), []).append(entries)

    table = []
    for (kappa, attack), reps in sorted(per_scenario.items()):
        for detector in DETECTORS:
            row = {"kappa": kappa, "attack_type": attack, "detector": detector,
                   "replications": len(reps)}
            for key in ("accuracy", "precision", "recall", "fpr", "auc"):
                # as float, an undefined metric (null) is nan and "Infinity" is inf
                vals = np.array(
                    [next(e for e in rep_entries if e["detector"] == detector)[key] for rep_entries in reps],
                    dtype=float,
                )
                finite = vals[np.isfinite(vals)]
                row[key] = _json_float(float(np.mean(finite))) if len(finite) else None
                row[f"{key}_std"] = (
                    _json_float(float(np.std(finite, ddof=1))) if len(finite) > 1 else 0.0
                )
            table.append(row)

    summary = {
        "config": asdict(cfg),
        "table": table,
        "scenarios": [
            {
                "kappa": kappa,
                "attack_type": attack,
                "replications": len(reps),
                "dir": str(Path(_kappa_dir(kappa)) / attack),
            }
            for (kappa, attack), reps in sorted(per_scenario.items())
        ],
    }
    write_json(out_root / "summary.json", summary)

    header = ["kappa", "attack_type", "detector", "replications"]
    for key in ("accuracy", "precision", "recall", "fpr", "auc"):
        header += [key, f"{key}_std"]
    write_table(out_root / "summary.csv", header, [
        ["nan" if row[c] is None else row[c] for row in table] for c in header
    ])
    return summary
