"""The traced layers of gridloop: where each is wrapped and what it should move.

Each layer is wrapped at every attribute its callers look it up at, so a
call made through ``gridloop.cli`` and one made through
``gridloop.experiment`` land in the same layer. ``moves`` is the
prediction written down before measuring: the end-to-end metric and the
workload that a change to the layer should move. README.md repeats the
table with the shares measured on the reference machine.

The counters are read from the fitted objects after each call. They repeat
exactly from one pass to the next, so a later change can cite them as
counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import Counters, Point

__all__ = ["COUNTERS", "LAYERS", "Layer", "points"]


def _count_logreg(c: Counters, a: dict, result) -> None:
    model = a["self"]
    c.add("classifiers.logreg.epochs", model.n_epochs_)
    c.add("classifiers.logreg.capped_fits", model.n_epochs_ >= model.max_epochs)
    c.add("classifiers.dropped_columns", np.count_nonzero(~model.kept))


def _count_gnb(c: Counters, a: dict, result) -> None:
    c.add("classifiers.dropped_columns", np.count_nonzero(~a["self"].kept))


def _tree_depth(left: np.ndarray, right: np.ndarray) -> int:
    """Depth of a flat tree whose leaves point ``left`` at themselves."""
    depth, frontier = 0, np.array([0])
    while True:
        internal = frontier[left[frontier] != frontier]
        if not len(internal):
            return depth
        frontier = np.concatenate((left[internal], right[internal]))
        depth += 1


def _count_forest(c: Counters, a: dict, result) -> None:
    model = a["self"]
    c.add("classifiers.forest.nodes", sum(len(t["feature"]) for t in model.trees))
    c.add("classifiers.forest.max_depth", max(_tree_depth(t["left"], t["right"]) for t in model.trees), "max")
    c.add("classifiers.dropped_columns", np.count_nonzero(~model.kept))


def _count_ar(c: Counters, a: dict, model) -> None:
    c.add("forecast.order_asked", a["order"], "max")
    c.add("forecast.order_fitted", model.order, "min")


def _count_simulate(c: Counters, a: dict, trace) -> None:
    c.add("feedback.clamped", trace.clamped)


def _unit_simulate(a: dict):
    return f"kappa={a['cfg'].kappa:g}"


def _unit_prepare(a: dict):
    return f"rep={a['rep']}/kappa#{a['kappa_index']}"


def _unit_detect(a: dict):
    return f"rep={a['rep']}/kappa={a['kappa']:g}/{a['attack']}"


def _unit_evaluate(a: dict):
    return "/".join(Path(a["det_dir"]).parts[-3:])


# counter name: (what it counts within one pass, better direction)
COUNTERS = {
    "classifiers.logreg.epochs": ("epochs run, summed over the pass's fits", "lower"),
    "classifiers.logreg.capped_fits": ("fits that stopped at max_epochs", "lower"),
    "classifiers.forest.nodes": ("tree nodes, summed over all trees of the pass", "lower"),
    "classifiers.forest.max_depth": ("deepest tree of the pass", "lower"),
    "classifiers.dropped_columns": ("constant feature columns dropped, summed over fits", "lower"),
    "forecast.order_asked": ("largest AR order asked for", "higher"),
    "forecast.order_fitted": ("smallest AR order fitted", "higher"),
    "feedback.clamped": ("household loads clamped at zero, summed over simulate calls", "lower"),
}


@dataclass(frozen=True)
class Layer:
    name: str
    targets: tuple[str, ...]
    moves: str
    unit: object = None
    count: object = None


_SCN = "scenarios_per_s"
_HH = "home_hours_per_s"

LAYERS = (
    Layer("classifiers.forest.fit", ("gridloop.classifiers:RandomForest.fit",),
          f"{_SCN} on protocol_ref (~90%) and cli_long_window (~30%); none on loop_scale",
          count=_count_forest),
    Layer("classifiers.forest.predict", ("gridloop.classifiers:RandomForest.predict_score",),
          f"{_SCN}, mostly on cli_long_window"),
    Layer("classifiers.logreg.fit", ("gridloop.classifiers:LogisticRegression.fit",),
          f"{_SCN}, mostly on cli_long_window", count=_count_logreg),
    Layer("classifiers.logreg.predict", ("gridloop.classifiers:LogisticRegression.predict_score",),
          f"{_SCN}, small"),
    Layer("classifiers.gnb.fit", ("gridloop.classifiers:GaussianNaiveBayes.fit",),
          f"{_SCN}, mostly on cli_long_window", count=_count_gnb),
    Layer("classifiers.gnb.predict", ("gridloop.classifiers:GaussianNaiveBayes.predict_score",),
          f"{_SCN}, small"),
    Layer("detect.cusum_sweep", ("gridloop.detect:cusum_sweep",),
          f"{_SCN} on cli_long_window; near zero on protocol_ref"),
    Layer("detect.glrt_sweep", ("gridloop.detect:glrt_sweep",),
          f"{_SCN} on cli_long_window; near zero on protocol_ref"),
    Layer("detect.sequential", ("gridloop.detect:glrt_detect", "gridloop.detect:cusum_detect"),
          f"{_SCN}, small"),
    Layer("detect.training_set", ("gridloop.detect:build_training_set",), f"{_SCN}, small"),
    Layer("detect.features", ("gridloop.detect:make_features",), f"{_SCN}, small"),
    Layer("evaluation.roc_scores", ("gridloop.evaluation:roc_from_scores",),
          f"{_SCN} on cli_long_window; near zero on protocol_ref"),
    Layer("evaluation.roc_sweep", ("gridloop.evaluation:roc_from_sweep",),
          f"{_SCN} on cli_long_window; near zero on protocol_ref"),
    Layer("forecast.fit", ("gridloop.forecast:fit_seasonal_ar",), f"{_SCN}, small",
          count=_count_ar),
    Layer("forecast.forecast", ("gridloop.forecast:forecast",), f"{_SCN}, small"),
    Layer("synth.templates", ("gridloop.cli:synthetic_hourly_templates",
                              "gridloop.experiment:synthetic_hourly_templates"),
          f"{_SCN} on cli_long_window, small"),
    Layer("loadgen.bootstrap", ("gridloop.loadgen:synthesize_microgrid",
                                "gridloop.experiment:synthesize_microgrid",
                                "gridloop.cli:synthesize_microgrid"),
          f"{_HH} on loop_scale; negligible at 200 homes"),
    Layer("loadgen.write", ("gridloop.cli:write_microgrid",), f"{_SCN} on cli_long_window"),
    Layer("loadgen.read", ("gridloop.cli:read_microgrid",), f"{_SCN} on cli_long_window"),
    Layer("feedback.simulate", ("gridloop.feedback:simulate", "gridloop.experiment:simulate",
                                "gridloop.cli:simulate"),
          f"{_HH} and peak_rss_mb on loop_scale", unit=_unit_simulate, count=_count_simulate),
    Layer("feedback.write_trace", ("gridloop.experiment:write_trace", "gridloop.cli:write_trace"),
          f"{_SCN} on cli_long_window and protocol_ref"),
    Layer("feedback.read_trace", ("gridloop.cli:read_trace",), f"{_SCN} on cli_long_window"),
    Layer("attack.inject", ("gridloop.experiment:inject_post_hoc", "gridloop.cli:inject_post_hoc",
                            "gridloop.feedback:inject_post_hoc"),
          f"{_SCN}, small; the in-loop injection of loop_scale runs inside feedback.simulate"),
    Layer("attack.schedule", ("gridloop.attack:AttackSchedule.value_at",
                              "gridloop.attack:AttackSchedule.victim_indices"),
          f"{_HH} on loop_scale, small"),
    Layer("experiment.prepare_detectors", ("gridloop.experiment:prepare_detectors",),
          "stage roll-up of forecast, detect and classifier fits", unit=_unit_prepare),
    Layer("experiment.detect_stage", ("gridloop.experiment:detect_stage", "gridloop.cli:detect_stage"),
          "stage roll-up: detections.csv writing and scoring", unit=_unit_detect),
    Layer("experiment.evaluate_stage", ("gridloop.experiment:evaluate_stage",
                                        "gridloop.cli:evaluate_stage"),
          "stage roll-up: sweeps, ROC and metrics.json/roc.csv writing", unit=_unit_evaluate),
    Layer("experiment.read_detections", ("gridloop.experiment:_read_detections",),
          f"{_SCN} on cli_long_window and protocol_ref"),
    Layer("experiment.run", ("gridloop.experiment:run_experiment",),
          "stage roll-up: run_experiment's own work (summary aggregation and writing)"),
    Layer("cli.main", ("gridloop.cli:main",), "stage roll-up: argument parsing"),
    Layer("cli.synth", ("gridloop.cli:cmd_synth",), "stage roll-up"),
    Layer("cli.simulate", ("gridloop.cli:cmd_simulate",), "stage roll-up"),
    Layer("cli.attack", ("gridloop.cli:cmd_attack",), "stage roll-up"),
    Layer("cli.detect", ("gridloop.cli:cmd_detect",), "stage roll-up"),
    Layer("cli.evaluate", ("gridloop.cli:cmd_evaluate",), "stage roll-up"),
)


def points() -> list[Point]:
    return [
        Point(target=t, layer=layer.name, unit=layer.unit, count=layer.count)
        for layer in LAYERS
        for t in layer.targets
    ]
