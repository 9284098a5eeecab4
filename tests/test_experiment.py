"""Protocol-level tests: config round trips, reference attack schedules,
the on-disk layout of a full run, and the detect/evaluate stage contracts."""

import csv
import dataclasses
import hashlib
import json
import shutil

import numpy as np
import pytest

from gridloop import classifiers, detect, experiment
from gridloop.attack import KINDS
from gridloop.experiment import (
    DETECTORS,
    METRICS,
    ExperimentConfig,
    detect_stage,
    evaluate_stage,
    prepare_detectors,
    protocol_schedule,
    run_experiment,
    scenario_dir,
)
from gridloop.detect import build_training_set, cusum_sweep
from gridloop.evaluation import roc_from_sweep
from gridloop.feedback import read_trace
from gridloop.ingest import HourlySeries
from gridloop.seeds import stream
from gridloop.synth import synthetic_hourly_templates
from gridloop.tables import write_json


# ---------------------------------------------------------------------------
# config

def test_config_defaults_windows():
    cfg = ExperimentConfig()
    assert cfg.train_hours == 28 * 24 == 672
    assert cfg.horizon == 672 + 48 == 720


def test_config_json_round_trip(tiny_cfg, tmp_path):
    path = tmp_path / "cfg.json"
    write_json(path, dataclasses.asdict(tiny_cfg))
    again = ExperimentConfig.from_json(path)
    assert again == tiny_cfg
    # tuples must come back as tuples, not lists, or the frozen dataclass
    # would compare equal but hash differently
    assert isinstance(again.kappas, tuple)
    assert isinstance(again.attacks, tuple)


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    payload = {"n_homes": 5, "horizon_hours": 100}
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="unknown config keys.*horizon_hours"):
        ExperimentConfig.from_json(path)


@pytest.mark.parametrize(
    "kwargs, msg",
    [
        ({"kappas": ()}, "at least one kappa"),
        ({"kappas": (0.5, 1.2)}, r"kappa must lie in \[0, 1\]"),
        ({"attacks": ("sudden", "replay")}, "unknown attack kind"),
        ({"train_days": 3}, "train_days"),
        ({"attack_hours": 0}, "attack_hours"),
        ({"attack_hours": 48, "test_hours": 48}, "nominal hours before"),
        ({"replications": 0}, "replications"),
        ({"sweep_points": 1}, "sweep_points"),
        ({"n_homes": 0}, "n_homes"),
        ({"kappas": (0.1, 0.1000001)}, "share a scenario directory"),
        ({"attacks": ()}, "need at least one attack"),
        ({"attacks": ("sudden", "ramp", "sudden")}, "attack kind 'sudden' is repeated"),
        ({"ar_order": -1}, r"ar_order must lie in \[0, train_hours - 72 = 600\]"),
        ({"ar_order": 25, "train_days": 4}, r"ar_order must lie in \[0, train_hours - 72 = 24\]"),
        ({"feature_lags": 96, "train_days": 4}, "feature_lags must be < train_hours = 96"),
        ({"feature_lags": 200, "train_days": 4}, "feature_lags must be < train_hours = 96"),
        ({"kappas": (-0.0, 0.0)}, r"kappa 0\.0 is repeated"),
        # integers past the float range, which a stage would fail to convert to float, and bools
        # get the type message a JSON config gets
        ({"kappas": (0.5, 10**400)}, r"kappas \(0\.5, 10+\) must be a list"),
        ({"kappas": (True,)}, r"kappas \(True,\) must be a list of numbers"),
        ({"target": 10**400}, "target 10+ must be a number"),
        ({"lstar_floor": 10**400}, "lstar_floor 10+ must be a number"),
        ({"eps_dsm": -(10**400)}, "eps_dsm -10+ must be a number"),
        ({"eps_dsm_hat": -(10**400)}, "eps_dsm_hat -10+ must be a number"),
        ({"cusum_k_sigma": 10**400}, "cusum_k_sigma 10+ must be a number"),
        ({"cusum_k_sigma": True}, "cusum_k_sigma True must be a number"),
        ({"cusum_h_sigma": 10**400}, "cusum_h_sigma 10+ must be a number"),
        ({"cusum_sweep_sigmas": 10**400}, "cusum_sweep_sigmas 10+ must be a number"),
        # an integer field takes a Python int alone: no bool, float or numpy int
        ({"replications": True}, "replications True must be an integer"),
        ({"n_homes": True}, "n_homes True must be an integer"),
        ({"sweep_points": 21.0}, r"sweep_points 21\.0 must be an integer"),
        ({"forest_trees": 10.0}, r"forest_trees 10\.0 must be an integer"),
        ({"n_homes": 6.0}, r"n_homes 6\.0 must be an integer"),
        ({"n_homes": 2.5}, r"n_homes 2\.5 must be an integer"),
        ({"train_days": 4.5}, r"train_days 4\.5 must be an integer"),
        ({"n_homes": np.int64(6)}, r"n_homes np\.int64\(6\) must be an integer"),
        ({"glrt_p_fa": "0.05"}, "glrt_p_fa '0.05' must be a number"),
    ],
)
def test_config_validation(kwargs, msg):
    with pytest.raises(ValueError, match=msg):
        ExperimentConfig(**kwargs)


def test_config_stores_lists_as_tuples_and_numpy_floats_as_floats():
    # json cannot write a float32, and a list would make the frozen config unhashable
    cfg = ExperimentConfig(kappas=[np.float32(0.25), np.float64(0.5)], attacks=["sudden"],
                           target=np.float32(200.0), eps_dsm_hat=np.float32(-0.5))
    assert (cfg.kappas, cfg.attacks, cfg.target, cfg.eps_dsm_hat) == ((0.25, 0.5), ("sudden",), 200.0, -0.5)
    assert {type(v) for v in (*cfg.kappas, cfg.target, cfg.eps_dsm_hat)} == {float}
    assert json.loads(json.dumps(dataclasses.asdict(cfg)))["target"] == 200.0
    hash(cfg)


# ---------------------------------------------------------------------------
# reference schedules

def test_protocol_schedule_windows_default():
    cfg = ExperimentConfig()
    for kind in ("ramp", "sudden", "point"):
        sched = protocol_schedule(kind, cfg)
        assert sched.window == (696, 720)


def test_protocol_ramp_and_sudden_values():
    cfg = ExperimentConfig()
    ramp = protocol_schedule("ramp", cfg)
    # 5 kWh/h increments over the final day
    assert ramp.value_at(696) == pytest.approx(5.0)
    assert ramp.value_at(697) == pytest.approx(10.0)
    assert ramp.value_at(719) == pytest.approx(120.0)
    sudden = protocol_schedule("sudden", cfg)
    for t in (696, 700, 719):
        assert sudden.value_at(t) == pytest.approx(150.0)


def test_protocol_point_offsets_default():
    spikes = {696: 250.0, 701: 200.0, 706: 300.0, 709: 100.0, 718: 150.0}
    sched = protocol_schedule("point", ExperimentConfig())
    for t in range(696, 720):
        assert sched.value_at(t) == spikes.get(t, 0.0)


def test_protocol_point_offsets_scale_with_window(tiny_cfg):
    # 12-hour window: the 24ths-of-window offsets land at floor(f * 12/24)
    sched = protocol_schedule("point", tiny_cfg)
    assert sched.window == (114, 126)
    spikes = {114: 250.0, 116: 200.0, 119: 300.0, 120: 100.0, 125: 150.0}
    for t in range(114, 126):
        assert sched.value_at(t) == spikes.get(t, 0.0)


def test_protocol_schedule_unknown_kind():
    with pytest.raises(ValueError, match="unknown attack kind"):
        protocol_schedule("replay", ExperimentConfig())


def test_scenario_dir_layout(tmp_path):
    d = scenario_dir(tmp_path, 0.9, "point", 7)
    assert d == tmp_path / "kappa_0.9" / "point" / "rep_007"
    # %g trims trailing zeros, so 0.10 and 0.1 share a directory
    assert scenario_dir(tmp_path, 0.10, "ramp", 0).parts[-3] == "kappa_0.1"


# ---------------------------------------------------------------------------
# full run: directory layout and artifact schemas

def test_run_creates_expected_tree(tiny_cfg, tiny_run):
    root, summary = tiny_run
    sdir = root / "kappa_0.2" / "sudden" / "rep_000"
    for name in ("trace.csv", "detections.csv", "detect_meta.json", "metrics.json", "roc.csv"):
        assert (sdir / name).is_file(), name
    assert (root / "summary.json").is_file()
    assert (root / "summary.csv").is_file()
    assert summary["scenarios"] == [
        {"kappa": 0.2, "attack_type": "sudden", "replications": 1, "dir": "kappa_0.2/sudden"}
    ]


def test_run_trace_attack_window(tiny_cfg, tiny_run):
    root, _ = tiny_run
    trace = read_trace(root / "kappa_0.2" / "sudden" / "rep_000" / "trace.csv")
    assert len(trace) == tiny_cfg.horizon == 126
    expected = np.zeros(126, dtype=np.int8)
    expected[114:126] = 1
    np.testing.assert_array_equal(trace.attack_truth, expected)
    # post-hoc injection: constant 150 kWh on top of the nominal aggregate
    boost = trace.observed_load[114:126] - trace.base_load[114:126]
    # base_load is the no-DSM total; compare against the pre-attack gap instead
    nominal_gap = trace.observed_load[100:114] - trace.base_load[100:114]
    assert np.min(boost) > np.max(nominal_gap)


def test_detections_csv_schema(tiny_cfg, tiny_run):
    root, _ = tiny_run
    path = root / "kappa_0.2" / "sudden" / "rep_000" / "detections.csv"
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == ["hour", "label", "residual"] + [f"{name}_{col}" for name in DETECTORS
                                                      for col in ("score", "decision")]
    assert len(rows) == tiny_cfg.test_hours
    columns = dict(zip(header, zip(*rows)))
    assert [int(h) for h in columns["hour"]] == list(range(96, 126))
    assert [int(y) for y in columns["label"]] == [0] * 18 + [1] * 12
    for name in ("residual", *(f"{d}_score" for d in DETECTORS)):
        # scores must round-trip exactly through the text format
        assert all(repr(float(v)) == v for v in columns[name]), name
    for name in DETECTORS:
        assert set(columns[f"{name}_decision"]) <= {"0", "1"}, name
    # interval scoring shares the raw CUSUM statistic
    assert columns["cusum_score"] == columns["cusum_interval_score"]


def test_detect_meta_schema(tiny_cfg, tiny_run):
    root, _ = tiny_run
    with open(root / "kappa_0.2" / "sudden" / "rep_000" / "detect_meta.json") as fh:
        meta = json.load(fh)
    assert set(meta) == {
        "kappa", "attack_type", "rep", "sigma", "ar_order", "train_hours", "glrt_window", "glrt_p_fa",
        "cusum_k", "cusum_h", "sweep_points", "cusum_sweep_sigmas",
    }
    assert meta["kappa"] == 0.2
    assert meta["attack_type"] == "sudden"
    assert meta["rep"] == 0
    assert meta["train_hours"] == 96
    assert meta["ar_order"] == 2
    sigma = meta["sigma"]
    assert sigma > 0
    assert (meta["glrt_window"], meta["glrt_p_fa"]) == (24, 0.05)
    assert meta["cusum_k"] == pytest.approx(0.5 * sigma)
    assert meta["cusum_h"] == pytest.approx(2.0 * sigma)
    assert (meta["sweep_points"], meta["cusum_sweep_sigmas"]) == (21, 6.0)


def test_metrics_json_schema(tiny_cfg, tiny_run):
    root, _ = tiny_run
    with open(root / "kappa_0.2" / "sudden" / "rep_000" / "metrics.json") as fh:
        entries = json.load(fh)
    assert [e["detector"] for e in entries] == list(DETECTORS)
    for e in entries:
        assert e["kappa"] == 0.2
        assert e["attack_type"] == "sudden"
        for key in METRICS:
            v = e[key]
            assert v is None or (isinstance(v, float) and 0.0 <= v <= 1.0), (e["detector"], key, v)
        assert isinstance(e["undefined"], list)
        # best_threshold may be infinite (never/always alarm corner)
        th = e["best_threshold"]
        assert th is None or isinstance(th, (float, int)) or th in ("Infinity", "-Infinity")


def test_roc_csv_schema(tiny_cfg, tiny_run):
    root, _ = tiny_run
    path = root / "kappa_0.2" / "sudden" / "rep_000" / "roc.csv"
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["detector", "threshold", "fpr", "tpr"]
        rows = list(reader)
    seen = []
    for name in DETECTORS:
        block = [r for r in rows if r[0] == name]
        assert block, name
        seen += block
        fpr = [float(r[2]) for r in block]
        tpr = [float(r[3]) for r in block]
        assert fpr[0] == 0.0 and tpr[0] == 0.0
        assert fpr[-1] == 1.0 and tpr[-1] == 1.0
        assert all(b >= a for a, b in zip(fpr, fpr[1:]))
        assert all(b >= a for a, b in zip(tpr, tpr[1:]))
    assert len(seen) == len(rows)  # no stray detector names


def test_summary_table_covers_all_cells(tiny_cfg, tiny_run):
    root, summary = tiny_run
    table = summary["table"]
    assert len(table) == len(DETECTORS)
    assert {row["detector"] for row in table} == set(DETECTORS)
    for row in table:
        assert row["kappa"] == 0.2
        assert row["attack_type"] == "sudden"
        assert row["replications"] == 1
        # single replication: std badges are zero, means match the rep
        for key in METRICS:
            assert row[f"{key}_std"] == 0.0

    with open(root / "summary.json") as fh:
        on_disk = json.load(fh)
    assert on_disk["table"] == table
    assert on_disk["config"]["seed"] == tiny_cfg.seed

    with open(root / "summary.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header[:4] == ["kappa", "attack_type", "detector", "replications"]
    assert len(rows) == len(table)


def test_summary_means_match_metrics(tiny_cfg, tiny_run):
    # one replication: the table is just the scenario's metrics re-keyed
    root, summary = tiny_run
    with open(root / "kappa_0.2" / "sudden" / "rep_000" / "metrics.json") as fh:
        entries = {e["detector"]: e for e in json.load(fh)}
    for row in summary["table"]:
        entry = entries[row["detector"]]
        for key in ("accuracy", "recall", "auc"):
            if entry[key] is None:
                assert row[key] is None
            else:
                assert row[key] == pytest.approx(entry[key])


# ---------------------------------------------------------------------------
# stage functions

def test_evaluate_stage_is_reproducible(tiny_run, tmp_path):
    root, _ = tiny_run
    sdir = root / "kappa_0.2" / "sudden" / "rep_000"
    evaluate_stage(sdir, out_dir=tmp_path)
    for name in ("metrics.json", "roc.csv"):
        assert (tmp_path / name).read_bytes() == (sdir / name).read_bytes()


def test_evaluate_stage_scores_each_cusum_output(tiny_run):
    # one sweep gives both curves: point alarms for "cusum", intervals for "cusum_interval"
    sdir = tiny_run[0] / "kappa_0.2" / "sudden" / "rep_000"
    meta = json.loads((sdir / "detect_meta.json").read_text())
    rows = list(csv.DictReader((sdir / "detections.csv").read_text().splitlines()))
    residuals = np.array([float(r["residual"]) for r in rows])
    labels = np.array([int(r["label"]) for r in rows])
    hs, alarms, intervals = cusum_sweep(residuals, meta["sigma"], k=meta["cusum_k"],
                                        n_points=meta["sweep_points"],
                                        h_max_sigmas=meta["cusum_sweep_sigmas"])
    assert not np.array_equal(alarms, intervals)
    curves = list(csv.DictReader((sdir / "roc.csv").read_text().splitlines()))
    for name, decisions in (("cusum", alarms), ("cusum_interval", intervals)):
        roc = roc_from_sweep(hs, decisions, labels)
        written = [(float(r["fpr"]), float(r["tpr"])) for r in curves if r["detector"] == name]
        assert written == list(zip(roc.fpr.tolist(), roc.tpr.tolist())), name


def _write_falling_attack_scenario(det_dir):
    """A detect-stage directory whose residuals fall, never rise, in the attack window.

    CUSUM then alarms only on nominal hours, so every sweep row sits at tpr 0; the
    never-alarm corner and the always-alarm corner tie at distance 1 from (0, 1), and
    the higher tpr wins: the best CUSUM point is the -inf corner.
    """
    residuals = [3.0, -1.0, 4.0, 0.5, 6.0, -2.0, 2.5, 5.0, -0.5, 1.5, -6.0, -9.0, -7.0, -8.0, -10.0, -6.0]
    labels = [0] * 10 + [1] * 6
    scores = {
        "glrt": [0.5 * r for r in residuals],
        "cusum": [max(r, 0.0) for r in residuals],
        "cusum_interval": [max(r, 0.0) for r in residuals],
        "logreg": [0.1, 0.4, 0.35, 0.8, 0.2, 0.7, 0.3, 0.05, 0.6, 0.45, 0.9, 0.4, 0.55, 0.75, 0.3, 0.95],
        "gnb": [0.5] * 8 + [0.25, 0.75] * 4,
        "forest": [0.0] * 10 + [1.0] * 6,
    }
    det_dir.mkdir()
    lines = [",".join(["hour", "label", "residual", *(f"{name}_{col}" for name in scores
                                                      for col in ("score", "decision"))])]
    for t, (r, y) in enumerate(zip(residuals, labels)):
        lines.append(",".join([str(100 + t), str(y), repr(r), *(f"{values[t]!r},0" for values in scores.values())]))
    (det_dir / "detections.csv").write_text("\n".join(lines) + "\n")
    meta = {"kappa": 0.5, "attack_type": "sudden", "sigma": 2.0, "train_hours": 100, "glrt_window": 4,
            "sweep_points": 7, "cusum_sweep_sigmas": 3.0, "cusum_k": 1.0}
    (det_dir / "detect_meta.json").write_text(json.dumps(meta))
    return det_dir


# sha256 of metrics.json + roc.csv as evaluate_stage writes them, pinned across commits
_GOLDEN_EVALUATE = {
    "tiny": "7520e840055e688834cb4f5ae6173dbbb5362bcbae1d134019bc1661f540faa4",
    "falling_attack": "f0a428c01ee80dfd739d18288349469fd2a3d5958dff887b0ce2368ce8de2280",
}


@pytest.mark.parametrize("case", sorted(_GOLDEN_EVALUATE))
def test_golden_evaluate_stage(case, tiny_run, tmp_path):
    if case == "tiny":
        det_dir = tiny_run[0] / "kappa_0.2" / "sudden" / "rep_000"
    else:
        det_dir = _write_falling_attack_scenario(tmp_path / "in")
    entries = evaluate_stage(det_dir, out_dir=tmp_path / "out")
    if case == "falling_attack":
        best = {e["detector"]: e["best_threshold"] for e in entries}
        assert best["cusum"] == best["cusum_interval"] == "-Infinity"
    blob = b"".join((tmp_path / "out" / name).read_bytes() for name in ("metrics.json", "roc.csv"))
    assert hashlib.sha256(blob).hexdigest() == _GOLDEN_EVALUATE[case]


# sha256 of detections.csv + detect_meta.json as detect_stage writes them for the tiny
# kappa_0.2/sudden/rep_000 scenario, pinned across commits
_GOLDEN_DETECT = "3a9df97af3415c22b16ed72f72a665a355e46a8f903461c2109e8f08657f0b30"


def test_golden_detect_stage(tiny_cfg, tiny_run, tmp_path):
    trace = read_trace(tiny_run[0] / "kappa_0.2" / "sudden" / "rep_000" / "trace.csv")
    detect_stage(trace, tiny_cfg, 0.2, "sudden", 0, tmp_path)
    blob = b"".join((tmp_path / name).read_bytes() for name in ("detections.csv", "detect_meta.json"))
    assert hashlib.sha256(blob).hexdigest() == _GOLDEN_DETECT


# sha256 of summary.json + summary.csv over 2 replications of 2 kappas x 2 attacks, pinned across
# commits: the cross-replication means, the ddof=1 standard deviations and the rows' sort order
_GOLDEN_SUMMARY = "3a7e1dbdbcaf9e614bd7804969620b1e6e949347a4dd40a42559e523d5387c19"


def test_golden_summary_over_replications(tiny_cfg, tmp_path):
    cfg = dataclasses.replace(tiny_cfg, kappas=(0.2, 0.7), attacks=("sudden", "point"), replications=2)
    summary = run_experiment(cfg, tmp_path)
    assert [(row["kappa"], row["attack_type"]) for row in summary["scenarios"]] == [
        (0.2, "point"), (0.2, "sudden"), (0.7, "point"), (0.7, "sudden")]
    blob = b"".join((tmp_path / name).read_bytes() for name in ("summary.json", "summary.csv"))
    assert hashlib.sha256(blob).hexdigest() == _GOLDEN_SUMMARY


def test_detect_stage_rejects_wrong_horizon(tiny_cfg, tiny_run, tmp_path):
    root, _ = tiny_run
    trace = read_trace(root / "kappa_0.2" / "sudden" / "rep_000" / "trace.csv")
    short = dataclasses.replace(
        trace,
        **{f.name: getattr(trace, f.name)[:-1] for f in dataclasses.fields(trace)
           if f.name != "clamped"},
    )
    with pytest.raises(ValueError, match="trace has 125 hours, config wants 126"):
        detect_stage(short, tiny_cfg, 0.2, "sudden", 0, tmp_path)


def test_detect_stage_rejects_attacked_train_window(tiny_cfg, tiny_run, tmp_path):
    root, _ = tiny_run
    trace = read_trace(root / "kappa_0.2" / "sudden" / "rep_000" / "trace.csv")
    truth = trace.attack_truth.copy()
    truth[10] = 1
    bad = dataclasses.replace(trace, attack_truth=truth)
    with pytest.raises(ValueError, match="training window is attacked"):
        detect_stage(bad, tiny_cfg, 0.2, "sudden", 0, tmp_path)


def test_supervised_training_rows_never_lag_across_the_seam(tiny_cfg, tiny_run, monkeypatch):
    """The nominal series and its attacked copy each get their own lags: n - lags rows apiece,
    nominal rows first, and no attacked row holds a nominal hour."""
    seen = {}
    for model in (classifiers.LogisticRegression, classifiers.GaussianNaiveBayes, classifiers.RandomForest):
        def fit(self, X, y, _fit=model.fit, _name=model.__name__):
            seen[_name] = (X, y)
            return _fit(self, X, y)
        monkeypatch.setattr(model, "fit", fit)
    trace = read_trace(tiny_run[0] / "kappa_0.2" / "sudden" / "rep_000" / "trace.csv")
    train = trace.observed_load[: tiny_cfg.train_hours]
    prepare_detectors(train, tiny_cfg, 0, 0)
    n, lags = tiny_cfg.train_hours, tiny_cfg.feature_lags
    attacked, _ = build_training_set(train, stream(tiny_cfg.seed, "train_attacks", 0, 0))
    windows = np.lib.stride_tricks.sliding_window_view
    assert len(seen) == 3
    for X, y in seen.values():
        assert y.tolist() == [0] * (n - lags) + [1] * (n - lags)
        assert np.array_equal(X[y == 0], windows(train, lags)[:-1])
        assert np.array_equal(X[y == 1], windows(attacked, lags)[:-1])
        assert np.array_equal(X[n - lags], attacked[:lags])  # the first attacked row


def test_evaluate_stage_rejects_bad_header(tiny_run, tmp_path):
    root, _ = tiny_run
    sdir = root / "kappa_0.2" / "sudden" / "rep_000"
    shutil.copy(sdir / "detect_meta.json", tmp_path / "detect_meta.json")
    (tmp_path / "detections.csv").write_text("hour,name,score,decision,label\n")
    with pytest.raises(ValueError, match="unexpected header"):
        evaluate_stage(tmp_path)


def test_rerun_is_byte_identical(tiny_cfg, tiny_run, tmp_path):
    root, _ = tiny_run
    again = tmp_path / "again"
    run_experiment(tiny_cfg, again)
    for rel in (
        "kappa_0.2/sudden/rep_000/trace.csv",
        "kappa_0.2/sudden/rep_000/detections.csv",
        "kappa_0.2/sudden/rep_000/metrics.json",
        "kappa_0.2/sudden/rep_000/roc.csv",
        "summary.json",
        "summary.csv",
    ):
        assert (again / rel).read_bytes() == (root / rel).read_bytes(), rel


# ---------------------------------------------------------------------------
# the kWh unit is arbitrary: scaling every kWh quantity by a power of two is exact in floating
# point, so every output is S times the reference or equal to it, bit for bit

class _KwhDraws:
    """A generator whose uniform draws, the training attacks' kWh magnitudes, come out times `scale`.

    Scaling the draws, not the function's input and output, leaves a kWh literal in the
    training attacks unscaled, where the property sees it."""

    def __init__(self, rng, scale):
        self.rng, self.scale = rng, scale

    def uniform(self, *args, **kwargs):
        return self.scale * self.rng.uniform(*args, **kwargs)

    def choice(self, *args, **kwargs):
        return self.rng.choice(*args, **kwargs)


def _scaled_run(cfg, scale, out, monkeypatch):
    """run_experiment with the templates, target, floor and every attack magnitude times `scale`."""
    monkeypatch.setattr(experiment, "_RAMP_STEP", scale * experiment._RAMP_STEP)
    monkeypatch.setattr(experiment, "_SUDDEN_LEVEL", scale * experiment._SUDDEN_LEVEL)
    monkeypatch.setattr(experiment, "_POINT_PATTERN", tuple((f, scale * m) for f, m in experiment._POINT_PATTERN))
    build = detect.build_training_set
    monkeypatch.setattr(detect, "build_training_set", lambda train, rng: build(train, _KwhDraws(rng, scale)))
    templates = [HourlySeries(t.home_id, t.hours, scale * t.kwh)
                 for t in synthetic_hourly_templates(cfg.template_homes, cfg.template_days, seed=cfg.seed)]
    cfg = dataclasses.replace(cfg, target=scale * cfg.target, lstar_floor=scale * cfg.lstar_floor)
    run_experiment(cfg, out, templates=templates)


def _csv_columns(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        return dict(zip(next(reader), map(list, zip(*reader))))


def _roc_rows(sdir):
    """roc.csv's detector names and (threshold, fpr, tpr) rows, without gnb's curve."""
    cols = _csv_columns(sdir / "roc.csv")
    keep = [i for i, name in enumerate(cols["detector"]) if name != "gnb"]
    names = [cols["detector"][i] for i in keep]
    return names, np.array([cols[c] for c in ("threshold", "fpr", "tpr")], dtype=float)[:, keep]


@pytest.mark.parametrize("scale", [2.0, 0.5, 2.0**-8])
def test_kwh_unit_is_arbitrary(tiny_cfg, tmp_path, monkeypatch, scale):
    cfg = dataclasses.replace(tiny_cfg, attacks=KINDS)  # every attack magnitude takes part
    run_experiment(cfg, tmp_path / "ref")
    _scaled_run(cfg, scale, tmp_path / "scaled", monkeypatch)
    sequential = ("cusum", "cusum_interval")  # their thresholds are in kWh
    for attack in KINDS:
        ref, got = (scenario_dir(tmp_path / side, 0.2, attack, 0) for side in ("ref", "scaled"))
        want, have = (_csv_columns(d / "detections.csv") for d in (ref, got))
        for name in want:
            a, b = np.array(want[name], dtype=float), np.array(have[name], dtype=float)
            if name in ("residual", "glrt_score", "cusum_score", "cusum_interval_score"):
                assert np.array_equal(b, scale * a), (attack, name)
            elif name == "gnb_score":  # log(2 pi var) does not scale exactly
                np.testing.assert_allclose(b, a, rtol=1e-12, err_msg=attack)
            else:  # hour, label, every decision, the logreg and forest scores
                assert np.array_equal(b, a), (attack, name)
        want, have = (json.loads((d / "metrics.json").read_text()) for d in (ref, got))
        for w, h in zip(want, have):
            if w["detector"] in sequential:
                assert float(h.pop("best_threshold")) == scale * float(w.pop("best_threshold")), attack
            assert w["detector"] == "gnb" or h == w, attack
        (names, a), (names_b, b) = _roc_rows(ref), _roc_rows(got)
        assert names_b == names, attack
        a[0, np.isin(names, sequential)] *= scale
        assert np.array_equal(b, a), attack
