"""Smoke tests of the benchmark itself, on workloads shrunk to tiny_cfg size.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import layers
import run
import workloads
from spans import NullTracer, Point, Tracer, layer_totals

# the traced wall is taken around the root span, so the two differ only by
# the tracer's own bookkeeping at the edges of the pass
SELF_SUM_TOLERANCE_S = 0.002
SELF_SUM_TOLERANCE_FRAC = 0.01


def declared(kind):
    return {m["name"] for m in run.declared_metrics()[kind]}


@pytest.fixture(scope="module", params=run.WORKLOAD_NAMES)
def traced_result(request):
    return run.run_workload(request.param, seed=3, seconds=0, trace=True, size="tiny",
                            blas_threads=1)


def test_tiny_run_passes_its_checks(traced_result):
    assert traced_result["attempted"] > 0
    assert traced_result["failed"] == 0, traced_result["problems"]
    assert set(traced_result["end_to_end"]) == declared("end_to_end")
    assert set(traced_result["per_layer"]) == declared("per_layer")
    assert traced_result["missing"] == []
    assert all(v > 0 for v in traced_result["end_to_end"].values())


def test_self_times_sum_to_traced_wall(traced_result):
    traced = [p for p in traced_result["passes"] if p["traced"]]
    assert len(traced) == len(traced_result["spans"]) >= 1
    for rec, spans in zip(traced, traced_result["spans"]):
        total = sum(s for s, _ in layer_totals(spans).values())
        root = [s for s in spans if s[3] == -1]
        assert len(root) == 1 and root[0][0] == "bench.pass"
        assert total == pytest.approx(root[0][2] - root[0][1], rel=1e-9)
        assert abs(total - rec["wall_s"]) <= SELF_SUM_TOLERANCE_S + SELF_SUM_TOLERANCE_FRAC * rec["wall_s"]


def test_spans_carry_parents_and_units(traced_result):
    spans = traced_result["spans"][0]
    for name, start, end, parent, _ in spans:
        assert start <= end
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
    if traced_result["workload"] != "loop_scale":
        units = {s[4] for s in spans if s[0] == "experiment.detect_stage"}
        assert units == {"rep=0/kappa=0.2/sudden"}


def test_missing_wrap_point_is_reported_not_raised(monkeypatch, tmp_path):
    gone = ["gridloop.detect:no_such_function", "gridloop.no_such_module:f",
            "gridloop.classifiers:RandomForest.no_such_method"]
    extra = [Point(target=t, layer="gone") for t in gone]
    monkeypatch.setattr(layers, "points", lambda: extra + [
        Point(target=t, layer=layer.name, unit=layer.unit, count=layer.count)
        for layer in layers.LAYERS for t in layer.targets
    ])
    spec = workloads.WORKLOADS["protocol_ref"]()
    workloads.make_inputs("protocol_ref", 3, "tiny", tmp_path / "in")
    inputs = workloads.load_inputs("protocol_ref", tmp_path / "in")
    rec = run.one_pass(spec, inputs, tmp_path / "pass", traced=True)
    assert rec.outcome.failed == 0, rec.outcome.problems
    assert rec.missing == gone
    assert "gone" not in {s[0] for s in rec.spans}


def test_uninstall_restores_every_attribute():
    import gridloop.classifiers
    import gridloop.experiment
    import gridloop.feedback

    before = (gridloop.experiment.simulate, gridloop.feedback.simulate,
              gridloop.classifiers.RandomForest.fit)
    tracer = Tracer()
    tracer.install(layers.points())
    assert gridloop.experiment.simulate is not before[0]
    tracer.uninstall()
    after = (gridloop.experiment.simulate, gridloop.feedback.simulate,
             gridloop.classifiers.RandomForest.fit)
    assert after == before


def test_loop_check_catches_a_departure_from_the_closed_form(tmp_path):
    spec = workloads.WORKLOADS["loop_scale"]()
    workloads.make_inputs("loop_scale", 3, "tiny", tmp_path / "in")
    inputs = workloads.load_inputs("loop_scale", tmp_path / "in")
    spec.run_pass(inputs, tmp_path / "pass", NullTracer())
    key = (0.9, "goal2", "price")
    price, observed, clamped = spec.runs[key]
    spec.runs[key] = (price, observed * (1 + 1e-6), clamped)
    out = workloads.PassOutcome(attempted=spec.units(inputs.config))
    spec.check(inputs, tmp_path / "pass", out)
    assert out.failed == 1
    assert "kappa 0.9 goal2 price" in out.problems[0]


def test_closed_form_no_attack_is_the_no_dsm_identity_at_kappa_zero():
    rng = np.random.default_rng(0)
    base = rng.uniform(0.5, 2.0, size=(48, 20))
    Phi = base.sum(axis=1)
    zero = np.zeros(48)
    _, observed = workloads.loop_closed_form(
        Phi, base[:, ::10], 0.0, -1.0, 20.0, "goal2", 10.0, zero, zero)
    np.testing.assert_allclose(observed, Phi, rtol=1e-12)


def test_refuses_to_run_without_the_sources(tmp_path):
    root = run.ROOT
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "protocol_ref", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "no gridloop sources" in proc.stderr
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
