"""Acceptance checks for the whole package, one test per criterion.

Each test prints a single PASS/FAIL line (visible with -s; the -v test
status carries the same information) and asserts the stated tolerance.
The checks mix analytic identities (criteria 1, 2, 4, 6), statistical
calibration (5, 8, 10), reproduction bands for the reference experiment
(3, 7), and byte-level determinism (9)."""

import dataclasses
import math
from time import perf_counter

import numpy as np
import pytest

from gridloop import evaluation
from gridloop.attack import make_point, make_sudden
from gridloop.detect import cusum_detect, glrt_detect
from gridloop.experiment import ExperimentConfig, run_experiment
from gridloop.feedback import GridConfig, simulate
from gridloop.forecast import acf, acf_band, fit_seasonal_ar, forecast
from gridloop.loadgen import read_microgrid, synthesize_microgrid, write_microgrid
from gridloop.synth import synthetic_hourly_templates

PROTOCOL = ExperimentConfig()  # the reference setup all bands refer to


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} [{name}] {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} [{name}] failed: {detail}"


@pytest.fixture(scope="module")
def templates():
    return synthetic_hourly_templates(
        PROTOCOL.template_homes, PROTOCOL.template_days, seed=PROTOCOL.seed
    )


def _bootstrap_grid(templates, rep: int = 0):
    """The protocol's grid for replication `rep`: 200 homes over 30 days."""
    return synthesize_microgrid(templates, PROTOCOL.bootstrap_config(rep))


def test_criterion_01_no_dsm_identity(templates):
    t0 = perf_counter()
    grid = _bootstrap_grid(templates)
    base = grid.kwh[:720]
    base_total = base.sum(axis=1)
    worst = 0.0
    for goal in ("goal1", "goal2"):
        cfg = GridConfig(n_homes=200, kappa=0.0, goal=goal, target=200.0)
        trace = simulate(base, cfg)
        rel = np.abs(trace.observed_load - base_total) / base_total
        worst = max(worst, float(rel.max()))
    dt = perf_counter() - t0
    _report(1, "no-DSM identity", worst < 1e-9 and dt < 1.0,
            f"max rel err {worst:.2e}, {dt:.2f}s")


def test_criterion_02_target_tracking(templates):
    t0 = perf_counter()
    grid = _bootstrap_grid(templates)
    base = grid.kwh[:720]
    cfg = GridConfig(n_homes=200, kappa=1.0, goal="goal1", target=200.0)
    trace = simulate(base, cfg)
    # every home serves L* / forecast of its need, so a perfect forecast would serve L*
    served = trace.observed_load * trace.forecast / trace.base_load
    rel = np.abs(served - trace.lstar) / trace.lstar
    worst = float(rel.max())
    dt = perf_counter() - t0
    _report(2, "full-participation target tracking", worst < 1e-6 and dt < 1.0,
            f"max rel err {worst:.2e}, {dt:.2f}s")


def test_criterion_03_dsm_monotonic_band(templates):
    t0 = perf_counter()
    kappas = (0.0, 0.5, 0.99)
    sums = {k: [] for k in kappas}
    for rep in range(20):
        grid = _bootstrap_grid(templates, rep=rep)
        base = grid.kwh[:720]
        for k in kappas:
            cfg = GridConfig(n_homes=200, kappa=k, goal="goal1", target=200.0)
            sums[k].append(float(simulate(base, cfg).observed_load.mean()))
    m = {k: float(np.mean(sums[k])) for k in kappas}
    dt = perf_counter() - t0
    ok = (
        m[0.0] > m[0.5] > m[0.99]
        and 200.0 <= m[0.99] <= 230.0
        and 300.0 <= m[0.0] <= 360.0
        and dt < 30.0
    )
    _report(3, "mean load falls with participation", ok,
            f"means {m[0.0]:.1f} > {m[0.5]:.1f} > {m[0.99]:.1f} kWh, {dt:.1f}s")


def _rel_err(a, b) -> float:
    return float(np.max(np.abs(a - b) / np.abs(b)))


def test_criterion_04_attack_surface_equivalence():
    # a sudden price offset a_P inside the loop against the load attack
    # a_L = kappa * phi * ((P + a_P)**eps - P**eps) on each victim, at the prices P
    # the price run posted; at kappa 0 the price attack changes no load
    t0 = perf_counter()
    rng = np.random.default_rng(42)
    worst = worst_k0 = 0.0
    checked = 0
    for _ in range(50):
        hours, homes = int(rng.integers(2, 25)), int(rng.integers(1, 7))
        base = rng.uniform(0.2, 3.0, size=(hours, homes))
        cfg = GridConfig(
            n_homes=homes, kappa=rng.uniform(0.05, 1.0), eps_dsm=rng.uniform(-3.0, -0.2),
            goal=("goal1", "goal2")[rng.integers(2)],
            target=rng.uniform(0.5, 2.0) * float(base.sum(axis=1).mean()), lstar_floor=0.1,
        )
        victims = tuple(rng.permutation(homes)[: rng.integers(1, homes + 1)].tolist())
        start = int(rng.integers(hours))
        window = (start, int(rng.integers(start + 1, hours + 1)))
        level, eps = rng.uniform(-0.5, 2.0), cfg.eps_dsm
        attack = make_sudden(window, level, mode="price", victims=victims)
        try:
            price_run = simulate(base, cfg, schedule=attack)
        except ValueError as exc:  # an offset below -P leaves a victim no positive price
            assert "non-physical price" in str(exc)
            continue
        values = {}
        for t in range(*window):
            p = price_run.price[t]
            values[t] = float(np.sum(cfg.kappa * base[t, list(victims)] * ((p + level) ** eps - p**eps)))
        load_run = simulate(base, cfg, schedule=make_point(values, window, victims=victims))
        if load_run.clamped:  # the load split evenly over the victims drove one below zero
            continue
        checked += 1
        worst = max(worst, _rel_err(load_run.observed_load, price_run.observed_load),
                    _rel_err(load_run.price, price_run.price))
        k0 = dataclasses.replace(cfg, kappa=0.0)
        worst_k0 = max(worst_k0, _rel_err(simulate(base, k0, schedule=attack).observed_load,
                                          simulate(base, k0).observed_load))
    dt = perf_counter() - t0
    ok = checked >= 25 and worst < 1e-9 and worst_k0 < 1e-9 and dt < 1.0
    _report(4, "price/load attack equivalence in the loop", ok,
            f"max rel err {worst:.2e} over {checked} runs, kappa 0 {worst_k0:.2e}, {dt:.2f}s")


def test_criterion_05_glrt_false_alarm_calibration():
    t0 = perf_counter()
    n_windows, window, sigma = 10_000, 24, 1.3
    rng = np.random.default_rng(7)
    x = rng.normal(0.0, sigma, size=n_windows * window)
    gaps = []
    for p_fa in (0.01, 0.05, 0.1):
        res = glrt_detect(x, sigma, window, p_fa)
        # every window-th decision looks back over one disjoint block
        rate = float(np.mean(res.decisions[window - 1 :: window]))
        gaps.append((p_fa, rate, abs(rate - p_fa)))
    dt = perf_counter() - t0
    ok = all(g <= 0.02 for _, _, g in gaps) and dt < 5.0
    detail = ", ".join(f"{p:.2f}->{r:.3f}" for p, r, _ in gaps)
    _report(5, "GLRT false-alarm calibration", ok, f"{detail}, {dt:.2f}s")


def test_criterion_06_cusum_hand_oracle():
    res = cusum_detect([1.0, -2.0, 1.0], k=0.5, h=2.0)
    quiet_ok = res.scores.tolist() == [0.5, 0.0, 0.5] and not res.decisions.any()

    res = cusum_detect([0.6, 0.6], k=0.0, h=1.0)
    alarm_ok = res.decisions.tolist() == [0, 1] and res.scores.tolist() == [0.6, 1.2]
    # the alarm resets the statistic: a third identical sample climbs from 0
    res = cusum_detect([0.6, 0.6, 0.6], k=0.0, h=1.0)
    reset_ok = res.scores.tolist() == [0.6, 1.2, 0.6] and res.decisions.tolist() == [0, 1, 0]

    _report(6, "CUSUM hand oracle", quiet_ok and alarm_ok and reset_ok,
            f"quiet={quiet_ok}, alarm={alarm_ok}, reset={reset_ok}")


def test_criterion_07_detection_reproduction(tmp_path):
    t0 = perf_counter()
    cfg = ExperimentConfig(replications=20)
    summary = run_experiment(cfg, tmp_path / "runs")
    acc = {
        (row["kappa"], row["attack_type"], row["detector"]): row["accuracy"]
        for row in summary["table"]
    }
    dt = perf_counter() - t0

    sudden = [acc[(k, "sudden", d)] for k in cfg.kappas for d in ("cusum", "logreg")]
    a_ok = all(a >= 0.90 for a in sudden)

    cusum_point = float(np.mean([acc[(k, "point", "cusum")] for k in cfg.kappas]))
    sup_point = {
        d: float(np.mean([acc[(k, "point", d)] for k in cfg.kappas]))
        for d in ("logreg", "gnb", "forest")
    }
    b_ok = all(cusum_point >= v for v in sup_point.values())

    # interval-scored CUSUM reports the same statistic as CUSUM; it is no extra detector
    compared = ("glrt", "cusum", "logreg", "gnb", "forest")
    by_kappa = {
        k: float(np.mean([acc[(k, a, d)] for a in cfg.attacks for d in compared]))
        for k in cfg.kappas
    }
    c_ok = by_kappa[0.9] >= by_kappa[0.1] - 0.01

    detail = (
        f"sudden min {min(sudden):.3f}, point cusum {cusum_point:.3f} vs "
        f"supervised max {max(sup_point.values()):.3f}, "
        f"mean acc k0.1 {by_kappa[0.1]:.3f} -> k0.9 {by_kappa[0.9]:.3f}"
    )
    # the wall time stays out of the detail, so the line is the same on every run
    _report(7, "detection-rate reproduction", a_ok and b_ok and c_ok, detail)
    assert dt < 600.0, f"criterion 7 took {dt:.0f}s, bound 600s"


def test_criterion_08_roc_properties():
    labels = np.array([0, 0, 0, 1, 1, 1], dtype=np.int8)
    sep = evaluation.roc_from_scores([0.1, 0.2, 0.3, 0.7, 0.8, 0.9], labels)
    sep_ok = sep.auc == 1.0
    i = evaluation.best_operating_index(sep)
    dist = math.hypot(sep.fpr[i], 1.0 - sep.tpr[i])
    best_ok = dist == 0.0

    const = evaluation.roc_from_scores(np.full(6, 0.4), labels)
    const_ok = const.auc == 0.5

    rng = np.random.default_rng(31)
    rand = evaluation.roc_from_scores(rng.random(10_000), rng.integers(0, 2, 10_000))
    rand_ok = 0.47 <= rand.auc <= 0.53

    ok = sep_ok and best_ok and const_ok and rand_ok
    _report(8, "ROC sanity", ok,
            f"separable auc {sep.auc}, constant auc {const.auc}, "
            f"random auc {rand.auc:.3f}, best-point distance {dist}")


def test_criterion_09_bootstrap_fidelity(templates, tmp_path):
    # the loads checked are the ones rebuilt from the written file
    n_homes, num_days = 200, 30
    write_microgrid(_bootstrap_grid(templates, rep=0), str(tmp_path / "a.json"))
    grid = read_microgrid(str(tmp_path / "a.json"))
    assert grid.kwh.shape == (24 * num_days, n_homes)
    n_templates = len(templates)
    all_match = True
    for i in range(n_homes):
        days = grid.kwh[:, i].reshape(num_days, 24)
        tdays = templates[i % n_templates].kwh.reshape(-1, 24)
        hit = (days[:, None, :] == tdays[None, :, :]).all(-1).any(-1)
        if not hit.all():
            all_match = False
            break

    write_microgrid(_bootstrap_grid(templates, rep=0), str(tmp_path / "b.json"))
    identical = (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    _report(9, "day-block bootstrap fidelity", all_match and identical,
            f"verbatim days={all_match}, same-seed bytes identical={identical}")


def test_criterion_10_forecast_whitening(templates):
    # exactly periodic input: the seasonal difference removes everything
    rng = np.random.default_rng(5)
    day = rng.uniform(1.0, 3.0, size=24)
    y = np.tile(day, 10)
    model = fit_seasonal_ar(y, order=2)
    periodic_max = float(np.max(np.abs(model.residuals)))
    continuation = forecast(model, 48)
    forecast_max = float(np.max(np.abs(continuation - np.tile(day, 2))))
    periodic_ok = periodic_max < 1e-12 and forecast_max < 1e-12

    # reference training window (first replication, low participation)
    grid = _bootstrap_grid(templates, rep=0)
    nominal = simulate(grid.kwh[: PROTOCOL.horizon], PROTOCOL.grid_config(PROTOCOL.kappas[0]))
    train = nominal.observed_load[: PROTOCOL.train_hours]
    resid = fit_seasonal_ar(train, order=PROTOCOL.ar_order).residuals
    r = acf(resid, 24)[1:]
    inside = int(np.sum(np.abs(r) < acf_band(len(resid))))
    white_ok = inside >= 0.8 * 24

    _report(10, "forecast residual whiteness", periodic_ok and white_ok,
            f"periodic max |resid| {periodic_max:.1e}, ACF lags inside band {inside}/24")
