"""Shared fixtures: a scaled-down experiment config that keeps the full
pipeline (bootstrap -> pricing loop -> attack -> detect -> evaluate)
runnable in a couple of seconds, plus one completed run of it."""

import dataclasses

import pytest

from gridloop.experiment import ExperimentConfig, run_experiment
from gridloop.tables import write_json


@pytest.fixture(scope="session")
def tiny_cfg():
    # 4 train days + 30 test hours; one participation level, one attack.
    # Frozen dataclass, so sharing one instance across tests is safe.
    return ExperimentConfig(
        n_homes=6,
        kappas=(0.2,),
        attacks=("sudden",),
        train_days=4,
        test_hours=30,
        attack_hours=12,
        seed=3,
        replications=1,
        template_homes=3,
        template_days=6,
        forest_trees=10,
        sweep_points=21,
    )


@pytest.fixture()
def cfg_json(tiny_cfg, tmp_path):
    """tiny_cfg written as a config JSON file; its path as a string."""
    path = tmp_path / "cfg.json"
    write_json(path, dataclasses.asdict(tiny_cfg))
    return str(path)


@pytest.fixture(scope="session")
def tiny_run(tiny_cfg, tmp_path_factory):
    """One full run_experiment over tiny_cfg; (output root, summary dict)."""
    root = tmp_path_factory.mktemp("tiny_run")
    summary = run_experiment(tiny_cfg, root)
    return root, summary
