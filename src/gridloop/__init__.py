"""gridloop: closed-loop demand-side-management micro-grid simulation.

Simulates a real-time-pricing feedback loop between a utility and a
population of price-responsive households, injects load/price integrity
attacks into the loop, and detects them with sequential (GLRT, CUSUM) and
supervised (logistic regression, naive Bayes, random forest) detectors.
"""

from gridloop.attack import AttackSchedule, make_point, make_ramp, make_sudden
from gridloop.feedback import GridConfig, SimulationTrace, simulate
from gridloop.loadgen import BootstrapConfig, synthesize_microgrid
from gridloop.experiment import ExperimentConfig, run_experiment

__version__ = "0.1.0"

__all__ = [
    "AttackSchedule",
    "BootstrapConfig",
    "ExperimentConfig",
    "GridConfig",
    "SimulationTrace",
    "make_point",
    "make_ramp",
    "make_sudden",
    "run_experiment",
    "simulate",
    "synthesize_microgrid",
]
