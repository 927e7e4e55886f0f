"""Simulator for learned device-to-device data exchange graphs in
federated learning: lossy wireless links, trust-constrained message passing,
decentralized bandit-style link policies, and a desk-scale FL harness."""

from .config import ScenarioConfig, load_config, save_config
from .experiment import run_experiment, run_experiments, sweep_experiment
from .scenario import generate_scenario

__all__ = [
    "ScenarioConfig",
    "load_config",
    "save_config",
    "generate_scenario",
    "run_experiment",
    "run_experiments",
    "sweep_experiment",
]
