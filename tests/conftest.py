import tracemalloc

import numpy as np

from d2dfl import fl
from d2dfl.config import ScenarioConfig
from d2dfl.network import ClusterPartition
from d2dfl.scenario import Scenario


def make_scenario(
    counts: np.ndarray,
    thresholds: np.ndarray,
    trust: np.ndarray | None = None,
    drop: np.ndarray | None = None,
    assignment: np.ndarray | None = None,
    config: ScenarioConfig | None = None,
) -> Scenario:
    """Assemble a Scenario around explicit count/trust/channel matrices,
    with placeholder data fields, for exchange- and policy-level tests."""
    counts = np.asarray(counts, dtype=np.int64)
    n, n_classes = counts.shape
    if trust is None:
        trust = np.ones((n, n, n_classes), dtype=np.int8)
    if drop is None:
        drop = np.zeros((n, n))
    if assignment is None:
        assignment = np.zeros(n, dtype=int)
    partition = ClusterPartition(
        assignment=np.asarray(assignment, dtype=int), k=int(np.max(assignment)) + 1
    )
    positions = np.stack([np.arange(n, dtype=float), np.zeros(n)], axis=1)
    empty = fl.LabeledSet(np.empty((0, 2)), np.empty(0, dtype=np.int64), n_classes)
    return Scenario(
        config=config or ScenarioConfig(),
        positions=positions,
        drop=np.asarray(drop, dtype=float),
        partition=partition,
        trust=np.asarray(trust, dtype=np.int8),
        counts=counts,
        thresholds=np.asarray(thresholds, dtype=np.int64),
        datasets=[empty for _ in range(n)],
        test_set=empty,
    )


def peak_units(fn, n: int) -> float:
    """Peak memory that fn() allocates, traced by tracemalloc, in units of
    one (n, n) float64 array."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (n * n * 8)
