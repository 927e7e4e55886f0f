"""Scenario generation: device placement, channel, clusters, trust, and the
non-i.i.d. data split, all driven by named sub-seeds of one root seed.

Also provides draw_points (the data points, which RL does not read), the
uniform random-graph baseline, and the materialized exchange that moves
points between device datasets. A Scenario carries its config; every stage
that takes one (RL, the exchange, FL) reads its settings from it.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fl
from .config import ScenarioConfig, class_allocation, held_out, validate_config
from .exchange import ExchangeResult, run_exchange
from .network import (
    ClusterPartition,
    drop_matrix,
    generate_rss,
    mean_d2d_distance,
    pairwise_distances,  # noqa: F401  (benchmark spans wrap scenario.pairwise_distances)
    partition_clusters,
)


def named_rng(root_seed: int, name: str) -> np.random.Generator:
    """Independent generator for one subsystem, stable across runs and
    platforms (the name is hashed with crc32, not Python's salted hash)."""
    return np.random.default_rng(np.random.SeedSequence([root_seed, zlib.crc32(name.encode())]))


@dataclass
class Scenario:
    """Everything the RL and FL phases consume, fixed for one experiment."""

    config: ScenarioConfig
    positions: np.ndarray  # (N, 2)
    drop: np.ndarray  # (N, N) drop[i, j] for link j -> i
    partition: ClusterPartition
    trust: np.ndarray  # (N, N, L), trust[j, i, l]
    counts: np.ndarray  # (N, L) integer class distributions
    thresholds: np.ndarray  # (N, L)
    datasets: list[fl.LabeledSet] | None = None  # None until draw_points
    test_set: fl.LabeledSet | None = None
    # What draw_points reads, then clears:
    data_rng: np.random.Generator | None = None  # "data", after counts and means
    class_means: np.ndarray | None = None  # (L, d)
    drawn_counts: np.ndarray | None = None  # (N, L), before the test split

    @property
    def n_devices(self) -> int:
        return self.counts.shape[0]

    @property
    def n_classes(self) -> int:
        return self.counts.shape[1]

    @cached_property
    def mean_distance(self) -> float:
        """Mean distance over device pairs, computed on first read."""
        return mean_d2d_distance(self.positions)


def _non_iid_counts(cfg: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Split each device's sample budget over its drawn class subset, the
    largest share to the first drawn class (see class_allocation)."""
    counts = np.zeros((cfg.n_devices, cfg.n_classes), dtype=np.int64)
    alloc = class_allocation(cfg)
    for i in range(cfg.n_devices):
        counts[i, _draw_classes(cfg, rng)] = alloc
    return counts


def _draw_classes(cfg: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw a device's class subset, spreading it across the confusable
    subclass pairs of the feature mixture first (at most one member per
    pair while possible), so devices are skewed exactly where discrimination
    needs foreign samples. Marginal class frequencies stay uniform, and so
    does the class that gets the largest share (the first one returned).

    With an odd class count the last class has no sibling. It is held with
    probability classes_per_device / n_classes, at a uniformly random rank,
    and the rest of the subset is spread over the full pairs. When
    2 * classes_per_device > n_classes, spreading would hold the unpaired
    class on every device; uniformity takes precedence, so some devices skip
    it and hold both members of one more pair instead.
    """
    k = cfg.classes_per_device
    take_single = cfg.n_classes % 2 == 1 and rng.random() < k / cfg.n_classes
    first_members = []
    siblings = []
    for pair in rng.permutation(cfg.n_classes // 2):
        pick = 2 * int(pair) + int(rng.integers(0, 2))
        first_members.append(pick)
        siblings.append(pick ^ 1)
    chosen = first_members + list(rng.permutation(siblings))
    chosen = chosen[: k - 1 if take_single else k]
    if take_single:
        chosen.insert(int(rng.integers(0, k)), cfg.n_classes - 1)
    return np.array(chosen, dtype=np.int64)


def draw_trust(
    n_devices: int, n_classes: int, density: float, rng: np.random.Generator
) -> np.ndarray:
    """Bernoulli(density) int8 trust tensor (N, N, L), trust[j, i, l].

    Drawn one transmitter row at a time into the int8 result, so no float
    (N, N, L) temporary is made; the stream equals one (N, N, L) draw.
    """
    trust = np.empty((n_devices, n_devices, n_classes), dtype=np.int8)
    for row in trust:
        row[...] = rng.random((n_devices, n_classes)) < density
    return trust


def held_out_mask(y: np.ndarray, counts: np.ndarray, test_fraction: float) -> np.ndarray:
    """Mask of the points one device gives to the test split: the first
    held_out(counts[c], test_fraction) points of every class c. y must hold
    each class as one contiguous block in class order, as dataset_from_counts
    emits it, so a point's rank in its class is its offset in its block."""
    n_test = held_out(counts, test_fraction)
    rank = np.arange(len(y)) - (np.cumsum(counts) - counts)[y]
    return rank < n_test[y]


def generate_scenario(cfg: ScenarioConfig) -> Scenario:
    """Build a scenario from a config, validated here first; draw_points draws its points.

    Deterministic per (config, seed): positions are uniform in a square,
    RSS follows the configured path loss, trust entries are i.i.d.
    Bernoulli(trust_density), and each device holds samples from exactly
    classes_per_device classes; its counts are those it keeps after giving
    held_out of every class to the pooled test split.
    """
    validate_config(cfg)
    pos_rng = named_rng(cfg.seed, "positions")
    positions = pos_rng.uniform(0.0, cfg.area_size, size=(cfg.n_devices, 2))
    rss = generate_rss(positions, cfg, named_rng(cfg.seed, "channel"))
    drop = drop_matrix(rss, cfg)
    partition = partition_clusters(drop, cfg.alpha_d)

    trust = draw_trust(
        cfg.n_devices, cfg.n_classes, cfg.trust_density, named_rng(cfg.seed, "trust")
    )

    data_rng = named_rng(cfg.seed, "data")
    drawn = _non_iid_counts(cfg, data_rng)
    means = fl.make_class_means(cfg.n_classes, cfg.feature_dim, data_rng, cfg.feature_spread)

    return Scenario(
        config=cfg,
        positions=positions,
        drop=drop,
        partition=partition,
        trust=trust,
        counts=drawn - held_out(drawn, cfg.test_fraction),
        thresholds=np.full((cfg.n_devices, cfg.n_classes), cfg.class_threshold, dtype=np.int64),
        data_rng=data_rng,
        class_means=means,
        drawn_counts=drawn,
    )


def draw_points(scenario: Scenario) -> None:
    """Draw a generated scenario's data points in place, device by device,
    then clear what they were drawn from, so a second call raises. Each
    device gives the first held_out points of every class to the pooled
    test set, which so mirrors the global mix, and keeps scenario.counts."""
    if scenario.data_rng is None:
        raise ValueError("the scenario's data points are already drawn")
    cfg, means, rng = scenario.config, scenario.class_means, scenario.data_rng
    scenario.datasets, tests = [], []
    for drawn_i in scenario.drawn_counts:
        full = fl.dataset_from_counts(means, drawn_i, rng, cfg.feature_noise)
        test = held_out_mask(full.y, drawn_i, cfg.test_fraction)
        scenario.datasets.append(fl.LabeledSet(full.x[~test], full.y[~test], cfg.n_classes))
        tests.append((full.x[test], full.y[test]))
    scenario.test_set = fl.LabeledSet(*map(np.concatenate, zip(*tests)), cfg.n_classes)
    scenario.data_rng = scenario.class_means = scenario.drawn_counts = None


def uniform_baseline_links(n_devices: int, rng: np.random.Generator) -> np.ndarray:
    """Random-graph baseline as an (N,) transmitter array: every receiver
    picks one transmitter uniformly from the other devices (one incoming
    edge each, never none). Draws the same stream as one
    rng.integers(1, n_devices) call per receiver in receiver order."""
    if n_devices < 2:
        raise ValueError("need at least two devices")
    return (np.arange(n_devices) + rng.integers(1, n_devices, size=n_devices)) % n_devices


def materialize_exchange(
    scenario: Scenario,
    links: np.ndarray,
    rng: np.random.Generator,
) -> ExchangeResult:
    """Run the exchange over an (N,) transmitter array (-1 for no link)
    with whole data points, in the delivery mode of scenario.config, and
    move the actual samples.

    Transmitted points leave the sender's dataset whether or not they
    survive the channel; delivered points join the receiver's. Updates
    scenario.datasets and scenario.counts in place and returns the count
    ledger. In expected mode the delivered counts are rounded.
    """
    result = run_exchange(
        links,
        scenario.counts,
        scenario.thresholds,
        scenario.trust,
        scenario.drop,
        mode=scenario.config.delivery,
        rng=rng,
        integer_payloads=True,
    )
    # Pass 1: pick the transmitted points from every sender's pre-exchange
    # dataset, so a relay never forwards points it receives this round.
    keep_masks = [np.ones(len(d), dtype=bool) for d in scenario.datasets]
    gains: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    for rx, tx, sent, got in zip(
        result.receivers.tolist(), result.transmitters.tolist(), result.buffered, result.delivered
    ):
        tx_set = scenario.datasets[tx]
        keep = keep_masks[tx]
        for cls in np.flatnonzero(sent):
            candidates = np.flatnonzero((tx_set.y == cls) & keep)
            picked = rng.choice(candidates, size=int(sent[cls]), replace=False)
            keep[picked] = False
            arrived = picked[: int(got[cls])]
            if arrived.size:
                gains.setdefault(rx, []).append((tx_set.x[arrived], tx_set.y[arrived]))
    # Pass 2: rebuild every touched dataset.
    for i, data in enumerate(scenario.datasets):
        gained = gains.get(i, [])
        if not gained and keep_masks[i].all():
            continue
        xs = [data.x[keep_masks[i]]] + [g[0] for g in gained]
        ys = [data.y[keep_masks[i]]] + [g[1] for g in gained]
        scenario.datasets[i] = fl.LabeledSet(
            np.concatenate(xs), np.concatenate(ys), data.n_classes
        )
    scenario.counts = result.updated.astype(np.int64)
    return result
