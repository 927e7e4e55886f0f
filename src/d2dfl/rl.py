"""Decentralized multi-agent Q-learning over link choices.

Every device is an agent whose Boltzmann (softmax) policy over incoming-link
choices comes from running reward totals and pull counts per candidate
transmitter. All agents share one policy table: two (N, N) arrays whose row
i belongs to receiver i. A device may also pick itself, which means "no
incoming link". Training repeats: sample links, run an expected-value
exchange on a scratch copy of the class distributions, score local and
global rewards, and credit each device's chosen action. Each step acts on
all devices at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .exchange import EXPECTED, run_exchange

if TYPE_CHECKING:
    from .scenario import Scenario


@dataclass
class PolicyTable:
    """Running reward totals and pull counts, one row per agent and one
    column per action (candidate transmitter).

    Counts start at one so the initial policy is uniform and the average is
    always defined.
    """

    totals: np.ndarray  # (N, N)
    counts: np.ndarray  # (N, N)

    @classmethod
    def fresh(cls, n: int) -> "PolicyTable":
        return cls(totals=np.zeros((n, n)), counts=np.ones((n, n), dtype=np.int64))

    def averages(self) -> np.ndarray:
        return self.totals / self.counts


@dataclass
class RewardWeights:
    """User-set reward trade-off weights.

    alpha1 scales data diversity, alpha2 penalizes unreliable links, alpha3
    scales per-cluster budget slack, gamma couples each device to the global
    reward. diversity_min is the minimum number of satisfied classes before
    the diversity score pays out. budgets holds one request budget per
    cluster (a scalar is broadcast).
    """

    alpha1: float = 1.0
    alpha2: float = 1.0
    alpha3: float = 0.0
    gamma: float = 0.5
    diversity_min: int = 0
    budgets: np.ndarray | float = 0.0

    def budget_array(self, n_clusters: int) -> np.ndarray:
        b = np.asarray(self.budgets, dtype=float)
        if b.ndim == 0:
            return np.full(n_clusters, float(b))
        if b.shape != (n_clusters,):
            raise ValueError(f"expected {n_clusters} budgets, got shape {b.shape}")
        return b


@dataclass
class EpisodeOutcome:
    """Everything one training episode produced."""

    links: np.ndarray  # (N,) transmitter per receiver, -1 for none
    local_rewards: np.ndarray  # (N,)
    global_rewards: np.ndarray  # (K,)
    overall_rewards: np.ndarray  # (N,)
    cluster_load: np.ndarray  # (K,) inter-cluster requested points
    link_success: float  # mean 1 - drop over chosen links (1.0 if none)


@dataclass
class TrainResult:
    """Trained policies and the per-episode trace, one row per episode."""

    policies: PolicyTable
    links: np.ndarray  # (E, N) transmitter per receiver, -1 for none
    mean_reward: np.ndarray  # (E,) mean overall reward
    link_success: np.ndarray  # (E,)
    cluster_load: np.ndarray  # (E, K)


def link_probabilities(policies: PolicyTable) -> np.ndarray:
    """Row-wise softmax over average experienced rewards; shift-invariant
    and safe against overflow via max subtraction."""
    avg = policies.averages()
    z = np.exp(avg - avg.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def sample_links(
    policies: PolicyTable,
    rng: np.random.Generator,
    allow_no_link: bool = True,
) -> np.ndarray:
    """Sample one incoming-link choice per receiver.

    Returns an (N,) array of transmitter indices with -1 for "no link"
    (a receiver sampling itself). With allow_no_link=False the self action
    is masked out and the row renormalized. One uniform draw per receiver
    picks the first action whose cumulative probability reaches it.
    """
    p = link_probabilities(policies)
    n = p.shape[0]
    own = np.arange(n)
    u = rng.random(n)
    if not allow_no_link:
        p[own, own] = 0.0
        p = p / p.sum(axis=1, keepdims=True)
    below = np.cumsum(p, axis=1) < u[:, None]
    choice = np.minimum(below.sum(axis=1), n - 1)
    return np.where(choice == own, -1, choice)


def diversity_score(counts: np.ndarray, thresholds: np.ndarray, min_classes: int) -> np.ndarray:
    """Number of classes at or above threshold, or 0 below the diversity bar,
    per row of counts.

    Expected-value exchanges leave fractional counts; a data point either
    arrives or not, so counts are rounded to whole points before the
    threshold comparison (integer inputs are unaffected).
    """
    whole = np.floor(np.asarray(counts, dtype=float) + 0.5)
    met = np.sum(whole >= np.asarray(thresholds), axis=-1)
    return np.where(met >= min_classes, met, 0)


def local_reward(
    counts: np.ndarray,
    thresholds: np.ndarray,
    p_drop_chosen: float | np.ndarray,
    weights: RewardWeights,
) -> np.ndarray:
    """Diversity payoff minus the unreliability of the chosen link, per row.

    For the no-link action the drop penalty is zero.
    """
    score = diversity_score(counts, thresholds, weights.diversity_min)
    return weights.alpha1 * score - weights.alpha2 * p_drop_chosen


def inter_cluster_load(
    receivers: np.ndarray,
    transmitters: np.ndarray,
    requested: np.ndarray,
    assignment: np.ndarray,
    n_clusters: int,
) -> np.ndarray:
    """Per-cluster total points requested over links crossing into it.

    receivers, transmitters and requested are an exchange ledger: one link
    and its (L,) request row per entry, summed in ledger order.
    """
    cluster = assignment[receivers]
    crossing = assignment[transmitters] != cluster
    load = np.zeros(n_clusters)
    np.add.at(load, cluster[crossing], np.abs(requested[crossing]).sum(axis=1))
    return load


def global_reward(
    local_rewards: np.ndarray,
    cluster_load: np.ndarray,
    weights: RewardWeights,
) -> np.ndarray:
    """Mean local reward plus weighted budget slack, one value per cluster."""
    budgets = weights.budget_array(len(cluster_load))
    return local_rewards.mean() + weights.alpha3 * (budgets - cluster_load)


def link_success(drop: np.ndarray, links: np.ndarray) -> float:
    """Mean success probability 1 - drop over the chosen links, in receiver
    order (1.0 if there are none)."""
    linked = links >= 0
    if not linked.any():
        return 1.0
    return float(np.mean(1.0 - drop[linked, links[linked]]))


def update_policy(policies: PolicyTable, chosen: np.ndarray, rewards: np.ndarray) -> None:
    """Credit every agent's chosen action: row i adds rewards[i] to its
    total at column chosen[i] and bumps that count."""
    rows = np.arange(len(chosen))
    policies.totals[rows, chosen] += rewards
    policies.counts[rows, chosen] += 1


def run_episode(
    scenario: "Scenario",
    links: np.ndarray,
    weights: RewardWeights,
) -> EpisodeOutcome:
    """Score one link assignment with an expected-value exchange on a scratch
    copy of the class distributions."""
    assignment = scenario.partition.assignment
    result = run_exchange(
        links,
        scenario.counts,
        scenario.thresholds,
        scenario.trust,
        scenario.drop,
        mode=EXPECTED,
    )
    p_drop = np.where(links >= 0, scenario.drop[np.arange(len(links)), links], 0.0)
    locals_ = local_reward(result.updated, scenario.thresholds, p_drop, weights)
    load = inter_cluster_load(
        result.receivers, result.transmitters, result.requested, assignment, scenario.partition.k
    )
    globals_ = global_reward(locals_, load, weights)
    return EpisodeOutcome(
        links=links,
        local_rewards=locals_,
        global_rewards=globals_,
        overall_rewards=locals_ + weights.gamma * globals_[assignment],
        cluster_load=load,
        link_success=link_success(scenario.drop, links),
    )


def train(
    scenario: "Scenario",
    episodes: int,
    weights: RewardWeights,
    rng: np.random.Generator,
    allow_no_link: bool = True,
) -> TrainResult:
    """Run the full policy-training loop.

    Each episode samples links from the current policies, scores them, and
    updates every device's row at its chosen action (the self index for
    the no-link action). Distributions reset every episode: training probes
    counterfactual exchanges, real data moves only after graph extraction.
    """
    n = scenario.counts.shape[0]
    own = np.arange(n)
    policies = PolicyTable.fresh(n)
    trace = TrainResult(
        policies=policies,
        links=np.empty((episodes, n), dtype=np.int64),
        mean_reward=np.empty(episodes),
        link_success=np.empty(episodes),
        cluster_load=np.empty((episodes, scenario.partition.k)),
    )
    for ep in range(episodes):
        links = sample_links(policies, rng, allow_no_link=allow_no_link)
        outcome = run_episode(scenario, links, weights)
        update_policy(policies, np.where(links >= 0, links, own), outcome.overall_rewards)
        trace.links[ep] = links
        trace.mean_reward[ep] = outcome.overall_rewards.mean()
        trace.link_success[ep] = outcome.link_success
        trace.cluster_load[ep] = outcome.cluster_load
    return trace


def extract_graph(
    policies: PolicyTable,
    allow_no_link: bool = True,
) -> np.ndarray:
    """Greedy readout as an (N,) transmitter array: per receiver the
    argmax-average transmitter, ties to the lowest index; the self action
    reads as no link (-1)."""
    avg = policies.averages()
    own = np.arange(avg.shape[0])
    if not allow_no_link:
        avg[own, own] = -np.inf
    best = avg.argmax(axis=1)
    return np.where(best == own, -1, best)
