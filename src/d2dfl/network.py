"""Wireless substrate: RSS matrices, link drop probabilities, reliability
clusters and a first-order radio energy model.

All functions here are pure; the channel is static for the lifetime of a
scenario (no fading over time, no mobility).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig

# Bits used when a device broadcasts a single scalar (e.g. a reward value)
# or one model parameter: single-precision float on the wire.
SCALAR_BITS = 32


@dataclass(frozen=True)
class ClusterPartition:
    """Disjoint, total assignment of devices to reliability clusters."""

    assignment: np.ndarray  # shape (N,), cluster index per device
    k: int


def drop_probability(w, cfg: ScenarioConfig):
    """Probability that a transmission with received signal strength w fails.

    Returns 1 - exp(-(2^r - 1) * sigma^2 / w) with the constant rate
    r = cfg.rate_r and the common noise power sigma^2 = cfg.noise_sigma2.
    Accepts scalars or arrays; a scalar gives a float.
    w == 0 with positive rate is the limit case and yields 1.0.
    """
    w = np.asarray(w, dtype=float)
    if np.any(w < 0):
        raise ValueError("received signal strength must be nonnegative")
    out = _drop(w, cfg)
    return float(out) if out.ndim == 0 else out


def _drop(w: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    """drop_probability's formula for every entry of w, computed in place in
    one new array, with no check of the sign of w."""
    out = np.empty_like(w)
    coeff = (2.0 ** cfg.rate_r - 1.0) * cfg.noise_sigma2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(-coeff, w, out=out)
        np.expm1(out, out=out)
    np.negative(out, out=out)
    out[w == 0] = 0.0 if coeff == 0 else 1.0
    return out


def drop_matrix(rss: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    """Per-link drop probabilities for a full RSS matrix (diagonal forced to 0,
    whatever the diagonal of rss holds)."""
    rss = validate_rss(rss)
    drop = _drop(rss, cfg)
    np.fill_diagonal(drop, 0.0)  # self links never drop; diagonal of W is unused
    return drop


def validate_rss(rss: np.ndarray) -> np.ndarray:
    rss = np.asarray(rss, dtype=float)
    if rss.ndim != 2 or rss.shape[0] != rss.shape[1]:
        raise ValueError(f"RSS matrix must be square, got shape {rss.shape}")
    negative = rss < 0
    np.fill_diagonal(negative, False)
    if negative.any():
        raise ValueError("RSS entries must be nonnegative")
    return rss


def generate_rss(
    positions: np.ndarray, cfg: ScenarioConfig, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Build an RSS matrix from device positions via a power-law path loss.

    W[i, j] = ref_power / dist(i, j)^pathloss_exponent with cfg's
    ref_power and pathloss_exponent, optionally jittered per direction by
    log-normal shadowing (cfg.shadowing_sigma in log-space; needs rng).
    Symmetric when shadowing is disabled; deterministic for a fixed
    generator. Computed in place on the distance matrix.
    """
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    if n < 2:
        raise ValueError("need at least two devices")
    rss = pairwise_distances(positions)
    if np.count_nonzero(rss == 0) > n:  # the diagonal holds n zeros
        raise ValueError("coincident device positions")
    with np.errstate(divide="ignore"):
        rss **= cfg.pathloss_exponent
        np.divide(cfg.ref_power, rss, out=rss)
    np.fill_diagonal(rss, 0.0)
    if cfg.shadowing_sigma > 0:
        if rng is None:
            raise ValueError("shadowing requires an rng")
        jitter = rng.normal(0.0, cfg.shadowing_sigma, size=(n, n))
        rss *= np.exp(jitter, out=jitter)
        np.fill_diagonal(rss, 0.0)
    return rss


def _distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sqrt(sum over k of (a[k] - b[k])**2) for coordinate planes a and b
    (D, ...) that broadcast: the squares are added in coordinate order into
    one output through one reused buffer, and the root is taken in place."""
    out = np.subtract(a[0], b[0])
    np.square(out, out=out)
    buf = np.empty_like(out)
    for ak, bk in zip(a[1:], b[1:]):
        np.subtract(ak, bk, out=buf)
        out += np.square(buf, out=buf)
    return np.sqrt(out, out=out)


def pairwise_distances(positions: np.ndarray) -> np.ndarray:
    """(N, N) Euclidean distances between the rows of positions (N, D).

    Allocates the result and one (N, N) buffer, no (N, N, D) differences.
    Adding the D squares one after another is the order numpy's sum takes
    over a last axis shorter than 8, so for 2-D positions the result equals
    sqrt(((p[:, None] - p[None]) ** 2).sum(axis=-1)) bit for bit.
    """
    coords = np.asarray(positions, dtype=float).T
    return _distance(coords[:, :, None], coords[:, None, :])


def link_distances(
    positions: np.ndarray, receivers: np.ndarray, transmitters: np.ndarray
) -> np.ndarray:
    """Distances of the links transmitters[m] -> receivers[m], equal to
    pairwise_distances(positions)[receivers, transmitters] bit for bit."""
    coords = np.asarray(positions, dtype=float).T
    return _distance(coords[:, receivers], coords[:, transmitters])


def mean_d2d_distance(positions: np.ndarray) -> float:
    """Mean distance over unordered device pairs. The strict upper triangle
    is selected by a boolean mask, in the row-major order of
    np.triu_indices, so the mean adds the same values in the same order."""
    dist = pairwise_distances(positions)
    upper = np.tri(dist.shape[0], dtype=bool)
    np.logical_not(upper, out=upper)
    return float(dist[upper].mean())


def partition_clusters(drop: np.ndarray, alpha_d: float) -> ClusterPartition:
    """Partition devices into clusters whose internal links all satisfy the
    reliability bound in both directions.

    drop is the (N, N) drop-probability matrix of drop_matrix. Greedy clique
    growth over the reliable graph: seed each cluster with the lowest-index
    unassigned device, then add unassigned devices in ascending index order
    that are adjacent to every current member. An edge requires drop
    probability <= alpha_d in both directions because the RSS matrix may be
    asymmetric. Singletons are always feasible.
    """
    n = drop.shape[0]
    reliable = (drop <= alpha_d) & (drop.T <= alpha_d)
    np.fill_diagonal(reliable, True)

    assignment = np.full(n, -1, dtype=int)
    k = 0
    for seed in range(n):
        if assignment[seed] >= 0:
            continue
        members = [seed]
        assignment[seed] = k
        for cand in range(seed + 1, n):
            if assignment[cand] >= 0:
                continue
            if all(reliable[cand, m] for m in members):
                members.append(cand)
                assignment[cand] = k
        k += 1
    return ClusterPartition(assignment=assignment, k=k)


def transmit_energy(n_bits: float, distance: float, cfg: ScenarioConfig) -> float:
    """Energy in joules to move n_bits over one hop at the given distance:
    n_bits * (elec + amp * distance^2), the first-order radio model with
    cfg's elec_energy_per_bit and amp_energy_per_bit_per_dist2."""
    if n_bits < 0 or distance < 0:
        raise ValueError("bits and distance must be nonnegative")
    return n_bits * (
        cfg.elec_energy_per_bit + cfg.amp_energy_per_bit_per_dist2 * distance**2
    )


def energy_cost(n_points: int, distance: float, cfg: ScenarioConfig) -> float:
    """Energy in joules to transmit n_points data points of
    cfg.per_point_bits each over one hop."""
    return transmit_energy(n_points * cfg.per_point_bits, distance, cfg)
