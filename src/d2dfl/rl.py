"""Decentralized multi-agent Q-learning over link choices.

Every device is an agent whose Boltzmann (softmax) policy over incoming-link
choices comes from running reward totals and pull counts per candidate
transmitter. A run's agents share one policy table: two (N, N) arrays whose
row i belongs to receiver i. A device may also pick itself, which means "no
incoming link". Training repeats: sample links, run an expected-value
exchange on a scratch copy of the class distributions, score local and
global rewards, and credit each device's chosen action. Each step acts on
all devices at once. The reward keys (the config's [rewards] section), the
episode count and the no-link rule come from the ScenarioConfig each
scenario carries.

Feedback arrives in batches (the batched-bandit setting of Perchet et al.,
"Batched Bandit Problems", arXiv:1505.00369): the episodes of a run come in
feedback batches of FEEDBACK_EPISODES, each sampled from the policy as it
stood at the batch's start. The averages, the softmax and its cumulative
sums are computed once per batch from the totals and counts, and the
batch's rewards are credited before the next batch's table is built. The
training loop keeps only the policy table, the batch's cumulative table
and the sampler's work arrays for the run. Within a batch, episodes
are sampled and scored together in pieces of q episodes, q*R*N*N cells at
most (DRAW_CELLS): each run draws a piece's uniforms with one call on its
own generator, the stream of one call per episode, and one exchange call
scores the piece's episodes side by side. The scorer indexes the runs'
static arrays (channel, trust, class tables, clusters) per episode and
copies none of them.

Independent runs whose configs agree on BATCH_KEY (n_devices, n_classes,
episodes, allow_no_link) train together (train_runs): their tables stack
run-major as one (R*N, N) table, and one exchange is scored on the
block-diagonal graph of all R runs, each run's reward keys as (R, 1)
columns. The loop carries one action per row, the row's own index for no
link; the scorer treats every row as a link, a no-link row offering
nothing, and the actions turn into links (-1 for none) after the last
episode. Every sum in that exchange adds integers or grid-floored buffers,
which is exact in any order, every per-run mean reduces one contiguous row,
and a batch's length does not depend on R, so each run's trace is
bit-identical to training it alone. The exchange stages are exchange.py's
own functions.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .config import _SECTIONS, ScenarioConfig, check_batch
from .exchange import (  # noqa: F401  (run_exchange: benchmark spans wrap rl.run_exchange)
    _cells,
    apply_transfers,
    available_vector,
    check_links,
    class_margins,
    deliver,
    requirement_vector,
    run_exchange,
    transmission_buffers,
)

if TYPE_CHECKING:
    from .scenario import Scenario

# Cap on the policy cells R*N*N of one training batch: one N=1000 run. Bounds
# the stacked tables a batch holds (policy totals and counts, the sampler's
# cumulative table, and the drop matrices and trust tensors of a
# batch of two or more runs); larger batches save little per-call time. It
# caps the summed N*N of an FL batch too (experiment.batches), which holds
# its runs' scenarios, with their O(N*N) drop and trust arrays, until its
# last run is exchanged.
BATCH_CELLS = 2**20
# The config keys the runs of one training batch share: the stacked tables
# need one device and class count, and one loop trains every run for the
# same episodes under the same no-link rule.
BATCH_KEY = ("n_devices", "n_classes", "episodes", "allow_no_link")
# Episodes per feedback batch: a run's policy is refreshed once per batch.
# Fifty episodes leave the learned graph of a default N=10 run nearly as it
# is with a refresh every episode (98.5% of links on held-out seeds), and
# the batch's softmax costs little next to its fifty episodes.
FEEDBACK_EPISODES = 50
# Cap on the cells q*R*N*N of the q episodes of a batch that train_runs
# samples and scores as one piece: the sampler compares q draws per row
# against every cumulative sum, in a kept (q, R*N, N) work array. 16k
# cells keep each piece's arrays within a few hundred kB: one piece per
# batch for three N=10 runs, one episode per piece for one run at N >= 91.
# After training, the actions turn into links DRAW_CELLS entries at a time.
DRAW_CELLS = 2**14


@dataclass
class PolicyTable:
    """Running reward totals and pull counts, one row per agent and one
    column per action (candidate transmitter).

    Counts start at one so the initial policy is uniform and the average is
    always defined.
    """

    totals: np.ndarray  # (N, N), or (R*N, N) for R stacked runs
    counts: np.ndarray  # same shape

    @classmethod
    def fresh(cls, n: int, runs: int = 1) -> "PolicyTable":
        shape = (runs * n, n)
        return cls(totals=np.zeros(shape), counts=np.ones(shape, dtype=np.int64))

    def averages(self) -> np.ndarray:
        """totals / counts, as a new array."""
        return self.totals / self.counts


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
class RlTrace:
    """A run's training trace, one row per episode."""

    links: np.ndarray  # (E, N) transmitter per receiver, -1 for none
    mean_reward: np.ndarray  # (E,) mean overall reward
    link_success: np.ndarray  # (E,)
    cluster_load: np.ndarray  # (E, K)


@dataclass
class TrainResult(RlTrace):
    """The training trace and the trained policies."""

    policies: PolicyTable


def _softmax_rows(avg: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row-wise softmax of avg written into out; shift-invariant and safe
    against overflow via max subtraction."""
    np.subtract(avg, avg.max(axis=1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)
    return out


def link_probabilities(policies: PolicyTable) -> np.ndarray:
    """Row-wise softmax over average experienced rewards."""
    avg = policies.averages()
    return _softmax_rows(avg, avg)


def _cumulative_policy(policies: PolicyTable, allow_no_link: bool, p: np.ndarray) -> np.ndarray:
    """Each row's cumulative action probabilities under the averages of a
    table of stacked runs, written into p, a work array of the table's
    shape: the averages totals / counts, their row-wise softmax, each row's
    own action masked out and the row renormalized when no link is
    disallowed, then summed along the row."""
    totals, counts = policies.totals, policies.counts
    n = totals.shape[1]
    _softmax_rows(np.divide(totals, counts, out=p), p)
    if not allow_no_link:
        p.reshape(-1, n * n)[:, :: n + 1] = 0.0  # each row's own action
        total = p.sum(axis=1, keepdims=True)
        if not total.all():  # a row whose allowed actions all underflowed
            for row in np.flatnonzero(total == 0.0):  # shifted by its allowed max instead
                masked = np.where(np.arange(n) == row % n, -np.inf, totals[row] / counts[row])
                p[row] = np.exp(masked - masked.max())
                total[row] = p[row].sum()
        p /= total
    return np.add.accumulate(p, axis=1, out=p)  # np.cumsum


def _pick(cum: np.ndarray, u: np.ndarray, allow_no_link: bool, reach: np.ndarray) -> np.ndarray:
    """One action per row of the cumulative table cum (_cumulative_policy),
    the row's own index for no link, for each episode of the uniform draws
    u: (..., R, N) for a table of R stacked runs, in row order. reach is a
    bool work array of shape (..., R*N, N). Returns (..., R*N) actions.

    Each row takes the first action whose cumulative probability exceeds
    its draw, as Generator.choice does, so no action of zero probability is
    taken; draws that rounding leaves at or above every cumulative sum take
    the row's last allowed action."""
    n = cum.shape[1]
    # Cumulative sums of non-negative terms never decrease, so the first
    # action above the draw is the first True.
    np.greater(cum.reshape(-1, n, n), u[..., None], out=reach.reshape(u.shape + (n,)))
    reach[..., -1] = True
    if not allow_no_link:
        reach[..., n - 1 :: n, -2] = True  # device N-1's last action is N-2
    return reach.argmax(axis=-1)


def sample_links(
    policies: PolicyTable,
    rng: np.random.Generator | Sequence[np.random.Generator],
    allow_no_link: bool,
) -> np.ndarray:
    """Sample one incoming-link choice per receiver.

    Returns one transmitter index per table row, -1 for "no link" (a
    receiver sampling itself). A table of R stacked runs takes one generator
    per run, each drawing for its run's N rows in turn. With
    allow_no_link=False the self action is masked out and the row
    renormalized. One uniform draw per receiver picks the first action
    whose cumulative probability exceeds it.
    """
    rows, n = policies.totals.shape
    rngs = [rng] if isinstance(rng, np.random.Generator) else rng
    if len(rngs) * n != rows:
        raise ValueError(f"{rows // n} stacked runs need as many generators, got {len(rngs)}")
    u = np.empty((len(rngs), n))
    for r, g in enumerate(rngs):
        g.random(n, out=u[r])
    cum = _cumulative_policy(policies, allow_no_link, np.empty((rows, n)))
    choice = _pick(cum, u, allow_no_link, np.empty((rows, n), bool))
    return np.where(choice == np.arange(rows) % n, -1, choice)


def diversity_score(counts: np.ndarray, thresholds: np.ndarray, min_classes: int) -> np.ndarray:
    """Number of classes at or above threshold, or 0 below the diversity bar,
    per row of counts.

    Expected-value exchanges leave fractional counts; a data point either
    arrives or not, so counts are rounded to whole points before the
    threshold comparison (integer inputs are unaffected).
    """
    whole = np.floor(np.asarray(counts, dtype=float) + 0.5)
    met = (whole >= np.asarray(thresholds)).sum(axis=-1)
    return np.where(met >= min_classes, met, 0)


def local_reward(
    counts: np.ndarray,
    thresholds: np.ndarray,
    p_drop_chosen: float | np.ndarray,
    cfg: ScenarioConfig,
) -> np.ndarray:
    """Diversity payoff minus the unreliability of the chosen link, per row,
    weighted by cfg's alpha1 and alpha2. cfg may also hold stacked runs'
    keys as (R, 1) columns, which broadcast against (R, N) rows.

    For the no-link action the drop penalty is zero.
    """
    score = diversity_score(counts, thresholds, cfg.diversity_min)
    return cfg.alpha1 * score - cfg.alpha2 * p_drop_chosen


def inter_cluster_load(
    receivers: np.ndarray,
    transmitters: np.ndarray,
    requested: np.ndarray,
    assignment: np.ndarray,
    n_clusters: int,
) -> np.ndarray:
    """Per-cluster total points requested over links crossing into it.

    receivers, transmitters and requested are an exchange ledger: one link
    and its (L,) request row per entry; receivers may be slice(None) for a
    ledger of one row per device, in device order. Requests are whole
    points, so the sums do not depend on the ledger's order. E such ledgers
    of one row per device pass an (E, N) assignment whose cluster ids run
    on from episode to episode, and flat transmitter indices into it.
    """
    cluster = assignment[receivers]
    crossing = assignment.take(transmitters) != cluster
    points = np.where(crossing, requested.sum(axis=-1), 0.0)
    # The bincount of an empty ledger is of integers, even with weights.
    loads = np.bincount(cluster.ravel(), weights=points.ravel(), minlength=n_clusters)
    return loads.astype(float, copy=False)


def global_reward(
    local_rewards: np.ndarray,
    cluster_load: np.ndarray,
    cfg: ScenarioConfig,
) -> np.ndarray:
    """Mean local reward plus the budget slack cfg.cluster_budget - load
    weighted by cfg.alpha3, one value per cluster. A leading run axis is
    kept: (R, N) rewards, (R, K) loads and (R, 1) keys give (R, K)."""
    mean = local_rewards.sum(axis=-1, keepdims=True) / local_rewards.shape[-1]
    return mean + cfg.alpha3 * (cfg.cluster_budget - cluster_load)


def link_success(drop: np.ndarray, links: np.ndarray) -> float | np.ndarray:
    """Mean success probability 1 - drop over the chosen links, in receiver
    order (1.0 if there are none); one value per row of a 2-D links."""
    rows = np.atleast_2d(links)
    linked = rows >= 0
    success = 1.0 - drop[np.arange(rows.shape[1]), np.where(linked, rows, 0)]
    out = np.ones(len(rows))
    full = linked.all(axis=1)
    out[full] = success[full].mean(axis=1)
    for e in np.flatnonzero(linked.any(axis=1) & ~full):
        out[e] = success[e, linked[e]].mean()
    return float(out[0]) if np.ndim(links) == 1 else out


def update_policy(policies: PolicyTable, cells: np.ndarray, rewards: np.ndarray) -> None:
    """Credit each reward to its chosen cell, row * N + action of the
    table's flat (C-order) arrays: the total there adds the reward and the
    count goes up by one. cells and rewards are one entry per row, or
    (E, rows) for E episodes, credited in episode order, so a cell that
    several episodes chose sums their rewards as E one-episode updates
    would."""
    totals, counts = policies.totals.reshape(-1), policies.counts.reshape(-1)
    cells = np.ravel(cells)  # np.add.at takes a slower path for 2-D operands
    np.add.at(totals, cells, np.ravel(rewards))
    np.add.at(counts, cells, 1)


def _stacked(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Per-run arrays concatenated run-major; a single run's array itself."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


@dataclass
class _Batch:
    """R runs' scenarios stacked run-major for scoring: row r*N + i is
    device i of run r. Clusters are padded to the largest run's K, so
    cluster c of run r has the flat id r*K + c. Drop matrices and
    trust tensors are stacked run-major and flattened, so that one index
    gathers every row's link: drop_r[i, j] is drop[(r*N + i)*N + j] and
    trust_r[j, i] is trust[(r*N + j)*N + i]. For a single run both are
    views of the scenario's arrays."""

    counts: np.ndarray  # (R*N, L) float class distributions
    surplus: np.ndarray  # (R*N, L)
    deficit: np.ndarray  # (R*N, L)
    thresholds: np.ndarray  # (R, N, L) float, so comparisons with counts need no cast
    drop: np.ndarray  # (R*N*N,)
    trust: np.ndarray  # (R*N*N, L)
    own: np.ndarray  # (R*N,) device index within its run
    run_start: np.ndarray  # (R*N,) row of device 0 of the row's run
    drop_rows: np.ndarray  # (R*N,) flat index of each row's first drop and policy-table entry
    cells: np.ndarray  # (R*N, L) each row's _cells, taken by transmitter
    cluster: np.ndarray  # (R*N,) flat cluster id
    k: int  # clusters per run, padded
    rewards: SimpleNamespace  # each [rewards] key of the runs' configs as an (R, 1) column

    @classmethod
    def stack(cls, scenarios: Sequence["Scenario"]) -> "_Batch":
        runs, n = len(scenarios), scenarios[0].n_devices
        k = max(s.partition.k for s in scenarios)
        counts = np.concatenate([s.counts for s in scenarios]).astype(float)
        thresholds = np.concatenate([s.thresholds for s in scenarios]).astype(float)
        assignment = np.stack([s.partition.assignment for s in scenarios])
        surplus, deficit = class_margins(counts, thresholds)
        return cls(
            counts=counts,
            surplus=surplus,
            deficit=deficit,
            thresholds=thresholds.reshape(runs, n, -1),
            drop=_stacked([s.drop for s in scenarios]).reshape(-1),
            trust=_stacked([s.trust for s in scenarios]).reshape(-1, counts.shape[1]),
            own=np.tile(np.arange(n), runs),
            run_start=np.repeat(n * np.arange(runs), n),
            drop_rows=n * np.arange(runs * n),
            cells=_cells(np.arange(runs * n), counts.shape[1]).reshape(runs * n, -1),
            cluster=(assignment + k * np.arange(runs)[:, None]).ravel(),
            k=k,
            rewards=SimpleNamespace(
                **{
                    key: np.array([[getattr(s.config, key)] for s in scenarios])
                    for key in _SECTIONS["rewards"]
                }
            ),
        )

    def score(self, actions: np.ndarray) -> tuple[np.ndarray, ...]:
        """Expected-value exchanges and rewards of E episodes side by side,
        one action per row each: actions is (E, R*N), the transmitter's
        index within its run, the row's own index for no link. Returns the
        overall and local rewards (E, R, N), global rewards (E, R, K) and
        inter-cluster load (E, R, K).

        Every row is a ledger entry, in receiver order. A no-link row needs
        no mask: no class has both a surplus and a deficit, so its request
        is zero whatever the device's trust in itself, and its drop penalty
        is set to zero. The episodes index the static arrays and copy none:
        episode e's (device, class) cells and cluster ids are numbered
        after those of episodes 0..e-1, so its sums stay its own."""
        episodes, rows = actions.shape
        runs, n, n_classes = self.thresholds.shape
        ep = np.arange(episodes)[:, None]  # numbers each episode's cells and clusters
        rx = slice(None)  # every row is its own receiver, in order
        tx = self.run_start + actions
        p_drop = np.where(actions == self.own, 0.0, self.drop.take(self.drop_rows + actions))
        trusted = self.trust.take(tx * n + self.own, axis=0)
        available = available_vector(self.surplus.take(tx, axis=0), trusted)
        requested = requirement_vector(available, self.deficit)
        cells = (self.cells.take(tx, axis=0) + (rows * n_classes * ep)[..., None]).ravel()
        buffered = transmission_buffers(requested, tx, self.surplus, cells)
        delivered = deliver(buffered, p_drop)
        updated = apply_transfers(self.counts, rx, tx, buffered, delivered, cells)
        locals_ = local_reward(
            updated.reshape(episodes, runs, n, n_classes),
            self.thresholds,
            p_drop.reshape(episodes, runs, n),
            self.rewards,
        )
        cluster = self.cluster + runs * self.k * ep
        load = inter_cluster_load(rx, tx + rows * ep, requested, cluster, episodes * runs * self.k)
        load = load.reshape(episodes, runs, self.k)
        globals_ = global_reward(locals_, load, self.rewards)
        overall = locals_ + self.rewards.gamma * globals_.take(cluster).reshape(locals_.shape)
        return overall, locals_, globals_, load


def run_episode(scenario: "Scenario", links: np.ndarray) -> EpisodeOutcome:
    """Score one link assignment with an expected-value exchange on a scratch
    copy of the class distributions, as a training episode does."""
    checked = check_links(links, scenario.n_devices)
    actions = np.where(checked >= 0, checked, np.arange(len(checked)))
    overall, locals_, globals_, load = _Batch.stack([scenario]).score(actions[None])
    return EpisodeOutcome(
        links=links,
        local_rewards=locals_[0, 0],
        global_rewards=globals_[0, 0],
        overall_rewards=overall[0, 0],
        cluster_load=load[0, 0],
        link_success=link_success(scenario.drop, checked),
    )


def train_runs(
    scenarios: Sequence["Scenario"], rngs: Sequence[np.random.Generator]
) -> list[TrainResult]:
    """Train R independent runs together: one scenario and generator per
    run, their configs equal on BATCH_KEY. Each run's result is
    bit-identical to training it alone; see the module docstring."""
    check_batch([s.config for s in scenarios], BATCH_KEY)
    cfg = scenarios[0].config
    batch = _Batch.stack(scenarios)
    runs, n = batch.thresholds.shape[:2]
    rows = runs * n
    policies = PolicyTable.fresh(n, runs)
    cum = np.empty((rows, n))  # the feedback batch's cumulative policy
    episodes = cfg.episodes
    links = np.empty((runs, episodes, n), dtype=np.int64)
    mean_reward = np.empty((runs, episodes))
    success = np.empty((runs, episodes))
    cluster_load = np.empty((runs, episodes, batch.k))
    piece = min(FEEDBACK_EPISODES, episodes, max(1, DRAW_CELLS // (rows * n)))
    draws = np.empty((runs, piece, n))
    reach = np.empty((piece, rows, n), bool)  # the sampler's work array
    for start in range(0, episodes, FEEDBACK_EPISODES):
        stop = min(start + FEEDBACK_EPISODES, episodes)
        _cumulative_policy(policies, cfg.allow_no_link, cum)
        for lo in range(start, stop, piece):
            q = min(piece, stop - lo)
            for r, g in enumerate(rngs):
                g.random((q, n), out=draws[r, :q])
            actions = _pick(cum, draws[:, :q].swapaxes(0, 1), cfg.allow_no_link, reach[:q])
            overall, _, _, load = batch.score(actions)
            # The table is read again only by the next batch's sampler.
            update_policy(policies, batch.drop_rows + actions, overall)
            links[:, lo : lo + q] = actions.reshape(q, runs, n).swapaxes(0, 1)
            mean_reward[:, lo : lo + q] = overall.sum(axis=2).T  # divided by n after the loop
            cluster_load[:, lo : lo + q] = load.swapaxes(0, 1)
    mean_reward /= n
    # The actions as links, a row's own action meaning none, in slices of
    # DRAW_CELLS link entries that bound link_success's work arrays.
    span = max(1, DRAW_CELLS // rows)
    for lo in range(0, episodes, span):
        done = links[:, lo : lo + span]
        done[done == batch.own[:n]] = -1
        for r, scenario in enumerate(scenarios):
            success[r, lo : lo + span] = link_success(scenario.drop, done[r])
    results = []
    for i, scenario in enumerate(scenarios):
        block = slice(i * n, (i + 1) * n)
        results.append(
            TrainResult(
                policies=PolicyTable(policies.totals[block], policies.counts[block]),
                links=links[i],
                mean_reward=mean_reward[i],
                link_success=success[i],
                cluster_load=cluster_load[i, :, : scenario.partition.k].copy(),
            )
        )
    return results


def train(scenario: "Scenario", rng: np.random.Generator) -> TrainResult:
    """Run the full policy-training loop for one run, for the episodes of
    its scenario's config.

    Each episode samples links from the policies as they stood at the
    start of its feedback batch (FEEDBACK_EPISODES), scores them, and
    credits every device's row at its chosen action (the self index for
    the no-link action). Distributions reset every episode: training probes
    counterfactual exchanges, real data moves only after graph extraction.
    """
    return train_runs([scenario], [rng])[0]


def extract_graph(policies: PolicyTable, allow_no_link: bool) -> np.ndarray:
    """Greedy readout as an (N,) transmitter array: per receiver the
    argmax-average transmitter, ties to the lowest index; the self action
    reads as no link (-1)."""
    avg = policies.averages()
    if not allow_no_link:
        np.fill_diagonal(avg, -np.inf)
    best = avg.argmax(axis=1)
    own = np.arange(len(best))
    return np.where(best == own, -1, best)
