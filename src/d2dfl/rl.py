"""Decentralized multi-agent Q-learning over link choices.

Every device is an agent whose Boltzmann (softmax) policy over incoming-link
choices comes from running reward totals and pull counts per candidate
transmitter. A run's agents share one policy table: two (N, N) arrays whose
row i belongs to receiver i. A device may also pick itself, which means "no
incoming link". Training repeats: sample links, run an expected-value
exchange on a scratch copy of the class distributions, score local and
global rewards, and credit each device's chosen action. Each step acts on
all devices at once. The training loop keeps the averages totals / counts
and the sampler's work arrays for the run, and divides again only the
cells an episode credits. The reward keys (the config's [rewards]
section), the episode count and the no-link rule come from the
ScenarioConfig each scenario carries.

Independent runs whose configs agree on BATCH_KEY (n_devices, n_classes,
episodes, allow_no_link) train together (train_runs): their tables stack
run-major as one (R*N, N) table, and one exchange is scored on the
block-diagonal graph of all R runs, each run's reward keys as (R, 1)
columns. Each run draws its uniforms for a chunk of episodes (DRAW_CELLS)
with one call on its own generator, the stream of one call per episode. The
loop carries one action per row, the row's own index for no link; the
scorer treats every row as a link, a no-link row offering nothing, and a
chunk's actions turn into links (-1 for none) after its last episode. Every
sum in that exchange adds integers or grid-floored buffers, which is exact
in any order, and every per-run mean reduces one contiguous row, so each
run's trace is bit-identical to training it alone. The exchange stages are
exchange.py's own functions.
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
# the stacked tables a batch holds (policy totals, counts and averages, the
# sampler's work arrays, and the drop matrices and trust tensors of a
# batch of two or more runs); larger batches save little per-call time. It
# caps the summed N*N of an FL batch too (experiment.batches), which holds
# its runs' scenarios, with their O(N*N) drop and trust arrays, until its
# last run is exchanged.
BATCH_CELLS = 2**20
# The config keys the runs of one training batch share: the stacked tables
# need one device and class count, and one loop trains every run for the
# same episodes under the same no-link rule.
BATCH_KEY = ("n_devices", "n_classes", "episodes", "allow_no_link")
# Cap on the uniform draws R*m*N of the m episodes that train_runs handles
# as one chunk: each run draws them with one Generator.random((m, N))
# call, the stream of m per-episode calls. 16k cells is 128 kB: 546
# episodes of three N=10 runs, 16 of one N=1000 run.
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
class TrainResult:
    """Trained policies and the per-episode trace, one row per episode."""

    policies: PolicyTable
    links: np.ndarray  # (E, N) transmitter per receiver, -1 for none
    mean_reward: np.ndarray  # (E,) mean overall reward
    link_success: np.ndarray  # (E,)
    cluster_load: np.ndarray  # (E, K)


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


def _sample_actions(
    avg: np.ndarray, u: np.ndarray, allow_no_link: bool, p: np.ndarray, reach: np.ndarray
) -> np.ndarray:
    """One action per row of the averages avg, the row's own index for no
    link, from the uniform draws u: (R, N) for a table of R stacked runs, in
    row order. p (float) and reach (bool) are work arrays of avg's shape.

    Each row takes the first action whose cumulative probability exceeds
    its draw, as Generator.choice does, so no action of zero probability is
    taken; draws that rounding leaves at or above every cumulative sum take
    the row's last allowed action."""
    runs, n = u.shape
    _softmax_rows(avg, p)
    if not allow_no_link:
        p.reshape(runs, n * n)[:, :: n + 1] = 0.0  # each row's own action
        p /= p.sum(axis=1, keepdims=True)
    np.add.accumulate(p, axis=1, out=p)  # np.cumsum
    # Cumulative sums of non-negative terms never decrease, so the first
    # action above the draw is the first True.
    np.greater(p.reshape(runs, n, -1), u[:, :, None], out=reach.reshape(runs, n, -1))
    reach[:, -1] = True
    if not allow_no_link:
        reach[n - 1 :: n, -2] = True  # device N-1's last action is N-2
    return reach.argmax(axis=1)


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
    avg = policies.averages()  # a new array, so it is its own work array
    choice = _sample_actions(avg, u, allow_no_link, avg, np.empty(avg.shape, bool))
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
    points, so the sums do not depend on the ledger's order.
    """
    cluster = assignment[receivers]
    crossing = assignment.take(transmitters) != cluster
    points = np.where(crossing, requested.sum(axis=1), 0.0)
    # The bincount of an empty ledger is of integers, even with weights.
    return np.bincount(cluster, weights=points, minlength=n_clusters).astype(float, copy=False)


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


def update_policy(
    policies: PolicyTable, chosen: np.ndarray, rewards: np.ndarray, avg: np.ndarray | None = None
) -> None:
    """Credit every agent's chosen action: row i adds rewards[i] to its
    total at column chosen[i] and bumps that count. avg, averages a caller
    keeps, is divided again at those cells only, which gives the same IEEE
    values as dividing the whole table."""
    rows, n = policies.totals.shape
    cells = np.arange(0, rows * n, n) + chosen
    totals = policies.totals.take(cells) + rewards
    counts = policies.counts.take(cells) + 1
    policies.totals.put(cells, totals)
    policies.counts.put(cells, counts)
    if avg is not None:
        avg.put(cells, totals / counts)


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
    drop_rows: np.ndarray  # (R*N,) flat index of each row's first drop entry
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
        """Expected-value exchange and rewards of one action per row (the
        transmitter's index within its run, the row's own index for no
        link). Returns the overall and local rewards (R, N), global rewards
        (R, K) and inter-cluster load (R, K).

        Every row is a ledger entry, in receiver order. A no-link row needs
        no mask: no class has both a surplus and a deficit, so its request
        is zero whatever the device's trust in itself, and its drop penalty
        is set to zero."""
        runs, n = self.thresholds.shape[:2]
        rx = slice(None)  # every row is its own receiver, in order
        tx = self.run_start + actions
        p_drop = np.where(actions == self.own, 0.0, self.drop.take(self.drop_rows + actions))
        trusted = self.trust.take(tx * n + self.own, axis=0)
        available = available_vector(self.surplus.take(tx, axis=0), trusted)
        requested = requirement_vector(available, self.deficit)
        cells = self.cells.take(tx, axis=0).ravel()
        buffered = transmission_buffers(requested, tx, self.surplus, cells)
        delivered = deliver(buffered, p_drop)
        updated = apply_transfers(self.counts, rx, tx, buffered, delivered, cells)
        locals_ = local_reward(
            updated.reshape(self.thresholds.shape),
            self.thresholds,
            p_drop.reshape(runs, n),
            self.rewards,
        )
        load = inter_cluster_load(rx, tx, requested, self.cluster, runs * self.k)
        load = load.reshape(runs, self.k)
        globals_ = global_reward(locals_, load, self.rewards)
        overall = locals_ + self.rewards.gamma * globals_.take(self.cluster).reshape(runs, n)
        return overall, locals_, globals_, load


def run_episode(scenario: "Scenario", links: np.ndarray) -> EpisodeOutcome:
    """Score one link assignment with an expected-value exchange on a scratch
    copy of the class distributions, as a training episode does."""
    checked = check_links(links, scenario.n_devices)
    actions = np.where(checked >= 0, checked, np.arange(len(checked)))
    overall, locals_, globals_, load = _Batch.stack([scenario]).score(actions)
    return EpisodeOutcome(
        links=links,
        local_rewards=locals_[0],
        global_rewards=globals_[0],
        overall_rewards=overall[0],
        cluster_load=load[0],
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
    policies = PolicyTable.fresh(n, runs)
    avg = policies.averages()  # kept current by update_policy
    p, reach = np.empty(avg.shape), np.empty(avg.shape, bool)  # the sampler's work arrays
    episodes = cfg.episodes
    links = np.empty((runs, episodes, n), dtype=np.int64)
    mean_reward = np.empty((runs, episodes))
    success = np.empty((runs, episodes))
    cluster_load = np.empty((runs, episodes, batch.k))
    chunk = min(episodes, max(1, DRAW_CELLS // (runs * n)))
    draws = np.empty((runs, chunk, n))
    for start in range(0, episodes, chunk):
        m = min(chunk, episodes - start)
        for r, g in enumerate(rngs):
            g.random((m, n), out=draws[r, :m])
        for j in range(m):
            actions = _sample_actions(avg, draws[:, j], cfg.allow_no_link, p, reach)
            overall, _, _, load = batch.score(actions)
            update_policy(policies, actions, overall.ravel(), avg)
            ep = start + j
            links[:, ep] = actions.reshape(runs, n)
            overall.sum(axis=1, out=mean_reward[:, ep])  # divided by n after the loop
            cluster_load[:, ep] = load
        # The chunk's actions as links, a row's own action meaning none; the
        # work arrays of both steps stay within the chunk.
        done = links[:, start : start + m]
        done[done == batch.own[:n]] = -1
        for r, scenario in enumerate(scenarios):
            success[r, start : start + m] = link_success(scenario.drop, done[r])
    mean_reward /= n
    results = []
    for i, scenario in enumerate(scenarios):
        rows = slice(i * n, (i + 1) * n)
        results.append(
            TrainResult(
                policies=PolicyTable(policies.totals[rows], policies.counts[rows]),
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

    Each episode samples links from the current policies, scores them, and
    updates every device's row at its chosen action (the self index for
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
