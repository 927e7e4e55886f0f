import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_scenario, peak_units
from d2dfl import rl
from d2dfl.config import ScenarioConfig, with_overrides
from d2dfl.exchange import EXPECTED, run_exchange
from d2dfl.rl import (
    BATCH_KEY,
    PolicyTable,
    diversity_score,
    extract_graph,
    global_reward,
    inter_cluster_load,
    local_reward,
    run_episode,
    sample_links,
    train,
    train_runs,
    update_policy,
)
from d2dfl.scenario import generate_scenario, named_rng


def config(**keys) -> ScenarioConfig:
    """The default config with keys overridden, validated."""
    return with_overrides(ScenarioConfig(), **keys)


def one_agent(n_actions: int) -> PolicyTable:
    """A policy table with a single row: one agent over n_actions arms."""
    return PolicyTable(
        totals=np.zeros((1, n_actions)), counts=np.ones((1, n_actions), dtype=np.int64)
    )


def softmax_of_averages(table: PolicyTable) -> np.ndarray:
    """Each row's softmax of its average rewards, totals / counts: the
    link probabilities of the table's policy."""
    avg = table.totals / table.counts
    e = np.exp(avg - avg.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class TestLinkProbabilities:
    """The link probabilities the sampler draws from with no link allowed:
    the steps of its cumulative table."""

    @staticmethod
    def link_probabilities(table: PolicyTable) -> np.ndarray:
        cum = rl._cumulative_policy(table, True, np.empty(table.totals.shape))
        return np.diff(cum, axis=1, prepend=0.0)

    def test_fresh_buffer_is_uniform(self):
        p = self.link_probabilities(PolicyTable.fresh(5))
        assert np.allclose(p, np.full((5, 5), 0.2))

    def test_two_arm_softmax_value(self):
        table = PolicyTable.fresh(2)
        table.totals[0] = [1.0, 0.0]  # counts stay 1 -> averages [1, 0]
        p = self.link_probabilities(table)[0]
        e = np.e
        assert p[0] == pytest.approx(e / (e + 1), rel=1e-12)
        assert p[1] == pytest.approx(1 / (e + 1), rel=1e-12)

    def test_shift_invariance(self):
        table = PolicyTable.fresh(4)
        table.totals[0] = [0.3, -1.2, 2.0, 0.0]
        p1 = self.link_probabilities(table)
        table.totals += 7.5  # counts are 1, so every row's averages shift by 7.5
        p2 = self.link_probabilities(table)
        assert np.allclose(p1, p2, atol=1e-12)

    def test_sums_to_one_with_huge_averages(self):
        table = PolicyTable.fresh(3)
        table.totals[0] = [1e4, 0.0, -1e4]
        p = self.link_probabilities(table)
        assert np.isfinite(p).all()
        assert np.allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)


class _FixedDraws:
    """A generator stand-in whose every uniform draw is one value."""

    def __init__(self, value: float):
        self.value = value

    def random(self, size, out):
        out[:] = self.value
        return out


TOP_DRAW = np.nextafter(1.0, 0.0)  # the largest uniform draw


class TestSampleLinks:
    def test_point_mass_always_selected(self):
        table = PolicyTable.fresh(3)
        table.totals[0] = [0.0, 1e3, 0.0]
        rng = np.random.default_rng(0)
        for _ in range(50):
            links = sample_links(table, rng, allow_no_link=True)
            assert links[0] == 1

    def test_self_sample_means_no_link(self):
        table = PolicyTable.fresh(2)
        table.totals[0] = [1e3, 0.0]
        links = sample_links(table, np.random.default_rng(1), allow_no_link=True)
        assert links[0] == -1

    def test_deterministic_per_seed(self):
        table = PolicyTable.fresh(4)
        a = sample_links(table, np.random.default_rng(7), allow_no_link=True)
        b = sample_links(table, np.random.default_rng(7), allow_no_link=True)
        assert np.array_equal(a, b)

    def test_empirical_frequencies(self):
        table = PolicyTable.fresh(3)
        table.totals[0] = [0.0, 1.0, 2.0]
        target = softmax_of_averages(table)[0]
        rng = np.random.default_rng(11)
        n = 100_000
        hits = np.zeros(3)
        for _ in range(n):
            links = sample_links(table, rng, allow_no_link=True)
            chosen = links[0] if links[0] >= 0 else 0
            hits[chosen] += 1
        assert np.allclose(hits / n, target, atol=0.01)

    def test_no_link_disallowed(self):
        table = PolicyTable.fresh(2)
        rng = np.random.default_rng(3)
        for _ in range(100):
            links = sample_links(table, rng, allow_no_link=False)
            assert links[0] == 1
            assert links[1] == 0

    @pytest.mark.parametrize("allow_no_link", [True, False])
    def test_matches_per_row_searchsorted(self, allow_no_link):
        # Reference: the per-receiver loop, one searchsorted per row on the
        # same uniform draws, clamped to the last allowed action.
        rng = np.random.default_rng(31)
        for n in (2, 3, 7, 10, 33):
            table = PolicyTable(
                totals=rng.normal(0.0, 3.0, size=(n, n)),
                counts=rng.integers(1, 9, size=(n, n)),
            )
            seed = int(rng.integers(0, 2**31))
            u = np.random.default_rng(seed).random(n)
            expect = np.empty(n, dtype=np.int64)
            for i in range(n):
                avg = table.totals[i] / table.counts[i]
                p = np.exp(avg - avg.max())
                p = p / p.sum()
                if not allow_no_link:
                    p[i] = 0.0
                    p = p / p.sum()
                last = n - 1 if allow_no_link or i < n - 1 else n - 2
                choice = min(int(np.searchsorted(np.cumsum(p), u[i], side="right")), last)
                expect[i] = -1 if choice == i else choice
            got = sample_links(table, np.random.default_rng(seed), allow_no_link=allow_no_link)
            assert np.array_equal(got, expect)

    def test_draw_above_every_cumulative_sum_takes_last_action(self):
        # Seven uniform probabilities add up to 0.9999999999999998, below
        # the draw: every receiver takes the last action, device 6 itself.
        table = PolicyTable.fresh(7)
        assert np.cumsum(softmax_of_averages(table)[0])[-1] < TOP_DRAW
        links = sample_links(table, [_FixedDraws(TOP_DRAW)], allow_no_link=True)
        assert links.tolist() == [6, 6, 6, 6, 6, 6, -1]

    def test_zero_draw_skips_masked_self(self):
        # Device 0's masked own action has cumulative probability 0.0, which
        # a draw of exactly 0.0 reaches but does not exceed.
        links = sample_links(PolicyTable.fresh(4), [_FixedDraws(0.0)], allow_no_link=False)
        assert links.tolist() == [1, 0, 0, 0]

    def test_top_draw_takes_last_allowed_action(self):
        # The second N(0, 3^2) table of default_rng(1): device 6's masked
        # row adds up to below the draw, so the fallback applies, and it
        # must not fall on device 6's masked own action.
        rng = np.random.default_rng(1)
        for _ in range(2):
            table = PolicyTable(rng.normal(0.0, 3.0, (7, 7)), np.ones((7, 7), dtype=np.int64))
        p = softmax_of_averages(table)[6]
        p[6] = 0.0
        assert np.cumsum(p / p.sum())[-1] < TOP_DRAW
        links = sample_links(table, [_FixedDraws(TOP_DRAW)], allow_no_link=False)
        assert links.tolist() == [6, 6, 6, 6, 6, 6, 5]

    def test_underflowed_masked_row_samples_allowed_actions(self):
        # Row 0's own average leads its allowed ones by more than ~745, so
        # its masked softmax sums to exactly 0. Shifted by its allowed
        # maximum it is (0, 1, e^-1) / (1 + e^-1): a draw of 0.5 takes
        # action 1, one of 0.9 action 2. Rows 1 and 2 follow the plain rule.
        avg = np.array([[0.0, -1000.0, -1001.0], [0.3, 0.0, -0.4], [1.0, 2.0, 0.0]])
        table = PolicyTable(avg, np.ones((3, 3), np.int64))  # counts of one: averages are avg
        for draw, first in ((0.5, 1), (0.9, 2)):
            u = np.full((1, 3), draw)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cum = rl._cumulative_policy(table, False, np.empty((3, 3)))
                got = rl._pick(cum, u, False, np.empty((3, 3), bool))
            expect = [first]
            for i in (1, 2):
                p = np.exp(avg[i] - avg[i].max())
                p[i] = 0.0
                expect.append(int(np.searchsorted(np.cumsum(p / p.sum()), draw, side="right")))
            assert got.tolist() == expect

    def test_generator_count_must_match_runs(self):
        with pytest.raises(ValueError, match="generators"):
            sample_links(
                PolicyTable.fresh(3, runs=2), [np.random.default_rng(0)], allow_no_link=True
            )


class TestTableState:
    """A policy is its table's totals and counts alone: update_policy is
    the one writer, and no reader writes to a table."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 40), st.integers(0, 2**32 - 1))
    def test_readers_leave_table_unwritten(self, n, updates, seed):
        rng = np.random.default_rng(seed)
        table = PolicyTable(rng.normal(0.0, 3.0, (n, n)), rng.integers(1, 9, (n, n)))
        for _ in range(updates):
            cells = np.arange(n) * n + rng.integers(0, n, n)
            update_policy(table, cells, rng.normal(0.0, 5.0, n))
        totals, counts = table.totals.copy(), table.counts.copy()
        sample_links(table, rng, allow_no_link=False)
        sample_links(table, rng, allow_no_link=True)
        extract_graph(table, allow_no_link=False)
        extract_graph(table, allow_no_link=True)
        assert np.array_equal(table.totals, totals)
        assert np.array_equal(table.counts, counts)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_chunk_equals_its_rows_one_update_at_a_time(self, n, episodes, seed):
        # Few actions, so a chunk credits the same cell in many episodes.
        rng = np.random.default_rng(seed)
        table = PolicyTable(rng.normal(0.0, 3.0, (n, n)), rng.integers(1, 9, (n, n)))
        one = PolicyTable(table.totals.copy(), table.counts.copy())
        cells = np.arange(n) * n + rng.integers(0, min(n, 2), (episodes, n))
        rewards = rng.normal(0.0, 5.0, (episodes, n))
        update_policy(table, cells, rewards)
        for e in range(episodes):
            update_policy(one, cells[e], rewards[e])
        assert np.array_equal(table.totals, one.totals)
        assert np.array_equal(table.counts, one.counts)

    def test_unsampled_table_divides_on_each_read(self):
        table = PolicyTable(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[1, 2], [3, 8]]))
        assert table.averages().tolist() == [[1.0, 1.0], [1.0, 0.5]]
        table.totals[1, 1] = 8.0
        assert table.averages()[1, 1] == 1.0


class TestRewards:
    def test_diversity_below_bar_scores_zero(self):
        assert diversity_score(np.array([1, 1, 1]), np.array([5, 5, 5]), 1) == 0

    def test_diversity_full(self):
        assert diversity_score(np.array([9, 9]), np.array([5, 5]), 2) == 2

    def test_diversity_count(self):
        assert diversity_score(np.array([12, 3, 8]), np.array([10, 5, 5]), 2) == 2

    def test_local_reward_value(self):
        w = config(alpha1=1.0, alpha2=1.0, diversity_min=0)
        counts = np.array([9, 9, 9, 9])
        thresholds = np.array([1, 1, 1, 1])
        assert local_reward(counts, thresholds, 0.5, w) == pytest.approx(3.5)

    def test_local_reward_perfect_channel(self):
        w = config(alpha1=2.0, alpha2=5.0, diversity_min=0)
        assert local_reward(np.array([9]), np.array([1]), 0.0, w) == pytest.approx(2.0)

    def test_local_reward_zeroed_score(self):
        w = config(alpha1=1.0, alpha2=1.0, diversity_min=3)
        assert local_reward(np.array([9, 0, 0]), np.array([1, 1, 1]), 0.25, w) == pytest.approx(
            -0.25
        )

    def test_inter_cluster_load(self):
        # Ledger: links 1 -> 0 and 0 -> 2, with their request rows.
        receivers, transmitters = np.array([0, 2]), np.array([1, 0])
        req = np.array([[3, 0, 4], [1, 1, 1]])
        assignment = np.array([0, 1, 1])
        load = inter_cluster_load(receivers, transmitters, req, assignment, 2)
        # Link 1 -> 0 crosses into cluster 0 (7 points requested);
        # link 0 -> 2 crosses into cluster 1 (3 points).
        assert load.tolist() == [7.0, 3.0]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_inter_cluster_load_equals_loop(self, n, k, seed):
        # A ledger of one row per device in order (receivers slice(None)),
        # including self rows, against a per-link sum.
        rng = np.random.default_rng(seed)
        assignment = rng.integers(0, k, n)
        transmitters = rng.integers(0, n, n)
        req = rng.integers(0, 9, (n, 3)).astype(float)
        expect = np.zeros(k)
        for rx, tx in enumerate(transmitters):
            if assignment[tx] != assignment[rx]:
                expect[assignment[rx]] += req[rx].sum()
        for receivers in (np.arange(n), slice(None)):
            load = inter_cluster_load(receivers, transmitters, req, assignment, k)
            assert np.array_equal(load, expect)

    def test_no_cross_links_zero(self):
        req = np.array([[5], [5]])
        load = inter_cluster_load(np.array([0, 1]), np.array([1, 0]), req, np.array([0, 0]), 1)
        assert load.tolist() == [0.0]

    def test_empty_ledger_floats(self):
        # The none baseline's ledger: bincount alone would give int64 zeros.
        empty = np.empty(0, dtype=np.int64)
        load = inter_cluster_load(empty, empty, np.empty((0, 8)), np.zeros(4, np.int64), 2)
        assert load.dtype == np.float64
        assert load.tolist() == [0.0, 0.0]

    def test_global_reward_value(self):
        w = config(alpha3=0.1, cluster_budget=10.0)
        out = global_reward(np.array([2.0, 4.0]), np.array([4.0]), w)
        assert out[0] == pytest.approx(3.6)

    def test_budget_exactly_met(self):
        w = config(alpha3=0.7, cluster_budget=5.0)
        out = global_reward(np.array([1.0]), np.array([5.0]), w)
        assert out[0] == pytest.approx(1.0)


class TestUpdatePolicy:
    def test_single_update_average(self):
        table = one_agent(3)
        update_policy(table, np.array([1]), np.array([2.0]))
        assert table.averages()[0, 1] == pytest.approx(1.0)
        assert table.counts[0].tolist() == [1, 2, 1]

    def test_two_updates_running_average(self):
        table = one_agent(2)
        update_policy(table, np.array([0]), np.array([1.0]))
        update_policy(table, np.array([0]), np.array([3.0]))
        assert table.averages()[0, 0] == pytest.approx(4.0 / 3.0)

    def test_touches_single_cell(self):
        # One update touches exactly one cell per agent: its chosen action.
        table = PolicyTable.fresh(4)
        before_t = table.totals.copy()
        before_c = table.counts.copy()
        chosen = np.array([2, 0, 3, 3])
        update_policy(table, np.arange(4) * 4 + chosen, np.array([5.0, 1.0, 2.0, 3.0]))
        delta_t = table.totals - before_t
        delta_c = table.counts - before_c
        assert np.array_equal(np.argwhere(delta_t), [[0, 2], [1, 0], [2, 3], [3, 3]])
        assert delta_t[np.arange(4), chosen].tolist() == [5.0, 1.0, 2.0, 3.0]
        assert np.array_equal(np.argwhere(delta_c), np.argwhere(delta_t))
        assert delta_c.sum() == 4

    def test_probability_increases_after_good_reward(self):
        table = one_agent(3)
        table.totals[0] = [0.5, 0.5, 0.5]
        before = softmax_of_averages(table)[0, 2]
        update_policy(table, np.array([2]), np.array([4.0]))  # well above the prior average 0.5
        assert softmax_of_averages(table)[0, 2] > before


def dominance_scenario(**keys):
    """Receiver 0's best action is strictly dominant: device 1 offers full
    diversity over a clean channel, device 2 a useless trickle over a bad one.
    Trained with no link allowed and the given config keys."""
    counts = np.array([[40, 0], [40, 40], [40, 12]], dtype=np.int64)
    thresholds = np.full((3, 2), 10, dtype=np.int64)
    drop = np.array(
        [
            [0.0, 0.01, 0.9],
            [0.01, 0.0, 0.01],
            [0.9, 0.01, 0.0],
        ]
    )
    cfg = config(**{"allow_no_link": True, **keys})
    return make_scenario(counts, thresholds, drop=drop, config=cfg)


def expected_mean_reward(scenario, policies) -> float:
    """Exact expectation of an episode's mean overall reward when every
    device samples its link from its policy, over all joint link choices."""
    n = scenario.counts.shape[0]
    probs = softmax_of_averages(policies)
    total = 0.0
    for combo in itertools.product(range(n), repeat=n):
        links = np.array([-1 if combo[i] == i else combo[i] for i in range(n)])
        p = np.prod([probs[i][combo[i]] for i in range(n)])
        total += p * run_episode(scenario, links).overall_rewards.mean()
    return float(total)


class TestTraining:
    def test_zero_weights_keep_policies_uniform(self):
        scenario = dominance_scenario(alpha1=0.0, alpha2=0.0, alpha3=0.0, gamma=0.0, episodes=200)
        result = train(scenario, np.random.default_rng(5))
        assert np.allclose(softmax_of_averages(result.policies), 1.0 / 3.0)
        assert np.allclose(result.mean_reward, 0.0)

    def test_dominant_link_learned(self):
        scenario = dominance_scenario(
            alpha1=2.0, alpha2=2.0, alpha3=0.0, gamma=0.0, diversity_min=2, episodes=2000
        )
        result = train(scenario, np.random.default_rng(9))
        p = softmax_of_averages(result.policies)[0]
        assert p[1] > 0.9
        assert extract_graph(result.policies, allow_no_link=True)[0] == 1

    def test_counts_increase_once_per_episode(self):
        scenario = dominance_scenario(
            alpha1=1.0, alpha2=1.0, alpha3=0.0, gamma=0.5, diversity_min=0, episodes=50
        )
        result = train(scenario, np.random.default_rng(1))
        assert result.policies.counts.sum(axis=1).tolist() == [3 + 50] * 3

    def test_overall_reward_identity(self):
        scenario = dominance_scenario(
            alpha1=1.3, alpha2=0.7, alpha3=0.2, gamma=0.6, cluster_budget=4.0
        )
        rng = np.random.default_rng(3)
        for _ in range(20):
            links = sample_links(PolicyTable.fresh(3), rng, allow_no_link=True)
            out = run_episode(scenario, links)
            expect = out.local_rewards + scenario.config.gamma * out.global_rewards[
                scenario.partition.assignment
            ]
            assert np.array_equal(out.overall_rewards, expect)

    def test_underflowed_rows_train_on_their_allowed_actions(self):
        # At alpha2 = 5000 every allowed average of rows 0, 1, 4 and 5 sits
        # more than ~745 below the masked own action. Dividing their zero
        # row sums gave NaN rows, which took their last allowed action in
        # every episode: links [5 5 3 2 5 4] against the greedy [3 2 3 2 2 4].
        cfg = config(n_devices=6, episodes=200, alpha2=5000.0, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = train(generate_scenario(cfg), named_rng(1, "rl"))
        greedy = extract_graph(result.policies, allow_no_link=False)
        assert np.array_equal(result.links[-1], greedy)

    def test_mean_reward_trace_improves(self):
        # Trained policies earn more per episode than fresh ones. The trace
        # itself cannot show this: the softmax policy settles within a few
        # episodes, after which any two windows of it are samples of one
        # process. So compare the exact expected episode rewards instead.
        scenario = dominance_scenario(
            alpha1=2.0, alpha2=2.0, alpha3=0.0, gamma=0.5, diversity_min=2, episodes=2000
        )
        result = train(scenario, np.random.default_rng(2))
        fresh = PolicyTable.fresh(3)
        assert expected_mean_reward(scenario, result.policies) > expected_mean_reward(
            scenario, fresh
        )

    def test_selection_frequency_follows_reward_ordering(self):
        # Stationary 3-armed bandit through the policy/update machinery:
        # strictly ordered deterministic rewards per arm.
        arm_rewards = np.array([0.4, 1.2, 2.4])
        table = one_agent(3)
        rng = np.random.default_rng(17)
        pulls = np.zeros(3)
        for _ in range(5000):
            p = softmax_of_averages(table)[0]
            arm = int(rng.choice(3, p=p))
            pulls[arm] += 1
            update_policy(table, np.array([arm]), arm_rewards[[arm]])
        assert pulls[2] > pulls[1] > pulls[0]


def brute_force_best_links(scenario) -> tuple[int, ...]:
    """Exhaustive search over all joint link choices, scored by the summed
    one-episode overall reward. -1 encodes the no-link action."""
    n = scenario.counts.shape[0]
    best, best_score = None, -np.inf
    for combo in itertools.product(range(n), repeat=n):
        links = np.array([-1 if combo[i] == i else combo[i] for i in range(n)])
        out = run_episode(scenario, links)
        score = float(out.overall_rewards.sum())
        if score > best_score:
            best, best_score = tuple(links.tolist()), score
    return best


def well_posed_scenario(seed: int, cfg: ScenarioConfig):
    """N=3, L=2, full trust, lossless: every receiver has a unique best
    donor (the lowest-index big holder of its missing class), so the joint
    optimum decomposes per receiver. Carries cfg."""
    rng = np.random.default_rng(seed)
    while True:
        own = rng.integers(0, 2, size=3)
        if len(set(own.tolist())) == 2:
            break
    threshold = 10
    counts = np.zeros((3, 2), dtype=np.int64)
    big_seen = set()
    for i, cls in enumerate(own):
        if cls not in big_seen:
            counts[i, cls] = threshold + 30 + int(rng.integers(0, 10))
            big_seen.add(cls)
        else:
            counts[i, cls] = threshold + int(rng.integers(0, 6))  # small surplus
    thresholds = np.full((3, 2), threshold, dtype=np.int64)
    return make_scenario(counts, thresholds, config=cfg)


class TestBruteForceOptimality:
    def test_trained_graph_matches_enumeration(self):
        cfg = config(
            alpha1=1.0, alpha2=1.0, alpha3=0.01, gamma=0.5, diversity_min=2,
            cluster_budget=20.0, episodes=5000, allow_no_link=True,
        )
        scenario = well_posed_scenario(123, cfg)
        oracle = brute_force_best_links(scenario)
        result = train(scenario, np.random.default_rng(123))
        learned = tuple(extract_graph(result.policies, allow_no_link=True).tolist())
        assert learned == oracle


class TestExtractGraph:
    def test_fresh_buffers_tie_break_lowest_index(self):
        graph = extract_graph(PolicyTable.fresh(3), allow_no_link=True)
        # Index 0 wins every tie; device 0 reads it as "no link".
        assert graph.tolist() == [-1, 0, 0]

    def test_dominant_cell_wins(self):
        table = PolicyTable.fresh(3)
        table.totals[2] = [0.0, 3.0, 0.0]
        assert extract_graph(table, allow_no_link=True)[2] == 1

    def test_no_link_disallowed_masks_self(self):
        table = PolicyTable.fresh(2)
        table.totals[0] = [5.0, 0.0]  # self is the argmax but masked
        graph = extract_graph(table, allow_no_link=False)
        assert graph.tolist() == [1, 0]

    @pytest.mark.parametrize("allow_no_link", [False, True])
    def test_kept_averages_read_not_written(self, allow_no_link):
        rng = np.random.default_rng(6)
        table = PolicyTable.fresh(6)
        cells = np.arange(6) * 6 + rng.integers(0, 6, size=6)
        update_policy(table, cells, rng.normal(size=6) * 5.0)
        totals, counts = table.totals.copy(), table.counts.copy()
        avg = table.totals / table.counts
        if not allow_no_link:
            np.fill_diagonal(avg, -np.inf)
        best = avg.argmax(axis=1)
        expected = np.where(best == np.arange(6), -1, best)
        assert np.array_equal(extract_graph(table, allow_no_link), expected)
        assert np.array_equal(table.totals, totals)
        assert np.array_equal(table.counts, counts)

    def test_peak_memory_at_n200(self):
        # Units of one (200, 200) float64 array; dividing the table and
        # copying it before masking the diagonal peaked at 2.0.
        table = PolicyTable.fresh(200)
        table.totals[:] = np.random.default_rng(1).normal(size=(200, 200))
        assert peak_units(lambda: extract_graph(table, allow_no_link=False), 200) < 1.6


def loop_episode(scenario, links):
    """One episode scored the per-run way: a run_exchange ledger, then the
    reward formulas written out for a single run."""
    cfg = scenario.config
    n = len(links)
    assignment, k = scenario.partition.assignment, scenario.partition.k
    res = run_exchange(
        links, scenario.counts, scenario.thresholds, scenario.trust, scenario.drop, mode=EXPECTED
    )
    p_drop = np.where(links >= 0, scenario.drop[np.arange(n), links], 0.0)
    met = np.sum(np.floor(res.updated + 0.5) >= scenario.thresholds, axis=1)
    score = np.where(met >= cfg.diversity_min, met, 0)
    local = cfg.alpha1 * score - cfg.alpha2 * p_drop
    load = inter_cluster_load(res.receivers, res.transmitters, res.requested, assignment, k)
    glob = local.mean() + cfg.alpha3 * (cfg.cluster_budget - load)
    return local + cfg.gamma * glob[assignment], load


def loop_train(scenario, rng, refresh):
    """train as a plain per-run loop over loop_episode, its averages
    refreshed every refresh episodes (the feedback batch)."""
    episodes, allow_no_link = scenario.config.episodes, scenario.config.allow_no_link
    n = scenario.n_devices
    own = np.arange(n)
    totals, counts = np.zeros((n, n)), np.ones((n, n), dtype=np.int64)
    links = np.empty((episodes, n), dtype=np.int64)
    mean_reward, success = np.empty(episodes), np.empty(episodes)
    load = np.empty((episodes, scenario.partition.k))
    for ep in range(episodes):
        if ep % refresh == 0:
            avg = totals / counts
        z = np.exp(avg - avg.max(axis=1, keepdims=True))
        p = z / z.sum(axis=1, keepdims=True)
        u = rng.random(n)
        if not allow_no_link:
            p[own, own] = 0.0
            p = p / p.sum(axis=1, keepdims=True)
        last = np.where(allow_no_link | (own < n - 1), n - 1, n - 2)
        choice = np.minimum((np.cumsum(p, axis=1) <= u[:, None]).sum(axis=1), last)
        links[ep] = np.where(choice == own, -1, choice)
        overall, load[ep] = loop_episode(scenario, links[ep])
        totals[own, choice] += overall
        counts[own, choice] += 1
        mean_reward[ep] = overall.mean()
        linked = links[ep] >= 0
        chosen = 1.0 - scenario.drop[linked, links[ep][linked]]
        success[ep] = chosen.mean() if linked.any() else 1.0
    return totals, counts, links, mean_reward, success, load


def assert_runs_match_loop(scenarios, seeds):
    results = train_runs(scenarios, [np.random.default_rng(s) for s in seeds])
    for scenario, seed, got in zip(scenarios, seeds, results):
        totals, counts, links, mean_reward, success, load = loop_train(
            scenario, np.random.default_rng(seed), rl.FEEDBACK_EPISODES
        )
        assert np.array_equal(got.policies.totals, totals)
        assert np.array_equal(got.policies.counts, counts)
        assert np.array_equal(got.links, links)
        assert np.array_equal(got.mean_reward, mean_reward)
        assert np.array_equal(got.link_success, success)
        assert np.array_equal(got.cluster_load, load)


@st.composite
def run_batches(draw):
    """R runs of N devices with their own channel, trust, clusters and
    reward keys, sharing the episode count and no-link rule; N up to 40 so
    per-run rows of 8 or more take numpy's pairwise sums. Self entries are
    drawn too: a nonzero drop diagonal and full self-trust, which the
    no-link action must ignore."""
    n = draw(st.integers(2, 40))
    n_classes = draw(st.integers(1, 5))
    shared = {"episodes": draw(st.integers(1, 12)), "allow_no_link": draw(st.booleans())}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scenarios = []
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(1, min(n, 4)))
        assignment = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
        trust = (rng.random((n, n, n_classes)) < 0.7).astype(np.int8)
        trust[np.arange(n), np.arange(n)] = 1
        rewards = config(
            alpha1=float(rng.uniform(0, 2)),
            alpha2=float(rng.uniform(0, 3)),
            alpha3=float(rng.uniform(0, 0.1)),
            gamma=float(rng.uniform(0, 1)),
            diversity_min=int(rng.integers(0, n_classes + 1)),
            cluster_budget=float(rng.uniform(0, 100)),
            **shared,
        )
        scenarios.append(
            make_scenario(
                rng.integers(0, 40, (n, n_classes)),
                rng.integers(0, 25, (n, n_classes)),
                trust=trust,
                drop=rng.uniform(0.0, 1.0, (n, n)),
                assignment=rng.permutation(assignment),
                config=rewards,
            )
        )
    seeds = [int(s) for s in rng.integers(0, 2**32, len(scenarios))]
    return scenarios, seeds


class TestBatchedMatchesLoop:
    """train_runs equals a per-run loop over run_exchange, run by run, for
    the default feedback batch and for batches of 1 (a refresh every
    episode) and 7 episodes."""

    @settings(max_examples=100, deadline=None)
    @given(run_batches())
    def test_equal_to_per_run_loop(self, batch):
        assert_runs_match_loop(*batch)

    @pytest.mark.parametrize("feedback", [1, 7])
    @settings(max_examples=100, deadline=None)
    @given(batch=run_batches())
    def test_equal_to_per_run_loop_at_feedback(self, feedback, batch):
        # A batch of 1 is the rule of a refresh every episode.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rl, "FEEDBACK_EPISODES", feedback)
            assert_runs_match_loop(*batch)

    @pytest.mark.parametrize("allow_no_link", [False, True])
    def test_two_generated_runs_at_n300(self, allow_no_link):
        cfgs = [
            config(n_devices=300, seed=4, episodes=4, allow_no_link=allow_no_link),
            config(
                n_devices=300, seed=9, alpha1=1.5, cluster_budget=60.0, episodes=4,
                allow_no_link=allow_no_link,
            ),
        ]
        scenarios = [generate_scenario(c) for c in cfgs]
        assert len({s.partition.k for s in scenarios}) == 2
        assert_runs_match_loop(scenarios, [4, 9])

    def test_run_episode_equals_loop(self):
        rng = np.random.default_rng(8)
        drop = rng.uniform(0.0, 0.5, (6, 6))
        np.fill_diagonal(drop, 0.0)
        scenario = make_scenario(
            rng.integers(0, 30, (6, 3)),
            np.full((6, 3), 12),
            drop=drop,
            assignment=np.array([0, 1, 0, 1, 1, 0]),
            config=config(
                alpha1=1.3, alpha2=0.7, alpha3=0.2, gamma=0.6, diversity_min=1, cluster_budget=9.0
            ),
        )
        for _ in range(20):
            links = sample_links(PolicyTable.fresh(6), rng, allow_no_link=True)
            out = run_episode(scenario, links)
            overall, load = loop_episode(scenario, links)
            assert np.array_equal(out.overall_rewards, overall)
            assert np.array_equal(out.cluster_load, load)


class TestDrawChunks:
    """train_runs samples and scores the episodes of a feedback batch in
    pieces under a cell cap, each run drawing a piece's uniforms at once:
    the stream of one draw per episode, and the same bytes for any piece."""

    @pytest.mark.parametrize("piece", [1, 7])
    @settings(max_examples=30, deadline=None)
    @given(batch=run_batches())
    def test_equal_to_per_run_loop(self, piece, batch):
        scenarios, seeds = batch
        scenarios = [replace(s, config=with_overrides(s.config, episodes=12)) for s in scenarios]
        cells = piece * len(scenarios) * scenarios[0].n_devices**2
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rl, "DRAW_CELLS", cells)
            assert_runs_match_loop(scenarios, seeds)

    @pytest.mark.parametrize("allow_no_link", [False, True])
    def test_piece_cap_never_changes_the_bytes(self, allow_no_link):
        # Three N=10 runs take one piece per feedback batch by default, and
        # one episode per piece under a cap of one cell.
        cfgs = [config(seed=s, episodes=120, allow_no_link=allow_no_link) for s in (0, 1, 2)]
        scenarios = [generate_scenario(c) for c in cfgs]
        results = []
        for cap in (rl.DRAW_CELLS, 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(rl, "DRAW_CELLS", cap)
                results.append(train_runs(scenarios, [named_rng(s, "rl") for s in (0, 1, 2)]))
        for got, once in zip(*results):
            for field in ("links", "mean_reward", "link_success", "cluster_load"):
                assert np.array_equal(getattr(got, field), getattr(once, field))
            assert np.array_equal(got.policies.totals, once.policies.totals)
            assert np.array_equal(got.policies.counts, once.policies.counts)

    def test_peak_memory_holds_one_chunk(self):
        # Units of one (200, 200) float64 array. The (E, N) = (1500, 200)
        # links are 7.5 units and the three policy tables 3.1; one chunk's
        # draws (rl.DRAW_CELLS doubles, 0.4 units) and the chunk's link
        # conversion and success rates add little. A single chunk of all
        # 1,500 episodes peaks at 36.1, and link success over all (E, N)
        # links at once, after per-episode draws, at 28.9.
        scenario = generate_scenario(config(n_devices=200, episodes=1500, seed=3))
        peak = peak_units(lambda: train(scenario, np.random.default_rng(0)), 200)
        assert peak < 15.0

    def test_peak_memory_holds_one_copy_of_the_policy(self):
        # Units of one (200, 200) float64 array. The totals, counts and the
        # sampler's cumulative table are three; with a fourth, kept
        # averages updated cell by cell, training peaked at 4.85, and it
        # peaks at 3.85 without them.
        scenario = generate_scenario(config(n_devices=200, episodes=20, seed=3))
        assert peak_units(lambda: train(scenario, np.random.default_rng(0)), 200) < 4.3

    def test_peak_memory_scores_pieces_without_copies(self):
        # Units of one (40, 40) float64 array; one run at N=40 takes pieces
        # of 10 episodes. Scoring a piece by indexing the batch's static
        # arrays peaks at 31.3; stacking ten copies of them (drop matrix,
        # trust tensor, class tables, clusters) and scoring those peaks at
        # 63.9.
        scenario = generate_scenario(config(n_devices=40, episodes=200, seed=3))
        peak = peak_units(lambda: train(scenario, np.random.default_rng(0)), 40)
        assert peak < 45.0


class TestFeedbackDelay:
    """Refreshing the policy once per feedback batch, not every episode,
    leaves the learned graph nearly as it was."""

    def test_greedy_graph_agrees_with_per_episode_refresh(self):
        # Held-out seeds 10-29 of the default N=10 config: 98.5% of links
        # agree on average, and 9 or 10 of each run's 10.
        seeds = range(10, 30)
        scenarios = [generate_scenario(config(seed=s)) for s in seeds]
        graphs = []
        for feedback in (rl.FEEDBACK_EPISODES, 1):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(rl, "FEEDBACK_EPISODES", feedback)
                results = train_runs(scenarios, [named_rng(s, "rl") for s in seeds])
            graphs.append([extract_graph(r.policies, allow_no_link=False) for r in results])
        assert np.mean(np.equal(*graphs)) >= 0.95


class TestBatchKey:
    """train_runs trains every run of a batch for one episode count under one
    no-link rule, so runs whose configs differ on a BATCH_KEY key are
    refused, naming the first such key."""

    @pytest.mark.parametrize(
        "key, value",
        [("n_devices", 11), ("n_classes", 7), ("episodes", 3), ("allow_no_link", False)],
    )
    def test_mixed_batch_rejected(self, key, value):
        base = {"episodes": 2}
        scenarios = [dominance_scenario(**base), dominance_scenario(**{**base, key: value})]
        with pytest.raises(ValueError, match=f"share {key!r}"):
            train_runs(scenarios, [np.random.default_rng(0), np.random.default_rng(1)])

    def test_names_first_differing_key(self):
        assert BATCH_KEY == ("n_devices", "n_classes", "episodes", "allow_no_link")
        scenarios = [dominance_scenario(), dominance_scenario(episodes=3, n_classes=7)]
        with pytest.raises(ValueError, match="share 'n_classes'"):
            train_runs(scenarios, [np.random.default_rng(0), np.random.default_rng(1)])
