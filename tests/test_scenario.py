import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dfl.config import ScenarioConfig, held_out, with_overrides
from d2dfl.exchange import EXPECTED, STOCHASTIC
from d2dfl.scenario import (
    draw_trust,
    generate_scenario,
    held_out_mask,
    materialize_exchange,
    named_rng,
    uniform_baseline_links,
)

SMALL = with_overrides(
    ScenarioConfig(), n_devices=6, samples_per_device=60, n_classes=5, classes_per_device=2
)


class TestNamedRng:
    def test_stable_streams(self):
        a = named_rng(7, "data").random(4)
        b = named_rng(7, "data").random(4)
        assert np.array_equal(a, b)

    def test_names_are_independent(self):
        a = named_rng(7, "data").random(4)
        b = named_rng(7, "trust").random(4)
        assert not np.array_equal(a, b)


class TestGenerateScenario:
    def test_deterministic_per_seed(self):
        s1 = generate_scenario(SMALL)
        s2 = generate_scenario(SMALL)
        assert np.array_equal(s1.positions, s2.positions)
        assert np.array_equal(s1.drop, s2.drop)
        assert np.array_equal(s1.counts, s2.counts)
        assert np.array_equal(s1.trust, s2.trust)
        for d1, d2 in zip(s1.datasets, s2.datasets):
            assert np.array_equal(d1.x, d2.x)
        assert np.array_equal(s1.test_set.x, s2.test_set.x)

    def test_full_trust_density(self):
        cfg = with_overrides(SMALL, trust_density=1.0)
        s = generate_scenario(cfg)
        assert np.all(s.trust == 1)

    def test_zero_trust_density(self):
        cfg = with_overrides(SMALL, trust_density=0.0)
        s = generate_scenario(cfg)
        assert np.all(s.trust == 0)

    def test_class_support_width(self):
        s = generate_scenario(SMALL)
        support = (s.counts > 0).sum(axis=1)
        assert np.all(support == SMALL.classes_per_device)

    def test_all_classes_when_iid(self):
        cfg = with_overrides(SMALL, classes_per_device=5)
        s = generate_scenario(cfg)
        assert np.all((s.counts > 0).sum(axis=1) == 5)

    def test_dataset_counts_match_distribution_vectors(self):
        s = generate_scenario(SMALL)
        for i, data in enumerate(s.datasets):
            assert np.array_equal(data.class_counts(), s.counts[i])

    def test_test_split_fraction(self):
        s = generate_scenario(SMALL)
        total = SMALL.n_devices * SMALL.samples_per_device
        kept = sum(len(d) for d in s.datasets)
        held = len(s.test_set)
        assert kept + held == total
        assert held == pytest.approx(total * SMALL.test_fraction, rel=0.05)

    def test_class_choice_uniform_over_seeds(self):
        cfg = with_overrides(SMALL, n_devices=4)
        hits = np.zeros(cfg.n_classes)
        for seed in range(100):
            s = generate_scenario(with_overrides(cfg, seed=seed))
            hits += (s.counts > 0).sum(axis=0)
        freq = hits / hits.sum()
        assert np.all(np.abs(freq - 1 / cfg.n_classes) < 0.1 / cfg.n_classes * 5)

    def test_cluster_assignment_total(self):
        s = generate_scenario(SMALL)
        assert s.partition.assignment.shape == (SMALL.n_devices,)
        assert np.all(s.partition.assignment >= 0)
        assert s.partition.k >= 1


class TestDrawTrust:
    @pytest.mark.parametrize(
        "n, n_classes, density, seed",
        [(1, 1, 0.5, 0), (2, 3, 0.8, 1), (7, 5, 0.3, 2), (40, 8, 0.8, 3), (300, 8, 0.8, 4)],
    )
    def test_rows_equal_one_shot_draw(self, n, n_classes, density, seed):
        one_shot = (np.random.default_rng(seed).random((n, n, n_classes)) < density).astype(np.int8)
        rows = draw_trust(n, n_classes, density, np.random.default_rng(seed))
        assert rows.dtype == np.int8
        assert np.array_equal(rows, one_shot)


class TestHeldOutMask:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=6), st.floats(0.0, 1.0))
    def test_matches_per_class_loop(self, counts, test_fraction):
        # Classes in contiguous blocks, as dataset_from_counts emits them.
        counts = np.array(counts, dtype=np.int64)
        y = np.repeat(np.arange(len(counts)), counts)
        expect = np.zeros(len(y), dtype=bool)
        for cls in range(len(counts)):
            cls_idx = np.flatnonzero(y == cls)
            expect[cls_idx[: held_out(len(cls_idx), test_fraction)]] = True
        assert np.array_equal(held_out_mask(y, counts, test_fraction), expect)


class TestUniformBaselineLinks:
    @pytest.mark.parametrize("n", [2, 3, 10, 100, 300, 1000])
    def test_equals_per_receiver_draws(self, n):
        for seed in range(3):
            ref_rng = np.random.default_rng(seed)
            expect = [(rx + int(ref_rng.integers(1, n))) % n for rx in range(n)]
            rng = np.random.default_rng(seed)
            assert uniform_baseline_links(n, rng).tolist() == expect
            assert rng.random() == ref_rng.random()

    def test_two_devices_link_each_other(self):
        links = uniform_baseline_links(2, np.random.default_rng(0))
        assert links.tolist() == [1, 0]

    def test_deterministic_per_seed(self):
        a = uniform_baseline_links(8, np.random.default_rng(5))
        b = uniform_baseline_links(8, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_never_self(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            links = uniform_baseline_links(5, rng)
            assert np.all(links != np.arange(5))

    def test_empirical_uniformity(self):
        rng = np.random.default_rng(2)
        n = 4
        hits = np.zeros(n)
        trials = 100_000
        for _ in range(trials):
            hits[uniform_baseline_links(n, rng)[0]] += 1
        freq = hits / trials
        assert freq[0] == 0.0
        assert np.allclose(freq[1:], 1 / (n - 1), atol=0.01)


class TestMaterializeExchange:
    def _scenario(self, seed=0, trust_density=1.0):
        cfg = with_overrides(
            ScenarioConfig(),
            n_devices=5,
            samples_per_device=80,
            n_classes=4,
            classes_per_device=2,
            class_threshold=12,
            diversity_min=3,
            trust_density=trust_density,
            seed=seed,
        )
        return generate_scenario(cfg)

    def test_counts_match_datasets_exactly(self):
        for mode in (EXPECTED, STOCHASTIC):
            s = self._scenario(seed=3)
            links = (np.arange(5) + 1) % 5
            materialize_exchange(s, links, mode, named_rng(3, "exchange"))
            for i, data in enumerate(s.datasets):
                assert np.array_equal(data.class_counts(), s.counts[i]), mode

    def test_lossless_conservation_of_points(self):
        s = self._scenario(seed=4)
        s.drop[:] = 0.0
        before = s.counts.sum(axis=0).copy()
        total_before = sum(len(d) for d in s.datasets)
        links = (np.arange(5) + 2) % 5
        materialize_exchange(s, links, EXPECTED, named_rng(4, "exchange"))
        assert np.array_equal(s.counts.sum(axis=0), before)
        assert sum(len(d) for d in s.datasets) == total_before

    def test_stochastic_drops_points(self):
        s = self._scenario(seed=5)
        s.drop[:] = 0.5
        np.fill_diagonal(s.drop, 0.0)
        total_before = sum(len(d) for d in s.datasets)
        links = (np.arange(5) + 1) % 5
        result = materialize_exchange(s, links, STOCHASTIC, named_rng(5, "exchange"))
        sent = sum(p.buffered.sum() for p in result.plans)
        arrived = sum(p.delivered.sum() for p in result.plans)
        assert arrived < sent
        assert sum(len(d) for d in s.datasets) == total_before - (sent - arrived)

    def test_trust_respected_in_moved_points(self):
        s = self._scenario(seed=6, trust_density=0.4)
        links = (np.arange(5) + 1) % 5
        result = materialize_exchange(s, links, STOCHASTIC, named_rng(6, "exchange"))
        for plan in result.plans:
            for cls in range(s.n_classes):
                if plan.delivered[cls] > 0:
                    assert s.trust[plan.transmitter, plan.receiver, cls] == 1

    def test_deterministic(self):
        s1 = self._scenario(seed=7)
        s2 = self._scenario(seed=7)
        links = np.array([1, -1, 3, -1, -1])
        materialize_exchange(s1, links, STOCHASTIC, named_rng(7, "exchange"))
        materialize_exchange(s2, links, STOCHASTIC, named_rng(7, "exchange"))
        assert np.array_equal(s1.counts, s2.counts)
        for d1, d2 in zip(s1.datasets, s2.datasets):
            assert np.array_equal(d1.x, d2.x)
