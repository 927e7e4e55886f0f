import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import peak_units
from d2dfl.config import ScenarioConfig
from d2dfl.network import (
    drop_matrix,
    drop_probability,
    energy_cost,
    generate_rss,
    link_distances,
    mean_d2d_distance,
    pairwise_distances,
    partition_clusters,
    transmit_energy,
)


class TestDropProbability:
    def test_zero_rate_is_lossless(self):
        assert drop_probability(5.0, ScenarioConfig(rate_r=0.0, noise_sigma2=1.0)) == 0.0

    def test_vanishing_signal_limit(self):
        params = ScenarioConfig(rate_r=1.0, noise_sigma2=1.0)
        assert drop_probability(0.0, params) == 1.0
        assert drop_probability(1e-300, params) == pytest.approx(1.0)

    def test_closed_form_value(self):
        # 1 - exp(-(2^1 - 1) * 0.1 / 0.1) = 1 - exp(-1)
        p = drop_probability(0.1, ScenarioConfig(rate_r=1.0, noise_sigma2=0.1))
        assert p == pytest.approx(0.6321205588285577, rel=1e-12)

    def test_negative_signal_rejected(self):
        with pytest.raises(ValueError):
            drop_probability(-1.0, ScenarioConfig())

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            w = rng.uniform(1e-2, 10.0)
            params = ScenarioConfig(rate_r=rng.uniform(0, 4), noise_sigma2=rng.uniform(1e-6, 2))
            p = drop_probability(w, params)
            assert 0.0 <= p <= 1.0
            # Strictly below 1 wherever float64 can represent the gap.
            if (2**params.rate_r - 1) * params.noise_sigma2 / w < 30:
                assert p < 1.0

    @given(
        w=st.floats(1e-2, 1e3),
        rate=st.floats(0.01, 4.0),
        sigma2=st.floats(1e-4, 2.0),
        bump=st.floats(1e-3, 2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotonicity(self, w, rate, sigma2, bump):
        # Keep every probed exponent small enough that 1 - exp(-x) does not
        # saturate to 1.0 in float64, where strict ordering is meaningless.
        worst = (2 ** (rate + bump) - 1) * (sigma2 + bump) / w
        assume(worst < 30.0)
        base = drop_probability(w, ScenarioConfig(rate_r=rate, noise_sigma2=sigma2))
        assert drop_probability(w + bump, ScenarioConfig(rate_r=rate, noise_sigma2=sigma2)) < base
        assert drop_probability(w, ScenarioConfig(rate_r=rate + bump, noise_sigma2=sigma2)) > base
        assert drop_probability(w, ScenarioConfig(rate_r=rate, noise_sigma2=sigma2 + bump)) > base


class TestGenerateRss:
    def test_unit_distance(self):
        w = generate_rss(np.array([[0.0, 0.0], [1.0, 0.0]]), ScenarioConfig(pathloss_exponent=2.0))
        assert w[0, 1] == 1.0
        assert w[1, 0] == 1.0

    def test_inverse_square(self):
        w = generate_rss(np.array([[0.0, 0.0], [2.0, 0.0]]), ScenarioConfig(pathloss_exponent=2.0))
        assert w[0, 1] == 0.25

    def test_symmetric_without_shadowing(self):
        rng = np.random.default_rng(3)
        pos = rng.uniform(0, 10, size=(6, 2))
        w = generate_rss(pos, ScenarioConfig())
        assert np.array_equal(w, w.T)

    def test_shadowing_deterministic_per_seed(self):
        pos = np.random.default_rng(5).uniform(0, 10, size=(5, 2))
        w1 = generate_rss(pos, ScenarioConfig(shadowing_sigma=0.5), np.random.default_rng(42))
        w2 = generate_rss(pos, ScenarioConfig(shadowing_sigma=0.5), np.random.default_rng(42))
        assert np.array_equal(w1, w2)

    def test_coincident_positions_rejected(self):
        with pytest.raises(ValueError):
            generate_rss(np.array([[1.0, 1.0], [1.0, 1.0]]), ScenarioConfig())


def brute_force_min_clusters(reliable: np.ndarray) -> int:
    """Smallest number of groups whose members are pairwise reliable."""
    n = reliable.shape[0]
    best = n

    def recurse(device: int, groups: list[list[int]]):
        nonlocal best
        if len(groups) >= best:
            return
        if device == n:
            best = min(best, len(groups))
            return
        for grp in groups:
            if all(reliable[device, m] for m in grp):
                grp.append(device)
                recurse(device + 1, groups)
                grp.pop()
        groups.append([device])
        recurse(device + 1, groups)
        groups.pop()

    recurse(0, [])
    return best


class TestPartitionClusters:
    def _params(self):
        return ScenarioConfig(rate_r=1.0, noise_sigma2=0.1)

    def test_all_reliable_single_cluster(self):
        w = np.full((4, 4), 100.0)
        part = partition_clusters(drop_matrix(w, self._params()), alpha_d=0.5)
        assert part.k == 1
        assert np.all(part.assignment == 0)

    def test_no_pair_reliable_singletons(self):
        w = np.full((4, 4), 1e-6)
        part = partition_clusters(drop_matrix(w, self._params()), alpha_d=0.01)
        assert part.k == 4
        assert sorted(part.assignment) == [0, 1, 2, 3]

    def test_two_disjoint_edges(self):
        # Reliable graph is exactly {0-1} and {2-3}.
        w = np.full((4, 4), 1e-6)
        for a, b in ((0, 1), (2, 3)):
            w[a, b] = w[b, a] = 100.0
        pd = drop_matrix(w, self._params())
        part = partition_clusters(pd, alpha_d=0.5)
        assert part.k == 2
        assert part.assignment[0] == part.assignment[1]
        assert part.assignment[2] == part.assignment[3]
        assert part.assignment[0] != part.assignment[2]
        reliable = (pd <= 0.5) & (pd.T <= 0.5)
        np.fill_diagonal(reliable, True)
        assert brute_force_min_clusters(reliable) == 2

    def test_pairwise_bound_on_random_matrices(self):
        rng = np.random.default_rng(7)
        params = self._params()
        alpha = 0.3
        for _ in range(200):
            n = int(rng.integers(2, 9))
            w = rng.uniform(0.0, 2.0, size=(n, n))
            pd = drop_matrix(w, params)
            part = partition_clusters(pd, alpha_d=alpha)
            assert np.all(part.assignment >= 0)
            assert part.k == len(set(part.assignment.tolist()))
            for k in range(part.k):
                members = np.flatnonzero(part.assignment == k)
                for a in members:
                    for b in members:
                        if a != b:
                            assert pd[a, b] <= alpha


class TestEnergy:
    def test_nothing_sent_is_free(self):
        assert energy_cost(0, 123.0, ScenarioConfig()) == 0.0

    def test_hand_value(self):
        params = ScenarioConfig(
            per_point_bits=1000, elec_energy_per_bit=5e-8, amp_energy_per_bit_per_dist2=1e-10
        )
        assert energy_cost(10, 10.0, params) == pytest.approx(6.0e-4, rel=1e-12)

    def test_distance_squared_in_amp_term_only(self):
        params = ScenarioConfig(
            per_point_bits=100, elec_energy_per_bit=1e-8, amp_energy_per_bit_per_dist2=1e-10
        )
        e1 = energy_cost(1, 10.0, params)
        e2 = energy_cost(1, 20.0, params)
        elec = 100 * 1e-8
        assert e2 - elec == pytest.approx(4 * (e1 - elec), rel=1e-12)

    @given(
        n1=st.integers(0, 500),
        n2=st.integers(0, 500),
        dist=st.floats(0.0, 1e3),
    )
    @settings(max_examples=60, deadline=None)
    def test_additivity_in_points(self, n1, n2, dist):
        params = ScenarioConfig()
        total = energy_cost(n1 + n2, dist, params)
        assert total == pytest.approx(
            energy_cost(n1, dist, params) + energy_cost(n2, dist, params), rel=1e-12, abs=1e-18
        )

    def test_scalar_bits_path(self):
        params = ScenarioConfig(per_point_bits=512)
        assert energy_cost(3, 7.0, params) == pytest.approx(
            transmit_energy(3 * 512, 7.0, params), rel=1e-15
        )


def test_mean_d2d_distance_triangle():
    pos = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    assert mean_d2d_distance(pos) == pytest.approx((3 + 4 + 5) / 3)


def broadcast_distances(positions):
    """The (N, N, 2) broadcast formula that pairwise_distances replaces."""
    diff = positions[:, None, :] - positions[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def broadcast_rss(positions, cfg, rng=None):
    """generate_rss written with whole-array temporaries."""
    n = len(positions)
    with np.errstate(divide="ignore"):
        rss = cfg.ref_power / broadcast_distances(positions) ** cfg.pathloss_exponent
    np.fill_diagonal(rss, 0.0)
    if cfg.shadowing_sigma > 0:
        rss = rss * np.exp(rng.normal(0.0, cfg.shadowing_sigma, size=(n, n)))
        np.fill_diagonal(rss, 0.0)
    return rss


def closed_form_drop(rss, cfg):
    """drop_matrix as 1 - exp(-coeff / w) over a copy with an infinite diagonal."""
    w = rss.copy()
    np.fill_diagonal(w, np.inf)
    coeff = (2.0**cfg.rate_r - 1.0) * cfg.noise_sigma2
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -np.expm1(-coeff / w)
    return np.where(w == 0, 0.0 if coeff == 0 else 1.0, out)


def positions_of(n, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 100.0, size=(n, 2))


class TestInPlaceChannel:
    """The distance and channel path computed in place equals the broadcast
    formulas bit for bit, and allocates no (N, N, 2) temporary."""

    @pytest.mark.parametrize("n", [2, 3, 50])
    def test_pairwise_distances_equal_broadcast(self, n):
        pos = positions_of(n, seed=n)
        assert np.array_equal(pairwise_distances(pos), broadcast_distances(pos))

    @pytest.mark.parametrize(
        "keys", [{}, {"shadowing_sigma": 0.7}, {"rate_r": 0.0}, {"rate_r": 0.0, "shadowing_sigma": 0.7}]
    )
    def test_rss_and_drop_equal_broadcast(self, keys):
        cfg = ScenarioConfig(**keys)
        pos = positions_of(40, seed=4)
        rss = generate_rss(pos, cfg, np.random.default_rng(8))
        expected = broadcast_rss(pos, cfg, np.random.default_rng(8))
        assert np.array_equal(rss, expected)
        assert np.array_equal(drop_matrix(rss, cfg), closed_form_drop(expected, cfg))

    def test_drop_matrix_ignores_the_diagonal(self):
        cfg = ScenarioConfig(rate_r=1.0, noise_sigma2=0.1)
        rss = np.array([[-1e-300, 0.0, 2.0], [0.5, np.nan, 0.0], [3.0, 1.0, 0.0]])
        drop = drop_matrix(rss, cfg)
        assert np.array_equal(drop, closed_form_drop(rss, cfg), equal_nan=True)
        assert drop.diagonal().tolist() == [0.0, 0.0, 0.0]

    def test_negative_off_diagonal_rejected(self):
        rss = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            drop_matrix(rss, ScenarioConfig())

    def test_drop_probability_types(self):
        cfg = ScenarioConfig(rate_r=1.0, noise_sigma2=0.1)
        for scalar in (0.0, 0.1, np.float64(2.0), np.array(0.3)):
            assert type(drop_probability(scalar, cfg)) is float
        w = np.array([[0.0, 0.1], [2.0, np.inf]])
        out = drop_probability(w, cfg)
        assert isinstance(out, np.ndarray) and out.shape == w.shape
        coeff = (2.0**cfg.rate_r - 1.0) * cfg.noise_sigma2
        with np.errstate(divide="ignore"):
            expected = np.where(w == 0, 1.0, -np.expm1(-coeff / w))
        assert np.array_equal(out, expected)
        assert drop_probability(0.0, ScenarioConfig(rate_r=0.0)) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 50, 201])
    def test_mean_distance_equals_triu_indices(self, n):
        pos = positions_of(n, seed=n)
        dist = broadcast_distances(pos)
        assert mean_d2d_distance(pos) == float(dist[np.triu_indices(n, k=1)].mean())

    def test_link_distances_equal_matrix_entries(self):
        pos = positions_of(30, seed=2)
        rng = np.random.default_rng(5)
        receivers = rng.integers(0, 30, size=50)
        transmitters = rng.integers(0, 30, size=50)
        got = link_distances(pos, receivers, transmitters)
        assert np.array_equal(got, broadcast_distances(pos)[receivers, transmitters])
        assert link_distances(pos, receivers[:0], transmitters[:0]).shape == (0,)

    def test_peak_memory_at_n200(self):
        # Units of one (200, 200) float64 array. The broadcast formulas
        # peaked at 5.0 in each case, and (N, N, 2) differences squared in
        # place at 3.0; the result plus one buffer peaks at 2.41.
        n = 200
        pos = positions_of(n)
        shadowed = ScenarioConfig(shadowing_sigma=0.5)
        assert peak_units(lambda: pairwise_distances(pos), n) < 2.75
        assert peak_units(lambda: mean_d2d_distance(pos), n) < 2.75
        assert peak_units(
            lambda: drop_matrix(generate_rss(pos, shadowed, np.random.default_rng(0)), shadowed), n
        ) < 2.75
