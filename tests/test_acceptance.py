"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 6 through 9 share
one batch of experiment runs (module-scoped fixture) over seeds 0..9 of the
default configuration.
"""
import itertools
import time

import mpmath
import numpy as np
import pytest

from conftest import make_scenario
from d2dfl import fl, rl
from d2dfl.config import ScenarioConfig, save_config, with_overrides
from d2dfl.exchange import EXPECTED, run_exchange
from d2dfl.experiment import run_experiments, sweep_experiment, render_metrics
from d2dfl.network import ChannelParams, drop_probability
from d2dfl.scenario import generate_scenario
from d2dfl import cli

SEEDS = range(10)


def report(criterion: int, message: str):
    print(f"\n[acceptance] criterion {criterion:2d}: PASS - {message}")


def test_criterion_01_golden_protocol():
    """One transmitter with surplus 10 in the last class, two receivers each
    short by at least 10: offers 10 each, requests 10 each, the surplus
    splits 5/5, and the transmitter keeps exactly its threshold."""
    n, n_classes = 3, 4
    counts = np.zeros((n, n_classes), dtype=np.int64)
    counts[0, 3] = 20
    thresholds = np.full((n, n_classes), 10, dtype=np.int64)
    trust = np.ones((n, n, n_classes), dtype=np.int8)
    res = run_exchange(
        np.array([-1, 0, 0]), counts, thresholds, trust, np.zeros((n, n)), mode=EXPECTED
    )
    assert len(res.plans) == 2
    for plan in res.plans:
        assert plan.available[3] == 10
        assert plan.requested[3] == 10
        assert plan.buffered[3] == 5.0
        assert plan.delivered[3] == 5.0
    assert res.updated[0, 3] == 10.0
    assert res.updated[1, 3] == 5.0
    assert res.updated[2, 3] == 5.0
    report(1, "offer 10 / requests 10+10 / buffers 5+5 / sender keeps 10, all exact")


def test_criterion_02_channel_closed_form():
    """1000 random triples against 50-digit mpmath evaluation, 1e-12 relative."""
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst = 0.0
    with mpmath.workdps(50):
        for _ in range(1000):
            w = float(rng.uniform(1e-3, 10.0))
            rate = float(rng.uniform(0.0, 4.0))
            sigma2 = float(rng.uniform(1e-5, 1.0))
            ours = drop_probability(w, ChannelParams(rate_r=rate, noise_sigma2=sigma2))
            exact = 1 - mpmath.exp(-(mpmath.mpf(2) ** rate - 1) * sigma2 / w)
            if exact != 0:
                worst = max(worst, abs(ours - float(exact)) / abs(float(exact)))
            else:
                assert ours == 0.0
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    report(2, f"max relative error {worst:.2e} over 1000 triples in {elapsed:.2f}s")


def test_criterion_03_trust_safety():
    """1e4 randomized episodes at trust density 0.5: no delivery ever crosses
    a zero trust entry and no sender ends below its threshold floor."""
    rng = np.random.default_rng(7)
    episodes = 0
    scenarios = 0
    while episodes < 10_000:
        scenarios += 1
        n = int(rng.integers(3, 7))
        n_classes = int(rng.integers(2, 6))
        counts = rng.integers(0, 60, size=(n, n_classes)).astype(np.int64)
        thresholds = rng.integers(0, 40, size=(n, n_classes)).astype(np.int64)
        trust = (rng.random((n, n, n_classes)) < 0.5).astype(np.int8)
        drop = rng.uniform(0, 1, size=(n, n))
        np.fill_diagonal(drop, 0.0)
        floor = np.minimum(counts, thresholds)
        for _ in range(100):
            episodes += 1
            links = np.full(n, -1)
            for rx in range(n):
                tx = int(rng.integers(0, n))
                if tx != rx:
                    links[rx] = tx
            res = run_exchange(links, counts, thresholds, trust, drop, mode=EXPECTED)
            for plan in res.plans:
                delivered_classes = np.flatnonzero(plan.delivered > 0)
                assert np.all(trust[plan.transmitter, plan.receiver, delivered_classes] == 1)
            assert np.all(res.updated >= floor - 1e-12)
    report(3, f"{episodes} episodes over {scenarios} random scenarios, zero violations")


def test_criterion_04_conservation():
    """500 random lossless expected-mode exchanges conserve per-class totals
    with exact integer equality."""
    rng = np.random.default_rng(11)
    for _ in range(500):
        n = int(rng.integers(2, 8))
        n_classes = int(rng.integers(1, 6))
        counts = rng.integers(0, 200, size=(n, n_classes)).astype(np.int64)
        thresholds = rng.integers(0, 150, size=(n, n_classes)).astype(np.int64)
        trust = (rng.random((n, n, n_classes)) < 0.7).astype(np.int8)
        links = np.full(n, -1)
        for rx in range(n):
            tx = int(rng.integers(0, n))
            if tx != rx:
                links[rx] = tx
        res = run_exchange(
            links, counts, thresholds, trust, np.zeros((n, n)), mode=EXPECTED
        )
        before = counts.sum(axis=0)
        after = res.updated.sum(axis=0)
        assert np.array_equal(after, before.astype(float)), (before, after)
    report(4, "500 random lossless exchanges, per-class totals exactly conserved")


def well_posed_scenario(seed: int):
    """N=3, L=2, full trust, lossless, unique best donor per receiver."""
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
            counts[i, cls] = threshold + int(rng.integers(0, 6))
    thresholds = np.full((3, 2), threshold, dtype=np.int64)
    return make_scenario(counts, thresholds)


def brute_force_best_links(scenario, weights):
    best, best_score = None, -np.inf
    for combo in itertools.product(range(3), repeat=3):
        links = np.array([-1 if combo[i] == i else combo[i] for i in range(3)])
        score = float(rl.run_episode(scenario, links, weights).overall_rewards.sum())
        if score > best_score:
            best, best_score = tuple(links.tolist()), score
    return best


def test_criterion_05_bandit_optimality():
    """Trained greedy graphs match the exhaustive 3^3 argmax in >= 95% of
    50 seeds, within two minutes."""
    weights = rl.RewardWeights(
        alpha1=1.0, alpha2=1.0, alpha3=0.01, gamma=0.5, diversity_min=2, budgets=20.0
    )
    start = time.perf_counter()
    hits = 0
    for seed in range(50):
        scenario = well_posed_scenario(1000 + seed)
        oracle = brute_force_best_links(scenario, weights)
        result = rl.train(scenario, 5000, weights, np.random.default_rng(seed))
        graph = rl.extract_graph(result.policies)
        learned = tuple(-1 if graph[i] is None else graph[i] for i in range(3))
        hits += learned == oracle
    elapsed = time.perf_counter() - start
    assert hits >= 48, f"only {hits}/50 matched"
    assert elapsed < 120.0
    report(5, f"{hits}/50 seeds matched the brute-force graph in {elapsed:.0f}s")


@pytest.fixture(scope="module")
def battery():
    """All experiment runs criteria 6-9 share: three baselines, straggler
    variants, and the aggregation-interval sweep, over seeds 0..9 of the
    default config."""
    cfg0 = ScenarioConfig()
    keys, cfgs = [], []
    for seed in SEEDS:
        for baseline in ("rl", "uniform", "none"):
            keys.append((baseline, seed, 0.0, cfg0.tau_a))
            cfgs.append(with_overrides(cfg0, baseline=baseline, seed=seed))
        for baseline in ("rl", "none"):
            keys.append((baseline, seed, 0.3, cfg0.tau_a))
            cfgs.append(
                with_overrides(cfg0, baseline=baseline, seed=seed, straggler_fraction=0.3)
            )
            for tau in (1, 5, 10, 20):
                if tau == cfg0.tau_a:
                    continue  # the run above
                keys.append((baseline, seed, 0.0, tau))
                cfgs.append(with_overrides(cfg0, baseline=baseline, seed=seed, tau_a=tau))
    # One call: its rl runs share N, episodes and allow_no_link, so they
    # train as one batch.
    return cfg0, dict(zip(keys, run_experiments(cfgs)))


def test_criterion_06_convergence_ordering(battery):
    """Mean final accuracy rl > uniform > none, and rl reaches none's final
    level within half the aggregation rounds, seeds 0..9; under 10 minutes
    for its share of the shared batch."""
    cfg, runs = battery
    acc = {
        b: np.mean([runs[(b, s, 0.0, cfg.tau_a)].summary["final_accuracy"] for s in SEEDS])
        for b in ("rl", "uniform", "none")
    }
    assert acc["rl"] > acc["uniform"] > acc["none"], acc
    crossings = []
    for s in SEEDS:
        plateau = runs[("none", s, 0.0, cfg.tau_a)].fl_trace.accuracy[-1]
        trace = runs[("rl", s, 0.0, cfg.tau_a)].fl_trace.accuracy
        crossings.append(
            next((i + 1 for i, a in enumerate(trace) if a >= plateau), 2 * len(trace))
        )
    rounds = cfg.total_steps // cfg.tau_a
    assert np.mean(crossings) <= 0.5 * rounds, (crossings, rounds)
    report(
        6,
        f"accuracy rl={acc['rl']:.4f} > uniform={acc['uniform']:.4f} > none={acc['none']:.4f}; "
        f"mean crossing round {np.mean(crossings):.1f} of {rounds}",
    )


def test_criterion_07_straggler_resilience(battery):
    """Accuracy loss from 30% stragglers is smaller with the learned graph
    than without exchange, paired seeds 0..9."""
    cfg, runs = battery
    deg = {}
    for b in ("rl", "none"):
        deg[b] = np.mean(
            [
                runs[(b, s, 0.0, cfg.tau_a)].summary["final_accuracy"]
                - runs[(b, s, 0.3, cfg.tau_a)].summary["final_accuracy"]
                for s in SEEDS
            ]
        )
    assert deg["rl"] < deg["none"], deg
    report(7, f"mean degradation rl={deg['rl']:.4f} < none={deg['none']:.4f}")


def test_criterion_08_reliability(battery):
    """Learned links beat uniform links by >= 0.05 mean success probability,
    and final graphs respect every cluster budget in >= 90% of seeds."""
    cfg, runs = battery
    succ = {
        b: np.mean([runs[(b, s, 0.0, cfg.tau_a)].summary["mean_link_success"] for s in SEEDS])
        for b in ("rl", "uniform")
    }
    assert succ["rl"] - succ["uniform"] >= 0.05, succ
    within = 0
    for s in SEEDS:
        summary = runs[("rl", s, 0.0, cfg.tau_a)].summary
        within += all(
            load <= cap
            for load, cap in zip(summary["cluster_load"], summary["cluster_budgets"])
        )
    assert within >= 0.9 * len(list(SEEDS)), within
    report(
        8,
        f"success rl={succ['rl']:.3f} vs uniform={succ['uniform']:.3f} "
        f"(margin {succ['rl']-succ['uniform']:.3f}); budgets respected in {within}/10 graphs",
    )


def test_criterion_09_aggregation_interval(battery):
    """The rl-none accuracy gap at fixed total steps is non-decreasing over
    tau in {1, 5, 10, 20}, averaged over seeds 0..9."""
    cfg, runs = battery
    gaps = []
    for tau in (1, 5, 10, 20):
        gaps.append(
            float(
                np.mean(
                    [
                        runs[("rl", s, 0.0, tau)].summary["final_accuracy"]
                        - runs[("none", s, 0.0, tau)].summary["final_accuracy"]
                        for s in SEEDS
                    ]
                )
            )
        )
    assert all(b >= a for a, b in zip(gaps, gaps[1:])), gaps
    report(9, f"gap sequence over tau {{1,5,10,20}}: {[round(g, 4) for g in gaps]}")


def test_criterion_10_gradient_check():
    """Analytic gradients (both model kinds, with and without the proximal
    term) match central finite differences within 1e-5 relative at 20 random
    parameter points."""
    rng = np.random.default_rng(3)
    checked = 0
    for kind in ("linear", "mlp"):
        spec = fl.ModelSpec(kind=kind, in_dim=5, n_classes=4, hidden=7)
        x = rng.normal(size=(12, 5))
        y = rng.integers(0, 4, size=12)
        anchor = rng.normal(size=spec.n_params)
        for i in range(10):
            params = rng.normal(0, 0.6, size=spec.n_params)
            mu = 0.0 if i % 2 == 0 else 0.4
            _, grad = fl.loss_and_grad(spec, params, x, y, prox_mu=mu, anchor=anchor)
            num = np.zeros_like(params)
            h = 1e-6
            for j in range(params.size):
                up, down = params.copy(), params.copy()
                up[j] += h
                down[j] -= h
                num[j] = (
                    fl.loss_and_grad(spec, up, x, y, prox_mu=mu, anchor=anchor)[0]
                    - fl.loss_and_grad(spec, down, x, y, prox_mu=mu, anchor=anchor)[0]
                ) / (2 * h)
            rel = np.linalg.norm(grad - num) / max(np.linalg.norm(num), 1e-12)
            assert rel <= 1e-5, (kind, i, rel)
            checked += 1
    report(10, f"{checked} random parameter points within 1e-5 of finite differences")


def test_criterion_11_determinism(tmp_path, capsys):
    """Byte-identical metrics files for repeated run and sweep invocations
    with equal config and seed."""
    cfg = with_overrides(
        ScenarioConfig(),
        n_devices=6,
        samples_per_device=60,
        n_classes=4,
        classes_per_device=2,
        class_threshold=10,
        diversity_min=2,
        episodes=60,
        tau_a=10,
        total_steps=40,
        seed=5,
    )
    cfg_path = tmp_path / "cfg.ini"
    save_config(cfg, cfg_path)
    pairs = []
    for name in ("a", "b"):
        out = tmp_path / f"run_{name}.csv"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        pairs.append(out.read_bytes())
    assert pairs[0] == pairs[1]
    sweeps = []
    for name in ("a", "b"):
        out = tmp_path / f"sweep_{name}.jsonl"
        assert (
            cli.main(
                [
                    "sweep",
                    "--config",
                    str(cfg_path),
                    "--key",
                    "tau_a",
                    "--values",
                    "5,10",
                    "--out",
                    str(out),
                    "--format",
                    "jsonl",
                ]
            )
            == 0
        )
        sweeps.append(out.read_bytes())
    assert sweeps[0] == sweeps[1]
    capsys.readouterr()
    report(11, "run and sweep metrics byte-identical across repeated invocations")
