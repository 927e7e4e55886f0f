import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import make_scenario
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dfl import fl
from d2dfl.config import ScenarioConfig
from d2dfl.fl import (
    DEVICE_BLOCK,
    LabeledSet,
    ModelSpec,
    _batch_sum,
    _device_blocks,
    _draw_indices,
    _layer_widths,
    _softmax,
    _train_block,
    aggregate,
    dataset_from_counts,
    evaluate,
    full_batch_grad,
    init_params,
    local_train,
    loss_and_grad,
    make_class_means,
    run_fl,
    run_fl_runs,
)

LINEAR = ModelSpec(kind="linear", in_dim=4, n_classes=3)
MLP = ModelSpec(kind="mlp", in_dim=4, n_classes=3, hidden=6)
# numpy sums a last axis of 8 or more with eight accumulators, so the class
# sums of 8 and of 17 classes (eight-accumulator blocks plus a remainder)
# take other branches than those of 3 classes.
WIDE_SPECS = {
    "linear": LINEAR,
    "mlp": MLP,
    "linear-c8": ModelSpec(kind="linear", in_dim=4, n_classes=8),
    "mlp-c8": ModelSpec(kind="mlp", in_dim=4, n_classes=8, hidden=6),
    "linear-c17": ModelSpec(kind="linear", in_dim=4, n_classes=17),
    "mlp-c17": ModelSpec(kind="mlp", in_dim=4, n_classes=17, hidden=6),
}


def model_config(spec: ModelSpec, cfg: ScenarioConfig, **keys) -> ScenarioConfig:
    """cfg with the model keys that name spec and keys replaced. Not
    validated, so a test may use a model or schedule smaller than a config
    file allows."""
    return replace(
        cfg, model=spec.kind, feature_dim=spec.in_dim, n_classes=spec.n_classes,
        hidden_units=spec.hidden, **keys,
    )


def fl_scenario(spec: ModelSpec, datasets, test: LabeledSet, cfg: ScenarioConfig):
    """A Scenario around explicit FL datasets and test set, its config
    model_config(spec, cfg), with placeholder fields, as conftest's
    make_scenario builds."""
    counts = np.array([d.class_counts() for d in datasets])
    scenario = make_scenario(counts, np.zeros_like(counts), config=model_config(spec, cfg))
    return replace(scenario, datasets=list(datasets), test_set=test)


def toy_data(spec: ModelSpec, n=10, seed=0) -> LabeledSet:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, spec.in_dim))
    y = rng.integers(0, spec.n_classes, size=n)
    return LabeledSet(x, y, spec.n_classes)


def row_logits(spec: ModelSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(n, C) logits as x @ w + b over whole rows, the formula whose row
    argmax evaluate must reproduce."""
    d, h, c = spec.in_dim, spec.hidden, spec.n_classes
    if spec.kind == "linear":
        return x @ params[: d * c].reshape(d, c) + params[d * c :]
    w1, b1 = params[: d * h].reshape(d, h), params[d * h : d * h + h]
    w2, b2 = params[d * h + h : -c].reshape(h, c), params[-c:]
    return np.tanh(x @ w1 + b1) @ w2 + b2


def row_accuracy(spec: ModelSpec, params: np.ndarray, test: LabeledSet) -> float:
    return float(np.mean(row_logits(spec, params, test.x).argmax(axis=1) == test.y))


def numeric_grad(fn, params, h=1e-6):
    grad = np.zeros_like(params)
    for i in range(params.size):
        up = params.copy()
        up[i] += h
        down = params.copy()
        down[i] -= h
        grad[i] = (fn(up) - fn(down)) / (2 * h)
    return grad


class TestGradients:
    @pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp"])
    def test_matches_central_differences(self, spec):
        data = toy_data(spec)
        rng = np.random.default_rng(1)
        for _ in range(5):
            params = rng.normal(0, 0.5, size=spec.n_params)
            _, grad = loss_and_grad(spec, params, data.x, data.y)
            ref = numeric_grad(lambda p: loss_and_grad(spec, p, data.x, data.y)[0], params)
            assert np.linalg.norm(grad - ref) <= 1e-5 * max(np.linalg.norm(ref), 1.0)

    @pytest.mark.parametrize("spec", [LINEAR, MLP], ids=["linear", "mlp"])
    def test_proximal_term_in_gradient(self, spec):
        data = toy_data(spec, seed=2)
        rng = np.random.default_rng(3)
        params = rng.normal(0, 0.5, size=spec.n_params)
        anchor = rng.normal(0, 0.5, size=spec.n_params)
        mu = 0.7
        _, grad = loss_and_grad(spec, params, data.x, data.y, prox_mu=mu, anchor=anchor)
        ref = numeric_grad(
            lambda p: loss_and_grad(spec, p, data.x, data.y, prox_mu=mu, anchor=anchor)[0],
            params,
        )
        assert np.linalg.norm(grad - ref) <= 1e-5 * max(np.linalg.norm(ref), 1.0)


class TestLocalTrain:
    def test_zero_learning_rate_is_identity(self):
        data = toy_data(LINEAR)
        params = init_params(LINEAR, np.random.default_rng(0))
        cfg = model_config(LINEAR, ScenarioConfig(), tau_a=5, learning_rate=0.0)
        out = local_train(params, data, cfg, np.random.default_rng(1))
        assert np.array_equal(out, params)

    def test_loss_decreases_at_small_lr(self):
        data = toy_data(LINEAR, n=60, seed=4)
        params = init_params(LINEAR, np.random.default_rng(5))
        before, _ = loss_and_grad(LINEAR, params, data.x, data.y)
        cfg = model_config(LINEAR, ScenarioConfig(), tau_a=200, learning_rate=0.05, batch_size=60)
        out = local_train(params, data, cfg, np.random.default_rng(6))
        after, _ = loss_and_grad(LINEAR, out, data.x, data.y)
        assert after < before

    def test_empty_dataset_untouched(self):
        empty = LabeledSet(np.empty((0, 4)), np.empty(0, dtype=np.int64), 3)
        params = init_params(LINEAR, np.random.default_rng(0))
        cfg = model_config(LINEAR, ScenarioConfig(), tau_a=3, learning_rate=0.1)
        out = local_train(params, empty, cfg, np.random.default_rng(1))
        assert np.array_equal(out, params)

    def test_large_prox_pins_to_anchor(self):
        # lr * mu stays below 1 so the proximal quadratic is stable.
        data = toy_data(LINEAR, n=40, seed=7)
        anchor = init_params(LINEAR, np.random.default_rng(8))
        dists = []
        for mu in (0.0, 1.0, 10.0, 80.0):
            cfg = model_config(
                LINEAR, ScenarioConfig(), tau_a=100, learning_rate=0.01, scheme="fedprox",
                prox_mu=mu,
            )
            out = local_train(anchor, data, cfg, np.random.default_rng(9), global_params=anchor)
            dists.append(np.linalg.norm(out - anchor))
        assert dists == sorted(dists, reverse=True)

    def test_fedprox_applies_config_prox_mu(self):
        # The steps of a direct _train_block call with the config's mu, on
        # the indices local_train draws; with mu = 0 they differ.
        data = toy_data(LINEAR, n=40, seed=7)
        anchor = init_params(LINEAR, np.random.default_rng(8))
        start = init_params(LINEAR, np.random.default_rng(10), scale=1.0)
        cfg = model_config(
            LINEAR, ScenarioConfig(), scheme="fedprox", tau_a=20, learning_rate=0.05,
            prox_mu=0.7, batch_size=8,
        )
        out = local_train(start, data, cfg, np.random.default_rng(9), global_params=anchor)
        idx = np.random.default_rng(9).integers(0, len(data), size=(20, 1, 8))
        want = _train_block(LINEAR, start[None], [data], 20, 0.05, 0.7, anchor, idx)[0]
        assert np.array_equal(out, want)
        without = _train_block(LINEAR, start[None], [data], 20, 0.05, 0.0, None, idx)[0]
        assert not np.allclose(out, without)


class TestAggregate:
    def test_average_of_equal_models(self):
        m = np.array([1.0, -2.0, 3.0])
        out = aggregate([m.copy(), m.copy()], [3.0, 5.0], "fedavg", np.zeros(3), 0.1)
        assert np.allclose(out, m)

    def test_weighted_average_value(self):
        m1 = np.array([0.0, 4.0])
        m2 = np.array([8.0, 0.0])
        out = aggregate([m1, m2], [1.0, 3.0], "fedavg", np.zeros(2), 0.1)
        assert np.allclose(out, (m1 + 3 * m2) / 4)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(10)
        models = [rng.normal(size=5) for _ in range(4)]
        weights = [1.0, 2.0, 3.0, 4.0]
        a = aggregate(models, weights, "fedavg", np.zeros(5), 0.1)
        order = [2, 0, 3, 1]
        b = aggregate(
            [models[i] for i in order], [weights[i] for i in order], "fedavg", np.zeros(5), 0.1
        )
        assert np.allclose(a, b, atol=1e-12)

    def test_empty_keeps_global(self):
        g = np.array([1.0, 2.0])
        with pytest.warns(UserWarning):
            out = aggregate([], [], "fedavg", g, 0.1)
        assert np.array_equal(out, g)

    def test_fedsgd_applies_step(self):
        g = np.array([1.0, 1.0])
        grad = np.array([0.5, -0.5])
        out = aggregate([grad], [1.0], "fedsgd", g, lr=0.2)
        assert np.allclose(out, g - 0.2 * grad)


class TestEvaluate:
    def test_constant_predictor_on_single_class(self):
        spec = ModelSpec(kind="linear", in_dim=2, n_classes=3)
        params = np.zeros(spec.n_params)
        params[-3:] = [0.0, 10.0, 0.0]  # bias forces class 1
        test = LabeledSet(np.random.default_rng(0).normal(size=(20, 2)), np.full(20, 1), 3)
        assert evaluate(spec, params, test) == 1.0

    def test_chance_level_for_random_params(self):
        spec = ModelSpec(kind="linear", in_dim=3, n_classes=4)
        accs = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            params = rng.normal(size=spec.n_params)
            x = rng.normal(size=(4000, 3))
            y = np.tile(np.arange(4), 1000)
            accs.append(evaluate(spec, params, LabeledSet(x, y, 4)))
        assert np.mean(accs) == pytest.approx(0.25, abs=0.05)

    def test_memorizing_model_is_perfect(self):
        # Linearly separable blobs far apart.
        means = np.array([[-50.0, 0.0], [50.0, 0.0]])
        rng = np.random.default_rng(3)
        data = dataset_from_counts(means, np.array([30, 30]), rng, noise=0.5)
        spec = ModelSpec(kind="linear", in_dim=2, n_classes=2)
        params = init_params(spec, rng)
        cfg = model_config(spec, ScenarioConfig(), tau_a=300, learning_rate=0.5, batch_size=60)
        params = local_train(params, data, cfg, rng)
        assert evaluate(spec, params, data) == 1.0

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError):
            evaluate(LINEAR, np.zeros(LINEAR.n_params), LabeledSet(np.empty((0, 4)), np.empty(0, dtype=int), 3))

    SIZES = (5, 1933)

    @pytest.mark.parametrize("name", sorted(WIDE_SPECS))
    def test_equals_row_argmax(self, name):
        spec = WIDE_SPECS[name]
        for n in self.SIZES:
            data = toy_data(spec, n=n, seed=n)
            params = init_params(spec, np.random.default_rng(n), scale=1.0)
            accuracy = evaluate(spec, params, data)
            assert type(accuracy) is float  # metrics render floats with repr
            assert accuracy == row_accuracy(spec, params, data)
            stale = np.full(n * _layer_widths(spec) + 3, np.nan)
            assert evaluate(spec, params, data, stale) == accuracy

    def test_ties_and_non_finite_logits_equal_row_argmax(self):
        # Integer weights and features tie classes exactly; weights of
        # +-1e308 overflow to +-inf, and inf - inf in a product gives NaN.
        rng = np.random.default_rng(11)
        for c in (1, 2, 3, 8, 9, 17):
            spec = ModelSpec(kind="linear", in_dim=3, n_classes=c)
            for n in self.SIZES:
                x = rng.choice([-2.0, 0.0, 1.0, 2.0], size=(n, 3))
                data = LabeledSet(x, rng.integers(0, c, size=n), c)
                for values in ([-1.0, 0.0, 1.0], [-1e308, 0.0, 1.0, 1e308]):
                    params = rng.choice(values, size=spec.n_params)
                    with np.errstate(over="ignore", invalid="ignore"):
                        assert evaluate(spec, params, data) == row_accuracy(spec, params, data)


def mixture_split(n_devices, per_device, spec, seed, iid=True):
    rng = np.random.default_rng(seed)
    means = make_class_means(spec.n_classes, spec.in_dim, rng, spread=4.0)
    counts = np.full(spec.n_classes, per_device // spec.n_classes)
    sets = [dataset_from_counts(means, counts, rng, noise=1.0) for _ in range(n_devices)]
    test = dataset_from_counts(means, np.full(spec.n_classes, 50), rng, noise=1.0)
    return sets, test, means


class TestRunFl:
    def test_single_aggregation_boundary(self):
        spec = ModelSpec(kind="linear", in_dim=3, n_classes=3)
        sets, test, _ = mixture_split(3, 30, spec, seed=0)
        cfg = ScenarioConfig(tau_a=20, total_steps=20)
        trace = run_fl(fl_scenario(spec, sets, test, cfg), np.random.default_rng(0))
        assert len(trace.accuracy) == 1

    def test_deterministic_per_seed(self):
        spec = ModelSpec(kind="linear", in_dim=3, n_classes=3)
        sets, test, _ = mixture_split(3, 30, spec, seed=1)
        cfg = ScenarioConfig(tau_a=5, total_steps=30)
        t1 = run_fl(fl_scenario(spec, sets, test, cfg), np.random.default_rng(7))
        t2 = run_fl(fl_scenario(spec, sets, test, cfg), np.random.default_rng(7))
        assert t1.accuracy == t2.accuracy

    def test_iid_matches_centralized_oracle(self):
        # Identical local datasets: federated averaging must track training
        # the same model centrally on that dataset. With full-batch steps
        # both are the same gradient descent from the same initial model, so
        # the accuracies agree exactly; minibatch chains would differ by
        # sampling noise alone.
        spec = ModelSpec(kind="linear", in_dim=3, n_classes=3)
        rng = np.random.default_rng(2)
        means = make_class_means(spec.n_classes, spec.in_dim, rng, spread=4.0)
        shared = dataset_from_counts(means, np.array([40, 40, 40]), rng, noise=1.0)
        test = dataset_from_counts(means, np.array([60, 60, 60]), rng, noise=1.0)
        sets = [shared, shared, shared]
        cfg = ScenarioConfig(tau_a=10, total_steps=100, learning_rate=0.1, batch_size=len(shared))
        trace = run_fl(fl_scenario(spec, sets, test, cfg), np.random.default_rng(11))

        params = init_params(spec, np.random.default_rng(11))
        central_rng = np.random.default_rng(12)
        central_acc = []
        for _ in range(cfg.total_steps // cfg.tau_a):
            params = local_train(params, shared, model_config(spec, cfg), central_rng)
            central_acc.append(evaluate(spec, params, test))
        assert trace.accuracy == central_acc

    def test_all_stragglers_keep_global_model(self):
        spec = ModelSpec(kind="linear", in_dim=3, n_classes=3)
        sets, test, _ = mixture_split(3, 30, spec, seed=3)
        cfg = ScenarioConfig(tau_a=5, total_steps=10)
        with pytest.warns(UserWarning):
            trace = run_fl(
                fl_scenario(spec, sets, test, cfg), np.random.default_rng(4), frozenset({0, 1, 2})
            )
        assert trace.participants == [0, 0]
        assert trace.accuracy[0] == trace.accuracy[1]

    def test_fedsgd_runs_and_learns(self):
        spec = ModelSpec(kind="linear", in_dim=3, n_classes=3)
        sets, test, _ = mixture_split(4, 60, spec, seed=5)
        cfg = ScenarioConfig(scheme="fedsgd", tau_a=1, total_steps=400, learning_rate=0.5)
        trace = run_fl(fl_scenario(spec, sets, test, cfg), np.random.default_rng(6))
        assert trace.accuracy[-1] > 0.8

    def test_fedprox_runs_and_learns(self):
        spec = ModelSpec(kind="linear", in_dim=3, n_classes=3)
        sets, test, _ = mixture_split(4, 60, spec, seed=8)
        cfg = ScenarioConfig(scheme="fedprox", tau_a=5, total_steps=100, prox_mu=0.1)
        trace = run_fl(fl_scenario(spec, sets, test, cfg), np.random.default_rng(9))
        assert trace.accuracy[-1] > 0.8

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_trains_the_model_its_config_names(self, kind):
        data_spec = ModelSpec("linear", 3, 3)
        sets, test, _ = mixture_split(3, 30, data_spec, seed=0)
        cfg = ScenarioConfig(
            model=kind, feature_dim=3, n_classes=3, hidden_units=3, tau_a=5, total_steps=10
        )
        scenario = replace(fl_scenario(data_spec, sets, test, ScenarioConfig()), config=cfg)
        trace = run_fl(scenario, np.random.default_rng(0))
        assert trace.params.size == ModelSpec(kind, 3, 3, 3).n_params


class TestModelShapes:
    def test_param_counts(self):
        assert LINEAR.n_params == (4 + 1) * 3
        assert MLP.n_params == (4 + 1) * 6 + (6 + 1) * 3

    def test_hidden_default_is_config_default(self):
        assert ModelSpec("mlp", 2, 3).hidden == ScenarioConfig().hidden_units

    def test_evaluate_mlp_seven_points(self):
        data = toy_data(MLP, n=7)
        params = init_params(MLP, np.random.default_rng(1), scale=1.0)
        assert row_logits(MLP, params, data.x).shape == (7, 3)
        assert evaluate(MLP, params, data) * 7 == round(row_accuracy(MLP, params, data) * 7)

    def test_full_batch_grad_matches_loss_grad(self):
        data = toy_data(LINEAR, seed=9)
        params = init_params(LINEAR, np.random.default_rng(10))
        g = full_batch_grad(LINEAR, params, data)
        _, ref = loss_and_grad(LINEAR, params, data.x, data.y)
        assert np.array_equal(g, ref)


def reference_loss_and_grad(spec, params, x, y, prox_mu=0.0, anchor=None):
    """Single-device loss and gradient written with 2-D matrix products
    (x @ w + b, x.T @ delta, delta.sum(axis=0)), independent of the stacked
    kernel that fl uses."""
    n, d, c = x.shape[0], spec.in_dim, spec.n_classes
    rows = np.arange(n)
    if spec.kind == "linear":
        w, b = params[: d * c].reshape(d, c), params[d * c :]
        z = x @ w + b
    else:
        h = spec.hidden
        w1 = params[: d * h].reshape(d, h)
        b1 = params[d * h : d * h + h]
        w2 = params[d * h + h : d * h + h + h * c].reshape(h, c)
        b2 = params[d * h + h + h * c :]
        hid = np.tanh(x @ w1 + b1)
        z = hid @ w2 + b2
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    loss = -np.log(probs[rows, y] + 1e-300).mean()
    delta = probs
    delta[rows, y] -= 1.0
    delta /= n
    if spec.kind == "linear":
        grad = np.concatenate([(x.T @ delta).ravel(), delta.sum(axis=0)])
    else:
        dhid = (delta @ w2.T) * (1.0 - hid**2)
        grad = np.concatenate(
            [(x.T @ dhid).ravel(), dhid.sum(axis=0), (hid.T @ delta).ravel(), delta.sum(axis=0)]
        )
    if prox_mu > 0.0:
        diff = params - anchor
        loss = loss + 0.5 * prox_mu * float(diff @ diff)
        grad = grad + prox_mu * diff
    return float(loss), grad


def loop_oracle(spec, datasets, test, config, stragglers, rng):
    """run_fl as a plain loop: every device with data, stragglers included,
    trains step by step on its own generator through
    reference_loss_and_grad; stragglers' payloads are then dropped.
    Returns the per-round accuracy and participants and the final global
    parameters."""
    params_g = init_params(spec, rng)
    device_rngs = [np.random.default_rng(rng.integers(0, 2**63)) for _ in datasets]
    accuracy, participants = [], []
    for _ in range(config.total_steps // config.tau_a):
        payloads, weights = [], []
        for i, data in enumerate(datasets):
            n = len(data)
            if n == 0:
                continue
            if config.scheme == "fedsgd":
                payload = reference_loss_and_grad(spec, params_g, data.x, data.y)[1]
            else:
                mu = config.prox_mu if config.scheme == "fedprox" else 0.0
                payload = params_g.copy()
                for _ in range(config.tau_a):
                    if config.batch_size >= n:
                        x, y = data.x, data.y
                    else:
                        idx = device_rngs[i].integers(0, n, size=config.batch_size)
                        x, y = data.x[idx], data.y[idx]
                    _, grad = reference_loss_and_grad(spec, payload, x, y, mu, params_g)
                    payload -= config.learning_rate * grad
            if i in stragglers:
                continue
            payloads.append(payload)
            weights.append(float(n) if config.weighting == "data" else 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            params_g = aggregate(payloads, weights, config.scheme, params_g, config.learning_rate)
        accuracy.append(evaluate(spec, params_g, test))
        participants.append(len(payloads))
    return accuracy, participants, params_g


@st.composite
def fl_inputs(draw):
    spec = ModelSpec(
        kind=draw(st.sampled_from(["linear", "mlp"])),
        in_dim=draw(st.integers(1, 4)),
        n_classes=draw(
            st.one_of(st.integers(2, 4), st.sampled_from([7, 8, 9, 16, 17]), st.integers(8, 20))
        ),
        hidden=draw(st.integers(1, 5)),
    )
    batch_size = draw(st.integers(1, 6))
    size = st.one_of(
        st.sampled_from([0, max(batch_size - 1, 0), batch_size, batch_size + 1]),
        st.integers(0, 3 * batch_size),
    )
    sizes = draw(st.lists(size, min_size=1, max_size=40))
    strag = draw(st.sampled_from(["none", "some", "all"]))
    if strag == "some":
        stragglers = frozenset(draw(st.sets(st.integers(0, len(sizes) - 1))))
    else:
        stragglers = frozenset(range(len(sizes)) if strag == "all" else ())
    tau_a = draw(st.integers(1, 3))
    config = ScenarioConfig(
        scheme=draw(st.sampled_from(["fedavg", "fedprox", "fedsgd"])),
        tau_a=tau_a,
        total_steps=tau_a * draw(st.integers(1, 3)),
        learning_rate=draw(st.floats(0.01, 1.0)),
        prox_mu=draw(st.sampled_from([0.0, 0.3])),
        batch_size=batch_size,
        weighting=draw(st.sampled_from(["data", "uniform"])),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    datasets = [
        LabeledSet(
            rng.normal(size=(n, spec.in_dim)), rng.integers(0, spec.n_classes, n), spec.n_classes
        )
        for n in sizes
    ]
    test = LabeledSet(
        rng.normal(size=(30, spec.in_dim)), rng.integers(0, spec.n_classes, 30), spec.n_classes
    )
    return spec, datasets, test, config, stragglers, draw(st.integers(0, 2**32 - 1))


class TestBatchedMatchesLoop:
    @settings(max_examples=150, deadline=None)
    @given(fl_inputs())
    def test_equal_to_per_device_loop(self, inputs):
        spec, datasets, test, config, stragglers, seed = inputs
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            scenario = fl_scenario(spec, datasets, test, config)
            trace = run_fl(scenario, np.random.default_rng(seed), stragglers)
        oracle_rng = np.random.default_rng(seed)
        accuracy, participants, params = loop_oracle(
            spec, datasets, test, config, stragglers, oracle_rng
        )
        assert trace.accuracy == accuracy
        assert trace.participants == participants
        assert np.array_equal(trace.params, params)

    @pytest.mark.parametrize("spec", WIDE_SPECS.values(), ids=WIDE_SPECS.keys())
    def test_stacked_gradient_equals_each_device(self, spec):
        rng = np.random.default_rng(13)
        params = rng.normal(0, 0.5, size=(5, spec.n_params))
        x = rng.normal(size=(5, 7, spec.in_dim))
        y = rng.integers(0, spec.n_classes, size=(5, 7))
        anchor = rng.normal(size=spec.n_params)
        loss, grad = loss_and_grad(spec, params, x, y, prox_mu=0.4, anchor=anchor)
        for k in range(5):
            ref_loss, ref_grad = reference_loss_and_grad(
                spec, params[k], x[k], y[k], prox_mu=0.4, anchor=anchor
            )
            assert np.array_equal(grad[k], ref_grad)
            assert loss[k] == pytest.approx(ref_loss, rel=1e-12)

    @pytest.mark.parametrize("mu", [0.0, 0.4])
    @pytest.mark.parametrize("spec", WIDE_SPECS.values(), ids=WIDE_SPECS.keys())
    def test_single_device_equals_reference_bitwise(self, spec, mu):
        rng = np.random.default_rng(17)
        for n in (1, 7, 32, 300):
            params = rng.normal(0, 0.5, size=spec.n_params)
            x = rng.normal(size=(n, spec.in_dim))
            y = rng.integers(0, spec.n_classes, size=n)
            anchor = rng.normal(size=spec.n_params)
            loss, grad = loss_and_grad(spec, params, x, y, prox_mu=mu, anchor=anchor)
            ref_loss, ref_grad = reference_loss_and_grad(spec, params, x, y, mu, anchor)
            assert loss == ref_loss
            assert np.array_equal(grad, ref_grad)


class TestRunFlManyBlocks:
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    @pytest.mark.parametrize("scheme", ["fedavg", "fedprox"])
    def test_equal_to_per_device_loop(self, scheme, kind):
        # 2 * DEVICE_BLOCK + 7 devices with more points than a batch train in
        # three near-equal minibatch blocks; every seventh device of the
        # list straggles, so one more big device goes before every six of
        # them. Ten more devices, at or below batch_size, take full-batch
        # steps in groups of equal size.
        spec = ModelSpec(kind=kind, in_dim=3, n_classes=9, hidden=4)
        batch_size = 4
        rng = np.random.default_rng(21)
        n_mini = 2 * DEVICE_BLOCK + 7
        big = rng.integers(batch_size + 1, 3 * batch_size + 1, n_mini + -(-n_mini // 6))
        sizes = [*big, 0, 1, 3, 3, 3, 4, 4, 4, 4, 2]
        datasets = [LabeledSet(rng.normal(size=(n, 3)), rng.integers(0, 9, n), 9) for n in sizes]
        test = LabeledSet(rng.normal(size=(50, 3)), rng.integers(0, 9, 50), 9)
        stragglers = frozenset(range(0, len(sizes), 7))
        config = ScenarioConfig(
            scheme=scheme, tau_a=3, total_steps=6, learning_rate=0.3, prox_mu=0.3,
            batch_size=batch_size,
        )
        active = [len(d) for i, d in enumerate(datasets) if len(d) and i not in stragglers]
        blocks = _device_blocks(active, batch_size)
        lengths = [len(b) for b in blocks if active[b[0]] > batch_size]
        assert len(lengths) == 3 and sum(lengths) == n_mini
        assert max(lengths) - min(lengths) <= 1
        scenario = fl_scenario(spec, datasets, test, config)
        trace = run_fl(scenario, np.random.default_rng(5), stragglers)
        accuracy, participants, params = loop_oracle(
            spec, datasets, test, config, stragglers, np.random.default_rng(5)
        )
        assert trace.accuracy == accuracy
        assert trace.participants == participants
        assert np.array_equal(trace.params, params)


class TestDeviceBlocks:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(1, 12), max_size=4 * DEVICE_BLOCK + 5),
        st.integers(1, 10),
    )
    def test_partition_of_positions(self, sizes, batch_size):
        blocks = _device_blocks(sizes, batch_size)
        assert sorted(p for b in blocks for p in b) == list(range(len(sizes)))
        assert all(0 < len(b) <= DEVICE_BLOCK for b in blocks)
        groups: dict = {}
        for b in blocks:
            key = None if sizes[b[0]] > batch_size else sizes[b[0]]
            if key is not None:
                # a full-batch block holds devices of one size
                assert {sizes[p] for p in b} == {key}
            else:
                assert all(sizes[p] > batch_size for p in b)
            groups.setdefault(key, []).append(len(b))
        for lengths in groups.values():
            assert max(lengths) - min(lengths) <= 1
            assert len(lengths) == -(-sum(lengths) // DEVICE_BLOCK)

    def test_seventy_devices_split_evenly(self):
        # stragglers_n100 trains 70 minibatch devices
        parts = -(-70 // DEVICE_BLOCK)
        lengths = [len(b) for b in _device_blocks([40] * 70, 32)]
        assert sorted(lengths) == sorted(70 // parts + (i < 70 % parts) for i in range(parts))


class TestRunFlBlockWidth:
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    @pytest.mark.parametrize("scheme", ["fedavg", "fedprox"])
    def test_same_trace_for_any_block_width(self, scheme, kind, monkeypatch):
        # An odd tau_a * batch_size leaves a carried half every other round.
        spec = ModelSpec(kind=kind, in_dim=3, n_classes=5, hidden=4)
        batch_size = 3
        rng = np.random.default_rng(8)
        sizes = [*rng.integers(batch_size + 1, 40, 2 * DEVICE_BLOCK - 5), 0, 2, 2, 3, 1]
        datasets = [LabeledSet(rng.normal(size=(n, 3)), rng.integers(0, 5, n), 5) for n in sizes]
        test = LabeledSet(rng.normal(size=(40, 3)), rng.integers(0, 5, 40), 5)
        stragglers = frozenset(range(1, len(sizes), 5))
        config = ScenarioConfig(
            scheme=scheme, tau_a=3, total_steps=9, learning_rate=0.3, prox_mu=0.3,
            batch_size=batch_size,
        )
        traces = []
        for width in (1, 5, DEVICE_BLOCK):
            monkeypatch.setattr(fl, "DEVICE_BLOCK", width)
            scenario = fl_scenario(spec, datasets, test, config)
            traces.append(run_fl(scenario, np.random.default_rng(3), stragglers))
        for trace in traces[:2]:
            assert trace.accuracy == traces[2].accuracy
            assert trace.participants == traces[2].participants
            assert np.array_equal(trace.params, traces[2].params)


@st.composite
def fl_runs(draw):
    """1-4 runs that share fl.BATCH_KEY: one model, scheme and schedule,
    each run with its own devices of different sizes (full-batch ones
    included), stragglers, weighting, test set and seed."""
    spec = ModelSpec(
        kind=draw(st.sampled_from(["linear", "mlp"])),
        in_dim=draw(st.integers(1, 4)),
        n_classes=draw(st.sampled_from([2, 3, 9])),
        hidden=draw(st.integers(1, 4)),
    )
    batch_size = draw(st.integers(1, 5))
    tau_a = draw(st.integers(1, 3))
    shared = {
        "scheme": draw(st.sampled_from(["fedavg", "fedprox", "fedsgd"])),
        "tau_a": tau_a,
        "total_steps": tau_a * draw(st.integers(1, 3)),
        "learning_rate": draw(st.floats(0.01, 1.0)),
        "prox_mu": draw(st.sampled_from([0.0, 0.3])),
        "batch_size": batch_size,
    }
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = st.one_of(
        st.sampled_from([0, batch_size, batch_size + 1]), st.integers(0, 3 * batch_size)
    )
    runs = []
    for _ in range(draw(st.integers(1, 4))):
        sizes = draw(st.lists(size, min_size=1, max_size=12))
        datasets = [
            LabeledSet(rng.normal(size=(n, spec.in_dim)), rng.integers(0, spec.n_classes, n),
                       spec.n_classes)
            for n in sizes
        ]
        m = draw(st.integers(1, 40))
        test = LabeledSet(
            rng.normal(size=(m, spec.in_dim)), rng.integers(0, spec.n_classes, m), spec.n_classes
        )
        config = ScenarioConfig(weighting=draw(st.sampled_from(["data", "uniform"])), **shared)
        stragglers = frozenset(draw(st.sets(st.integers(0, len(sizes) - 1))))
        runs.append((datasets, test, config, draw(st.integers(0, 2**32 - 1)), stragglers))
    return spec, runs


class TestRunFlRuns:
    """run_fl_runs trains runs together, each bit-identical to its run_fl."""

    @settings(max_examples=60, deadline=None)
    @given(fl_runs())
    def test_each_run_equals_run_fl_alone(self, inputs):
        spec, runs = inputs
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            alone = [
                run_fl(fl_scenario(spec, sets, test, cfg), np.random.default_rng(seed), lagging)
                for sets, test, cfg, seed, lagging in runs
            ]
            for width in (1, 5, 64):  # blocks that straddle runs
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(fl, "DEVICE_BLOCK", width)
                    sets, tests, cfgs, seeds, lagging = zip(*runs)
                    scenarios = [fl_scenario(spec, *run) for run in zip(sets, tests, cfgs)]
                    rngs = [np.random.default_rng(seed) for seed in seeds]
                    together = run_fl_runs(scenarios, rngs, lagging)
                for got, want in zip(together, alone, strict=True):
                    assert got.accuracy == want.accuracy
                    assert got.participants == want.participants
                    assert np.array_equal(got.params, want.params)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("model", "mlp"), ("feature_dim", 5), ("n_classes", 7), ("hidden_units", 3),
            ("scheme", "fedprox"), ("tau_a", 2), ("total_steps", 10), ("learning_rate", 0.5),
            ("prox_mu", 0.2), ("batch_size", 4),
        ],
    )
    def test_mixed_batch_rejected(self, key, value):
        assert key in fl.BATCH_KEY
        spec = ModelSpec(kind="linear", in_dim=3, n_classes=3)
        sets, test, _ = mixture_split(2, 20, spec, seed=0)
        cfgs = [ScenarioConfig(), ScenarioConfig(**{key: value})]
        scenario = fl_scenario(spec, sets, test, ScenarioConfig())
        scenarios = [replace(scenario, config=cfg) for cfg in cfgs]
        rngs = [np.random.default_rng(0), np.random.default_rng(1)]
        with pytest.raises(ValueError, match=f"share {key!r}"):
            run_fl_runs(scenarios, rngs, [frozenset()] * 2)

    def test_names_first_differing_key(self):
        assert fl.BATCH_KEY == (
            "model", "feature_dim", "n_classes", "hidden_units", "scheme", "tau_a",
            "total_steps", "learning_rate", "prox_mu", "batch_size",
        )
        spec = ModelSpec(kind="linear", in_dim=3, n_classes=3)
        sets, test, _ = mixture_split(2, 20, spec, seed=0)
        cfgs = [ScenarioConfig(), ScenarioConfig(batch_size=4, scheme="fedsgd", prox_mu=0.5)]
        scenario = fl_scenario(spec, sets, test, ScenarioConfig())
        scenarios = [replace(scenario, config=cfg) for cfg in cfgs]
        rngs = [np.random.default_rng(0), np.random.default_rng(1)]
        with pytest.raises(ValueError, match="share 'scheme'"):
            run_fl_runs(scenarios, rngs, [frozenset()] * 2)


# Lemire's rule rejects about half the halves at 2**31 + 1 and a quarter at
# 3 * 2**30, and almost none at the small sizes.
DRAW_SIZES = [2, 3, 33, 160, 2**31 + 1, 3 * 2**30, 2**32 - 1]


class TestDrawIndices:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.sampled_from(DRAW_SIZES), min_size=1, max_size=5),
        # (tau_a, batch_size) with a product from 1 to 40, odd or even
        st.integers(1, 40).flatmap(
            lambda count: st.sampled_from(
                [(s, count // s) for s in range(1, count + 1) if count % s == 0]
            )
        ),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_integers_round_after_round(self, sizes, shape, rounds, seed):
        steps, batch_size = shape
        seeds = np.random.SeedSequence(seed).spawn(len(sizes))
        gens = [np.random.PCG64(s) for s in seeds]
        refs = [np.random.default_rng(s) for s in seeds]
        n = np.array(sizes, np.int64)[:, None]
        offsets = np.cumsum(n, axis=0) - n
        carry = np.full(len(sizes), -1, np.int64)
        for _ in range(rounds):
            idx = _draw_indices(gens, n.astype(np.uint64), offsets, carry, steps, batch_size)
            assert idx.shape == (steps, len(sizes), batch_size)
            for k, ref in enumerate(refs):
                off = int(offsets[k, 0])
                expected = ref.integers(off, off + sizes[k], size=(steps, batch_size))
                assert np.array_equal(idx[:, k], expected)
        for k, ref in enumerate(refs):
            # A half that integers leaves pending in the generator is the
            # carried one, and both generators are at the same word.
            state = ref.bit_generator.state
            assert carry[k] == (state["uinteger"] if state["has_uint32"] else -1)
            assert gens[k].random_raw() == ref.bit_generator.random_raw()


STEP_CLASSES = [2, 7, 8, 9, 17, 129]
STEP_BATCHES = [1, 7, 8, 32, 33]


class TestStepPieces:
    """The pieces of the stacked step are bit-identical to the plain
    formulas they replace."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(STEP_CLASSES),
        st.sampled_from(STEP_BATCHES),
        st.integers(1, 40),
        st.sampled_from([0.01, 1.0, 30.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_bias_in_planes_softmax(self, n_classes, batch, devices, scale, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(0.0, scale, size=(devices, batch, n_classes))
        b = rng.normal(0.0, scale, size=(devices, n_classes))
        zb = z + b[:, None]
        e = np.exp(zb - zb.max(axis=-1, keepdims=True))
        out = _softmax(z, b)
        assert out.flags.c_contiguous
        assert np.array_equal(out, e / e.sum(axis=-1, keepdims=True))

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([1, *STEP_CLASSES]),
        st.sampled_from(STEP_BATCHES),
        st.integers(1, 40),
        st.integers(0, 2**32 - 1),
    )
    def test_batch_sum(self, width, batch, devices, seed):
        # width 1 is a pairwise sum over the batch, wider ones add rows in order
        a = np.random.default_rng(seed).normal(size=(devices, batch, width))
        assert np.array_equal(_batch_sum(a), a.sum(axis=1))


class TestSoftmax:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(st.sampled_from([1, 7, 8, 9, 16, 17, 128, 129, 144, 300]), st.integers(1, 300)),
        st.tuples(st.integers(1, 4), st.integers(1, 40)),
        st.sampled_from([0.01, 1.0, 30.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_last_axis_formula_bitwise(self, n_classes, lead, scale, seed):
        # Below 8, 8 to 128 and over 128 classes numpy's pairwise sum takes
        # its three branches; the class-plane sum must repeat each exactly,
        # and the sampled counts sit on each side of every boundary. The
        # biases are zero, so the formula is the plain one of z.
        z = np.random.default_rng(seed).normal(0.0, scale, size=(*lead, n_classes))
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        out = _softmax(z, np.zeros((lead[0], n_classes)))
        assert out.flags.c_contiguous
        assert np.array_equal(out, e / e.sum(axis=-1, keepdims=True))
