import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dfl.fl import (
    FlConfig,
    LabeledSet,
    ModelSpec,
    _softmax,
    aggregate,
    dataset_from_counts,
    evaluate,
    full_batch_grad,
    init_params,
    local_train,
    logits,
    loss_and_grad,
    make_class_means,
    run_fl,
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


def toy_data(spec: ModelSpec, n=10, seed=0) -> LabeledSet:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, spec.in_dim))
    y = rng.integers(0, spec.n_classes, size=n)
    return LabeledSet(x, y, spec.n_classes)


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
        out = local_train(LINEAR, params, data, steps=5, lr=0.0, rng=np.random.default_rng(1))
        assert np.array_equal(out, params)

    def test_loss_decreases_at_small_lr(self):
        data = toy_data(LINEAR, n=60, seed=4)
        params = init_params(LINEAR, np.random.default_rng(5))
        before, _ = loss_and_grad(LINEAR, params, data.x, data.y)
        out = local_train(
            LINEAR, params, data, steps=200, lr=0.05, rng=np.random.default_rng(6),
            batch_size=60,
        )
        after, _ = loss_and_grad(LINEAR, out, data.x, data.y)
        assert after < before

    def test_empty_dataset_untouched(self):
        empty = LabeledSet(np.empty((0, 4)), np.empty(0, dtype=np.int64), 3)
        params = init_params(LINEAR, np.random.default_rng(0))
        out = local_train(LINEAR, params, empty, steps=3, lr=0.1, rng=np.random.default_rng(1))
        assert np.array_equal(out, params)

    def test_large_prox_pins_to_anchor(self):
        # lr * mu stays below 1 so the proximal quadratic is stable.
        data = toy_data(LINEAR, n=40, seed=7)
        anchor = init_params(LINEAR, np.random.default_rng(8))
        dists = []
        for mu in (0.0, 1.0, 10.0, 80.0):
            out = local_train(
                LINEAR,
                anchor,
                data,
                steps=100,
                lr=0.01,
                rng=np.random.default_rng(9),
                scheme="fedprox",
                global_params=anchor,
                prox_mu=mu,
            )
            dists.append(np.linalg.norm(out - anchor))
        assert dists == sorted(dists, reverse=True)


class TestAggregate:
    def test_average_of_equal_models(self):
        m = np.array([1.0, -2.0, 3.0])
        out = aggregate([m.copy(), m.copy()], [3.0, 5.0], "fedavg", np.zeros(3))
        assert np.allclose(out, m)

    def test_weighted_average_value(self):
        m1 = np.array([0.0, 4.0])
        m2 = np.array([8.0, 0.0])
        out = aggregate([m1, m2], [1.0, 3.0], "fedavg", np.zeros(2))
        assert np.allclose(out, (m1 + 3 * m2) / 4)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(10)
        models = [rng.normal(size=5) for _ in range(4)]
        weights = [1.0, 2.0, 3.0, 4.0]
        a = aggregate(models, weights, "fedavg", np.zeros(5))
        order = [2, 0, 3, 1]
        b = aggregate([models[i] for i in order], [weights[i] for i in order], "fedavg", np.zeros(5))
        assert np.allclose(a, b, atol=1e-12)

    def test_empty_keeps_global(self):
        g = np.array([1.0, 2.0])
        with pytest.warns(UserWarning):
            out = aggregate([], [], "fedavg", g)
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
        params = local_train(spec, params, data, steps=300, lr=0.5, rng=rng, batch_size=60)
        assert evaluate(spec, params, data) == 1.0

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError):
            evaluate(LINEAR, np.zeros(LINEAR.n_params), LabeledSet(np.empty((0, 4)), np.empty(0, dtype=int), 3))


def mixture_split(n_devices, per_device, spec, seed, iid=True):
    rng = np.random.default_rng(seed)
    means = make_class_means(spec.n_classes, spec.in_dim, rng, spread=4.0)
    counts = np.full(spec.n_classes, per_device // spec.n_classes)
    sets = [dataset_from_counts(means, counts, rng) for _ in range(n_devices)]
    test = dataset_from_counts(means, np.full(spec.n_classes, 50), rng)
    return sets, test, means


class TestRunFl:
    def test_single_aggregation_boundary(self):
        spec = ModelSpec(kind="linear", in_dim=3, n_classes=3)
        sets, test, _ = mixture_split(3, 30, spec, seed=0)
        cfg = FlConfig(tau_a=20, total_steps=20)
        trace = run_fl(spec, sets, test, cfg, np.random.default_rng(0))
        assert len(trace.accuracy) == 1

    def test_deterministic_per_seed(self):
        spec = ModelSpec(kind="linear", in_dim=3, n_classes=3)
        sets, test, _ = mixture_split(3, 30, spec, seed=1)
        cfg = FlConfig(tau_a=5, total_steps=30)
        t1 = run_fl(spec, sets, test, cfg, np.random.default_rng(7))
        t2 = run_fl(spec, sets, test, cfg, np.random.default_rng(7))
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
        shared = dataset_from_counts(means, np.array([40, 40, 40]), rng)
        test = dataset_from_counts(means, np.array([60, 60, 60]), rng)
        sets = [shared, shared, shared]
        cfg = FlConfig(tau_a=10, total_steps=100, learning_rate=0.1, batch_size=len(shared))
        trace = run_fl(spec, sets, test, cfg, np.random.default_rng(11))

        params = init_params(spec, np.random.default_rng(11))
        central_rng = np.random.default_rng(12)
        central_acc = []
        for _ in range(cfg.n_rounds):
            params = local_train(
                spec, params, shared, steps=cfg.tau_a, lr=cfg.learning_rate,
                rng=central_rng, batch_size=cfg.batch_size,
            )
            central_acc.append(evaluate(spec, params, test))
        assert trace.accuracy == central_acc

    def test_all_stragglers_keep_global_model(self):
        spec = ModelSpec(kind="linear", in_dim=3, n_classes=3)
        sets, test, _ = mixture_split(3, 30, spec, seed=3)
        cfg = FlConfig(tau_a=5, total_steps=10, stragglers=frozenset({0, 1, 2}))
        with pytest.warns(UserWarning):
            trace = run_fl(spec, sets, test, cfg, np.random.default_rng(4))
        assert trace.participants == [0, 0]
        assert trace.accuracy[0] == trace.accuracy[1]

    def test_fedsgd_runs_and_learns(self):
        spec = ModelSpec(kind="linear", in_dim=3, n_classes=3)
        sets, test, _ = mixture_split(4, 60, spec, seed=5)
        cfg = FlConfig(scheme="fedsgd", tau_a=1, total_steps=400, learning_rate=0.5)
        trace = run_fl(spec, sets, test, cfg, np.random.default_rng(6))
        assert trace.accuracy[-1] > 0.8

    def test_fedprox_runs_and_learns(self):
        spec = ModelSpec(kind="linear", in_dim=3, n_classes=3)
        sets, test, _ = mixture_split(4, 60, spec, seed=8)
        cfg = FlConfig(scheme="fedprox", tau_a=5, total_steps=100, prox_mu=0.1)
        trace = run_fl(spec, sets, test, cfg, np.random.default_rng(9))
        assert trace.accuracy[-1] > 0.8


class TestModelShapes:
    def test_param_counts(self):
        assert LINEAR.n_params == (4 + 1) * 3
        assert MLP.n_params == (4 + 1) * 6 + (6 + 1) * 3

    def test_logits_shape(self):
        data = toy_data(MLP, n=7)
        out = logits(MLP, np.zeros(MLP.n_params), data.x)
        assert out.shape == (7, 3)

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


def loop_oracle(spec, datasets, test, config, rng):
    """run_fl as a plain loop: every device with data, stragglers included,
    trains step by step on its own generator through
    reference_loss_and_grad; stragglers' payloads are then dropped."""
    params_g = init_params(spec, rng)
    device_rngs = [np.random.default_rng(rng.integers(0, 2**63)) for _ in datasets]
    accuracy, participants = [], []
    for _ in range(config.n_rounds):
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
            if i in config.stragglers:
                continue
            payloads.append(payload)
            weights.append(float(n) if config.weighting == "data" else 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            params_g = aggregate(payloads, weights, config.scheme, params_g, config.learning_rate)
        accuracy.append(evaluate(spec, params_g, test))
        participants.append(len(payloads))
    return accuracy, participants


@st.composite
def fl_inputs(draw):
    spec = ModelSpec(
        kind=draw(st.sampled_from(["linear", "mlp"])),
        in_dim=draw(st.integers(1, 4)),
        n_classes=draw(st.one_of(st.integers(2, 4), st.integers(8, 20))),
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
    config = FlConfig(
        scheme=draw(st.sampled_from(["fedavg", "fedprox", "fedsgd"])),
        tau_a=tau_a,
        total_steps=tau_a * draw(st.integers(1, 3)),
        learning_rate=draw(st.floats(0.01, 1.0)),
        prox_mu=draw(st.sampled_from([0.0, 0.3])),
        batch_size=batch_size,
        weighting=draw(st.sampled_from(["data", "uniform"])),
        stragglers=stragglers,
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
    return spec, datasets, test, config, draw(st.integers(0, 2**32 - 1))


class TestBatchedMatchesLoop:
    @settings(max_examples=150, deadline=None)
    @given(fl_inputs())
    def test_equal_to_per_device_loop(self, inputs):
        spec, datasets, test, config, seed = inputs
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            trace = run_fl(spec, datasets, test, config, np.random.default_rng(seed))
        oracle_rng = np.random.default_rng(seed)
        accuracy, participants = loop_oracle(spec, datasets, test, config, oracle_rng)
        assert trace.accuracy == accuracy
        assert trace.participants == participants

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
        # and the sampled counts sit on each side of every boundary.
        z = np.random.default_rng(seed).normal(0.0, scale, size=(*lead, n_classes))
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        out = _softmax(z.copy())
        assert out.flags.c_contiguous
        assert np.array_equal(out, e / e.sum(axis=-1, keepdims=True))
