"""Desk-scale federated learning on synthetic data.

Models are deliberately tiny and hand-rolled with numpy (a linear softmax
classifier or a one-hidden-layer tanh perceptron) so parameter vectors stay
flat and small and every gradient is finite-difference checkable. Supported
schemes: fedavg and fedprox (local minibatch steps, periodic parameter
averaging) and fedsgd (one full-batch gradient per round, applied globally).

Devices train in blocks: the parameters of K devices are stacked as (K, P)
and each local step is one gradient over their stacked (K, B, d) minibatches,
with the same arithmetic per device as a single-device step, so results do
not depend on how devices are blocked. The softmax of a step runs on (C, K*B)
class planes, with numpy's own summation order for a C-wide last axis, so
no numpy call loops over the few classes of one row and the bits equal
those of the row-wise formula.
"""
from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig

# Devices trained together in one stacked gradient step. Bounds the memory a
# round adds (a block's concatenated data and its (K, B, d) minibatches).
# At B = 32, d = C = 8 (2-vCPU x86-64, numpy 2.4) a linear step costs 5.8,
# 4.3, 4.0, 3.2 and 4.5 us per device at K = 8, 16, 32, 64 and 128; K = 64
# cut scale_n300 wall time by ~12% but raised stragglers_n100's by ~8% and
# its peak RSS by 2% (perfbench, 4 alternating pairs each), so 32 stays.
DEVICE_BLOCK = 32


@dataclass
class LabeledSet:
    """A bag of feature vectors with integer class labels."""

    x: np.ndarray  # (n, d)
    y: np.ndarray  # (n,)
    n_classes: int

    def __len__(self) -> int:
        return self.x.shape[0]

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.y, minlength=self.n_classes)


@dataclass
class ModelSpec:
    kind: str  # "linear" or "mlp"
    in_dim: int
    n_classes: int
    hidden: int = 16

    @property
    def shapes(self) -> tuple[tuple[int, ...], ...]:
        """Shapes of the weight and bias blocks, in their order in the flat
        parameter vector."""
        d, h, c = self.in_dim, self.hidden, self.n_classes
        if self.kind == "linear":
            return (d, c), (c,)
        if self.kind == "mlp":
            return (d, h), (h,), (h, c), (c,)
        raise ValueError(f"unknown model kind {self.kind!r}")

    @property
    def n_params(self) -> int:
        return sum(math.prod(shape) for shape in self.shapes)


def init_params(spec: ModelSpec, rng: np.random.Generator, scale: float = 0.01) -> np.ndarray:
    return rng.normal(0.0, scale, size=spec.n_params)


def _unpack(spec: ModelSpec, params: np.ndarray) -> list[np.ndarray]:
    """Weight and bias views of flat parameters, (P,) or stacked (K, P), one
    per block of spec.shapes."""
    lead = params.shape[:-1]
    views, start = [], 0
    for shape in spec.shapes:
        end = start + math.prod(shape)
        views.append(params[..., start:end].reshape(*lead, *shape))
        start = end
    return views


def logits(spec: ModelSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    if spec.kind == "linear":
        w, b = _unpack(spec, params)
        return x @ w + b
    w1, b1, w2, b2 = _unpack(spec, params)
    return np.tanh(x @ w1 + b1) @ w2 + b2


def _plane_sum(e: np.ndarray) -> np.ndarray:
    """Sum of the n planes of (n, M) class planes, added in the order numpy's
    pairwise sum adds a contiguous last axis of length n: one after another
    below 8, eight strided accumulators up to 128, halves rounded to
    multiples of 8 above. The (M,) result equals the row sums of the (M, n)
    original bit for bit."""
    n = len(e)
    if n < 8:
        s = e[0].copy()  # the caller divides e by s in place
        for plane in e[1:]:
            s += plane
        return s
    if n <= 128:
        end = n - n % 8
        r = e[:8]
        for i in range(8, end, 8):
            r = r + e[i : i + 8]
        r = r[0::2] + r[1::2]  # (a0+a1), (a2+a3), (a4+a5), (a6+a7)
        r = r[0::2] + r[1::2]
        s = r[0] + r[1]
        for plane in e[end:]:
            s += plane
        return s
    half = n // 2 - n // 2 % 8
    return _plane_sum(e[:half]) + _plane_sum(e[half:])


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of z (..., C), as a new contiguous array.

    The arithmetic is that of e / e.sum(axis=-1, keepdims=True) with
    e = exp(z - z.max(axis=-1, keepdims=True)), bit for bit, but computed
    on contiguous (C, M) class planes: every reduction and elementwise op
    then runs over M = z.size // C rows instead of over a C-wide last axis.
    """
    c = z.shape[-1]
    planes = np.ascontiguousarray(z.reshape(-1, c).T)
    planes -= np.maximum.reduce(planes, axis=0)
    np.exp(planes, out=planes)
    planes /= _plane_sum(planes)
    return np.ascontiguousarray(planes.T).reshape(z.shape)


def _stacked_grad(
    spec: ModelSpec,
    params: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    prox_mu: float,
    anchor: np.ndarray | None,
    need_loss: bool,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Gradients of K devices at once: params (K, P), x (K, B, d), y (K, B).

    Returns the (K,) mean cross-entropies (None unless need_loss) and the
    (K, P) gradients, proximal pull included. Each slice is computed with
    the same matmul, reduction and elementwise calls as a single device, so
    a device's gradient does not depend on the block it is stacked in.
    """
    n = x.shape[1]
    if spec.kind == "linear":
        w, b = _unpack(spec, params)
        probs = _softmax(x @ w + b[:, None])
    else:
        w1, b1, w2, b2 = _unpack(spec, params)
        hid = np.tanh(x @ w1 + b1[:, None])
        probs = _softmax(hid @ w2 + b2[:, None])
    flat = probs.reshape(-1)
    at_label = np.arange(0, flat.size, probs.shape[-1]) + y.reshape(-1)
    ce = None
    if need_loss:
        ce = -np.log(flat[at_label] + 1e-300).reshape(y.shape).mean(axis=1)
    flat[at_label] -= 1.0
    delta = probs
    delta /= n
    # Each block is written into its own view, so the flat layout is the
    # one _unpack reads off spec.shapes.
    grad = np.empty_like(params)
    if spec.kind == "linear":
        gw, gb = _unpack(spec, grad)
        gw[...] = x.swapaxes(1, 2) @ delta
        gb[...] = delta.sum(axis=1)
    else:
        gw1, gb1, gw2, gb2 = _unpack(spec, grad)
        dhid = (delta @ w2.swapaxes(1, 2)) * (1.0 - hid**2)
        gw1[...] = x.swapaxes(1, 2) @ dhid
        gb1[...] = dhid.sum(axis=1)
        gw2[...] = hid.swapaxes(1, 2) @ delta
        gb2[...] = delta.sum(axis=1)
    if prox_mu > 0.0:
        if anchor is None:
            raise ValueError("proximal term needs an anchor parameter vector")
        grad += prox_mu * (params - anchor)
    return ce, grad


def loss_and_grad(
    spec: ModelSpec,
    params: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    prox_mu: float = 0.0,
    anchor: np.ndarray | None = None,
) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean cross-entropy (plus an optional proximal pull toward anchor)
    and its gradient with respect to the flat parameter vector.

    Takes one device, params (P,), x (n, d), y (n,), and returns a float
    and a (P,) gradient; or K devices stacked, params (K, P), x (K, B, d),
    y (K, B), and returns (K,) losses and (K, P) gradients.
    """
    single = params.ndim == 1
    if single:
        params, x, y = params[None], x[None], y[None]
    loss, grad = _stacked_grad(spec, params, x, y, prox_mu, anchor, need_loss=True)
    if prox_mu > 0.0:
        diff = params - anchor
        loss = loss + 0.5 * prox_mu * np.array([d @ d for d in diff])
    if single:
        return float(loss[0]), grad[0]
    return loss, grad


def _train_block(
    spec: ModelSpec,
    start: np.ndarray,
    block: list[LabeledSet],
    rngs: list[np.random.Generator],
    steps: int,
    lr: float,
    batch_size: int,
    prox_mu: float,
    anchor: np.ndarray | None,
) -> np.ndarray:
    """Local gradient steps for K non-empty devices that all start from the
    same parameters (P,); returns their (K, P) local parameters.

    The block either has more data per device than one batch, and each
    device draws its minibatches for all steps in one call on its own
    generator (the same stream as one draw per step), or every device holds
    the same number of points, at most batch_size, and takes full-batch
    steps drawing nothing.
    """
    x_cat = np.concatenate([d.x for d in block])
    y_cat = np.concatenate([d.y for d in block])
    sizes = np.array([len(d) for d in block])
    if sizes[0] <= batch_size:
        full = (x_cat.reshape(len(block), sizes[0], -1), y_cat.reshape(len(block), -1))
        batches = itertools.repeat(full, steps)
    else:
        offsets = np.cumsum(sizes) - sizes
        idx = np.stack(
            [rng.integers(0, n, size=(steps, batch_size)) for rng, n in zip(rngs, sizes)],
            axis=1,
        ) + offsets[:, None]
        batches = ((x_cat[i], y_cat[i]) for i in idx)
    out = np.repeat(start[None], len(block), axis=0)
    for x, y in batches:
        _, grad = _stacked_grad(spec, out, x, y, prox_mu, anchor, need_loss=False)
        out -= lr * grad
    return out


def _device_blocks(sizes: list[int], batch_size: int) -> list[list[int]]:
    """Positions of the devices that train together, at most DEVICE_BLOCK
    per block. Devices with more points than batch_size share blocks in
    order; the rest take full-batch steps and are grouped by equal size, so
    no block needs padded rows."""
    groups: dict[int | None, list[int]] = {None: []}
    for pos, n in enumerate(sizes):
        groups.setdefault(None if n > batch_size else n, []).append(pos)
    return [
        g[k : k + DEVICE_BLOCK] for g in groups.values() for k in range(0, len(g), DEVICE_BLOCK)
    ]


def local_train(
    spec: ModelSpec,
    params: np.ndarray,
    data: LabeledSet,
    steps: int,
    lr: float,
    rng: np.random.Generator,
    batch_size: int = 32,
    scheme: str = "fedavg",
    global_params: np.ndarray | None = None,
    prox_mu: float = 0.0,
) -> np.ndarray:
    """Run one round of local work and return the new local parameters.

    fedavg/fedprox take `steps` minibatch gradient steps (fedprox adds the
    proximal pull toward the incoming global model); fedsgd returns the
    unmodified parameters, see full_batch_grad. Minibatches are drawn with
    replacement; when batch_size >= len(data) every step uses the whole
    dataset instead and nothing is drawn from rng. Empty datasets train
    nothing.
    """
    if len(data) == 0 or scheme == "fedsgd":
        return params.copy()
    mu = prox_mu if scheme == "fedprox" else 0.0
    anchor = global_params if scheme == "fedprox" else None
    return _train_block(spec, params, [data], [rng], steps, lr, batch_size, mu, anchor)[0]


def full_batch_grad(spec: ModelSpec, params: np.ndarray, data: LabeledSet) -> np.ndarray:
    """One full-batch gradient, accumulated but not applied (fedsgd)."""
    _, grad = _stacked_grad(spec, params[None], data.x[None], data.y[None], 0.0, None, False)
    return grad[0]


def aggregate(
    contributions: list[np.ndarray],
    weights: list[float],
    scheme: str,
    global_params: np.ndarray,
    lr: float = 0.1,
) -> np.ndarray:
    """Combine participant payloads into the next global model.

    fedavg/fedprox average parameters; fedsgd applies one global step with
    the weighted-average gradient. Zero participants leave the model as is.
    """
    if not contributions:
        warnings.warn("aggregation round had no participants; global model unchanged")
        return global_params.copy()
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0) or w.sum() <= 0:
        raise ValueError("aggregation weights must be nonnegative with positive sum")
    w = w / w.sum()
    stacked = np.stack(contributions)
    combined = w @ stacked
    if scheme == "fedsgd":
        return global_params - lr * combined
    return combined


def evaluate(spec: ModelSpec, params: np.ndarray, test: LabeledSet) -> float:
    """Fraction of argmax-correct predictions."""
    if len(test) == 0:
        raise ValueError("empty test set")
    pred = logits(spec, params, test.x).argmax(axis=1)
    return float(np.mean(pred == test.y))


@dataclass
class FlTrace:
    accuracy: list[float]  # test accuracy after each aggregation
    participants: list[int]  # participant count per round
    params: np.ndarray  # (P,) global model after the last aggregation


def run_fl(
    spec: ModelSpec,
    datasets: list[LabeledSet],
    test: LabeledSet,
    config: ScenarioConfig,
    rng: np.random.Generator,
    stragglers: frozenset[int] = frozenset(),
) -> FlTrace:
    """Alternate local training and aggregation for total_steps // tau_a
    rounds of config's FL settings, evaluating the global model after each
    aggregation.

    Every participant (a non-straggler with data) starts each round from
    the broadcast global model; participants are trained in blocks of at
    most DEVICE_BLOCK devices, one stacked (K, P) gradient per local step,
    each device drawing its minibatches from its own generator; under
    fedsgd each participant sends one full_batch_grad instead. Stragglers
    contribute nothing to aggregations, and their generators feed nothing
    else, so they are not trained at all.
    """
    params_g = init_params(spec, rng)
    device_rngs = [np.random.default_rng(rng.integers(0, 2**63)) for _ in datasets]
    active = [i for i, data in enumerate(datasets) if len(data) and i not in stragglers]
    sizes = [len(datasets[i]) for i in active]
    weights = [float(n) if config.weighting == "data" else 1.0 for n in sizes]
    blocks = _device_blocks(sizes, config.batch_size)
    mu = config.prox_mu if config.scheme == "fedprox" else 0.0
    accuracy: list[float] = []
    participants: list[int] = []
    for _ in range(config.total_steps // config.tau_a):
        if config.scheme == "fedsgd":
            payloads = [full_batch_grad(spec, params_g, datasets[i]) for i in active]
        else:
            payloads = np.empty((len(active), spec.n_params))
            for pos in blocks:
                payloads[pos] = _train_block(
                    spec,
                    params_g,
                    [datasets[active[p]] for p in pos],
                    [device_rngs[active[p]] for p in pos],
                    config.tau_a,
                    config.learning_rate,
                    config.batch_size,
                    mu,
                    params_g,
                )
        params_g = aggregate(
            list(payloads), weights, config.scheme, params_g, lr=config.learning_rate
        )
        accuracy.append(evaluate(spec, params_g, test))
        participants.append(len(active))
    return FlTrace(accuracy=accuracy, participants=participants, params=params_g)


def make_class_means(n_classes: int, dim: int, rng: np.random.Generator, spread: float = 3.0) -> np.ndarray:
    """Gaussian-mixture component means for the synthetic classification task.

    Classes come in close pairs around shared centers (fine-grained
    confusable subclasses), so telling a pair apart needs samples of both;
    class coverage gaps then cost real accuracy instead of being absorbed
    by a linear boundary.
    """
    centers = rng.normal(0.0, spread, size=((n_classes + 1) // 2, dim))
    means = np.repeat(centers, 2, axis=0)[:n_classes]
    means = means + rng.normal(0.0, 0.35 * spread, size=(n_classes, dim))
    return means


def sample_class_points(
    means: np.ndarray, label: int, n: int, rng: np.random.Generator, noise: float = 1.0
) -> np.ndarray:
    return means[label] + rng.normal(0.0, noise, size=(n, means.shape[1]))


def dataset_from_counts(
    means: np.ndarray,
    counts: np.ndarray,
    rng: np.random.Generator,
    noise: float = 1.0,
) -> LabeledSet:
    """Draw a labeled set with exactly the given per-class counts."""
    xs, ys = [], []
    for label, c in enumerate(counts):
        c = int(c)
        if c == 0:
            continue
        xs.append(sample_class_points(means, label, c, rng, noise))
        ys.append(np.full(c, label, dtype=np.int64))
    if not xs:
        dim = means.shape[1]
        return LabeledSet(np.empty((0, dim)), np.empty(0, dtype=np.int64), means.shape[0])
    return LabeledSet(np.concatenate(xs), np.concatenate(ys), means.shape[0])
