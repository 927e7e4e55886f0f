"""Desk-scale federated learning on synthetic data.

Models are deliberately tiny and hand-rolled with numpy (a linear softmax
classifier or a one-hidden-layer tanh perceptron) so parameter vectors stay
flat and small and every gradient is finite-difference checkable. Supported
schemes: fedavg and fedprox (local minibatch steps, periodic parameter
averaging) and fedsgd (one full-batch gradient per round, applied globally).

Devices train in blocks: the parameters of K devices are stacked as (K, P)
and each local step is one gradient over their stacked (K, B, d)
minibatches, with the same arithmetic per device as a single-device step,
so results do not depend on how devices are blocked. Each step gathers its
(K, B) minibatch into work arrays that a run keeps for all its rounds and
shares with the evaluation of the global model. run_fl_runs trains the
devices of independent runs whose configs agree on BATCH_KEY in shared
blocks, each device from its own run's global model, and draws a block's
minibatch indices for a round from one raw word call per device, mapped for
the whole block with the rule of Generator.integers, value for value;
run_fl is its one-run call. The softmax of a step runs on (C, K, B) class
planes, filled by adding the bias while the logits are transposed, with
numpy's own summation order for a C-wide last axis; bias gradients sum a
(B, K, m) copy over its first axis, adding the rows of a device in the
order of a sum over the batch axis. No reduction in a step runs over the
few classes or hidden units of one row, and the bits equal those of the
row-wise formula.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig, check_batch

# Devices trained together in one stacked gradient step. Bounds the memory a
# round adds: a block's concatenated data, one step's (K, B, d) gathered
# minibatch (131 kB at K = 64, B = 32, d = 8) and the round's (tau_a, K, B)
# indices (164 kB at tau_a = 10). Groups split into near-equal blocks, so 64
# trains stragglers_n100's 70 devices as 2 blocks and scale_n300's 300 as 5.
# Sweep calls interleaved in one process (2-vCPU x86-64, numpy 2.4), against
# 32-wide blocks that gathered a whole round and drew with
# Generator.integers, stragglers_n100 / scale_n300 wall time: the per-step
# gather alone -1.6% / -0.3%; with K = 64 -11.2% / -6.9%; with raw-word
# draws as well -15.1% / -11.9% (13/14 and 9/10 calls faster). K = 100 was
# faster still on stragglers_n100 (-20.9%) but raised peak RSS by ~1 MB on
# both workloads, and K = 128 likewise; 64 stays.
DEVICE_BLOCK = 64
# The config keys the runs of one FL batch share: one model, and one
# scheme, step schedule and minibatch size, so that their devices train in
# shared blocks.
BATCH_KEY = (
    "model", "feature_dim", "n_classes", "hidden_units", "scheme", "tau_a", "total_steps",
    "learning_rate", "prox_mu", "batch_size",
)
_LOW32 = np.uint64(0xFFFFFFFF)


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


def _softmax(z: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis of z (..., C), as a new contiguous array.
    With biases b (K, C) for a stacked z (K, B, C), the softmax of
    z + b[:, None].

    The arithmetic is that of e / e.sum(axis=-1, keepdims=True) with
    e = exp(z - z.max(axis=-1, keepdims=True)), bit for bit, but computed
    on contiguous (C, M) class planes: every reduction and elementwise op
    then runs over M = z.size // C rows instead of over a C-wide last axis.
    The bias is added while z is transposed into the planes, in one strided
    add.
    """
    c = z.shape[-1]
    if b is None:
        planes = np.ascontiguousarray(z.reshape(-1, c).T)
    else:
        planes = np.empty((c, *z.shape[:2]))
        np.add(z.transpose(2, 0, 1), b.T[:, :, None], out=planes)
        planes = planes.reshape(c, -1)
    planes -= np.maximum.reduce(planes, axis=0)
    np.exp(planes, out=planes)
    planes /= _plane_sum(planes)
    return np.ascontiguousarray(planes.T).reshape(z.shape)


def _batch_sum(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=1) of a stacked (K, B, m) array, bit for bit.

    For m > 1 numpy runs its inner loop over the contiguous m-wide axis and
    adds the B rows of a device one after another; the (K, m) sum over the
    first axis of a contiguous (B, K, m) copy adds them in the same order,
    with K*m-wide inner loops. A single column (m = 1) is a pairwise sum
    over B, which only a.sum(axis=1) repeats.
    """
    if a.shape[2] == 1:
        return a.sum(axis=1)
    return np.ascontiguousarray(a.swapaxes(0, 1)).sum(axis=0)


def _stacked_grad(
    spec: ModelSpec,
    params: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    prox_mu: float,
    anchor: np.ndarray | None,
    need_loss: bool,
    grad: np.ndarray | None = None,
    views: tuple[list[np.ndarray], list[np.ndarray]] | None = None,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Gradients of K devices at once: params (K, P), x (K, B, d), y (K, B).

    Returns the (K,) mean cross-entropies (None unless need_loss) and the
    (K, P) gradients, proximal pull included. A caller that steps the same
    arrays repeatedly may pass the gradient buffer and the _unpack views of
    (params, grad), which are then reused. Each slice is computed with the
    same matmul, reduction and elementwise calls as a single device, so a
    device's gradient does not depend on the block it is stacked in.
    """
    n = x.shape[1]
    if grad is None:
        grad = np.empty_like(params)
    weights, grads = views or (_unpack(spec, params), _unpack(spec, grad))
    if spec.kind == "linear":
        w, b = weights
        probs = _softmax(x @ w, b)
    else:
        w1, b1, w2, b2 = weights
        hid = x @ w1
        hid += b1[:, None]
        np.tanh(hid, out=hid)
        probs = _softmax(hid @ w2, b2)
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
    xt = x.swapaxes(1, 2)
    if spec.kind == "linear":
        gw, gb = grads
        np.matmul(xt, delta, out=gw)
        gb[...] = _batch_sum(delta)
    else:
        gw1, gb1, gw2, gb2 = grads
        dhid = delta @ w2.swapaxes(1, 2)
        dhid *= 1.0 - hid**2
        np.matmul(xt, dhid, out=gw1)
        gb1[...] = _batch_sum(dhid)
        np.matmul(hid.swapaxes(1, 2), delta, out=gw2)
        gb2[...] = _batch_sum(delta)
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
    steps: int,
    lr: float,
    prox_mu: float,
    anchor: np.ndarray | None,
    idx: np.ndarray | None = None,
    work: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Local gradient steps for K non-empty devices, device k starting from
    row k of start (K, P), with the proximal anchor (P,) or (K, P); returns
    their (K, P) local parameters.

    Either idx holds the (steps, K, B) minibatch indices into the block's
    concatenated points, and step s gathers the (K, B) minibatch idx[s]; or
    idx is None, every device holds the same number of points, and every
    step takes the full batch. The block's points and one step's gathered
    minibatch are written into work, a flat float and a flat int64 array of
    at least m*d and m entries with m = _block_rows(...), and every step
    into one gradient buffer.
    """
    sizes = [len(d) for d in block]
    points, dim = sum(sizes), block[0].x.shape[1]
    m = points if idx is None else points + idx[0].size
    floats, ints = work or (np.empty(m * dim), np.empty(m, np.int64))
    x_cat = np.concatenate([d.x for d in block], out=floats[: points * dim].reshape(points, dim))
    y_cat = np.concatenate([d.y for d in block], out=ints[:points])
    if idx is None:
        x = x_cat.reshape(len(block), sizes[0], -1)
        y = y_cat.reshape(len(block), -1)
    else:
        x = floats[points * dim : m * dim].reshape(*idx.shape[1:], dim)
        y = ints[points:m].reshape(idx.shape[1:])
    out = start.copy()
    grad = np.empty_like(out)
    views = _unpack(spec, out), _unpack(spec, grad)
    for s in range(steps):
        if idx is not None:
            # The indices lie in range by construction; mode="raise" would
            # gather into a temporary and copy it into out.
            x_cat.take(idx[s], axis=0, out=x, mode="clip")
            y_cat.take(idx[s], out=y, mode="clip")
        _stacked_grad(spec, out, x, y, prox_mu, anchor, False, grad, views)
        grad *= lr
        out -= grad
    return out


def _block_rows(sizes: list[int], batch_size: int) -> int:
    """Rows of work _train_block needs for devices of these sizes: their
    points, then one step's gathered minibatches unless they take
    full-batch steps."""
    gathered = len(sizes) * batch_size if sizes[0] > batch_size else 0
    return sum(sizes) + gathered


def _device_blocks(sizes: list[int], batch_size: int) -> list[list[int]]:
    """Positions of the devices that train together. Devices with more
    points than batch_size share blocks in order; the rest take full-batch
    steps and are grouped by equal size, so no block needs padded rows.
    Each group is split into the fewest blocks of at most DEVICE_BLOCK
    devices, whose sizes differ by at most one."""
    groups: dict[int | None, list[int]] = {}
    for pos, n in enumerate(sizes):
        groups.setdefault(None if n > batch_size else n, []).append(pos)
    blocks = []
    for g in groups.values():
        parts = -(-len(g) // DEVICE_BLOCK)
        ends = [-(-len(g) * i // parts) for i in range(parts + 1)]
        blocks += [g[a:b] for a, b in zip(ends, ends[1:])]
    return blocks


def _draw_indices(
    gens: list[np.random.PCG64],
    sizes: np.ndarray,
    offsets: np.ndarray,
    carry: np.ndarray,
    steps: int,
    batch_size: int,
) -> np.ndarray:
    """The (steps, K, B) minibatch indices of K devices into their
    concatenated points. Device k's (steps, B) slice equals that of
    offsets[k] + Generator(gens[k]).integers(0, sizes[k], (steps, B)), and
    so does every later round's, call after call.

    integers draws a size n below 2**32 from the generator's 32-bit stream,
    for PCG64 the low and then the high half of each 64-bit word. A half u
    gives (u*n) >> 32, unless (u*n) mod 2**32 < (2**32 - n) mod n, when it
    is rejected and the next half is used (Lemire, arXiv:1805.10941). Here
    each device's words come from one random_raw call, and the halves of
    the whole block are mapped at once; a device whose halves include a
    rejected one draws on word by word (_accepted). A half left unused at
    the end of a round stays pending in a Generator; here it is kept in
    carry[k] (-1 for none), which the caller keeps from round to round, so
    a generator never holds a pending half. sizes and offsets are (K, 1):
    uint64 sizes, which must be at least 2 (integers draws nothing for
    n = 1) and below 2**32, and int64 offsets.
    """
    k, count = len(gens), steps * batch_size
    halves = np.empty((k, count + 1), np.uint64)
    has = carry >= 0
    halves[has, 0] = carry[has]
    for h in (0, 1):
        rows = np.flatnonzero(has == h)
        w = (count + 1 - h) // 2  # words for count halves or one more
        if rows.size and w:
            words = np.concatenate([gens[r].random_raw(w) for r in rows]).reshape(-1, w)
            if rows.size == k:
                rows = slice(None)
            # Split arithmetically, not by a uint32 view, so byte order
            # does not matter.
            halves[rows, h + 1 : h + 2 * w : 2] = words >> 32
            words &= _LOW32
            halves[rows, h : h + 2 * w : 2] = words
    # A row holds count halves, or count + 1 when count + has is odd, and
    # then its last one is left over.
    left = (count + has) % 2 == 1
    carry.fill(-1)
    carry[left] = halves[left, count]
    # The products u*n in place: they stay below 2**64, so dividing by n
    # gives the halves back.
    halves *= sizes
    head = halves[:, :count].reshape(k, steps, batch_size)
    idx = np.empty((steps, k, batch_size), np.int64)
    by_device = idx.swapaxes(0, 1)
    np.bitwise_and(head, _LOW32, out=by_device)
    thresholds = ((2**32 - sizes) % sizes).astype(np.int64)
    rejected = (by_device < thresholds[:, :, None]).any(axis=(1, 2))
    np.right_shift(head, 32, out=by_device)
    by_device += offsets[:, :, None]
    for r in np.flatnonzero(rejected):
        stream = halves[r, : count + left[r]] // sizes[r]
        values, carry[r] = _accepted(gens[r], int(sizes[r, 0]), stream, count)
        by_device[r] = np.reshape(values, (steps, batch_size)) + offsets[r]
    return idx


def _accepted(gen: np.random.PCG64, n: int, halves: np.ndarray, count: int) -> tuple[list[int], int]:
    """The first count accepted values of a device's 32-bit stream, which
    starts with halves and goes on with the halves of further random_raw
    words, drawn one at a time as needed; and the unused half after them,
    or -1."""
    threshold = (2**32 - n) % n
    stream = [int(u) for u in halves]
    values: list[int] = []
    i = 0
    while len(values) < count:
        if i == len(stream):
            word = int(gen.random_raw())
            stream += [word & 0xFFFFFFFF, word >> 32]
        scaled = stream[i] * n
        i += 1
        if scaled & 0xFFFFFFFF >= threshold:
            values.append(scaled >> 32)
    return values, stream[i] if i < len(stream) else -1


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
    replacement, all steps' indices in one rng.integers call (the stream of
    one call per step); when batch_size >= len(data) every step uses the
    whole dataset instead and nothing is drawn from rng. Empty datasets
    train nothing. rng may be any Generator in any state, so run_fl, which
    owns its devices' generators, draws its indices another way
    (_draw_indices).
    """
    if len(data) == 0 or scheme == "fedsgd":
        return params.copy()
    mu = prox_mu if scheme == "fedprox" else 0.0
    anchor = global_params if scheme == "fedprox" else None
    idx = None
    if len(data) > batch_size:
        idx = rng.integers(0, len(data), size=(steps, 1, batch_size))
    return _train_block(spec, params[None], [data], steps, lr, mu, anchor, idx)[0]


def full_batch_grad(spec: ModelSpec, params: np.ndarray, data: LabeledSet) -> np.ndarray:
    """One full-batch gradient, accumulated but not applied (fedsgd)."""
    _, grad = _stacked_grad(spec, params[None], data.x[None], data.y[None], 0.0, None, False)
    return grad[0]


def aggregate(
    contributions: np.ndarray | list[np.ndarray],
    weights: list[float],
    scheme: str,
    global_params: np.ndarray,
    lr: float = 0.1,
) -> np.ndarray:
    """Combine participant payloads, (A, P) rows or a list of (P,) vectors,
    into the next global model.

    fedavg/fedprox average parameters; fedsgd applies one global step with
    the weighted-average gradient. Zero participants leave the model as is.
    """
    if len(contributions) == 0:
        warnings.warn("aggregation round had no participants; global model unchanged")
        return global_params.copy()
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0) or w.sum() <= 0:
        raise ValueError("aggregation weights must be nonnegative with positive sum")
    w = w / w.sum()
    combined = w @ np.asarray(contributions)
    if scheme == "fedsgd":
        return global_params - lr * combined
    return combined


def evaluate(
    spec: ModelSpec,
    params: np.ndarray,
    test: LabeledSet,
    work: np.ndarray | None = None,
) -> float:
    """Fraction of argmax-correct predictions; a tie goes to the lowest
    class and a NaN logit counts as the maximum, as in argmax.

    The products and sums are those of x @ w + b, layer by layer, computed
    into the flat float array work when given, which needs len(test) times
    the summed layer widths (_layer_widths) entries; a caller that evaluates
    every round then allocates them once.
    """
    n = len(test)
    if n == 0:
        raise ValueError("empty test set")
    weights = _unpack(spec, params)
    if work is None:
        work = np.empty(n * _layer_widths(spec))
    x, start = test.x, 0
    for w, b in zip(weights[::2], weights[1::2]):
        if start:  # the hidden layer's tanh
            np.tanh(x, out=x)
        end = start + n * w.shape[1]
        x = np.matmul(x, w, out=work[start:end].reshape(n, -1))
        x += b
        start = end
    return float(np.count_nonzero(x.argmax(axis=1) == test.y) / n)


def _layer_widths(spec: ModelSpec) -> int:
    """Summed output widths of the model's layers: the entries per test
    point that evaluate computes."""
    return sum(shape[1] for shape in spec.shapes[::2])


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
    aggregation: the one-run call of run_fl_runs."""
    return run_fl_runs(spec, [datasets], [test], [config], [rng], [stragglers])[0]


def run_fl_runs(
    spec: ModelSpec,
    datasets: list[list[LabeledSet]],
    tests: list[LabeledSet],
    configs: list[ScenarioConfig],
    rngs: list[np.random.Generator],
    stragglers: list[frozenset[int]],
) -> list[FlTrace]:
    """Federated training of R independent runs together, one entry of each
    sequence per run, their configs equal on BATCH_KEY. Each run's trace is
    bit-identical to its run_fl alone.

    In every round each participant (a non-straggler with data) starts
    from its run's global model; under fedprox it is also anchored to it.
    The participants of all runs are trained in near-equal blocks of at
    most DEVICE_BLOCK devices (see _device_blocks), one stacked (K, P)
    gradient per local step, each device drawing its minibatches from its
    own generator (the values of Generator.integers, from one raw word call
    per device and round; see _draw_indices). A run's participants fill one
    contiguous slice of the payload rows, in device order, which goes to
    aggregate as it is; under fedsgd each participant sends one
    full_batch_grad instead. Each run then evaluates its new global model
    on its own test set. Stragglers contribute nothing to aggregations,
    and their generators feed nothing else, so they are not trained at all.
    """
    check_batch(configs, BATCH_KEY)
    config = configs[0]
    # Per run: its trace, whose params are its global model, and the first
    # active position of the run and of the next; per active device: its
    # dataset, its generator and its run.
    traces: list[FlTrace] = []
    bounds = [0]
    active: list[tuple[LabeledSet, np.random.PCG64]] = []
    owner: list[int] = []
    for r, (sets, rng, lagging) in enumerate(zip(datasets, rngs, stragglers)):
        traces.append(FlTrace([], [], init_params(spec, rng)))
        # default_rng's bit generator, seeded as default_rng(seed) would be.
        gens = [np.random.PCG64(rng.integers(0, 2**63)) for _ in sets]
        for i, data in enumerate(sets):
            if len(data) and i not in lagging:
                active.append((data, gens[i]))
                owner.append(r)
        bounds.append(len(active))
    sizes = [len(data) for data, _ in active]
    weights = [
        [float(n) if cfg.weighting == "data" else 1.0 for n in sizes[a:b]]
        for cfg, a, b in zip(configs, bounds, bounds[1:])
    ]
    blocks = _device_blocks(sizes, config.batch_size)
    mu = config.prox_mu if config.scheme == "fedprox" else 0.0
    # One float and one int array, kept for the run, hold a block's points
    # and a step's gathered minibatches while it trains, and the test set's
    # layer outputs while a global model is evaluated, so that a round
    # allocates nothing larger than one step's arrays: glibc may map arrays
    # of a few hundred kB afresh on each allocation, and their pages then
    # fault in every round. Sharing the float array keeps the run's peak at
    # a round's.
    rows = max(
        (_block_rows([sizes[p] for p in pos], config.batch_size) for pos in blocks), default=0
    )
    evaluated = max(len(test) for test in tests) * _layer_widths(spec)
    floats = np.empty(max(rows * spec.in_dim, evaluated))
    work = floats, np.empty(rows, np.int64)
    payloads = np.empty((len(active), spec.n_params))
    # Per block: its positions, the run of each, its datasets and, for
    # minibatch blocks, the state of its index draws (see _draw_indices).
    plans = []
    for pos in blocks:
        n = np.array([sizes[p] for p in pos], np.int64)[:, None]
        draws = None
        if n[0, 0] > config.batch_size:  # so every n >= 2, as batch_size >= 1
            offsets = np.cumsum(n, axis=0) - n
            carry = np.full(len(pos), -1, np.int64)
            draws = [active[p][1] for p in pos], n.astype(np.uint64), offsets, carry
        owners = np.array([owner[p] for p in pos])
        plans.append((pos, owners, [active[p][0] for p in pos], draws))
    params_g = np.stack([trace.params for trace in traces])  # the blocks' start rows
    for _ in range(config.total_steps // config.tau_a):
        if config.scheme != "fedsgd":
            for pos, owners, block, draws in plans:
                idx = _draw_indices(*draws, config.tau_a, config.batch_size) if draws else None
                start = params_g.take(owners, axis=0)
                payloads[pos] = _train_block(
                    spec, start, block, config.tau_a, config.learning_rate, mu, start, idx, work,
                )
        for r, (trace, test) in enumerate(zip(traces, tests)):
            a, b = bounds[r], bounds[r + 1]
            if config.scheme == "fedsgd":
                sent = [full_batch_grad(spec, trace.params, data) for data, _ in active[a:b]]
            else:
                sent = payloads[a:b]
            trace.params = aggregate(
                sent, weights[r], config.scheme, trace.params, lr=config.learning_rate
            )
            params_g[r] = trace.params
            trace.accuracy.append(evaluate(spec, trace.params, test, floats))
            trace.participants.append(b - a)
    return traces


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
