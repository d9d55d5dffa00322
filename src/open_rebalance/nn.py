"""Minimal deterministic feedforward classifier with hand-coded gradients.

Linear softmax or one hidden rectifier layer, 64-bit floats throughout,
SGD with momentum and weight decay, and a warmup + step learning-rate
schedule. Public functions validate and return fresh values; the training
step calls their unvalidated private cores, updating its own arrays in place.
The cores also take a stack of S models: (S, d, h) weights, (S, 1, h) biases
and (S, B, d) batches, computed slice by slice exactly as one model would be.
A stack sums each bias gradient's batch axis as one model's (B, h) reduce
does: row by row when h > 1, which it runs over a batch-major copy, and
pairwise when h == 1 (``_backward``). The log-softmax takes its max and sum
over K down a class-major (K, N) copy, the sum in numpy's pairwise row-sum
order (``_class_sum``), so it rounds as numpy's row reductions do.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .data import FormatError
from .priors import ClassPrior, _check_fields

__all__ = [
    "MlpParams",
    "OptimState",
    "LrSchedule",
    "init_params",
    "init_optim_state",
    "forward",
    "softmax_xent",
    "balanced_softmax_xent",
    "oe_prior_xent",
    "backward",
    "sgd_step",
    "lr_at",
    "grad_check",
    "save_params",
    "load_params",
]

CHECKPOINT_MAGIC = b"OSNN1"


@dataclass(frozen=True)
class MlpParams:
    """Weights and biases for a linear or one-hidden-layer rectifier model;
    its dimensions are read from the layer shapes."""

    layers: tuple

    def __post_init__(self):
        if len(self.layers) not in (1, 2):
            raise ValueError("model must be linear or have exactly one hidden layer")
        expect_in = self.input_dim
        for w, b in self.layers:
            if w.shape[0] != expect_in or b.shape != (w.shape[1],):
                raise ValueError("layer shapes do not chain")
            expect_in = w.shape[1]

    @property
    def input_dim(self) -> int:
        return int(self.layers[0][0].shape[0])

    @property
    def hidden_dim(self) -> int:
        """The hidden layer's width, 0 for a linear model."""
        return 0 if len(self.layers) == 1 else int(self.layers[0][0].shape[1])

    @property
    def num_classes(self) -> int:
        return int(self.layers[-1][0].shape[1])


@dataclass(frozen=True)
class OptimState:
    """SGD velocity buffers plus the optimizer hyperparameters."""

    velocity: tuple
    momentum: float = 0.9
    weight_decay: float = 2e-4


@dataclass(frozen=True)
class LrSchedule:
    """Linear warmup then multiplicative decay at each milestone epoch, over
    any number of epochs: a run's length is its own."""

    warmup_epochs: int = 0
    milestones: tuple[int, ...] = ()
    decay_factor: float = 0.01

    def __post_init__(self):
        # Each message starts with the field it refuses.
        _check_fields(self)
        if self.warmup_epochs < 0:
            raise ValueError("warmup_epochs must be non-negative")
        if not math.isfinite(self.decay_factor):
            raise ValueError(f"decay_factor must be finite, got {self.decay_factor}")
        if self.decay_factor < 0:
            raise ValueError(f"decay_factor must be non-negative, got {self.decay_factor}")
        ms = self.milestones
        if any(m2 <= m1 for m1, m2 in zip(ms, ms[1:])):
            raise ValueError("milestones must be strictly increasing")
        if ms and ms[0] <= self.warmup_epochs:
            raise ValueError("milestones must come after the warmup")


def init_params(input_dim: int, hidden_dim: int, num_classes: int, rng) -> MlpParams:
    """Seeded init: weights uniform in +-1/sqrt(fan_in), biases zero."""
    rng = np.random.default_rng(rng)
    dims = [input_dim, num_classes] if hidden_dim == 0 else [input_dim, hidden_dim, num_classes]
    layers = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        layers.append((w, np.zeros(fan_out)))
    return MlpParams(tuple(layers))


def init_optim_state(
    params: MlpParams, momentum: float = 0.9, weight_decay: float = 2e-4
) -> OptimState:
    vel = tuple((np.zeros_like(w), np.zeros_like(b)) for w, b in params.layers)
    return OptimState(velocity=vel, momentum=momentum, weight_decay=weight_decay)


def _check_batch(params: MlpParams, batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != params.input_dim:
        raise ValueError(
            f"batch has shape {batch.shape}, model expects (*, {params.input_dim})"
        )
    return batch


def _log_counts(prior: ClassPrior) -> np.ndarray:
    if np.any(prior.counts == 0):
        raise ValueError("balanced softmax undefined for a zero-count class")
    return np.log(prior.counts.astype(np.float64))


def _check_finite(logits: np.ndarray) -> None:
    # The public losses refuse non-finite logits; the training step masks its own.
    if not np.isfinite(logits).all():
        raise ValueError("non-finite logits")


def _forward(layers, x, out=None):
    """Logits plus each layer's input, which ``_backward`` reuses.

    Each layer works in place on its own fresh product, the last one on out
    if given; x, w and b are only read.
    """
    acts = [x]
    for w, b in layers[:-1]:
        x = x @ w
        x += b
        np.maximum(x, 0.0, out=x)
        acts.append(x)
    w, b = layers[-1]
    x = np.matmul(x, w, out=out)
    x += b
    return x, acts


def forward(params: MlpParams, batch) -> np.ndarray:
    """Logits for a batch: affine(relu(affine(x))) or affine(x) when linear."""
    return _forward(params.layers, _check_batch(params, batch))[0]


def _class_sum(cols: np.ndarray) -> np.ndarray:
    # The sum over axis 0 of a (K, N) array, adding whole rows in the order
    # numpy's pairwise sum adds a K-wide row's elements: one by one below 8,
    # 8 running sums and their fixed tree up to 128, halving above. So for
    # non-negative terms it reproduces x.sum(axis=-1) bit for bit, with
    # contiguous adds. Accumulates into cols' leading rows.
    k = len(cols)
    if k > 128:
        half = k // 2 - k // 2 % 8
        return _class_sum(cols[:half]) + _class_sum(cols[half:])
    total, rest = cols[0], cols[1:]
    if k >= 8:
        acc, tail = cols[:8], k - k % 8
        for i in range(8, tail, 8):
            acc += cols[i : i + 8]
        total = (acc[0] + acc[1]) + (acc[2] + acc[3])
        total += (acc[4] + acc[5]) + (acc[6] + acc[7])
        rest = cols[tail:]
    for row in rest:
        total += row
    return total


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    # Over one class-major (K, N) copy, so the max and the sum over K run down
    # contiguous rows. max is exact in any order and _class_sum adds in
    # numpy's row order, so every bit is as with logits.max(axis=-1) and
    # np.exp(z).sum(axis=-1). The copy is taken with .copy(): the transpose of
    # one row or one class is already contiguous, and would alias the input.
    k = logits.shape[-1]
    cols = logits.reshape(math.prod(logits.shape[:-1]), k).T.copy()
    cols -= cols.max(axis=0)
    cols -= np.log(_class_sum(np.exp(cols)))
    return np.ascontiguousarray(cols.T).reshape(logits.shape)


@lru_cache(maxsize=64)
def _row_starts(shape: tuple, k: int) -> np.ndarray:
    """Read-only flat index of each row's first logit, for labels of this shape."""
    starts = np.arange(0, math.prod(shape) * k, k).reshape(shape)
    starts.flags.writeable = False
    return starts


def _xent_from(logp, grad, labels, weights=None):
    # The loss from log-probabilities; grad, their exp, becomes the logit
    # gradient in place. Mean over the batch axis, one loss per model; sum / B
    # rounds exactly as np.mean does. Unit weights round exactly as no weights.
    # Each term is negated before the sum, not the sum after it: numpy may
    # start a sum at +0.0, so a zero loss would change sign.
    batch, k = logp.shape[-2:]
    hit = labels + _row_starts(labels.shape, k)
    grad.reshape(-1)[hit] -= 1.0
    if weights is None:
        grad *= 1.0 / batch
        return (-logp.take(hit)).sum(axis=-1) / batch
    grad *= (weights / batch)[..., None]
    return (weights * -logp.take(hit)).sum(axis=-1) / batch


def _xent(logits, labels, weights=None):
    logp = _log_softmax(logits)
    grad = np.exp(logp)
    return _xent_from(logp, grad, labels, weights), grad


def softmax_xent(logits, labels, sample_weights=None):
    """Weighted mean cross entropy and its gradient with respect to the logits.

    loss = mean_b w_b * (-log softmax(logits_b)[y_b]) with w defaulting to 1;
    grad rows are w_b * (softmax_b - onehot_b) / B.
    """
    logits = np.asarray(logits, dtype=np.float64)
    _check_finite(logits)
    batch, k = logits.shape
    if batch == 0:
        raise ValueError("empty batch")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 0 or labels.max() >= k:
        raise ValueError("label out of range")
    w = None
    if sample_weights is not None:
        w = np.asarray(sample_weights, dtype=np.float64)
        if np.any(w < 0):
            raise ValueError("sample weights must be non-negative")
    loss, grad = _xent(logits, labels, w)
    return float(loss), grad


def balanced_softmax_xent(logits, labels, prior: ClassPrior):
    """Cross entropy on logits shifted by log class counts.

    The shift models the train-time label prior; with equal counts it cancels
    inside the softmax and the loss reduces to the standard one.
    """
    return softmax_xent(np.asarray(logits, dtype=np.float64) + _log_counts(prior), labels)


def _prior_xent_from(logp, grad, prior):
    # As _xent_from, against a reference label distribution.
    batch = logp.shape[-2]
    grad -= prior
    grad /= batch
    return (-(logp @ prior)).sum(axis=-1) / batch


def _prior_xent(logits, prior):
    logp = _log_softmax(logits)
    grad = np.exp(logp)
    return _prior_xent_from(logp, grad, prior), grad


def oe_prior_xent(logits, prior):
    """Cross entropy against a fixed reference label distribution.

    loss = mean_b sum_y -P(y) log softmax(logits_b)[y]; used as the outlier
    exposure term with P set to the training label prior.
    """
    logits = np.asarray(logits, dtype=np.float64)
    p = np.asarray(prior, dtype=np.float64)
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"prior sums to {p.sum()}, expected 1")
    _check_finite(logits)
    if logits.shape[0] == 0:
        raise ValueError("empty batch")
    loss, grad = _prior_xent(logits, p)
    return float(loss), grad


def _backward(layers, acts, g, grads=None) -> tuple:
    # Writes into grads, (gw, gb) pairs shaped like the layers (fresh ones if
    # None). A unit's activation is positive exactly where its pre-activation is.
    # numpy sums a (B, h) bias gradient's batch axis row by row when h > 1, so
    # a stack sums the same rows in the same order over a (B, S, h) copy, whose
    # inner loop runs over S * h contiguous values instead of h. At h == 1 the
    # per-model sum is pairwise over B, and the stack keeps its per-slice reduce.
    # Where two NaNs meet, the contiguous loop may keep the other one's sign bit;
    # only a run that has already diverged carries a NaN.
    if grads is None:
        grads = tuple((np.empty_like(w), np.empty_like(b)) for w, b in layers)
    for i in reversed(range(len(layers))):
        (w, b), (gw, gb) = layers[i], grads[i]
        np.matmul(acts[i].swapaxes(-1, -2), g, out=gw)
        if b.ndim == g.ndim and g.shape[-1] > 1:
            np.add.reduce(np.ascontiguousarray(g.swapaxes(0, 1)), axis=0, out=gb[:, 0, :])
        else:
            np.add.reduce(g, axis=-2, keepdims=b.ndim == g.ndim, out=gb)
        if i > 0:
            g = g @ w.swapaxes(-1, -2)
            g *= acts[i] > 0.0
    return grads


def backward(params: MlpParams, batch, grad_logits) -> tuple:
    """Exact gradients of the layers given the gradient at the logits.

    The rectifier subgradient at zero is taken as zero.
    """
    x = _check_batch(params, batch)
    grad_logits = np.asarray(grad_logits, dtype=np.float64)
    if grad_logits.shape != (x.shape[0], params.num_classes):
        raise ValueError("grad_logits shape mismatch")
    return _backward(params.layers, _forward(params.layers, x)[1], grad_logits)


def _sgd_update(theta, g, v, momentum: float, weight_decay: float, lr: float) -> None:
    # In place on arrays the caller owns, with the same rounding as
    # v' = mu*v + (g + wd*theta); theta' = theta - lr*v'. Elementwise, so one
    # call over many parameters' flat buffer rounds as one call per array.
    decayed = weight_decay * theta
    decayed += g
    v *= momentum
    v += decayed
    theta -= lr * v


def sgd_step(params: MlpParams, grads, state: OptimState, lr: float):
    """One momentum step: g' = g + wd*theta; v = mu*v + g'; theta -= lr*v."""
    if lr < 0:
        raise ValueError("lr must be non-negative")
    layers = tuple((w.copy(), b.copy()) for w, b in params.layers)
    velocity = tuple((vw.copy(), vb.copy()) for vw, vb in state.velocity)
    for pair, grad, vel in zip(layers, grads, velocity):
        for theta, g, v in zip(pair, grad, vel):
            _sgd_update(theta, g, v, state.momentum, state.weight_decay, lr)
    return MlpParams(layers), replace(state, velocity=velocity)


def lr_at(schedule: LrSchedule, epoch: int, base_lr: float = 0.1) -> float:
    """Learning rate at an epoch: linear ramp, then decay at each passed milestone."""
    if epoch < 0:
        raise ValueError(f"epoch must be non-negative, got {epoch}")
    if epoch < schedule.warmup_epochs:
        return base_lr * (epoch + 1) / schedule.warmup_epochs
    passed = sum(1 for m in schedule.milestones if epoch >= m)
    return base_lr * schedule.decay_factor ** passed


def grad_check(params: MlpParams, batch, labels, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Per entry: |g_a - g_fd| / max(1e-12, |g_a| + |g_fd|), maximized over all
    parameters, for the mean softmax cross entropy on the batch.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = _check_batch(params, batch)
    layers = tuple((w.copy(), b.copy()) for w, b in params.layers)
    logits, acts = _forward(layers, x)
    analytic = _backward(layers, acts, softmax_xent(logits, labels)[1])
    worst = 0.0
    for pair, grads in zip(layers, analytic):
        for theta, ga in zip(pair, grads):
            for idx in np.ndindex(theta.shape):
                orig = theta[idx]
                theta[idx] = orig + eps
                lp = softmax_xent(_forward(layers, x)[0], labels)[0]
                theta[idx] = orig - eps
                lm = softmax_xent(_forward(layers, x)[0], labels)[0]
                theta[idx] = orig
                fd = (lp - lm) / (2.0 * eps)
                worst = max(worst, abs(ga[idx] - fd) / max(1e-12, abs(ga[idx]) + abs(fd)))
    return worst


def save_params(params: MlpParams, path) -> None:
    """Write the checkpoint format (magic OSNN1, little-endian, row-major)."""
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", len(params.layers)))
        for w, b in params.layers:
            f.write(struct.pack("<II", w.shape[0], w.shape[1]))
            f.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_params(path) -> MlpParams:
    """Read the checkpoint format; any malformed file raises FormatError."""
    with open(path, "rb") as f:
        blob = f.read()
    head = len(CHECKPOINT_MAGIC)
    if len(blob) < head + 4 or blob[:head] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint file")
    (n_layers,) = struct.unpack_from("<I", blob, head)
    offset = head + 4
    layers = []
    for _ in range(n_layers):
        if len(blob) < offset + 8:
            raise FormatError(f"{path}: truncated checkpoint")
        rows, cols = struct.unpack_from("<II", blob, offset)
        offset += 8
        need = rows * cols * 8 + cols * 8
        if len(blob) < offset + need:
            raise FormatError(f"{path}: truncated checkpoint")
        w = np.frombuffer(blob, dtype="<f8", count=rows * cols, offset=offset).reshape(rows, cols)
        offset += rows * cols * 8
        b = np.frombuffer(blob, dtype="<f8", count=cols, offset=offset)
        offset += cols * 8
        layers.append((w.copy(), b.copy()))
    if len(blob) != offset:
        raise FormatError(f"{path}: trailing bytes in checkpoint")
    try:  # MlpParams checks the layer count and that the shapes chain
        return MlpParams(tuple(layers))
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from None
