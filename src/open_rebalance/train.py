"""Training loops: auxiliary-relabeling regularization and baseline methods.

Each iteration pairs a training minibatch with an auxiliary minibatch drawn
uniformly from the open-set pool; auxiliary labels are resampled from the
configured label distribution every iteration unless fixed for the run.
Three independent RNG streams (shuffling, auxiliary draws, initialization)
keep ablations bit-comparable: changing one knob touches exactly one stream.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import metrics
from .data import AuxiliaryPool, LabeledDataset
from .nn import (
    LrSchedule,
    MlpParams,
    OptimState,
    _backward,
    _check_batch,
    _check_finite,
    _forward,
    _log_counts,
    _prior_xent,
    _sgd_update,
    _xent,
    init_optim_state,
    init_params,
    lr_at,
)
from .priors import (
    ClassPrior,
    ClassWeights,
    LabelDistributionKind,
    cb_effective_weights,
    label_distribution,
    weights_from_probabilities,
)

__all__ = [
    "METHODS",
    "TrainConfig",
    "EpochRecord",
    "RunResult",
    "default_schedule",
    "sample_aux_labels",
    "open_sampling_step",
    "train_run",
]

METHODS = (
    "standard",
    "open-sampling",
    "cb-rw",
    "balanced-softmax",
    "oe",
    "balanced-softmax+open-sampling",
)
_AUX_METHODS = frozenset({"open-sampling", "oe", "balanced-softmax+open-sampling"})
_RELABEL_METHODS = frozenset({"open-sampling", "balanced-softmax+open-sampling"})

_STREAM_SHUFFLE = 0
_STREAM_AUX = 1
_STREAM_INIT = 2


@dataclass(frozen=True)
class TrainConfig:
    """One training run's knobs; validated up front."""

    method: str = "open-sampling"
    eta: float = 1.5
    alpha: float | None = None
    label_dist: LabelDistributionKind | None = None
    use_class_weights: bool = True
    fixed_labels: bool = False
    beta_cb: float = 0.9999
    epochs: int = 40
    batch_train: int = 32
    batch_aux: int | None = None
    hidden_dim: int = 16
    seed: int = 0
    base_lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 2e-4
    schedule: LrSchedule | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.eta < 0:
            raise ValueError("eta must be non-negative")
        if self.epochs < 0 or self.batch_train < 1:
            raise ValueError("need epochs >= 0 and batch_train >= 1")
        if self.batch_aux is not None and self.batch_aux < 1:
            raise ValueError("batch_aux must be at least 1")
        if not 0.0 <= self.beta_cb < 1.0:
            raise ValueError("beta_cb must lie in [0, 1)")
        if self.hidden_dim < 0 or self.base_lr < 0 or self.weight_decay < 0:
            raise ValueError("hidden_dim, base_lr, weight_decay must be non-negative")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        relabels = self.method in _RELABEL_METHODS
        if self.fixed_labels and not relabels:
            raise ValueError(f"fixed_labels has no effect for method {self.method!r}")
        if self.label_dist is not None and not relabels:
            raise ValueError(f"label_dist has no effect for method {self.method!r}")
        if self.alpha is not None and not relabels:
            raise ValueError(f"alpha has no effect for method {self.method!r}")
        if self.schedule is not None and self.schedule.total_epochs < self.epochs:
            raise ValueError(f"schedule covers {self.schedule.total_epochs} < {self.epochs} epochs")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    base_loss: float
    aux_loss: float
    test_overall_acc: float
    test_per_class_acc: tuple


@dataclass(frozen=True)
class RunResult:
    final_params: MlpParams
    history: tuple
    config: TrainConfig
    wall_time: float


def default_schedule(total_epochs: int) -> LrSchedule:
    """Warmup for 5 epochs then decay by 0.01 at 80% and 90% of the run."""
    if total_epochs < 10:
        return LrSchedule(
            warmup_epochs=0,
            milestones=(),
            decay_factor=0.01,
            total_epochs=max(total_epochs, 1),
        )
    return LrSchedule(
        warmup_epochs=5,
        milestones=(int(0.8 * total_epochs), int(0.9 * total_epochs)),
        decay_factor=0.01,
        total_epochs=total_epochs,
    )


def _draw_labels(cdf: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    labels = np.searchsorted(cdf, rng.random(m), side="right")
    return np.minimum(labels, cdf.shape[0] - 1)


def sample_aux_labels(dist, m: int, rng: np.random.Generator) -> np.ndarray:
    """m i.i.d. label draws from the distribution via inverse-CDF sampling."""
    gammas = np.asarray(getattr(dist, "gammas", dist), dtype=np.float64)
    if m < 1:
        raise ValueError("m must be at least 1")
    return _draw_labels(np.cumsum(gammas), m, rng).astype(np.int64, copy=False)


@dataclass(frozen=True)
class StepLosses:
    base: float
    aux: float
    total: float


@dataclass(frozen=True)
class _LossSpec:
    """A method resolved into CE(train + base_offset; base_weights) + eta * aux.

    base_offset is log n_j for balanced softmax and base_weights the cb-rw
    class weights. Auxiliary labels are pinned per pool instance, drawn fresh
    from aux_cdf, or absent (OE); the aux loss is omega-weighted CE, or CE
    against aux_prior (OE). Weights are non-negative and the OE prior sums to
    one by construction, so no step re-checks them.
    """

    eta: float = 0.0
    base_offset: np.ndarray | None = None
    base_weights: np.ndarray | None = None
    aux_pinned: np.ndarray | None = None
    aux_cdf: np.ndarray | None = None
    aux_omegas: np.ndarray | None = None
    aux_prior: np.ndarray | None = None

    def aux_labels(self, aidx: np.ndarray, rng: np.random.Generator):
        if self.aux_pinned is not None:
            return self.aux_pinned[aidx]
        return None if self.aux_cdf is None else _draw_labels(self.aux_cdf, aidx.shape[0], rng)


def _step(layers, state: OptimState, spec: _LossSpec, lr: float, bx, by, ax, ay):
    """One in-place SGD update on the spec's objective; returns (base, aux) losses."""
    logits, acts = _forward(layers, bx)
    if spec.base_offset is not None:
        logits = logits + spec.base_offset
    _check_finite(logits)
    weights = None if spec.base_weights is None else spec.base_weights[by]
    base_loss, g = _xent(logits, by, weights)
    grads = _backward(layers, acts, g)
    aux_loss = 0.0
    if ax is not None:
        logits, acts = _forward(layers, ax)
        _check_finite(logits)
        if spec.aux_prior is not None:
            aux_loss, g = _prior_xent(logits, spec.aux_prior)
        else:
            aux_loss, g = _xent(logits, ay, spec.aux_omegas[ay])
        # eta == 0 must reproduce the base update bit-exactly, so skip the add.
        if spec.eta != 0.0:
            for (gw, gb), (aw, ab) in zip(grads, _backward(layers, acts, g)):
                gw += spec.eta * aw
                gb += spec.eta * ab
    _sgd_update(layers, grads, state, lr)
    return base_loss, aux_loss


def open_sampling_step(
    params: MlpParams,
    train_x,
    train_y,
    aux_x,
    dist,
    weights: ClassWeights,
    eta: float,
    state: OptimState,
    lr: float,
    rng: np.random.Generator | None = None,
    aux_labels=None,
):
    """One update on the combined objective: CE(train) + eta * weighted CE(aux).

    Auxiliary labels are drawn fresh from ``dist`` unless ``aux_labels`` pins
    them (the fixed-label variant). Returns (params, state, StepLosses).
    """
    train_x = _check_batch(params, train_x)
    aux_x = _check_batch(params, aux_x)
    k = params.num_classes
    if train_x.shape[0] == 0 or aux_x.shape[0] == 0:
        raise ValueError("empty batch")
    if eta < 0 or lr < 0:
        raise ValueError("eta and lr must be non-negative")
    if aux_labels is None:
        if rng is None:
            raise ValueError("need an rng to draw auxiliary labels")
        aux_labels = sample_aux_labels(dist, aux_x.shape[0], rng)
    train_y = np.asarray(train_y, dtype=np.int64)
    aux_labels = np.asarray(aux_labels, dtype=np.int64)
    if min(train_y.min(), aux_labels.min()) < 0 or max(train_y.max(), aux_labels.max()) >= k:
        raise ValueError("label out of range")
    omegas = np.asarray(weights.omegas, dtype=np.float64)
    if np.any(omegas[aux_labels] < 0):
        raise ValueError("sample weights must be non-negative")
    layers = tuple((w.copy(), b.copy()) for w, b in params.layers)
    state = replace(state, velocity=tuple((vw.copy(), vb.copy()) for vw, vb in state.velocity))
    spec = _LossSpec(eta=eta, aux_omegas=omegas)
    base_loss, aux_loss = _step(layers, state, spec, lr, train_x, train_y, aux_x, aux_labels)
    losses = StepLosses(base_loss, aux_loss, base_loss + eta * aux_loss)
    return replace(params, layers=layers), state, losses


def _loss_spec(config: TrainConfig, prior: ClassPrior, pool_size: int, aux_rng) -> _LossSpec:
    """Resolve the method once per run, with the checks the step then skips."""
    spec = {"eta": config.eta} if config.method in _AUX_METHODS else {}
    if config.method in ("balanced-softmax", "balanced-softmax+open-sampling"):
        spec["base_offset"] = _log_counts(prior)
    elif config.method == "cb-rw":
        spec["base_weights"] = cb_effective_weights(prior, config.beta_cb).omegas
    if config.method in _RELABEL_METHODS:
        kind = config.label_dist or LabelDistributionKind.complementary(config.alpha)
        gammas = label_distribution(kind, prior)
        omegas = np.ones(prior.num_classes)
        if config.use_class_weights:
            omegas = weights_from_probabilities(gammas).omegas
        spec["aux_omegas"] = omegas
        if config.fixed_labels:
            spec["aux_pinned"] = sample_aux_labels(gammas, pool_size, aux_rng)
        else:
            spec["aux_cdf"] = np.cumsum(gammas)
    elif config.method == "oe":
        spec["aux_prior"] = prior.betas
    return _LossSpec(**spec)


def train_run(
    config: TrainConfig,
    train: LabeledDataset,
    test: LabeledDataset,
    aux: AuxiliaryPool | None = None,
) -> RunResult:
    """Run the configured method; deterministic given the config seed."""
    t0 = time.perf_counter()
    if test.num_classes != train.num_classes:
        raise ValueError("train and test disagree on the number of classes")
    needs_aux = config.method in _AUX_METHODS
    if needs_aux and aux is None:
        raise ValueError(f"method {config.method!r} requires an auxiliary pool")
    if aux is not None and aux.dim != train.dim:
        raise ValueError("auxiliary pool dimension does not match the training set")

    schedule = config.schedule or default_schedule(config.epochs)
    shuffle_rng = np.random.default_rng([config.seed, _STREAM_SHUFFLE])
    aux_rng = np.random.default_rng([config.seed, _STREAM_AUX])
    init_rng = np.random.default_rng([config.seed, _STREAM_INIT])

    # The run owns these arrays; the step updates them in place.
    params = init_params(train.dim, config.hidden_dim, train.num_classes, init_rng)
    state = init_optim_state(params, config.momentum, config.weight_decay)
    spec = _loss_spec(config, train.prior(), len(aux) if needs_aux else 0, aux_rng)
    features = np.asarray(train.features, dtype=np.float64)
    pool = np.asarray(aux.features, dtype=np.float64) if needs_aux else None

    n = len(train)
    batch = config.batch_train
    m_aux = config.batch_aux or batch
    last_loss = None
    history = []
    for epoch in range(config.epochs):
        lr = lr_at(schedule, epoch, config.base_lr)
        perm = shuffle_rng.permutation(n)
        total_sum = base_sum = aux_sum = 0.0
        n_batches = 0
        for start in range(0, n, batch):
            idx = perm[start : start + batch]
            ax = ay = None
            if needs_aux:
                aidx = aux_rng.integers(0, len(pool), size=m_aux)
                ax, ay = pool[aidx], spec.aux_labels(aidx, aux_rng)
            try:
                base_loss, aux_loss = _step(
                    params.layers, state, spec, lr, features[idx], train.labels[idx], ax, ay
                )
            except ValueError as exc:
                raise ValueError(
                    f"{exc} at epoch {epoch}, step {n_batches} (last finite loss {last_loss})"
                ) from exc
            last_loss = base_loss + spec.eta * aux_loss
            total_sum += last_loss
            base_sum += base_loss
            aux_sum += aux_loss
            n_batches += 1

        report = metrics.accuracy(params, test)
        history.append(
            EpochRecord(
                epoch=epoch,
                lr=lr,
                train_loss=total_sum / n_batches,
                base_loss=base_sum / n_batches,
                aux_loss=aux_sum / n_batches,
                test_overall_acc=report.overall_acc,
                test_per_class_acc=tuple(report.per_class_acc.tolist()),
            )
        )

    return RunResult(
        final_params=params,
        history=tuple(history),
        config=config,
        wall_time=time.perf_counter() - t0,
    )
