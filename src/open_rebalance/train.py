"""Training loops: auxiliary-relabeling regularization and baseline methods.

Each iteration pairs a training minibatch with an auxiliary minibatch drawn
uniformly from the open-set pool; auxiliary labels are resampled from the
configured label distribution every iteration unless fixed for the run.
Three independent RNG streams (shuffling, auxiliary draws, initialization)
keep ablations bit-comparable: changing one knob touches exactly one stream.
``train_runs`` trains many runs as stacked arrays, one stack per training
shape. Inside a stack each auxiliary kind is a leading slice (relabelled,
then OE, then none), so the auxiliary pass runs on a prefix of the stacked
weights; a run gives the same bits alone or in any batch. A stack's
parameters, velocities and gradients are one flat (S, P) buffer each, with
per-layer views into them, so one momentum update covers the whole stack.

A run's auxiliary stream is defined by two calls per step,
``integers(0, P, size=m)`` for the indices and then, for drawn labels,
``random(m)``. The engine decodes a whole epoch of them from one raw PCG64
block per stream and replays the calls wherever the decode could differ, so
indices, uniforms and generator state are exactly the calls' (``_epoch_draws``).
Runs of one seed share their shuffle, and runs of one seed, pool length and
label mode their auxiliary draws; each maps its own labels (``_aux_labels``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from itertools import compress

import numpy as np

from . import metrics
from .data import AuxiliaryPool, LabeledDataset
from .nn import (
    LrSchedule,
    MlpParams,
    _backward,
    _forward,
    _log_counts,
    _prior_xent,
    _sgd_update,
    _xent,
    init_params,
    lr_at,
)
from .priors import (
    ClassPrior,
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
    "train_run",
    "train_runs",
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
        # Each message starts with the field it refuses.
        if self.method not in METHODS:
            raise ValueError(f"method {self.method!r} is not one of {METHODS}")
        for name in ("eta", "epochs", "hidden_dim", "base_lr", "weight_decay"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.batch_train < 1:
            raise ValueError("batch_train must be at least 1")
        if self.batch_aux is not None and self.batch_aux < 1:
            raise ValueError("batch_aux must be at least 1")
        if not 0.0 <= self.beta_cb < 1.0:
            raise ValueError("beta_cb must lie in [0, 1)")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        relabels = self.method in _RELABEL_METHODS
        if self.fixed_labels and not relabels:
            raise ValueError(f"fixed_labels has no effect for method {self.method!r}")
        if self.label_dist is not None and not relabels:
            raise ValueError(f"label_dist has no effect for method {self.method!r}")
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
    """A finished run; wall_time is that of the stack it trained in."""

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


def _lookup_labels(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF labels for uniforms u in [0, 1), any shape."""
    return np.minimum(cdf.searchsorted(u, side="right"), cdf.shape[0] - 1)


def sample_aux_labels(gammas, m: int, rng: np.random.Generator) -> np.ndarray:
    """m i.i.d. label draws from the distribution gammas via inverse-CDF sampling."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return _lookup_labels(np.cumsum(gammas, dtype=np.float64), rng.random(m)).astype(np.int64, copy=False)


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


def _replay_draws(rng: np.random.Generator, pool_size: int, n_steps: int, m: int, drawn: bool):
    """The per-step calls that define a run's auxiliary stream, made one by one."""
    idx = np.empty((n_steps, m), dtype=np.int64)
    u = np.empty((n_steps, m)) if drawn else None
    for step in range(n_steps):
        idx[step] = rng.integers(0, pool_size, size=m)
        if drawn:
            u[step] = rng.random(m)
    return idx, u


def _epoch_draws(rng: np.random.Generator, pool_size: int, n_steps: int, m: int, drawn: bool):
    """One epoch of an auxiliary stream's indices and uniforms, each (n_steps, m).

    Gives the indices, uniforms and final generator state of n_steps rounds of
    ``rng.integers(0, pool_size, size=m)`` then, if drawn, ``rng.random(m)``
    (uniforms None otherwise). For even m and 2 <= pool_size < 2**32, integers draws
    each index from one 32-bit half of a 64-bit word, low half first, as
    ``(half * pool_size) >> 32``, and redraws (Lemire's rejection) when the
    low 32 bits of that product fall below ``2**32 % pool_size``; random
    takes one word per double. So one raw block decodes exactly unless a
    half is carried in from earlier or the block holds a rejection; then the
    state is restored and the calls replayed.
    """
    bitgen = rng.bit_generator
    saved = bitgen.state
    idx = u = None
    if m % 2 == 0 and 2 <= pool_size < 2**32 and saved["has_uint32"] == 0:
        half = m // 2
        words = bitgen.random_raw(n_steps * (half + (m if drawn else 0))).reshape(n_steps, -1)
        pairs = words[:, :half, None] >> np.array([0, 32], dtype=np.uint64)
        scaled = (pairs & 0xFFFFFFFF).reshape(n_steps, m) * pool_size
        if not ((scaled & 0xFFFFFFFF) < 2**32 % pool_size).any():
            idx = (scaled >> 32).astype(np.int64)
            if drawn:
                u = (words[:, half:] >> 11) * 2.0**-53
            # integers leaves the last high half it used behind, spent.
            state = bitgen.state
            state["uinteger"] = int(words[-1, half - 1]) >> 32
            bitgen.state = state
        else:
            bitgen.state = saved
    if idx is None:
        idx, u = _replay_draws(rng, pool_size, n_steps, m, drawn)
    return idx, u


def _aux_labels(spec: _LossSpec, idx: np.ndarray, u) -> np.ndarray | None:
    """A run's auxiliary labels for its stream's draws: pinned, drawn from u, or None (OE)."""
    if spec.aux_pinned is not None:
        return spec.aux_pinned[idx]
    return None if u is None else _lookup_labels(spec.aux_cdf, u)


def _stack_rows(rows, fill: float):
    """Stack per-run vectors, filling in for runs without one; None if none has one."""
    present = next((r for r in rows if r is not None), None)
    if present is None:
        return None
    return np.stack([np.full_like(present, fill) if r is None else r for r in rows])


def _slice_rank(spec: _LossSpec) -> int:
    """A run's slice in its stack: 0 relabelled aux CE, 1 OE prior CE, 2 no aux batch."""
    return 0 if spec.aux_omegas is not None else 1 if spec.aux_prior is not None else 2


def _flat(layer_sets) -> np.ndarray:
    """One row per run: each layer's weights, then its biases, flattened."""
    return np.stack([np.concatenate([a.ravel() for pair in layers for a in pair]) for layers in layer_sets])


def _views(flat: np.ndarray, shapes) -> tuple:
    """Per-layer (S, d, h) weight and (S, 1, h) bias views into a flat (S, P) buffer."""
    views, at = [], 0
    for rows, cols in shapes:
        mid, end = at + rows * cols, at + (rows + 1) * cols
        views.append((flat[:, at:mid].reshape(-1, rows, cols), flat[:, mid:end].reshape(-1, 1, cols)))
        at = end
    return tuple(views)


class _Stack:
    """S runs' parameters, velocities and loss specs, stacked along axis 0.

    Parameters, velocities and gradients are one flat (S, P) buffer each, a
    run per row; ``layers`` and ``grads`` are (S, d, h) weight and (S, 1, h)
    bias views into them, so the backward pass writes its gradients in place
    and one momentum update covers the whole stack. The per-run spec fields
    become vectors: eta, the base logit offset (zeros where a run has none),
    the cb-rw base weights (ones where a run has none; unit weights round
    exactly as no weights) and the aux omegas. Specs come in slice order: the
    first R runs relabel their auxiliary batch, the next A - R take the OE
    prior CE (the training prior, shared by all), and the rest have no
    auxiliary batch. The run count and slices are fixed for the stack's life.
    """

    def __init__(self, specs, layer_sets, momentum: float, weight_decay: float):
        self.shapes = [w.shape for w, _ in layer_sets[0]]
        self.params = _flat(layer_sets)
        self.velocity = np.zeros_like(self.params)
        self.momentum, self.weight_decay = momentum, weight_decay
        rank = np.array([_slice_rank(spec) for spec in specs])
        self.eta = np.array([spec.eta for spec in specs], dtype=np.float64)
        offset = _stack_rows([spec.base_offset for spec in specs], 0.0)
        self.base_offset = None if offset is None else offset[:, None, :]
        self.base_weights = _stack_rows([spec.base_weights for spec in specs], 1.0)
        self.aux_omegas = _stack_rows([spec.aux_omegas for spec in specs], 1.0)
        self.aux_prior = next((spec.aux_prior for spec in specs if spec.aux_prior is not None), None)
        self.size = len(specs)
        self.n_relabel = int((rank == 0).sum())
        self.n_aux = a = int((rank < 2).sum())
        self.rows = np.arange(self.size)[:, None]
        # Adding a zero offset could turn a -0.0 logit into +0.0, and a zero
        # eta times the aux gradient could do the same to a weight gradient,
        # so both adds are masked to the runs that have a nonzero term.
        self.offset_where = np.array([spec.base_offset is not None for spec in specs])[:, None, None]
        self.grad = np.empty_like(self.params)
        self.layers = _views(self.params, self.shapes)
        self.grads = _views(self.grad, self.shapes)
        # The auxiliary pass works on views of the leading A runs' parameters,
        # with gradients of its own.
        self.aux_grad = np.empty_like(self.params[:a])
        self.aux_layers = _views(self.params[:a], self.shapes)
        self.aux_grads = _views(self.aux_grad, self.shapes)
        self.aux_rows = self.rows[: self.n_relabel]
        self.aux_eta = self.eta[:a, None]
        self.eta_where = self.aux_eta != 0.0
        self.any_eta = bool(self.eta_where.any())


def _aux_loss(stack: _Stack, logits, ay):
    """The auxiliary loss and logit gradient of the stack's leading A runs."""
    r = stack.n_relabel
    if r == stack.n_aux:
        return _xent(logits, ay, stack.aux_omegas[stack.aux_rows, ay])
    if r == 0:
        return _prior_xent(logits, stack.aux_prior)
    loss, g = _xent(logits[:r], ay, stack.aux_omegas[stack.aux_rows, ay])
    oe_loss, oe_g = _prior_xent(logits[r:], stack.aux_prior)
    return np.concatenate((loss, oe_loss)), np.concatenate((g, oe_g))


def _step(stack: _Stack, lr: float, bx, by, ax, ay):
    """One in-place SGD update of every run in the stack on its spec's objective.

    Batches are (S, B, d) with (S, B) labels; the auxiliary batch ax is
    (A, m, d) for the stack's leading A runs, with (R, m) labels ay. Returns
    the per-run base and aux loss vectors and the mask of runs whose base or
    auxiliary logits are not all finite, None when all are. Every run is
    updated, finite or not; no operation mixes two runs' slices.
    """
    logits, acts = _forward(stack.layers, bx)
    if stack.base_offset is not None:
        np.add(logits, stack.base_offset, out=logits, where=stack.offset_where)
    # Training can diverge, so every batch is checked; a healthy one allocates no mask.
    lost = None if np.isfinite(logits).all() else ~np.isfinite(logits).all(axis=(-2, -1))
    weights = None if stack.base_weights is None else stack.base_weights[stack.rows, by]
    base_loss, g = _xent(logits, by, weights)
    _backward(stack.layers, acts, g, stack.grads)
    a = stack.n_aux
    aux_loss = np.zeros_like(base_loss) if a < stack.size else None
    if a:
        logits, acts = _forward(stack.aux_layers, ax)
        if not np.isfinite(logits).all():
            lost = np.zeros(stack.size, dtype=bool) if lost is None else lost
            lost[:a] |= ~np.isfinite(logits).all(axis=(-2, -1))
        loss, g = _aux_loss(stack, logits, ay)
        aux_loss = loss if a == stack.size else np.concatenate((loss, aux_loss[a:]))
        if stack.any_eta:
            _backward(stack.aux_layers, acts, g, stack.aux_grads)
            aux, head = stack.aux_grad, stack.grad[:a]
            np.multiply(stack.aux_eta, aux, out=aux)
            np.add(head, aux, out=head, where=stack.eta_where)
    _sgd_update(stack.params, stack.grad, stack.velocity, stack.momentum, stack.weight_decay, lr)
    return base_loss, aux_loss, lost


def _loss_spec(config: TrainConfig, prior: ClassPrior, pool_size: int, aux_rng) -> _LossSpec:
    """Resolve the method once per run, with the checks the step then skips."""
    spec = {"eta": config.eta} if config.method in _AUX_METHODS else {}
    if config.method in ("balanced-softmax", "balanced-softmax+open-sampling"):
        spec["base_offset"] = _log_counts(prior)
    elif config.method == "cb-rw":
        spec["base_weights"] = cb_effective_weights(prior, config.beta_cb)
    if config.method in _RELABEL_METHODS:
        kind = config.label_dist or LabelDistributionKind.complementary()
        gammas = label_distribution(kind, prior)
        omegas = np.ones(prior.num_classes)
        if config.use_class_weights:
            omegas = weights_from_probabilities(gammas)
        spec["aux_omegas"] = omegas
        if config.fixed_labels:
            spec["aux_pinned"] = sample_aux_labels(gammas, pool_size, aux_rng)
        else:
            spec["aux_cdf"] = np.cumsum(gammas)
    elif config.method == "oe":
        spec["aux_prior"] = prior.betas
    return _LossSpec(**spec)


@dataclass
class _Run:
    """One run's own state in the engine: its RNG streams, spec and history."""

    index: int
    config: TrainConfig
    spec: _LossSpec
    params: MlpParams
    shuffle_rng: np.random.Generator
    aux_rng: np.random.Generator
    pool: np.ndarray | None  # the auxiliary features this run draws from
    history: list = field(default_factory=list)
    error: ValueError | None = None


def _start_run(index, config: TrainConfig, train: LabeledDataset, test: LabeledDataset, prior, aux):
    """Validate one run and resolve its spec."""
    if test.num_classes != train.num_classes:
        raise ValueError("train and test disagree on the number of classes")
    needs_aux = config.method in _AUX_METHODS
    if needs_aux and aux is None:
        raise ValueError(f"method {config.method!r} requires an auxiliary pool")
    if aux is not None and aux.dim != train.dim:
        raise ValueError("auxiliary pool dimension does not match the training set")
    pool = np.asarray(aux.features, dtype=np.float64) if needs_aux else None
    aux_rng = np.random.default_rng([config.seed, _STREAM_AUX])
    init_rng = np.random.default_rng([config.seed, _STREAM_INIT])
    return _Run(
        index=index,
        config=config,
        spec=_loss_spec(config, prior, 0 if pool is None else len(pool), aux_rng),
        params=init_params(train.dim, config.hidden_dim, train.num_classes, init_rng),
        shuffle_rng=np.random.default_rng([config.seed, _STREAM_SHUFFLE]),
        aux_rng=aux_rng,
        pool=pool,
    )


def _group_key(run: _Run):
    """A run's training shape, and its auxiliary batch size and pool (None without).

    Runs with an auxiliary batch stack only with runs whose pools are row
    prefixes of one array (same start address and strides), so one gather
    serves them all; the auxiliary kind is not part of the key.
    """
    config, pool = run.config, run.pool
    aux = None
    if pool is not None:
        aux = (config.batch_aux or config.batch_train, pool.__array_interface__["data"][0], pool.strides)
    schedule = config.schedule or default_schedule(config.epochs)
    shape = (config.hidden_dim, config.epochs, config.batch_train, schedule, config.base_lr,
             config.momentum, config.weight_decay)
    return shape, aux


def _aux_stream(run: _Run):
    """Runs with equal keys draw equal auxiliary indices and uniforms: the seed,
    pool length and label mode (a pinned run's stream starts after its labels)."""
    spec = run.spec
    return run.config.seed, len(run.pool), spec.aux_cdf is not None, spec.aux_pinned is not None


def _train_group(runs: list, train: LabeledDataset, test: LabeledDataset, pool):
    """Train runs that share a training shape as one stack, sharing their streams' decodes.

    The runs are put in slice order first (see ``_Stack``), so runs[:A] are
    those with an auxiliary batch. A run whose logits go non-finite gets its
    error and is dead from then on: it keeps its slice and goes on computing
    until the stack ends or no run is alive, but nothing it computes is kept,
    and the others go on unchanged. Live runs get their final parameters.
    Each distinct stream keeps one generator for the whole group and is
    decoded once an epoch for all its runs: a shuffle per seed, an auxiliary
    stream per ``_aux_stream`` key.
    """
    runs = sorted(runs, key=lambda r: _slice_rank(r.spec))
    config = runs[0].config
    schedule = config.schedule or default_schedule(config.epochs)
    stack = _Stack([r.spec for r in runs], [r.params.layers for r in runs], config.momentum,
                   config.weight_decay)
    features = np.asarray(train.features, dtype=np.float64)
    test_x = np.asarray(test.features, dtype=np.float64)
    n = len(train)
    batch = config.batch_train
    m_aux = config.batch_aux or batch  # runs[0] has an auxiliary batch if any run does
    n_steps = -(-n // batch)
    shuffles = {r.config.seed: r.shuffle_rng for r in runs}
    keys = [_aux_stream(r) for r in runs[: stack.n_aux]]
    streams = {key: r.aux_rng for key, r in zip(keys, runs)}
    last_loss = np.full(len(runs), np.nan)
    alive = np.ones(len(runs), dtype=bool)
    for epoch in range(config.epochs):
        lr = lr_at(schedule, epoch, config.base_lr)
        perm = {seed: rng.permutation(n) for seed, rng in shuffles.items()}
        perms = np.array([perm[r.config.seed] for r in runs])
        if pool is not None:
            raw = {key: _epoch_draws(rng, key[1], n_steps, m_aux, key[2]) for key, rng in streams.items()}
            # Step-major (n_steps, A, m) and (n_steps, R, m), so each step's slice is contiguous.
            aidx = np.stack([raw[key][0] for key in keys], axis=1)
            labels = [_aux_labels(r.spec, *raw[key]) for r, key in zip(runs[: stack.n_relabel], keys)]
            alabels = np.stack(labels, axis=1) if labels else None
        total_sum, base_sum, aux_sum = np.zeros((3, len(runs)))
        for step, start in enumerate(range(0, n, batch)):
            idx = perms[:, start : start + batch]
            bx, by = features[idx], train.labels[idx]
            ax = ay = None
            if pool is not None:
                ax = pool[aidx[step]]
                ay = None if alabels is None else alabels[step]
            base_loss, aux_loss, lost = _step(stack, lr, bx, by, ax, ay)
            if lost is not None:
                lost &= alive  # a dead run keeps its first error
                for r, last in zip(compress(runs, lost), last_loss[lost].tolist()):
                    shown = None if math.isnan(last) else last
                    r.error = ValueError(
                        f"non-finite logits at epoch {epoch}, step {step} (last finite loss {shown})"
                    )
                alive &= ~lost
                if not alive.any():
                    return
            total = base_loss + stack.eta * aux_loss
            np.copyto(last_loss, total, where=np.isfinite(total))
            total_sum += total
            base_sum += base_loss
            aux_sum += aux_loss
        n_batches = step + 1
        overall, per_class = metrics._accuracies(stack.layers, test_x, test.labels, test.num_classes)
        means = zip(*((x / n_batches).tolist() for x in (total_sum, base_sum, aux_sum)))
        for r, (total_mean, base_mean, aux_mean), acc, per in compress(
            zip(runs, means, overall.tolist(), per_class.tolist()), alive
        ):
            r.history.append(
                EpochRecord(
                    epoch=epoch,
                    lr=lr,
                    train_loss=total_mean,
                    base_loss=base_mean,
                    aux_loss=aux_mean,
                    test_overall_acc=acc,
                    test_per_class_acc=tuple(per),
                )
            )
    for s, r in compress(enumerate(runs), alive):
        layers = tuple((w[s].copy(), b[s, 0].copy()) for w, b in stack.layers)
        r.params = replace(r.params, layers=layers)


def train_runs(configs, train: LabeledDataset, test: LabeledDataset, pools=None) -> list:
    """Train many runs at once; deterministic given each config's seed.

    ``pools`` holds each config's auxiliary pool (or None), or is None when
    no run has one. Runs that share a training shape (hidden width, epochs,
    batch sizes, LR schedule, LR, momentum and weight decay) train as one
    stack, whatever their method; runs with an auxiliary batch also share
    its size and pool array, and runs without one join the first stack of
    their shape that has one. Inside a stack the runs are ordered relabelled,
    then OE, then without an auxiliary batch (see ``_Stack``). Each run's
    result is bit for bit what it would be alone. Returns, in config order,
    each run's RunResult, or the ValueError that stopped it: a bad setup or a
    divergence. A run's wall_time is that of the stack it trained in.
    """
    configs = list(configs)
    pools = [None] * len(configs) if pools is None else list(pools)
    if len(pools) != len(configs):
        raise ValueError(f"{len(pools)} pools for {len(configs)} configs")
    prior = train.prior()
    results = [None] * len(configs)
    groups: dict = {}
    for i, (config, aux) in enumerate(zip(configs, pools)):
        try:
            run = _start_run(i, config, train, test, prior, aux)
        except ValueError as exc:
            results[i] = exc
            continue
        groups.setdefault(_group_key(run), []).append(run)
    for shape, _ in [key for key in groups if key[1] is None]:
        host = next((key for key in groups if key[0] == shape and key[1] is not None), None)
        if host is not None:
            groups[host] += groups.pop((shape, None))
    for runs in groups.values():
        # Every pool in a group is a row prefix of the longest one.
        pool = max((r.pool for r in runs if r.pool is not None), key=len, default=None)
        t0 = time.perf_counter()
        _train_group(list(runs), train, test, pool)
        wall = time.perf_counter() - t0
        for run in runs:
            results[run.index] = run.error or RunResult(
                final_params=run.params, history=tuple(run.history), config=run.config, wall_time=wall
            )
    return results


def train_run(
    config: TrainConfig,
    train: LabeledDataset,
    test: LabeledDataset,
    aux: AuxiliaryPool | None = None,
) -> RunResult:
    """Run the configured method; deterministic given the config seed."""
    result = train_runs([config], train, test, [aux])[0]
    if isinstance(result, ValueError):
        raise result
    return result
