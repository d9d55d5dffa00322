"""Training loops: auxiliary-relabeling regularization and baseline methods.

Each iteration pairs a training minibatch with an auxiliary minibatch drawn
uniformly from the open-set pool; auxiliary labels are resampled from the
configured label distribution every iteration unless fixed for the run.
Three independent RNG streams per seed (shuffling, auxiliary draws,
initialization) keep ablations bit-comparable: changing one knob touches
exactly one stream. ``train_runs`` trains many runs as stacked arrays, one
stack per training shape. Inside a stack each auxiliary kind is a leading
slice (relabelled, then OE, then none). A stack's parameters and gradients
are one flat (S + A, P) buffer each, whose last A rows mirror the A runs
with an auxiliary batch, and its velocities one (S, P) buffer, with
per-layer views into them: one momentum update covers the whole stack, and
one contiguous copy then refreshes the mirrors. The auxiliary pass runs on
the mirrors, and only the nonzero-eta runs between the kinds count its
gradient; a run gives the same bits alone or in any batch. A step whose
training and auxiliary batches have the same row count gathers both into
one buffer and takes one forward and one backward pass over S + A slices;
any other step takes two, base then auxiliary. A step writes both passes'
logits into one array, so one log-softmax serves both, each row rounding as
alone (its max and sum over K run down a class-major copy, in numpy's row
order), and an epoch sums its steps' losses once, at its end.
A stack scores its test set after every epoch, or, with ``every_epoch=False``
(a sweep, which reads only the last epoch), after its last epoch alone; the
earlier epochs' records then hold None for their accuracies.

A stack owns its runs' shuffle and auxiliary streams, one generator per
distinct stream: a shuffle per seed, and an auxiliary stream per seed, pool
length and label mode, drawn, pinned or none (``_aux_stream``). The
auxiliary stream is defined by two calls per step, ``integers(0, P,
size=m)`` for the indices and then, for drawn labels, ``random(m)``; a
pinned stream first draws ``random(P)``, one uniform per pool instance, and
its steps take the uniforms of the instances they draw. Each relabelled run
maps its stream's uniforms to labels through its own CDF (``_lookup_labels``),
one lookup per epoch for all the runs that share a stream and a CDF.
An epoch of a pinned or OE stream is one ``integers`` call; only a drawn
stream is decoded, from one raw PCG64 block, with the calls replayed wherever
the decode could differ, so indices, uniforms and state are the calls'.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import compress, repeat

import numpy as np

from . import metrics
from .data import LabeledDataset
from .nn import (
    LrSchedule,
    MlpParams,
    _backward,
    _forward,
    _log_counts,
    _log_softmax,
    _prior_xent_from,
    _sgd_update,
    _xent_from,
    init_params,
    lr_at,
)
from .priors import (
    _FIELD_KINDS,
    DEFAULT_BETA_CB,
    ClassPrior,
    LabelDistributionKind,
    _check_fields,
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

# A config's field kinds: the scalars, and the label_dist and schedule types that check their own.
_CONFIG_KINDS = {**_FIELD_KINDS, "LabelDistributionKind": (LabelDistributionKind, "a LabelDistributionKind"),
                 "LrSchedule": (LrSchedule, "an LrSchedule")}

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
    beta_cb: float = DEFAULT_BETA_CB
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
        _check_fields(self, _CONFIG_KINDS)
        for name in ("eta", "epochs", "hidden_dim", "base_lr", "weight_decay"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative")
            if not value < math.inf:  # NaN too
                raise ValueError(f"{name} must be finite, got {value}")
        for name in ("batch_train", "batch_aux"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        if not 0.0 <= self.beta_cb < 1.0:
            raise ValueError("beta_cb must lie in [0, 1)")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        relabels = self.method in _RELABEL_METHODS
        if self.fixed_labels and not relabels:
            raise ValueError(f"fixed_labels has no effect for method {self.method!r}")
        if self.label_dist is not None and not relabels:
            raise ValueError(f"label_dist has no effect for method {self.method!r}")


@dataclass(frozen=True)
class EpochRecord:
    """One epoch of a run: its lr, its mean total, base and auxiliary losses,
    and the test accuracies after it, overall and per class (NaN for a class
    the test set lacks). Both accuracies are None on an epoch that
    ``train_runs(..., every_epoch=False)`` did not score: any but the last."""

    epoch: int
    lr: float
    train_loss: float
    base_loss: float
    aux_loss: float
    test_overall_acc: float | None
    test_per_class_acc: tuple | None


@dataclass(frozen=True)
class RunResult:
    """A finished run; wall_time is that of the stack it trained in."""

    final_params: MlpParams
    history: tuple
    config: TrainConfig
    wall_time: float


def default_schedule(epochs: int) -> LrSchedule:
    """Warmup for 5 epochs then decay by 0.01 at 80% and 90% of the run;
    a run of under 10 epochs keeps its base rate."""
    if epochs < 10:
        return LrSchedule()
    return LrSchedule(warmup_epochs=5, milestones=(int(0.8 * epochs), int(0.9 * epochs)))


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
    class weights. Relabelled runs look their auxiliary labels up in aux_cdf,
    from uniforms drawn fresh every step or pinned per pool instance; OE runs
    have none. The aux loss is omega-weighted CE, or CE against aux_prior
    (OE). Weights are non-negative and the OE prior sums to one by
    construction, so no step re-checks them.
    """

    eta: float = 0.0
    base_offset: np.ndarray | None = None
    base_weights: np.ndarray | None = None
    aux_cdf: np.ndarray | None = None
    aux_omegas: np.ndarray | None = None
    aux_prior: np.ndarray | None = None


def _replay_draws(rng: np.random.Generator, pool_size: int, n_steps: int, m: int):
    """The per-step calls that define a drawn auxiliary stream, made one by one."""
    idx = np.empty((n_steps, m), dtype=np.int64)
    u = np.empty((n_steps, m))
    for step in range(n_steps):
        idx[step] = rng.integers(0, pool_size, size=m)
        u[step] = rng.random(m)
    return idx, u


def _epoch_draws(rng: np.random.Generator, pool_size: int, n_steps: int, m: int, drawn: bool):
    """One epoch of an auxiliary stream's indices and uniforms, each (n_steps, m).

    Gives the indices, uniforms and final generator state of n_steps rounds of
    ``rng.integers(0, pool_size, size=m)`` then, if drawn, ``rng.random(m)``
    (uniforms None otherwise). integers keeps its spare 32-bit half in the
    generator, so without uniforms one call makes the rounds. For a drawn
    stream, even m and 2 <= pool_size < 2**32, integers draws each index
    from one 32-bit half of a 64-bit word, low half first, as
    ``(half * pool_size) >> 32``, and redraws (Lemire's rejection) when the
    low 32 bits of that product fall below ``2**32 % pool_size``; random
    takes one word per double. So one raw block decodes exactly unless a
    half is carried in from earlier or the block holds a rejection; then the
    state is restored and the calls replayed.
    """
    if not drawn:
        return rng.integers(0, pool_size, size=(n_steps, m)), None
    bitgen = rng.bit_generator
    saved = bitgen.state
    if m % 2 == 0 and 2 <= pool_size < 2**32 and saved["has_uint32"] == 0:
        half = m // 2
        words = bitgen.random_raw(n_steps * (half + m)).reshape(n_steps, -1)
        pairs = words[:, :half, None] >> np.array([0, 32], dtype=np.uint64)
        scaled = (pairs & 0xFFFFFFFF).reshape(n_steps, m) * pool_size
        if not ((scaled & 0xFFFFFFFF) < 2**32 % pool_size).any():
            # integers leaves the last high half it used behind, spent.
            state = bitgen.state
            state["uinteger"] = int(words[-1, half - 1]) >> 32
            bitgen.state = state
            return (scaled >> 32).astype(np.int64), (words[:, half:] >> 11) * 2.0**-53
        bitgen.state = saved
    return _replay_draws(rng, pool_size, n_steps, m)


def _gather(source: np.ndarray, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
    """source[idx] along axis 0, written into out. np.take first copies a
    non-contiguous source whole (a broadcast pool, say), so such a source is
    indexed instead; mode="clip" lets take write straight into out."""
    if source.flags.c_contiguous:
        return np.take(source, idx, axis=0, out=out, mode="clip")
    out[...] = source[idx]
    return out


def _stack_rows(rows, fill: float):
    """Stack per-run vectors, filling in for runs without one; None if none has one."""
    present = next((r for r in rows if r is not None), None)
    if present is None:
        return None
    return np.stack([np.full_like(present, fill) if r is None else r for r in rows])


def _last_finite(rows, carried):
    """Each run's last finite value in rows (steps by runs), else its carried one."""
    rows = np.vstack([carried, rows])
    at = np.where(np.isfinite(rows), np.arange(len(rows))[:, None], 0).max(axis=0)
    return rows[at, np.arange(rows.shape[1])]


def _slice_rank(spec: _LossSpec) -> int:
    """A run's place in its stack: relabelled at eta 0, then eta != 0; OE at eta
    != 0, then eta 0; no auxiliary batch. So each auxiliary kind is a leading
    slice, and the nonzero-eta runs of both kinds one slice between them."""
    if spec.aux_omegas is not None:
        return 1 if spec.eta else 0
    return 4 if spec.aux_prior is None else 2 if spec.eta else 3


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

    Parameters and gradients are one flat (S + A, P) buffer each, a run per
    row, whose rows [S:] mirror the leading A runs: the mirrors' parameters
    are copied from rows [:A] after every update, and their gradients are the
    auxiliary pass's. Velocities are (S, P), and ``params`` is the runs' (S,
    P) rows. ``layers`` are (S, d, h) weight and (S, 1, h) bias views into
    ``params``, and ``blocks`` holds the views of each step form (see
    ``_step``), so the backward pass writes its gradients in place and one
    momentum update covers the whole stack. The per-run spec fields
    become vectors: eta, the base logit offset (-0.0 where a run has none;
    x + -0.0 is x for every x, signed zeros and NaNs included), the cb-rw base
    weights (ones where a run has none; unit weights round exactly as no
    weights) and the aux omegas. Specs come in ``_slice_rank`` order: the
    first R runs relabel their auxiliary batch, the next A - R take the OE
    prior CE (the training prior, shared by all), and the rest have no
    auxiliary batch. ``eta_slice`` is the runs between the zero-eta ones at
    either end of [:A], those whose auxiliary gradient counts. The run count
    and slices are fixed for the stack's life, so the step's layout is
    resolved here once, with ``aux_loss``, the per-run auxiliary losses,
    whose tail past A holds the zeros of the runs without a batch.
    """

    def __init__(self, specs, layer_sets, momentum: float, weight_decay: float):
        self.shapes = [w.shape for w, _ in layer_sets[0]]
        self.momentum, self.weight_decay = momentum, weight_decay
        rank = np.array([_slice_rank(spec) for spec in specs])
        self.eta = np.array([spec.eta for spec in specs], dtype=np.float64)
        offset = _stack_rows([spec.base_offset for spec in specs], -0.0)
        self.base_offset = None if offset is None else offset[:, None, :]
        self.base_weights = _stack_rows([spec.base_weights for spec in specs], 1.0)
        self.aux_omegas = _stack_rows([spec.aux_omegas for spec in specs], 1.0)
        self.aux_prior = next((spec.aux_prior for spec in specs if spec.aux_prior is not None), None)
        self.size = s = len(specs)
        self.n_relabel = int((rank < 2).sum())
        self.n_aux = a = int((rank < 4).sum())
        self.eta_slice = e = slice(int((rank < 1).sum()), int((rank < 3).sum()))
        self.rows = np.arange(s)[:, None]
        params = _flat(layer_sets)
        self.flat = np.concatenate([params, params[:a]])
        self.params = self.flat[:s]
        self.velocity = np.zeros_like(self.params)
        self.grad = np.empty_like(self.flat)
        self.layers = _views(self.params, self.shapes)
        # The eta slice's mirrors, whose gradients are scaled and added to their runs'.
        self.eta_mirrors = slice(s + e.start, s + e.stop) if e.start < e.stop else slice(s, s)
        self.blocks = (
            (self._block(slice(0, s + a), slice(0, self.eta_mirrors.stop)),),
            (self._block(slice(0, s), slice(0, s)), self._block(slice(s, s + a), self.eta_mirrors)),
        )
        self.aux_rows = self.rows[: self.n_relabel]
        self.aux_loss = np.zeros(s)

    def _block(self, rows: slice, back: slice):
        """One block of a step: forward views on rows, and the rows its backward
        pass covers (from rows.start on) with their parameter and gradient views."""
        return (_views(self.flat[rows], self.shapes), slice(back.start - rows.start, back.stop - rows.start),
                _views(self.flat[back], self.shapes), _views(self.grad[back], self.shapes))


def _aux_loss(stack: _Stack, logp, grad, ay):
    """Every run's auxiliary loss, from the leading A runs' log-probabilities and their exp.

    The relabelled rows [:R] and the OE rows [R:] each turn their rows of
    grad into their logit gradient in place; the log-softmax is row-wise, so
    each row rounds as in its own kind's call. The losses are written into
    ``stack.aux_loss``, which the next step overwrites.
    """
    r, a, loss = stack.n_relabel, stack.n_aux, stack.aux_loss
    if r:
        loss[:r] = _xent_from(logp[:r], grad[:r], ay, stack.aux_omegas[stack.aux_rows, ay])
    if r < a:
        loss[r:a] = _prior_xent_from(logp[r:], grad[r:], stack.aux_prior)
    return loss


def _step(stack: _Stack, lr: float, xs, by, ay):
    """One in-place SGD update of every run in the stack on its spec's objective.

    The training batches are (S, B, d) with (S, B) labels, and the auxiliary
    batches (A, m, d), one per leading run, with (R, m) labels ay. xs holds
    them in one or two blocks: when m == B (or A == 0), one (S + A, B, d)
    array, the training batches and then the auxiliary ones; otherwise the
    two arrays, training then auxiliary. Returns the per-run base and aux
    loss vectors, the latter valid until the next step, and the mask of runs
    whose base or auxiliary logits are not all finite, None when all are.
    Every run is updated, finite or not; no operation mixes two slices.
    Every auxiliary run takes the forward pass and its loss, on its mirror
    row's weights; the eta slice's mirrors take the backward pass, and their
    eta-weighted gradient is added to their runs' base one.

    Each block takes one forward and one backward pass: the one-block form
    runs them over all S + A slices and over the slices up to the eta
    slice's last mirror; the two-block form runs the base pass on the S runs
    and the auxiliary one on the A mirrors, whose backward pass covers the
    eta slice's mirrors alone. Every slice is the same (B x d)·(d x h) product in
    either form, so both round alike. The blocks' logits are written back to
    back into one (S*B + A*m, K) array, so one finiteness check, one
    log-softmax and one exp cover both passes; each pass reads its rows
    through views, and the log-softmax is row-wise, so every row rounds as in
    a call of its own.
    """
    size, batch = by.shape
    a, k = stack.n_aux, stack.shapes[-1][1]
    m, split = xs[-1].shape[1] if a else 0, size * batch
    blocks = stack.blocks[len(xs) - 1]
    logits = np.empty((split + a * m, k))
    passes, at = [], 0  # per block: its logit rows, their (slices, rows, K) shape, its activations
    for x, (layers, *_) in zip(xs, blocks):
        rows, shape = slice(at, at + x.shape[0] * x.shape[1]), (*x.shape[:2], k)
        passes.append((rows, shape, _forward(layers, x, out=logits[rows].reshape(shape))[1]))
        at = rows.stop
    base, aux = logits[:split].reshape(size, batch, k), logits[split:].reshape(a, m, k)
    if stack.base_offset is not None:
        base += stack.base_offset
    # Training can diverge, so every batch is checked; a healthy one allocates no mask.
    lost = None
    if not np.isfinite(logits).all():
        lost = ~np.isfinite(base).all(axis=(-2, -1))
        lost[:a] |= ~np.isfinite(aux).all(axis=(-2, -1))
    logp = _log_softmax(logits)
    grad = np.exp(logp)
    weights = None if stack.base_weights is None else stack.base_weights[stack.rows, by]
    base_loss = _xent_from(logp[:split].reshape(base.shape), grad[:split].reshape(base.shape), by, weights)
    if a:
        _aux_loss(stack, logp[split:].reshape(aux.shape), grad[split:].reshape(aux.shape), ay)
    for (rows, shape, acts), (_, back, layers, grads) in zip(passes, blocks):
        if back.start < back.stop:
            _backward(layers, [x[back] for x in acts], grad[rows].reshape(shape)[back], grads)
    mirrors = stack.eta_mirrors
    if mirrors.start < mirrors.stop:
        eta_grad = stack.grad[mirrors]
        eta_grad *= stack.eta[stack.eta_slice, None]
        stack.grad[stack.eta_slice] += eta_grad
    _sgd_update(stack.params, stack.grad[:size], stack.velocity, stack.momentum, stack.weight_decay, lr)
    stack.flat[size:] = stack.params[:a]
    return base_loss, stack.aux_loss, lost


def _loss_spec(config: TrainConfig, prior: ClassPrior) -> _LossSpec:
    """Resolve the method once per run, with the checks the step then skips."""
    spec = {"eta": config.eta} if config.method in _AUX_METHODS else {}
    if config.method in ("balanced-softmax", "balanced-softmax+open-sampling"):
        spec["base_offset"] = _log_counts(prior)
    elif config.method == "cb-rw":
        spec["base_weights"] = cb_effective_weights(prior, config.beta_cb)
    if config.method in _RELABEL_METHODS:
        kind = config.label_dist or LabelDistributionKind("complementary")
        gammas = label_distribution(kind, prior)
        omegas = np.ones(prior.num_classes)
        if config.use_class_weights:
            omegas = weights_from_probabilities(gammas)
        spec["aux_omegas"] = omegas
        spec["aux_cdf"] = np.cumsum(gammas)
    elif config.method == "oe":
        spec["aux_prior"] = prior.betas
    return _LossSpec(**spec)


@dataclass
class _Run:
    """One run's own state in the engine: its spec, parameters and history."""

    index: int
    config: TrainConfig
    spec: _LossSpec
    params: MlpParams
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
    if aux is not None:
        if aux.ndim != 2 or aux.shape[0] < 1:
            raise ValueError("pool must be a non-empty M x d matrix")
        if aux.shape[1] != train.dim:
            raise ValueError("auxiliary pool dimension does not match the training set")
    init_rng = np.random.default_rng([config.seed, _STREAM_INIT])
    return _Run(
        index=index,
        config=config,
        spec=_loss_spec(config, prior),
        params=init_params(train.dim, config.hidden_dim, train.num_classes, init_rng),
        pool=aux if needs_aux else None,
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
    pool length and label mode ("drawn", "pinned", or None for OE)."""
    mode = None if run.spec.aux_cdf is None else "pinned" if run.config.fixed_labels else "drawn"
    return run.config.seed, len(run.pool), mode


def _train_group(runs: list, train: LabeledDataset, test: LabeledDataset, pool, every_epoch: bool):
    """Train runs that share a training shape as one stack, sharing their streams' decodes.

    The runs are put in slice order first (see ``_Stack``), so runs[:A] are
    those with an auxiliary batch. A run whose logits go non-finite gets its
    error and is dead from then on: it keeps its slice and goes on computing
    until the stack ends or no run is alive, but nothing it computes is kept,
    and the others go on unchanged. Live runs get their final parameters.
    The group makes one generator per distinct stream, a shuffle per seed
    and an auxiliary stream per ``_aux_stream`` key, and draws each epoch of
    it once for all its runs; a pinned stream first draws its pool's uniforms.
    The stack's test accuracies are taken after every epoch, or with
    every_epoch false after the last one only, the others' records holding None.
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
    # Every step gathers its training and then its auxiliary batches into one buffer.
    dim = features.shape[1]
    aux_size = stack.n_aux * m_aux * dim
    inputs = np.empty(len(runs) * batch * dim + aux_size)
    seeds = dict.fromkeys(r.config.seed for r in runs)
    shuffles = {seed: np.random.default_rng([seed, _STREAM_SHUFFLE]) for seed in seeds}
    keys = [_aux_stream(r) for r in runs[: stack.n_aux]]
    streams = {key: np.random.default_rng([key[0], _STREAM_AUX]) for key in dict.fromkeys(keys)}
    pinned = {key: rng.random(key[1]) for key, rng in streams.items() if key[2] == "pinned"}
    # Relabelled runs that share a stream and a CDF share their labels too.
    label_keys = [(key, r.spec.aux_cdf.tobytes()) for r, key in zip(runs[: stack.n_relabel], keys)]
    cdfs = {label_key: r.spec.aux_cdf for r, label_key in zip(runs[: stack.n_relabel], label_keys)}
    last_loss = np.full(len(runs), np.nan)
    alive = np.ones(len(runs), dtype=bool)
    for epoch in range(config.epochs):
        lr = lr_at(schedule, epoch, config.base_lr)
        perm = {seed: rng.permutation(n) for seed, rng in shuffles.items()}
        perms = np.array([perm[r.config.seed] for r in runs])
        if pool is not None:
            raw = {key: _epoch_draws(rng, key[1], n_steps, m_aux, key[2] == "drawn")
                   for key, rng in streams.items()}
            # A pinned stream's uniforms are those of the instances it draws.
            uniforms = {key: pinned[key][idx] if key in pinned else u for key, (idx, u) in raw.items()}
            # Step-major (n_steps, A, m) and (n_steps, R, m), so each step's slice is contiguous.
            aidx = np.stack([raw[key][0] for key in keys], axis=1)
            labels = {label_key: _lookup_labels(cdf, uniforms[label_key[0]]) for label_key, cdf in cdfs.items()}
            alabels = np.stack([labels[label_key] for label_key in label_keys], axis=1) if labels else None
        # Row 0 is zero and row step + 1 holds that step's losses, so adding
        # the rows in order (accumulate, at any stack size) rounds as a running
        # total started at zero.
        base_rows, aux_rows = np.zeros((2, n_steps + 1, len(runs)))
        for step, start in enumerate(range(0, n, batch)):
            idx = perms[:, start : start + batch]
            rows = idx.shape[1]
            split = len(runs) * rows * dim
            bx, by = _gather(features, idx, inputs[:split].reshape(len(runs), rows, dim)), train.labels[idx]
            xs, ay = (bx,), None
            if pool is not None:
                ax = _gather(pool, aidx[step], inputs[split : split + aux_size].reshape(stack.n_aux, m_aux, dim))
                ay = None if alabels is None else alabels[step]
                # Both batches in one block when their row counts agree.
                xs = (inputs[: split + aux_size].reshape(-1, rows, dim),) if rows == m_aux else (bx, ax)
            base_loss, aux_loss, lost = _step(stack, lr, xs, by, ay)
            if lost is not None:
                lost &= alive  # a dead run keeps its first error
                shown = _last_finite(base_rows[1 : step + 1] + stack.eta * aux_rows[1 : step + 1], last_loss)
                for r, last in zip(compress(runs, lost), shown[lost].tolist()):
                    r.error = ValueError(
                        f"non-finite logits at epoch {epoch}, step {step} "
                        f"(last finite loss {None if math.isnan(last) else last})"
                    )
                alive &= ~lost
                if not alive.any():
                    return
            base_rows[step + 1] = base_loss
            aux_rows[step + 1] = aux_loss
        total_rows = base_rows + stack.eta * aux_rows
        last_loss = _last_finite(total_rows[1:], last_loss)
        accs = repeat((None, None))
        if every_epoch or epoch == config.epochs - 1:
            overall, per_class = metrics._accuracies(stack.layers, test_x, test.labels, test.num_classes)
            accs = zip(overall.tolist(), map(tuple, per_class.tolist()))
        means = zip(*((np.add.accumulate(x)[-1] / n_steps).tolist() for x in (total_rows, base_rows, aux_rows)))
        for r, (total_mean, base_mean, aux_mean), (acc, per) in compress(zip(runs, means, accs), alive):
            r.history.append(
                EpochRecord(
                    epoch=epoch,
                    lr=lr,
                    train_loss=total_mean,
                    base_loss=base_mean,
                    aux_loss=aux_mean,
                    test_overall_acc=acc,
                    test_per_class_acc=per,
                )
            )
    for s, r in compress(enumerate(runs), alive):
        layers = tuple((w[s].copy(), b[s, 0].copy()) for w, b in stack.layers)
        r.params = MlpParams(layers)


def train_runs(configs, train: LabeledDataset, test: LabeledDataset, pools=None, *, every_epoch=True) -> list:
    """Train many runs at once; deterministic given each config's seed.

    ``pools`` holds each config's (M, d) pool array (or None), or is None when
    no run has one. Runs that share a training shape (hidden width, epochs,
    batch sizes, LR schedule, LR, momentum and weight decay) train as one
    stack, whatever their method; runs with an auxiliary batch also share
    its size and pool array, and runs without one join the first stack of
    their shape that has one. Inside a stack the runs are ordered relabelled,
    then OE, then without an auxiliary batch (see ``_slice_rank``). Each run's
    result is bit for bit what it would be alone. Returns, in config order,
    each run's RunResult, or the ValueError that stopped it: a bad setup or a
    divergence. A run's wall_time is that of the stack it trained in.

    Every epoch's record holds the run's test accuracies, taken after that
    epoch. With ``every_epoch=False`` each stack scores its test set once,
    after its last epoch: only a run's last record holds accuracies, the same
    as with the default, and the earlier ones hold None for both, with their
    epoch, lr and losses as before. Parameters and losses do not change.
    """
    configs = list(configs)
    pools = [None] * len(configs) if pools is None else list(pools)
    if len(pools) != len(configs):
        raise ValueError(f"{len(pools)} pools for {len(configs)} configs")
    prior = train.prior()
    results = [None] * len(configs)
    groups: dict = {}
    floats: dict = {}  # one float64 array per pool object, so the runs that share it stack
    for i, (config, aux) in enumerate(zip(configs, pools)):
        try:
            if id(aux) not in floats:
                floats[id(aux)] = None if aux is None else np.asarray(aux, dtype=np.float64)
            run = _start_run(i, config, train, test, prior, floats[id(aux)])
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
        _train_group(list(runs), train, test, pool, every_epoch)
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
    aux: np.ndarray | None = None,
) -> RunResult:
    """Run the configured method; deterministic given the config seed."""
    result = train_runs([config], train, test, [aux])[0]
    if isinstance(result, ValueError):
        raise result
    return result
