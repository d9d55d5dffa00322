import math
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from open_rebalance.data import (
    LabeledDataset,
    gaussian_class_means,
    gen_gaussian_classes,
    gen_ood_pool,
)
from open_rebalance import metrics, train
from open_rebalance.nn import (
    LrSchedule,
    _log_softmax,
    _prior_xent,
    _xent,
    backward,
    balanced_softmax_xent,
    forward,
    init_optim_state,
    init_params,
    lr_at,
    oe_prior_xent,
    sgd_step,
    softmax_xent,
)
from open_rebalance.priors import (
    DEFAULT_BETA_CB,
    LabelDistributionKind,
    cb_effective_weights,
    complementary,
    default_alpha,
    label_distribution,
    mcd,
    prior_from_counts,
)
from open_rebalance.train import (
    TrainConfig,
    default_schedule,
    sample_aux_labels,
    train_run,
)


def params_equal(a, b):
    return all(
        np.array_equal(w1, w2) and np.array_equal(b1, b2)
        for (w1, b1), (w2, b2) in zip(a.layers, b.layers)
    )


def small_task(seed=3, k=3, d=2):
    means = gaussian_class_means(k, d, 2.0, 99)
    train_ds = gen_gaussian_classes(means, [30, 10, 4], 1.0, seed=seed)
    test_ds = gen_gaussian_classes(means, [20] * k, 1.0, seed=seed + 1)
    pool = gen_ood_pool(
        "shifted-mixture", 300, d, seed=seed + 2, class_means=means, margin=2.0, clusters=16
    )
    return train_ds, test_ds, pool


class TestSampleAuxLabels:
    def test_degenerate_distribution(self):
        rng = np.random.default_rng(0)
        labels = sample_aux_labels(np.array([0.0, 1.0]), 50, rng)
        assert np.all(labels == 1)

    def test_uniform_concentration(self):
        rng = np.random.default_rng(1)
        labels = sample_aux_labels(np.full(10, 0.1), 100_000, rng)
        freqs = np.bincount(labels, minlength=10) / 100_000
        assert np.abs(freqs - 0.1).max() < 0.01

    def test_deterministic_stream(self):
        a = sample_aux_labels(np.array([0.3, 0.7]), 100, np.random.default_rng(5))
        b = sample_aux_labels(np.array([0.3, 0.7]), 100, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_consecutive_draws_differ(self):
        rng = np.random.default_rng(2)
        gammas = np.full(5, 0.2)
        first = sample_aux_labels(gammas, 200, rng)
        second = sample_aux_labels(gammas, 200, rng)
        assert not np.array_equal(first, second)

    def test_accepts_distribution_object(self):
        dist = mcd(prior_from_counts([3, 1]))
        labels = sample_aux_labels(dist, 10, np.random.default_rng(0))
        assert np.all(labels == 1)


class TestTrainConfig:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            TrainConfig(method="sgd-magic")

    def test_negative_eta(self):
        with pytest.raises(ValueError):
            TrainConfig(eta=-0.1)

    def test_fixed_labels_needs_relabeling_method(self):
        with pytest.raises(ValueError):
            TrainConfig(method="standard", fixed_labels=True)

    def test_label_dist_needs_relabeling_method(self):
        with pytest.raises(ValueError):
            TrainConfig(method="oe", label_dist=LabelDistributionKind("uniform"))

    @pytest.mark.parametrize("name", ["eta", "base_lr", "weight_decay"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_refused(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("epochs", 2.5), ("epochs", True), ("batch_train", math.nan), ("batch_train", True),
        ("batch_aux", 4.0), ("batch_aux", False), ("hidden_dim", 8.0), ("hidden_dim", True),
        ("seed", 1.5), ("seed", True), ("use_class_weights", 1), ("fixed_labels", "yes"),
        ("eta", True), ("beta_cb", False), ("base_lr", True), ("momentum", True),
        ("weight_decay", False), ("eta", "1.5"),
    ])
    def test_wrong_type_refused(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an? "):
            TrainConfig(**{name: value})

    # A kind or schedule checks its own fields as it is built (see their
    # tests); a config checks only that it holds one.
    @pytest.mark.parametrize("name, value, message", [
        ("schedule", {"warmup_epochs": 0},
         "schedule must be an LrSchedule or None, got {'warmup_epochs': 0}"),
        ("label_dist", "uniform", "label_dist must be a LabelDistributionKind or None, got 'uniform'"),
    ], ids=["schedule-dict", "label_dist-string"])
    def test_wrong_type_in_structured_field_refused(self, name, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrainConfig(**{name: value})

    def test_ints_stand_in_for_floats(self):
        cfg = TrainConfig(eta=2, beta_cb=0, base_lr=1, momentum=0, weight_decay=0,
                          epochs=np.int64(3), seed=np.int64(4), batch_aux=None)
        assert (cfg.eta, cfg.epochs, cfg.batch_aux) == (2, 3, None)

    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.eta == 1.5 and cfg.method == "open-sampling"
        assert cfg.beta_cb == DEFAULT_BETA_CB == LabelDistributionKind("class-balanced").beta_cb


class TestTrainRun:
    def test_reduction_standard(self):
        train_ds, test_ds, pool = small_task()
        base = TrainConfig(method="standard", epochs=4, seed=11, hidden_dim=4)
        osam = TrainConfig(method="open-sampling", eta=0.0, epochs=4, seed=11, hidden_dim=4)
        r1 = train_run(base, train_ds, test_ds)
        r2 = train_run(osam, train_ds, test_ds, pool)
        assert params_equal(r1.final_params, r2.final_params)
        assert [h.train_loss for h in r1.history] == [h.base_loss for h in r2.history]
        assert [h.test_overall_acc for h in r1.history] == [h.test_overall_acc for h in r2.history]

    def test_reduction_balanced_softmax(self):
        train_ds, test_ds, pool = small_task()
        base = TrainConfig(method="balanced-softmax", epochs=4, seed=11, hidden_dim=4)
        combo = TrainConfig(
            method="balanced-softmax+open-sampling", eta=0.0, epochs=4, seed=11, hidden_dim=4
        )
        r1 = train_run(base, train_ds, test_ds)
        r2 = train_run(combo, train_ds, test_ds, pool)
        assert params_equal(r1.final_params, r2.final_params)

    def test_reduction_cb_rw_zero_beta(self):
        train_ds, test_ds, _ = small_task()
        std = TrainConfig(method="standard", epochs=3, seed=5, hidden_dim=0)
        cbrw = TrainConfig(method="cb-rw", beta_cb=0.0, epochs=3, seed=5, hidden_dim=0)
        r1 = train_run(std, train_ds, test_ds)
        r2 = train_run(cbrw, train_ds, test_ds)
        assert params_equal(r1.final_params, r2.final_params)

    def test_determinism(self):
        train_ds, test_ds, pool = small_task()
        cfg = TrainConfig(method="open-sampling", epochs=3, seed=21, hidden_dim=4)
        r1 = train_run(cfg, train_ds, test_ds, pool)
        r2 = train_run(cfg, train_ds, test_ds, pool)
        assert params_equal(r1.final_params, r2.final_params)
        assert [h.train_loss for h in r1.history] == [h.train_loss for h in r2.history]

    def test_zero_epochs(self):
        train_ds, test_ds, _ = small_task()
        cfg = TrainConfig(method="standard", epochs=0, seed=0, hidden_dim=4)
        result = train_run(cfg, train_ds, test_ds)
        assert result.history == ()
        assert result.final_params.hidden_dim == 4

    def test_missing_aux_rejected(self):
        train_ds, test_ds, _ = small_task()
        for method in ("open-sampling", "oe", "balanced-softmax+open-sampling"):
            with pytest.raises(ValueError, match="auxiliary"):
                train_run(TrainConfig(method=method, epochs=1), train_ds, test_ds)

    def test_class_count_mismatch(self):
        train_ds, _, _ = small_task(k=3)
        other = gen_gaussian_classes(gaussian_class_means(4, 2, 2.0, 0), [5] * 4, 1.0, seed=0)
        with pytest.raises(ValueError):
            train_run(TrainConfig(method="standard", epochs=1), train_ds, other)

    def test_zero_count_class_rejected_before_training(self):
        train_ds = LabeledDataset(
            features=np.ones((3, 2)), labels=np.array([0, 0, 2]), num_classes=3
        )
        for method in ("balanced-softmax", "balanced-softmax+open-sampling"):
            cfg = TrainConfig(method=method, epochs=0, hidden_dim=0)
            with pytest.raises(ValueError, match="zero-count"):
                train_run(cfg, train_ds, train_ds, np.ones((2, 2)))

    def test_aux_dim_mismatch(self):
        train_ds, test_ds, _ = small_task(d=2)
        pool = gen_ood_pool("gaussian", 10, 5, seed=0)
        with pytest.raises(ValueError, match="^auxiliary pool dimension does not match"):
            train_run(TrainConfig(method="open-sampling", epochs=1), train_ds, test_ds, pool)

    @pytest.mark.parametrize("pool", [np.ones(2), np.ones((0, 2))], ids=["1-d", "empty"])
    @pytest.mark.parametrize("method", ["open-sampling", "standard"])
    def test_malformed_pool_refused(self, pool, method):
        # Each run is refused alone; the well-formed pool's run beside it trains.
        train_ds, test_ds, good = small_task(d=2)
        cfg = TrainConfig(method=method, epochs=1)
        bad, ok = train.train_runs([cfg, cfg], train_ds, test_ds, [pool, good])
        assert isinstance(bad, ValueError) and str(bad) == "pool must be a non-empty M x d matrix"
        assert len(ok.history) == 1

    def test_loss_decomposition_every_epoch(self):
        train_ds, test_ds, pool = small_task()
        cfg = TrainConfig(method="open-sampling", eta=0.7, epochs=4, seed=2, hidden_dim=4)
        result = train_run(cfg, train_ds, test_ds, pool)
        for rec in result.history:
            assert rec.train_loss == pytest.approx(rec.base_loss + 0.7 * rec.aux_loss, abs=1e-9)

    def test_fixed_labels_differ_from_fresh(self):
        train_ds, test_ds, pool = small_task()
        fresh = TrainConfig(method="open-sampling", epochs=3, seed=4, hidden_dim=4)
        fixed = TrainConfig(method="open-sampling", epochs=3, seed=4, hidden_dim=4, fixed_labels=True)
        r1 = train_run(fresh, train_ds, test_ds, pool)
        r2 = train_run(fixed, train_ds, test_ds, pool)
        assert not params_equal(r1.final_params, r2.final_params)

    def test_fixed_labels_pin_one_label_per_instance(self):
        # Single-instance pool with lr 0: a pinned label makes the weighted
        # aux loss identical in every epoch; resampled labels change the
        # per-class weight applied and so the epoch means drift.
        train_ds, test_ds, _ = small_task()
        pool = np.ones((1, 2))
        common = dict(method="open-sampling", epochs=3, seed=4, hidden_dim=4, base_lr=0.0)
        fixed = train_run(TrainConfig(fixed_labels=True, **common), train_ds, test_ds, pool)
        fresh = train_run(TrainConfig(**common), train_ds, test_ds, pool)
        fixed_losses = [h.aux_loss for h in fixed.history]
        assert fixed_losses[0] == fixed_losses[1] == fixed_losses[2]
        fresh_losses = [h.aux_loss for h in fresh.history]
        assert len(set(fresh_losses)) > 1

    def test_oe_uniform_prior_aux_term(self):
        # Uniform training prior and fresh zero-init logits: the aux term's
        # first-step value is ln K.
        k = 3
        means = gaussian_class_means(k, 2, 2.0, 9)
        train_ds = gen_gaussian_classes(means, [10] * k, 1.0, seed=0)
        test_ds = gen_gaussian_classes(means, [5] * k, 1.0, seed=1)
        pool = gen_ood_pool("gaussian", 50, 2, seed=2)
        cfg = TrainConfig(method="oe", eta=1.0, epochs=1, seed=0, hidden_dim=0, base_lr=0.0)
        result = train_run(cfg, train_ds, test_ds, pool)
        # base_lr 0 keeps zero... weights are random, so just check the term is
        # within the entropy bound rather than a fixed value
        assert 0.0 < result.history[0].aux_loss < 2 * math.log(k)

    def test_separable_task_reaches_full_accuracy(self):
        # Independent separability oracle: projections onto the mean axis
        # must not overlap, which certifies a separating hyperplane exists.
        mu = np.array([3.0, 0.0])
        def blob(n, sign, seed):
            r = np.random.default_rng(seed)
            return sign * mu + 0.5 * r.standard_normal((n, 2))
        feats = np.vstack([blob(40, -1, 1), blob(40, +1, 2)])
        labels = np.repeat([0, 1], 40)
        axis = 2 * mu
        proj = feats @ axis
        assert proj[labels == 0].max() < proj[labels == 1].min()
        train_ds = LabeledDataset(features=feats, labels=labels, num_classes=2)
        test_feats = np.vstack([blob(25, -1, 3), blob(25, +1, 4)])
        test_labels = np.repeat([0, 1], 25)
        test_proj = test_feats @ axis
        assert test_proj[test_labels == 0].max() < test_proj[test_labels == 1].min()
        test_ds = LabeledDataset(features=test_feats, labels=test_labels, num_classes=2)
        cfg = TrainConfig(method="standard", epochs=50, seed=0, hidden_dim=0)
        result = train_run(cfg, train_ds, test_ds)
        assert result.history[-1].test_overall_acc == 1.0

    def test_methods_all_run(self):
        train_ds, test_ds, pool = small_task()
        for method in (
            "standard",
            "open-sampling",
            "cb-rw",
            "balanced-softmax",
            "oe",
            "balanced-softmax+open-sampling",
        ):
            cfg = TrainConfig(method=method, epochs=2, seed=1, hidden_dim=4)
            result = train_run(cfg, train_ds, test_ds, pool)
            assert len(result.history) == 2
            assert 0.0 <= result.history[-1].test_overall_acc <= 1.0


class TestDefaultSchedule:
    def test_long_run_shape(self):
        sched = default_schedule(200)
        assert sched.warmup_epochs == 5
        assert sched.milestones == (160, 180)
        assert sched.decay_factor == 0.01

    def test_short_runs(self):
        sched = default_schedule(5)
        assert sched.milestones == ()


def _combine(base_grads, aux_grads, eta):
    if eta == 0.0:
        return base_grads
    return tuple(
        (gw + eta * aw, gb + eta * ab) for (gw, gb), (aw, ab) in zip(base_grads, aux_grads)
    )


def _reference_forward(params, x):
    h = x
    for w, b in params.layers[:-1]:
        h = np.maximum(h @ w + b, 0.0)
    w, b = params.layers[-1]
    return h @ w + b


def _reference_log_softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _reference_xent(logits, labels, sample_weights=None):
    assert np.all(np.isfinite(logits))
    batch = logits.shape[0]
    w = np.ones(batch) if sample_weights is None else sample_weights
    logp = _reference_log_softmax(logits)
    rows = np.arange(batch)
    loss = float(np.mean(w * -logp[rows, labels]))
    grad = np.exp(logp)
    grad[rows, labels] -= 1.0
    grad *= (w / batch)[:, None]
    return loss, grad


def _reference_oe_xent(logits, p):
    logp = _reference_log_softmax(logits)
    return float(np.mean(-(logp @ p))), (np.exp(logp) - p) / logits.shape[0]


def _reference_backward(params, x, g):
    acts, pres, h = [x], [], x
    for w, b in params.layers[:-1]:
        pres.append(h @ w + b)
        h = np.maximum(pres[-1], 0.0)
        acts.append(h)
    grads = []
    for i in reversed(range(len(params.layers))):
        grads.append((acts[i].T @ g, g.sum(axis=0)))
        if i > 0:
            g = (g @ params.layers[i][0].T) * (pres[i - 1] > 0.0)
    return tuple(reversed(grads))


def _reference_sgd_step(params, grads, state, lr):
    layers, vel = [], []
    for (w, b), (gw, gb), (vw, vb) in zip(params.layers, grads, state.velocity):
        vw2 = state.momentum * vw + (gw + state.weight_decay * w)
        vb2 = state.momentum * vb + (gb + state.weight_decay * b)
        layers.append((w - lr * vw2, b - lr * vb2))
        vel.append((vw2, vb2))
    return replace(params, layers=tuple(layers)), replace(state, velocity=tuple(vel))


# The public nn API, and the kernels as they were before nn gained private
# cores (fresh arrays every step, np.mean, a backward that recomputes the
# forward pass), written out here so that they share no code with nn.
KERNELS = {
    "public": SimpleNamespace(
        forward=forward, xent=softmax_xent, oe_xent=oe_prior_xent,
        balanced_xent=balanced_softmax_xent, backward=backward, sgd_step=sgd_step,
    ),
    "reference": SimpleNamespace(
        forward=_reference_forward, xent=_reference_xent, oe_xent=_reference_oe_xent,
        balanced_xent=lambda z, y, prior: _reference_xent(z + np.log(prior.counts.astype(float)), y),
        backward=_reference_backward, sgd_step=_reference_sgd_step,
    ),
}


def reference_run(config, train_ds, test_ds, aux, nn):
    """The per-minibatch-dispatch training loop, step by step.

    Each step runs forward -> loss -> backward -> combine -> sgd_step and
    allocates fresh parameters; train_run must match it bit for bit.
    """
    prior = train_ds.prior()
    schedule = config.schedule or default_schedule(config.epochs)
    shuffle_rng = np.random.default_rng([config.seed, 0])
    aux_rng = np.random.default_rng([config.seed, 1])
    params = init_params(train_ds.dim, config.hidden_dim, train_ds.num_classes,
                         np.random.default_rng([config.seed, 2]))
    state = init_optim_state(params, config.momentum, config.weight_decay)
    method = config.method
    needs_aux = method in ("open-sampling", "oe", "balanced-softmax+open-sampling")
    relabels = method in ("open-sampling", "balanced-softmax+open-sampling")
    if relabels:
        kind = config.label_dist or LabelDistributionKind("complementary")
        gammas = label_distribution(kind, prior)
        omegas = gammas * prior.num_classes if config.use_class_weights else np.ones(prior.num_classes)
        pool_labels = sample_aux_labels(gammas, len(aux), aux_rng) if config.fixed_labels else None
    m_aux = config.batch_aux or config.batch_train
    history = []
    for epoch in range(config.epochs):
        lr = lr_at(schedule, epoch, config.base_lr)
        perm = shuffle_rng.permutation(len(train_ds))
        sums = np.zeros(3)
        n_batches = 0
        for start in range(0, len(train_ds), config.batch_train):
            idx = perm[start : start + config.batch_train]
            bx, by = train_ds.features[idx], train_ds.labels[idx]
            if method.startswith("balanced-softmax"):
                base_loss, gl = nn.balanced_xent(nn.forward(params, bx), by, prior)
            elif method == "cb-rw":
                cb = cb_effective_weights(prior, config.beta_cb)
                base_loss, gl = nn.xent(nn.forward(params, bx), by, cb[by])
            else:
                base_loss, gl = nn.xent(nn.forward(params, bx), by)
            grads = nn.backward(params, bx, gl)
            aux_loss = 0.0
            if needs_aux:
                aidx = aux_rng.integers(0, len(aux), size=m_aux)
                ax = aux[aidx]
                if relabels:
                    if pool_labels is not None:
                        ay = pool_labels[aidx]
                    else:
                        ay = sample_aux_labels(gammas, m_aux, aux_rng)
                    aux_loss, agl = nn.xent(nn.forward(params, ax), ay, omegas[ay])
                else:
                    aux_loss, agl = nn.oe_xent(nn.forward(params, ax), prior.betas)
                grads = _combine(grads, nn.backward(params, ax, agl), config.eta)
            params, state = nn.sgd_step(params, grads, state, lr)
            total = base_loss + config.eta * aux_loss if needs_aux else base_loss
            sums += (total, base_loss, aux_loss)
            n_batches += 1
        report = metrics.accuracy(params, test_ds)
        history.append(train.EpochRecord(
            epoch=epoch, lr=lr,
            train_loss=float(sums[0] / n_batches),
            base_loss=float(sums[1] / n_batches),
            aux_loss=float(sums[2] / n_batches),
            test_overall_acc=report.overall_acc,
            test_per_class_acc=tuple(report.per_class_acc.tolist()),
        ))
    return params, tuple(history)


EQUIVALENCE_CASES = [{"method": m} for m in train.METHODS] + [
    {"method": "open-sampling", "fixed_labels": True},
    {"method": "open-sampling", "eta": 0.0},
    {"method": "oe", "eta": 0.0},
    {"method": "balanced-softmax+open-sampling", "label_dist": LabelDistributionKind("mcd")},
    {"method": "open-sampling", "use_class_weights": False, "batch_aux": 7,
     "label_dist": LabelDistributionKind("complementary", alpha=0.9)},
    # Single-row batches take OpenBLAS's matrix-vector path.
    {"method": "oe", "batch_train": 43, "batch_aux": 1},
]


class TestSingleStepEquivalence:
    @pytest.mark.parametrize("kernels", sorted(KERNELS))
    @pytest.mark.parametrize("hidden", [0, 8])
    @pytest.mark.parametrize("case", EQUIVALENCE_CASES, ids=lambda c: "-".join(map(str, c.values())))
    def test_bit_identical_to_reference_loop(self, case, hidden, kernels):
        # 44 training samples: every epoch ends on a ragged batch.
        train_ds, test_ds, pool = small_task()
        assert len(train_ds) % (case.get("batch_train", 32)) != 0
        cfg = TrainConfig(epochs=4, seed=6, hidden_dim=hidden, **case)
        result = train_run(cfg, train_ds, test_ds, pool)
        ref_params, ref_history = reference_run(cfg, train_ds, test_ds, pool, KERNELS[kernels])
        assert result.history == ref_history
        for (w1, b1), (w2, b2) in zip(result.final_params.layers, ref_params.layers):
            assert w1.tobytes() == w2.tobytes() and b1.tobytes() == b2.tobytes()

    def test_precomputed_cdf_draws_match_sample_aux_labels(self):
        prior = prior_from_counts([30, 10, 4])
        cfg = TrainConfig(method="open-sampling", epochs=1)
        spec = train._loss_spec(cfg, prior)
        gammas = complementary(prior, default_alpha(prior))
        fast, slow = np.random.default_rng(9), np.random.default_rng(9)
        for m in (1, 7, 32):
            idx, u = train._epoch_draws(fast, 300, 1, m, True)
            aidx, drawn = idx[0], train._lookup_labels(spec.aux_cdf, u)[0]
            assert np.array_equal(slow.integers(0, 300, size=m), aidx)
            np.testing.assert_array_equal(drawn, sample_aux_labels(gammas, m, slow))
            assert fast.bit_generator.state == slow.bit_generator.state


def _run_bytes(result):
    return result.history, [(w.tobytes(), b.tobytes()) for w, b in result.final_params.layers]


def _batch_cases(pool):
    """(config, pool) pairs that fall into several stacks of mixed runs."""
    prefix = lambda size: pool[:size]
    cases = []
    for hidden in (0, 8):
        for method in train.METHODS:
            cases.append((TrainConfig(method=method, epochs=3, seed=1, hidden_dim=hidden), pool))
    for eta in (0.0, 0.7, 0.0, 3.0):
        cases.append((TrainConfig(method="open-sampling", eta=eta, epochs=3, seed=len(cases), hidden_dim=8), pool))
    # Per-run label distributions and omegas inside the same stack.
    for variant in (dict(label_dist=LabelDistributionKind("complementary", alpha=2.0)), dict(use_class_weights=False),
                    dict(label_dist=LabelDistributionKind("uniform"))):
        cases.append((TrainConfig(method="open-sampling", epochs=3, seed=7, hidden_dim=8, **variant), pool))
    for fixed in (True, False):
        for size in (1, 40, 300):
            cfg = TrainConfig(method="open-sampling", fixed_labels=fixed, epochs=3, seed=size, hidden_dim=8)
            cases.append((cfg, prefix(size)))
    cases.append((TrainConfig(method="oe", eta=0.0, epochs=3, seed=2, hidden_dim=8), prefix(7)))
    # 44 training samples: a batch of 43 leaves a ragged last batch of one row.
    for method in ("standard", "balanced-softmax", "open-sampling", "oe"):
        cfg = TrainConfig(method=method, epochs=3, seed=3, hidden_dim=8, batch_train=43, batch_aux=1)
        cases.append((cfg, pool))
    cases.append((TrainConfig(method="balanced-softmax+open-sampling", epochs=3, seed=4, hidden_dim=0,
                              batch_aux=1, label_dist=LabelDistributionKind("mcd")), pool))
    return cases


_PARTITION_DISTS = (None, LabelDistributionKind("uniform"), LabelDistributionKind("mcd"),
                    LabelDistributionKind("complementary", alpha=2.0), LabelDistributionKind("class-balanced"),
                    LabelDistributionKind("original-prior"), LabelDistributionKind("fixed-class", class_index=1))


@st.composite
def _partitioned_runs(draw, pools):
    """Configs, their pools, and the train_runs calls that split them, in call order.

    Each example first draws a palette of one or two training shapes, seeds
    and pools for its configs to pick from, so their runs often stack and
    share streams; pools are prefixes of one array, of a second one, or None.
    """
    palette = lambda values: draw(st.lists(values, min_size=1, max_size=2, unique=True))
    shapes = palette(st.tuples(st.sampled_from([0, 3]), st.integers(1, 3), st.sampled_from([None, 6])))
    seeds, pool_ids = palette(st.integers(0, 2)), palette(st.integers(0, len(pools) - 1))
    cases = []
    for _ in range(draw(st.integers(1, 8))):
        method = draw(st.sampled_from(train.METHODS))
        relabels = method in ("open-sampling", "balanced-softmax+open-sampling")
        hidden, epochs, batch_aux = draw(st.sampled_from(shapes))
        config = TrainConfig(method=method, seed=draw(st.sampled_from(seeds)),
                             eta=draw(st.sampled_from([0.0, 0.5, 1.5])),
                             label_dist=draw(st.sampled_from(_PARTITION_DISTS)) if relabels else None,
                             fixed_labels=relabels and draw(st.booleans()), hidden_dim=hidden, epochs=epochs,
                             batch_aux=batch_aux)
        cases.append((config, pools[draw(st.sampled_from(pool_ids))]))
    order = draw(st.permutations(range(len(cases))))
    call_of = draw(st.lists(st.integers(0, draw(st.integers(0, len(cases) - 1))),
                            min_size=len(cases), max_size=len(cases)))
    calls = [[i for i in order if call_of[i] == c] for c in draw(st.permutations(sorted(set(call_of))))]
    return cases, calls


def _outcome(result):
    return str(result) if isinstance(result, ValueError) else _run_bytes(result)


class TestBatchedRuns:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_any_partition_matches_runs_alone(self, data):
        # Results must not depend on how runs are scheduled: split into any
        # train_runs calls, in any order, each run gives its bytes alone.
        train_ds, test_ds, pool = small_task()
        other = pool[::-1].copy()
        pools = (None, pool, pool[:40], pool[:7], other, other[:20])
        cases, calls = data.draw(_partitioned_runs(pools))
        for call in calls:
            batch = [cases[i] for i in call]
            configs, call_pools = zip(*batch)
            for (cfg, aux), result in zip(batch, train.train_runs(configs, train_ds, test_ds, call_pools)):
                alone = train.train_runs([cfg], train_ds, test_ds, [aux])[0]
                assert _outcome(result) == _outcome(alone), cfg

    def test_batched_bit_identical_to_alone(self):
        train_ds, test_ds, pool = small_task()
        cases = _batch_cases(pool)
        configs, pools = zip(*cases)
        batched = train.train_runs(configs, train_ds, test_ds, pools)
        assert len(batched) == len(cases)
        for (cfg, aux), result in zip(cases, batched):
            alone = train.train_runs([cfg], train_ds, test_ds, [aux])[0]
            assert result.config == cfg
            assert _run_bytes(result) == _run_bytes(alone), cfg
            assert _run_bytes(train_run(cfg, train_ds, test_ds, aux)) == _run_bytes(alone)

    def test_one_pool_per_config(self):
        train_ds, test_ds, pool = small_task()
        configs = [TrainConfig(method="oe", epochs=2, seed=s, hidden_dim=4) for s in range(3)]
        with pytest.raises(ValueError, match="2 pools for 3 configs"):
            train.train_runs(configs, train_ds, test_ds, [pool] * 2)
        results = train.train_runs(configs, train_ds, test_ds)
        assert all("requires an auxiliary pool" in str(r) for r in results)

    def test_bad_setup_fails_only_its_run(self):
        train_ds, test_ds, pool = small_task()
        good = TrainConfig(method="standard", epochs=2, seed=5, hidden_dim=4)
        needs_pool = TrainConfig(method="open-sampling", epochs=2, seed=5, hidden_dim=4)
        results = train.train_runs([needs_pool, good], train_ds, test_ds, [None, pool])
        assert isinstance(results[0], ValueError) and "auxiliary pool" in str(results[0])
        assert _run_bytes(results[1]) == _run_bytes(train_run(good, train_ds, test_ds))

    def test_bad_label_dist_fails_only_its_run(self):
        train_ds, test_ds, pool = small_task()
        good = TrainConfig(epochs=2, seed=5, hidden_dim=4)
        bad = replace(good, label_dist=LabelDistributionKind("fixed-class", class_index=3))
        results = train.train_runs([bad, good], train_ds, test_ds, [pool, pool])
        assert isinstance(results[0], ValueError) and "fixed-class index 3" in str(results[0])
        assert _run_bytes(results[1]) == _run_bytes(train_run(good, train_ds, test_ds, pool))

    def test_divergent_run_leaves_the_stack(self):
        train_ds, test_ds, pool = small_task()
        common = dict(method="open-sampling", epochs=10, hidden_dim=4, base_lr=0.5)
        configs = [TrainConfig(eta=0.5, seed=s, **common) for s in (0, 1)]
        configs.insert(1, TrainConfig(eta=1e12, seed=9, **common))
        with np.errstate(over="ignore", invalid="ignore"):
            results = train.train_runs(configs, train_ds, test_ds, [pool] * 3)
            with pytest.raises(ValueError) as alone:
                train_run(configs[1], train_ds, test_ds, pool)
        error = results[1]
        assert isinstance(error, ValueError) and str(error) == str(alone.value)
        found = re.fullmatch(
            r"non-finite logits at epoch (\d+), step (\d+) \(last finite loss (.+)\)", str(error)
        )
        assert found, str(error)
        assert math.isfinite(float(found.group(3)))
        for cfg, result in zip(configs[::2], results[::2]):
            assert _run_bytes(result) == _run_bytes(train_run(cfg, train_ds, test_ds, pool))

    @pytest.fixture
    def stacks(self, monkeypatch):
        """The stack size of every _train_group call."""
        sizes = []
        group = train._train_group

        def counted(runs, *args):
            sizes.append(len(runs))
            return group(runs, *args)

        monkeypatch.setattr(train, "_train_group", counted)
        return sizes

    def test_every_method_trains_in_one_stack_per_shape(self, stacks, monkeypatch):
        train_ds, test_ds, pool = small_task()
        replays = []
        replay = train._replay_draws
        monkeypatch.setattr(train, "_replay_draws", lambda *args: replays.append(args[3]) or replay(*args))
        configs = []
        # batch_aux=7 is odd, so every drawn stream's epoch in the hidden-8 stack is replayed.
        for hidden, extra in ((0, {}), (8, dict(batch_aux=7))):
            for seed, method in enumerate(train.METHODS):
                configs.append(TrainConfig(method=method, epochs=3, seed=seed, hidden_dim=hidden, **extra))
            for method in ("open-sampling", "balanced-softmax+open-sampling"):
                configs.append(TrainConfig(method=method, fixed_labels=True, epochs=3, seed=9,
                                           hidden_dim=hidden, **extra))
        batched = train.train_runs(configs, train_ds, test_ds, [pool] * len(configs))
        assert stacks == [8, 8]
        assert set(replays) == {7}
        for cfg, result in zip(configs, batched):
            assert result.config == cfg
            assert _run_bytes(result) == _run_bytes(train_run(cfg, train_ds, test_ds, pool)), cfg

    def test_last_epoch_only_scoring_changes_nothing_else(self, stacks):
        # One stack of all six methods, a pinned run and a run that diverges,
        # and a zero-epoch run in a stack of its own. Scored after the last
        # epoch only, each run keeps its error text, or its parameters, lr and
        # losses and its last record; its earlier records hold no accuracies.
        train_ds, test_ds, pool = small_task()
        common = dict(epochs=10, hidden_dim=4)
        configs = [TrainConfig(method=method, seed=seed, **common) for seed, method in enumerate(train.METHODS)]
        configs += [TrainConfig(fixed_labels=True, seed=7, **common), TrainConfig(eta=1e12, seed=8, **common),
                    TrainConfig(epochs=0, seed=9, hidden_dim=4)]
        pools = [pool] * len(configs)
        with np.errstate(over="ignore", invalid="ignore"):
            every = train.train_runs(configs, train_ds, test_ds, pools)
            last = train.train_runs(configs, train_ds, test_ds, pools, every_epoch=False)
        assert stacks == [8, 1, 8, 1]
        assert [isinstance(r, ValueError) for r in every] == [False] * 7 + [True, False]
        losses = lambda result: [(r.epoch, r.lr, r.train_loss, r.base_loss, r.aux_loss) for r in result.history]
        for cfg, want, got in zip(configs, every, last):
            if isinstance(want, ValueError):
                assert isinstance(got, ValueError) and str(got) == str(want), cfg
                continue
            assert _run_bytes(got)[1] == _run_bytes(want)[1], cfg
            assert losses(got) == losses(want) and len(got.history) == cfg.epochs, cfg
            assert got.history[-1:] == want.history[-1:], cfg
            assert all(r.test_overall_acc is None and r.test_per_class_acc is None for r in got.history[:-1]), cfg
            assert all(r.test_overall_acc is not None for r in want.history), cfg

    def test_runs_sharing_a_float32_pool_train_as_one_stack(self, stacks):
        # The pool is made float64 once for all the runs that share it, so
        # they stack as they would on a float64 pool.
        train_ds, test_ds, pool = small_task()
        narrow = pool.astype(np.float32)
        configs = [TrainConfig(method="open-sampling", epochs=3, seed=s, hidden_dim=4) for s in range(3)]
        results = train.train_runs(configs, train_ds, test_ds, [narrow] * 3)
        assert stacks == [3]
        wide = train.train_runs(configs, train_ds, test_ds, [narrow.astype(np.float64)] * 3)
        for cfg, result, want in zip(configs, results, wide):
            assert _run_bytes(result) == _run_bytes(want), cfg

    def test_runs_without_aux_survive_when_every_aux_run_diverges(self, stacks):
        train_ds, test_ds, pool = small_task()
        common = dict(epochs=10, hidden_dim=4, base_lr=0.5)
        configs = [TrainConfig(method=m, seed=s, **common) for s, m in enumerate(("standard", "cb-rw"))]
        for seed, method in enumerate(("open-sampling", "oe", "balanced-softmax+open-sampling", "oe")):
            configs.insert(seed, TrainConfig(method=method, eta=1e12, seed=seed, **common))
        configs.append(TrainConfig(method="balanced-softmax", seed=7, **common))
        with np.errstate(over="ignore", invalid="ignore"):
            results = train.train_runs(configs, train_ds, test_ds, [pool] * len(configs))
        assert stacks == [7]
        assert all(isinstance(r, ValueError) for r in results[:4]), results[:4]
        # Each dead run keeps the error of its first non-finite step, whatever
        # its slice computes after that.
        for cfg, result in zip(configs[:4], results[:4]):
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError) as alone:
                train_run(cfg, train_ds, test_ds, pool)
            assert str(result) == str(alone.value), cfg
        for cfg, result in zip(configs[4:], results[4:]):
            assert _run_bytes(result) == _run_bytes(train_run(cfg, train_ds, test_ds)), cfg

    def test_runs_of_one_seed_share_streams_past_a_divergence(self, stacks, monkeypatch):
        # Seed 5's runs share one shuffle, and one auxiliary decode per pool
        # length and label mode; the first of them diverges at epoch 2,
        # and the rest must go on drawing from the shared streams.
        train_ds, test_ds, pool = small_task()
        decodes = []
        draws = train._epoch_draws
        monkeypatch.setattr(train, "_epoch_draws", lambda *args: decodes.append(args[1:]) or draws(*args))
        prefix = pool[:40]
        config = lambda **kw: TrainConfig(**{"seed": 5, "epochs": 4, "hidden_dim": 4, "base_lr": 0.5, **kw})
        cases = [(config(method="open-sampling", eta=1e40), pool),
                 (config(method="standard"), None),
                 (config(method="open-sampling"), pool),
                 (config(method="open-sampling", label_dist=LabelDistributionKind("complementary", alpha=2.0)), pool),
                 (config(method="open-sampling", fixed_labels=True), pool),
                 (config(method="balanced-softmax+open-sampling", fixed_labels=True), pool),
                 (config(method="oe"), pool),
                 (config(method="oe", eta=0.3), pool),
                 (config(method="open-sampling"), prefix),
                 (config(method="open-sampling", fixed_labels=True), prefix),
                 (config(method="open-sampling", seed=6), pool)]
        configs, pools = zip(*cases)
        with np.errstate(over="ignore", invalid="ignore"):
            results = train.train_runs(configs, train_ds, test_ds, pools)
            assert stacks == [len(cases)]
            # Six streams: seed 5 drawn, pinned and OE on the pool, drawn and
            # pinned on its prefix, and seed 6 drawn; each decoded once an epoch.
            assert len(decodes) == 6 * 4
            with pytest.raises(ValueError) as alone:
                train_run(configs[0], train_ds, test_ds, pool)
        assert re.match(r"non-finite logits at epoch [1-3], ", str(alone.value)), alone.value
        assert str(results[0]) == str(alone.value)
        for (cfg, aux), result in zip(cases[1:], results[1:]):
            assert _run_bytes(result) == _run_bytes(train_run(cfg, train_ds, test_ds, aux)), cfg

    def test_oe_runs_go_on_when_the_relabel_slice_empties(self, stacks):
        train_ds, test_ds, pool = small_task()
        # Rows past the first ten overflow every logit: runs drawing from the
        # whole pool diverge in the auxiliary pass, OE runs on a ten-row
        # prefix of the same array never see them.
        whole = pool.copy()
        whole[10:] = np.inf
        prefix = whole[:10]
        common = dict(epochs=4, hidden_dim=4)
        cases = [(TrainConfig(method="oe", seed=1, **common), prefix),
                 (TrainConfig(method="open-sampling", seed=2, **common), whole),
                 (TrainConfig(method="standard", seed=3, **common), None),
                 (TrainConfig(method="balanced-softmax+open-sampling", seed=4, **common), whole),
                 (TrainConfig(method="oe", eta=0.3, seed=5, **common), prefix)]
        configs, pools = zip(*cases)
        with np.errstate(over="ignore", invalid="ignore"):
            results = train.train_runs(configs, train_ds, test_ds, pools)
        assert stacks == [5]
        for i in (1, 3):
            assert str(results[i]).startswith("non-finite logits at epoch 0, step 0 "), results[i]
        for i in (0, 2, 4):
            alone = train_run(configs[i], train_ds, test_ds, pools[i])
            assert _run_bytes(results[i]) == _run_bytes(alone), configs[i]


def _per_array_forward(layers, x):
    acts = [x]
    for w, b in layers[:-1]:
        x = np.maximum(x @ w + b, 0.0)
        acts.append(x)
    w, b = layers[-1]
    return x @ w + b, acts


def _per_array_backward(layers, acts, g):
    grads = [None] * len(layers)
    for i in reversed(range(len(layers))):
        w, b = layers[i]
        grads[i] = (acts[i].swapaxes(-1, -2) @ g, g.sum(axis=-2).reshape(b.shape))
        if i > 0:
            g = (g @ w.swapaxes(-1, -2)) * (acts[i] > 0.0)
    return grads


def _per_kind_aux_loss(stack, logits, ay):
    """The auxiliary losses and logit gradient as each kind defines them, one call per kind.

    The relabelled rows take their omega-weighted CE and the OE rows the prior
    CE, each on a fresh array; the runs without an auxiliary batch lose 0.
    """
    r, a = stack.n_relabel, stack.n_aux
    parts = []
    if r:
        parts.append(_xent(logits[:r], ay, stack.aux_omegas[np.arange(r)[:, None], ay]))
    if r < a:
        parts.append(_prior_xent(logits[r:], stack.aux_prior))
    losses, grads = zip(*parts)
    return np.concatenate([*losses, np.zeros(stack.size - a)]), np.concatenate(grads)


def _per_array_step(stack, offset_where, layers, velocity, lr, bx, by, ax, ay):
    """The stacked step with one array per layer parameter, stack only giving the loss specs.

    Fresh arrays in the forward and backward passes, the auxiliary loss one
    call per kind, the base offset and the eta-weighted auxiliary gradient
    added under masks of their own (offset_where marks the runs with an
    offset), and one momentum update per array.
    """
    logits, acts = _per_array_forward(layers, bx)
    if stack.base_offset is not None:
        np.add(logits, stack.base_offset, out=logits, where=offset_where)
    weights = None if stack.base_weights is None else stack.base_weights[stack.rows, by]
    grads = _per_array_backward(layers, acts, _xent(logits, by, weights)[1])
    a = stack.n_aux
    if a:
        aux_layers = [(w[:a], b[:a]) for w, b in layers]
        logits, acts = _per_array_forward(aux_layers, ax)
        eta = stack.eta[:a, None, None]
        aux_grads = _per_array_backward(aux_layers, acts, _per_kind_aux_loss(stack, logits, ay)[1])
        for (gw, gb), (aw, ab) in zip(grads, aux_grads):
            for grad, aux in ((gw[:a], aw), (gb[:a], ab)):
                np.add(grad, eta * aux, out=grad, where=eta != 0.0)
    for pair, grad, vel in zip(layers, grads, velocity):
        for theta, g, v in zip(pair, grad, vel):
            decayed = stack.weight_decay * theta
            decayed += g
            v *= stack.momentum
            v += decayed
            theta -= lr * v


# (method, eta) per run, in config order; eta None keeps the default. Every
# run of stack 2 has a base offset, and every auxiliary run of stacks 1, 2
# and 4 a nonzero eta, so their eta slice is all of [:A]; stacks 3, 6 and 7
# hold zero-eta runs, which the slice leaves out at either end. Stack 5 has
# no auxiliary batch (A = 0), and stack 6 only OE runs (R = 0, A = S);
# stacks 1 and 2 only relabelled ones (R = A).
FLAT_STACKS = {
    1: [("open-sampling", None)],
    2: [("balanced-softmax+open-sampling", 0.5), ("balanced-softmax", None)],
    3: [("balanced-softmax", None), ("open-sampling", 0.0), ("oe", 0.7)],
    4: [("oe", 0.7), ("open-sampling", 1.5), ("balanced-softmax+open-sampling", 2.0), ("standard", None)],
    5: [("standard", None), ("cb-rw", None), ("balanced-softmax", None), ("standard", None), ("cb-rw", None)],
    6: [("oe", 0.7), ("oe", 0.0), ("oe", 1.5), ("oe", 0.7), ("oe", 2.0), ("oe", 0.3)],
    7: [("standard", None), ("open-sampling", 1.5), ("oe", 0.0), ("cb-rw", None),
        ("balanced-softmax+open-sampling", 2.0), ("open-sampling", 0.0), ("balanced-softmax", None)],
}
# The training batch of each step: sizes that are not powers of two, so that
# dividing by B rounds, ending on two ragged batches, the last of one row.
FLAT_BATCHES = (13, 13, 13, 13, 5, 1)


class TestFlatStack:
    @pytest.mark.parametrize("m", [7, 1, 13])
    @pytest.mark.parametrize("counts", [[30, 10, 4], [30, 4]], ids=["k3", "k2"])
    @pytest.mark.parametrize("hidden", [0, 8])
    @pytest.mark.parametrize("size", sorted(FLAT_STACKS))
    def test_step_matches_per_array_step(self, size, hidden, counts, m):
        # One shared logit array for both passes against fresh arrays per
        # pass: auxiliary batches of m rows, odd and one (OpenBLAS's
        # matrix-vector path) unlike the training batch, or as large.
        k = len(counts)
        rng = np.random.default_rng([size, hidden, k, m])
        prior = prior_from_counts(counts)
        configs = [TrainConfig(method=method, **({} if eta is None else {"eta": eta}))
                   for method, eta in FLAT_STACKS[size]]
        specs = sorted((train._loss_spec(c, prior) for c in configs), key=train._slice_rank)
        offset_where = np.array([spec.base_offset is not None for spec in specs])[:, None, None]
        runs = [tuple((w, rng.standard_normal(b.shape)) for w, b in init_params(4, hidden, k, rng).layers)
                for _ in specs]
        stack = train._Stack(specs, runs, 0.9, 2e-4)
        layers = [(np.stack([r[i][0] for r in runs]), np.stack([r[i][1] for r in runs])[:, None])
                  for i in range(len(runs[0]))]
        velocity = [(np.zeros_like(w), np.zeros_like(b)) for w, b in layers]
        for step, batch in enumerate(FLAT_BATCHES):
            bx, by = rng.standard_normal((stack.size, batch, 4)), rng.integers(0, k, (stack.size, batch))
            # As the engine passes them: no auxiliary batch without A, no labels without R.
            ax = rng.standard_normal((stack.n_aux, m, 4)) if stack.n_aux else None
            ay = rng.integers(0, k, (stack.n_relabel, m)) if stack.n_relabel else None
            lr = 0.5 / (step + 1)
            train._step(stack, lr, bx, by, ax, ay)
            _per_array_step(stack, offset_where, layers, velocity, lr, bx, by, ax, ay)
            flat_velocity = train._views(stack.velocity, stack.shapes)
            for got, want in ((stack.layers, layers), (flat_velocity, velocity)):
                for got_pair, want_pair in zip(got, want):
                    for g, w in zip(got_pair, want_pair):
                        assert g.shape == w.shape and g.tobytes() == w.tobytes(), (step, size, hidden)


def _running_totals(base, aux, etas, lost_at):
    """Each run's (train, base, aux) loss means per epoch, or its error text,
    from totals kept one step at a time as Python floats.

    base and aux are (epochs, steps, runs) losses; lost_at maps a run to the
    (epoch, step) whose logits go non-finite. A lost run's error names the
    last finite total before that step; once every run is lost, none trains on.
    """
    epochs, n_steps, size = base.shape
    last, errors, means = [None] * size, [None] * size, [[] for _ in range(size)]
    for epoch in range(epochs):
        sums = [[0.0, 0.0, 0.0] for _ in range(size)]
        for step in range(n_steps):
            for s in range(size):
                if errors[s] is None and lost_at.get(s) == (epoch, step):
                    errors[s] = f"non-finite logits at epoch {epoch}, step {step} (last finite loss {last[s]})"
            if all(errors):
                return errors
            for s in range(size):
                b, a = float(base[epoch, step, s]), float(aux[epoch, step, s])
                total = b + etas[s] * a
                if math.isfinite(total):
                    last[s] = total
                for i, x in enumerate((total, b, a)):
                    sums[s][i] += x
        for s in range(size):
            if errors[s] is None:
                means[s].append(tuple(x / n_steps for x in sums[s]))
    return [error or mean for error, mean in zip(errors, means)]


class TestEpochLossSums:
    @pytest.mark.parametrize("diverge", [False, True])
    @pytest.mark.parametrize("size", [1, 3])
    def test_means_and_last_finite_loss_match_running_totals(self, size, diverge, monkeypatch):
        # _step returns scripted losses, with magnitudes from 1e-12 to 1e3.
        # Epoch 0's base losses are 1 and then half an ulp of 1, which a
        # running total drops one by one and a pairwise sum over the 11 steps
        # would not. Epoch 1 loses exactly zero: -0.0 base losses, which a
        # running total started at zero turns into 0.0, and auxiliary losses
        # of either sign. When runs
        # diverge, the last run's totals go infinite late in epoch 2 and its
        # logits at step 0 of epoch 3, so its last finite loss comes from an
        # earlier epoch; at S = 3 run 0's logits go at step 0 of epoch 0 (no
        # finite loss yet) and run 1's at step 6 of epoch 1, after a NaN total.
        train_ds, test_ds, pool = small_task()
        etas = [0.7, 1.5, 0.0][:size]
        configs = [TrainConfig(method="open-sampling", eta=eta, epochs=4, seed=s, hidden_dim=4, batch_train=4)
                   for s, eta in enumerate(etas)]
        n_steps = -(-len(train_ds) // 4)
        rng = np.random.default_rng([size, diverge])
        base, aux = rng.random((2, 4, n_steps, size)) * 10.0 ** rng.integers(-12, 4, (2, 4, n_steps, size))
        base[0] = 2.0**-53
        base[0, 0] = 1.0
        base[1], aux[1] = -0.0, rng.choice([0.0, -0.0], (n_steps, size))
        lost_at = {}
        if diverge:
            aux[2, 5:, -1] = np.inf
            lost_at[size - 1] = (3, 0)
            if size == 3:
                aux[1, 5, 1] = np.nan
                lost_at.update({0: (0, 0), 1: (1, 6)})
        steps = iter(np.ndindex(4, n_steps))

        def scripted_step(stack, lr, bx, by, ax, ay):
            # The stack holds its runs in slice order; their distinct etas name them.
            epoch, step = next(steps)
            runs = [etas.index(eta) for eta in stack.eta.tolist()]
            lost = np.array([lost_at.get(s) == (epoch, step) for s in runs])
            return base[epoch, step, runs], aux[epoch, step, runs], lost if lost.any() else None

        monkeypatch.setattr(train, "_step", scripted_step)
        with np.errstate(invalid="ignore"):  # 0 * inf, as a real divergence may give
            results = train.train_runs(configs, train_ds, test_ds, [pool] * size)
        want = _running_totals(base, aux, etas, lost_at)
        for result, expected in zip(results, want):
            if isinstance(expected, str):
                assert str(result) == expected
            else:
                got = [(r.train_loss, r.base_loss, r.aux_loss) for r in result.history]
                assert [[x.hex() for x in row] for row in got] == [[x.hex() for x in row] for row in expected]
        assert any(isinstance(w, str) for w in want) == diverge


def _bits(a):
    """The float64 bit patterns of a, with every NaN as numpy's default one.

    As in test_nn: which NaN's sign bit survives where two meet is not pinned.
    """
    return np.where(np.isnan(a), np.nan, a).view(np.uint64).tobytes()


class TestAuxLoss:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), aux=st.integers(1, 40), idle=st.integers(0, 3), batch=st.integers(1, 64),
           k=st.integers(2, 12), special=st.floats(0.0, 0.3), seed=st.integers(0, 2**32 - 1))
    def test_mixed_slice_matches_per_kind_bytes(self, data, aux, idle, batch, k, special, seed):
        # R relabelled runs with their own omegas, A - R OE runs against one
        # prior and a few runs without an auxiliary batch. The stacked call
        # shares one log-softmax over all A rows; each row must round as in
        # its own kind's call, signed zeros, infinities and NaNs included.
        relabel = data.draw(st.integers(0, aux), label="relabel")
        rng = np.random.default_rng(seed)
        prior = rng.dirichlet(np.ones(k))
        specs = ([train._LossSpec(eta=1.0, aux_omegas=rng.uniform(0.0, 3.0, k)) for _ in range(relabel)]
                 + [train._LossSpec(eta=1.0, aux_prior=prior)] * (aux - relabel)
                 + [train._LossSpec()] * idle)
        stack = train._Stack(specs, [((np.zeros((1, k)), np.zeros(k)),)] * len(specs), 0.9, 0.0)
        logits = rng.standard_normal((aux, batch, k)) * 2.0 ** rng.integers(-10, 11, (aux, batch, k))
        odd = rng.random(logits.shape) < special
        logits[odd] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], odd.sum())
        ay = rng.integers(0, k, (relabel, batch))
        with np.errstate(invalid="ignore", over="ignore"):
            logp = _log_softmax(logits)
            grad = np.exp(logp)
            loss = train._aux_loss(stack, logp, grad, ay)
            want_loss, want_grad = _per_kind_aux_loss(stack, logits, ay)
        assert _bits(loss) == _bits(want_loss)
        assert _bits(grad) == _bits(want_grad)

    @pytest.mark.parametrize("runs", [*FLAT_STACKS.values(), [("open-sampling", 0.0), ("oe", 0.0), ("cb-rw", None)]],
                             ids=[*map(str, FLAT_STACKS), "all-zero-eta"])
    def test_aux_backward_covers_the_nonzero_eta_runs(self, runs, monkeypatch):
        # Each step's auxiliary backward call covers exactly the auxiliary
        # runs with a nonzero eta, and a stack with none makes no such call.
        prior = prior_from_counts([30, 10, 4])
        configs = [TrainConfig(method=m, **({} if eta is None else {"eta": eta})) for m, eta in runs]
        specs = sorted((train._loss_spec(c, prior) for c in configs), key=train._slice_rank)
        stack = train._Stack(specs, [init_params(4, 0, 3, 0).layers] * len(specs), 0.9, 0.0)
        calls = []
        backward = train._backward

        def counted(layers, acts, g, grads=None):
            calls.append(g.shape[0])
            return backward(layers, acts, g, grads)

        monkeypatch.setattr(train, "_backward", counted)
        rng = np.random.default_rng(0)
        for _ in range(2):
            ax = rng.standard_normal((stack.n_aux, 5, 4)) if stack.n_aux else None
            ay = rng.integers(0, 3, (stack.n_relabel, 5)) if stack.n_relabel else None
            train._step(stack, 0.1, rng.standard_normal((stack.size, 8, 4)), rng.integers(0, 3, (stack.size, 8)),
                        ax, ay)
        eta_runs = sum(m in train._AUX_METHODS and eta != 0.0 for m, eta in runs)
        assert calls == [stack.size, eta_runs] * 2 if eta_runs else [stack.size] * 2
        assert stack.eta[stack.eta_slice].all() and stack.eta_slice.stop - stack.eta_slice.start == eta_runs


class TestStep:
    @staticmethod
    def _stack(specs, layer_sets):
        return train._Stack(specs, layer_sets, 0.9, 0.0)

    def test_hand_forward_pass(self):
        # A zero linear model gives uniform logits: CE = log 2 on every
        # instance, and the auxiliary CE is weighted by omega of its label.
        spec = train._LossSpec(eta=1.0, aux_cdf=np.array([0.0, 1.0]), aux_omegas=np.array([0.5, 1.5]))
        stack = self._stack([spec], [((np.zeros((2, 2)), np.zeros(2)),)])
        base, aux, lost = train._step(stack, 0.1, np.zeros((1, 1, 2)), np.array([[0]]),
                                      np.zeros((1, 1, 2)), np.array([[1]]))
        assert base[0] == pytest.approx(math.log(2), rel=1e-12)
        assert aux[0] == pytest.approx(1.5 * math.log(2), rel=1e-12)
        assert lost is None

    def test_runs_without_offset_keep_their_logit_bits(self):
        # The stack adds its offset rows to every run; a run without an
        # offset adds -0.0, which leaves each logit's bits as they are.
        prior = prior_from_counts([30, 10, 4])
        specs = [train._loss_spec(TrainConfig(method=m), prior) for m in ("balanced-softmax", "standard", "cb-rw")]
        stack = self._stack(specs, [init_params(3, 0, 3, 0).layers] * 3)
        special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, -1.5]
        logits = np.resize(np.array(special), (3, len(special), 3))
        shifted = logits + stack.base_offset
        assert shifted[1:].tobytes() == logits[1:].tobytes()
        assert shifted[0].tobytes() != logits[0].tobytes()

    def test_lost_runs_flagged_without_touching_live_ones(self):
        # One relabelling run whose auxiliary logits overflow and one run
        # without an auxiliary batch: only the first is lost, the stack keeps
        # both, and the live run's update is bit-equal to its lone stack's.
        rng = np.random.default_rng(4)
        prior = prior_from_counts([30, 10, 4])
        specs = [train._loss_spec(TrainConfig(method=m), prior) for m in ("open-sampling", "standard")]
        runs = [init_params(3, 4, 3, rng).layers for _ in specs]
        bx, by = rng.standard_normal((2, 8, 3)), rng.integers(0, 3, (2, 8))
        ax, ay = np.full((1, 4, 3), np.inf), rng.integers(0, 3, (1, 4))
        stack, alone = self._stack(specs, runs), self._stack(specs[1:], runs[1:])
        with np.errstate(over="ignore", invalid="ignore"):
            base, aux, lost = train._step(stack, 0.1, bx, by, ax, ay)
        _, _, alone_lost = train._step(alone, 0.1, bx[1:], by[1:], None, None)
        assert lost.tolist() == [True, False] and alone_lost is None
        assert stack.size == 2 and stack.params.shape[0] == 2
        assert np.isfinite(base).all() and not np.isfinite(aux[0]) and aux[1] == 0.0
        assert stack.params[1].tobytes() == alone.params[0].tobytes()
        assert stack.velocity[1].tobytes() == alone.velocity[0].tobytes()


def _per_step_draws(kind, gammas, pinned, rng, pool_size, n_steps, m):
    """The auxiliary stream as defined: one integers call per step, then one
    random call for drawn labels; pinned labels are those of the drawn instances."""
    idx, labels = [], []
    for _ in range(n_steps):
        idx.append(rng.integers(0, pool_size, size=m))
        if kind == "pinned":
            labels.append(pinned[idx[-1]])
        elif kind == "drawn":
            labels.append(sample_aux_labels(gammas, m, rng))
    return np.array(idx), np.array(labels) if labels else None


# Zero-stride pools stand in for pools too large to hold; 3 * 2**30 rejects a
# quarter of its 32-bit draws and 2**31 + 1 almost half.
HUGE_POOLS = (3 * 2**30, 2**31 + 1)


class TestEpochDraws:
    @pytest.fixture
    def replays(self, monkeypatch):
        calls = []
        replay = train._replay_draws

        def counted(rng, pool_size, n_steps, m):
            calls.append((pool_size, m))
            return replay(rng, pool_size, n_steps, m)

        monkeypatch.setattr(train, "_replay_draws", counted)
        return calls

    def test_epochs_match_per_step_calls(self, replays):
        gammas = complementary(prior_from_counts([30, 10, 4]), 0.9)
        cdf = np.cumsum(gammas)
        epochs, replayed = {}, {}
        for pool_size in (1, 2, 300, 5000) + HUGE_POOLS:
            # A pinned stream's labels are its pool's uniforms looked up in the
            # CDF; gathering the uniforms first gives sample_aux_labels' labels.
            if pool_size in HUGE_POOLS:
                pinned_u = np.broadcast_to(0.5, (pool_size,))
                pinned = np.broadcast_to(train._lookup_labels(cdf, 0.5), (pool_size,))
            else:
                pinned_u = np.random.default_rng(pool_size).random(pool_size)
                pinned = sample_aux_labels(gammas, pool_size, np.random.default_rng(pool_size))
            for m in (1, 2, 7, 32):
                for k, kind in enumerate(("drawn", "pinned", "oe")):
                    fast = np.random.default_rng([pool_size, m, k])
                    slow = np.random.default_rng([pool_size, m, k])
                    key = pool_size, m, kind
                    for n_steps in (1, 3, 1, 2, 1, 1, 4, 1):
                        before = len(replays)
                        idx, u = train._epoch_draws(fast, pool_size, n_steps, m, kind == "drawn")
                        replayed[key] = replayed.get(key, 0) + len(replays) - before
                        epochs[key] = epochs.get(key, 0) + 1
                        want_idx, want_labels = _per_step_draws(kind, gammas, pinned, slow, pool_size, n_steps, m)
                        assert idx.dtype == np.int64 and idx.shape == (n_steps, m)
                        np.testing.assert_array_equal(idx, want_idx)
                        if kind == "drawn":
                            np.testing.assert_array_equal(train._lookup_labels(cdf, u), want_labels)
                        else:
                            assert u is None
                        if kind == "pinned":
                            labels = train._lookup_labels(cdf, pinned_u[idx])
                            assert labels.dtype == want_labels.dtype == np.int64
                            np.testing.assert_array_equal(labels, want_labels)
                        assert fast.bit_generator.state == slow.bit_generator.state
        for (pool_size, m, kind), count in epochs.items():
            replays_of = replayed[pool_size, m, kind]
            # Index-only streams are one integers call, never a replay.
            if kind != "drawn":
                assert replays_of == 0, (pool_size, m, kind)
            elif m % 2 or pool_size == 1:
                assert replays_of == count
            elif pool_size in HUGE_POOLS and m == 2:
                assert 0 < replays_of < count, (pool_size, replays_of, count)
            elif pool_size in HUGE_POOLS:
                assert replays_of > 0
            else:
                assert replays_of == 0

    @pytest.mark.parametrize("kind", ["drawn", "pinned", "oe"])
    def test_carried_half_matches_per_step_calls(self, replays, kind):
        # A rejection inside an even-size call carries a half into the next
        # epoch: a drawn stream replays it, an index-only one takes it in its call.
        gammas = complementary(prior_from_counts([30, 10, 4]), 0.9)
        pinned = sample_aux_labels(gammas, 300, np.random.default_rng(300))
        carried = np.random.default_rng(0)
        while not carried.bit_generator.state["has_uint32"]:
            carried.integers(0, HUGE_POOLS[0], size=32)
        twin = np.random.default_rng(0)
        twin.bit_generator.state = carried.bit_generator.state
        idx, u = train._epoch_draws(carried, 300, 2, 32, kind == "drawn")
        want_idx, want_labels = _per_step_draws(kind, gammas, pinned, twin, 300, 2, 32)
        assert len(replays) == (kind == "drawn")
        np.testing.assert_array_equal(idx, want_idx)
        if kind == "drawn":
            np.testing.assert_array_equal(train._lookup_labels(np.cumsum(gammas), u), want_labels)
        else:
            assert u is None
        assert carried.bit_generator.state == twin.bit_generator.state

    def test_rejecting_pool_runs_match_reference(self, replays):
        train_ds, test_ds, _ = small_task()
        row = np.linspace(-1.0, 1.0, train_ds.dim)
        pool = np.broadcast_to(row, (HUGE_POOLS[0], train_ds.dim))
        configs = [TrainConfig(method="open-sampling", epochs=6, seed=s, hidden_dim=4, batch_aux=m)
                   for s, m in ((1, 2), (2, 2), (3, 32))]
        batched = train.train_runs(configs, train_ds, test_ds, [pool] * 3)
        assert {m for _, m in replays} == {2, 32}
        assert replays.count((HUGE_POOLS[0], 2)) < 2 * 6
        for cfg, result in zip(configs, batched):
            alone = train.train_runs([cfg], train_ds, test_ds, [pool])[0]
            assert _run_bytes(result) == _run_bytes(alone)
            ref_params, ref_history = reference_run(cfg, train_ds, test_ds, pool, KERNELS["reference"])
            assert result.history == ref_history
            for (w1, b1), (w2, b2) in zip(result.final_params.layers, ref_params.layers):
                assert w1.tobytes() == w2.tobytes() and b1.tobytes() == b2.tobytes()

    def test_mixed_pinned_and_drawn_stack_matches_reference(self):
        train_ds, test_ds, pool = small_task()
        configs = [TrainConfig(method="open-sampling", fixed_labels=fixed, epochs=4, seed=seed, hidden_dim=8)
                   for seed, fixed in ((5, True), (6, False), (7, True), (8, False))]
        batched = train.train_runs(configs, train_ds, test_ds, [pool] * 4)
        for cfg, result in zip(configs, batched):
            ref_params, ref_history = reference_run(cfg, train_ds, test_ds, pool, KERNELS["reference"])
            assert result.history == ref_history
            for (w1, b1), (w2, b2) in zip(result.final_params.layers, ref_params.layers):
                assert w1.tobytes() == w2.tobytes() and b1.tobytes() == b2.tobytes()


def test_sample_aux_labels_refuses_no_draws():
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="^m must be at least 1$"):
        train.sample_aux_labels(np.full(3, 1 / 3), 0, rng)
    assert rng.bit_generator.state == before
