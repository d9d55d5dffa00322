import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from hypothesis.extra.numpy import arrays

from open_rebalance.nn import (
    LrSchedule,
    MlpParams,
    _backward,
    _forward,
    _log_softmax,
    _prior_xent,
    _xent,
    backward,
    balanced_softmax_xent,
    forward,
    grad_check,
    init_optim_state,
    init_params,
    load_params,
    lr_at,
    oe_prior_xent,
    save_params,
    sgd_step,
    softmax_xent,
)
from open_rebalance.data import FormatError
from open_rebalance.priors import prior_from_counts
from open_rebalance.train import _views


def linear_model(w, b):
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return MlpParams(layers=((w, b),))


logit_batches = arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(2, 5)),
    elements=st.floats(-30, 30),
)


class TestForward:
    def test_zero_params_zero_logits(self):
        params = linear_model(np.zeros((3, 4)), np.zeros(4))
        np.testing.assert_array_equal(forward(params, np.ones((2, 3))), 0.0)

    def test_scalar_affine(self):
        params = linear_model([[2.0]], [1.0])
        assert forward(params, [[3.0]])[0, 0] == 7.0

    def test_output_shape(self):
        rng = np.random.default_rng(0)
        params = init_params(5, 7, 3, rng)
        assert forward(params, rng.standard_normal((11, 5))).shape == (11, 3)

    def test_dim_mismatch(self):
        params = init_params(5, 0, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            forward(params, np.zeros((2, 4)))

    @pytest.mark.parametrize("hidden", [0, 6])
    @pytest.mark.parametrize("stack", [None, 4], ids=["one-model", "stack-of-4"])
    def test_in_place_layers_leave_inputs_and_round_as_fresh_ones(self, hidden, stack):
        # A stack of models shares one 2-D input, as the per-epoch evaluation does.
        rng = np.random.default_rng(hidden)
        layers = tuple(
            (rng.standard_normal(w.shape if stack is None else (stack, *w.shape)),
             rng.standard_normal(b.shape if stack is None else (stack, 1, *b.shape)))
            for w, b in init_params(5, hidden, 3, rng).layers
        )
        x = rng.standard_normal((9, 5))
        before = [a.copy() for pair in layers for a in pair] + [x.copy()]
        logits, acts = _forward(layers, x)
        after = [a for pair in layers for a in pair] + [x]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))
        h = x
        for (w, b), act in zip(layers[:-1], acts[1:]):
            h = np.maximum(h @ w + b, 0.0)
            assert h.tobytes() == act.tobytes()
        w, b = layers[-1]
        assert logits.tobytes() == (h @ w + b).tobytes()


def _row_max_log_softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def _xent_2d(logits, labels, weights):
    """One model's weighted mean cross entropy, through the (rows, labels) index and np.mean."""
    batch = logits.shape[0]
    w = np.ones(batch) if weights is None else weights
    logp = _row_max_log_softmax(logits)
    rows = np.arange(batch)
    grad = np.exp(logp)
    grad[rows, labels] -= 1.0
    grad *= (w / batch)[:, None]
    return np.mean(w * -logp[rows, labels]), grad


def _xent_fresh(logits, labels, weights):
    """_xent with each row's flat offset built afresh and each loss term negated."""
    logp = _row_max_log_softmax(logits)
    batch, k = logits.shape[-2:]
    hit = labels + np.arange(0, labels.size * k, k).reshape(labels.shape)
    grad = np.exp(logp)
    grad.reshape(-1)[hit] -= 1.0
    if weights is None:
        grad *= 1.0 / batch
        return (-logp.take(hit)).sum(axis=-1) / batch, grad
    grad *= (weights / batch)[..., None]
    return (weights * -logp.take(hit)).sum(axis=-1) / batch, grad


def _stacked_logits(rng, k):
    """(S, B, K) logits for S = 3 models at batch sizes 1, 9 and 32."""
    return [rng.standard_normal((3, batch, k)) * 8.0 for batch in (1, 9, 32)]


def _logit_arrays(elements):
    """Arrays of one, two or three dimensions with K = 1..12 classes."""
    shapes = st.tuples(st.lists(st.integers(1, 5), max_size=2), st.integers(1, 12))
    return arrays(np.float64, shapes.map(lambda t: (*t[0], t[1])), elements=elements)


def _hard_logits(rng, rows, k):
    """(rows, k) logits, each row finite, all signed-zero ties, or finite with
    about two entries of +-0.0, +-inf or NaN."""
    kind = rng.integers(0, 3, rows)
    x = rng.standard_normal((rows, k)) * 30.0
    x[kind == 1] = rng.choice([0.0, -0.0, -1.0], size=(rows, k))[kind == 1]
    odd = (kind == 2)[:, None] & (rng.random((rows, k)) < 2.0 / k)
    x[odd] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size=odd.sum())
    return x


class TestLogSoftmax:
    # The max and the sum over K run down a class-major copy; these pin both
    # bit for bit against numpy's row reductions, logits.max(axis=-1) and
    # np.exp(z).sum(axis=-1), whose orders numpy may change.
    @settings(max_examples=300, deadline=None)
    @given(_logit_arrays(st.sampled_from([0.0, -0.0, -1.0, -800.0])))
    def test_signed_zero_ties_match_row_max(self, logits):
        got = _log_softmax(logits)
        assert got.view(np.uint64).tobytes() == _row_max_log_softmax(logits).view(np.uint64).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(_logit_arrays(st.one_of(st.floats(-800, 800), st.sampled_from([np.inf, -np.inf, np.nan]))))
    def test_non_finite_and_large_logits_match_row_max(self, logits):
        # msp_scores takes whatever logits a model gives, including inf and NaN.
        with np.errstate(invalid="ignore"):
            got, want = _log_softmax(logits), _row_max_log_softmax(logits)
        assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()

    @pytest.mark.parametrize("k", [2, 5, 10])
    def test_stacked_slices_match_2d(self, k):
        for logits in _stacked_logits(np.random.default_rng(k), k):
            got = _log_softmax(logits)
            for s, slice_ in enumerate(logits):
                assert got[s].tobytes() == _row_max_log_softmax(slice_).tobytes(), (k, s)

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_class_major_kernel_matches_row_reductions(self, ndim):
        # Every order _class_sum takes (one by one below 8 classes, 8 running
        # sums to 128, halving past it), with its edges, as a fresh C-ordered array.
        rng = np.random.default_rng(ndim)
        for k in [*range(1, 131), 255, 256, 257, 513, 1000]:
            for rows in (1,) if ndim == 1 else (1, 2, 64, 256):
                shape = [(k,), (rows, k), (min(rows, 2), -1, k)][ndim - 1]
                logits = _hard_logits(rng, rows, k).reshape(shape)
                with np.errstate(invalid="ignore"):
                    got, want = _log_softmax(logits), _row_max_log_softmax(logits)
                assert got.flags.c_contiguous and got.shape == logits.shape
                assert got.tobytes() == want.tobytes(), (k, rows)

    @pytest.mark.parametrize("shape", [(5,), (1, 5), (7, 1), (1, 1, 5)])
    def test_input_left_unchanged(self, shape):
        # The class-major transpose of one row or one class is already
        # contiguous, so a copy that skipped it would write into the logits.
        logits = np.random.default_rng(0).standard_normal(shape) * 8.0
        before = logits.tobytes()
        got = _log_softmax(logits)
        assert logits.tobytes() == before
        assert not np.shares_memory(got, logits)


class TestSoftmaxXent:
    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("k", [2, 5, 10])
    def test_stacked_slices_match_2d(self, k, weighted):
        rng = np.random.default_rng([k, weighted])
        for logits in _stacked_logits(rng, k):
            labels = rng.integers(0, k, logits.shape[:2])
            weights = rng.uniform(0.0, 3.0, logits.shape[:2]) if weighted else None
            loss, grad = _xent(logits, labels, weights)
            assert loss.shape == logits.shape[:1] and grad.shape == logits.shape
            for s in range(logits.shape[0]):
                want_loss, want_grad = _xent_2d(logits[s], labels[s], None if weights is None else weights[s])
                assert loss[s].tobytes() == want_loss.tobytes(), (k, s)
                assert grad[s].tobytes() == want_grad.tobytes(), (k, s)

    def test_cached_row_starts_match_fresh_ones(self):
        # Full, ragged and 2-D batches in one process, then the full one again:
        # each call's offsets must be its own shape's, however the cache stands.
        rng = np.random.default_rng(7)
        for shape in ((3, 32, 5), (3, 25, 5), (32, 5), (3, 32, 5)):
            logits = rng.standard_normal(shape) * 8.0
            labels = rng.integers(0, 5, shape[:-1])
            for weights in (None, rng.uniform(0.0, 3.0, shape[:-1])):
                loss, grad = _xent(logits, labels, weights)
                want_loss, want_grad = _xent_fresh(logits, labels, weights)
                assert loss.tobytes() == want_loss.tobytes(), shape
                assert grad.tobytes() == want_grad.tobytes(), shape

    def test_losses_round_as_negated_sums(self):
        # The first model picks only +0.0 log-probabilities (the label's logit
        # dominates), so its loss is a zero whose sign rests on where the
        # negation goes.
        logits = np.array([[[0.0, -1000.0]] * 3, [[1.0, -2.0], [0.5, 0.0], [3.0, 3.0]]])
        labels = np.array([[0, 0, 0], [1, 0, 1]])
        logp = _log_softmax(logits)
        picked = np.take_along_axis(logp, labels[..., None], -1)[..., 0]
        assert not picked[0].any()
        loss, _ = _xent(logits, labels)
        assert loss.tobytes() == ((-picked).sum(-1) / 3).tobytes()
        prior = np.array([1.0, 0.0])
        loss, _ = _prior_xent(logits, prior)
        assert loss.tobytes() == ((-(logp @ prior)).sum(-1) / 3).tobytes()

    def test_weighted_loss_negates_each_term(self):
        # A zero weight on a negative log-probability gives a +0.0 term beside
        # a unit weight's -0.0 one. Their sum is +0.0, so negating the weighted
        # sum instead of each term would give -0.0, where np.mean(w * -logp) is +0.0.
        logits = np.array([[0.0, 0.0], [0.0, -1000.0]])
        loss, _ = _xent(logits, np.array([0, 0]), np.array([0.0, 1.0]))
        assert loss.tobytes() == np.float64(0.0).tobytes()

    def test_uniform_logits(self):
        loss, _ = softmax_xent(np.zeros((3, 10)), [0, 4, 9])
        assert loss == pytest.approx(math.log(10), rel=1e-12)

    def test_zero_weights_annihilate(self):
        loss, grad = softmax_xent(np.ones((2, 3)), [0, 1], sample_weights=[0.0, 0.0])
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_scalar_log_sum_exp(self):
        loss, _ = softmax_xent(np.array([[2.0, 0.0]]), [0])
        assert loss == pytest.approx(math.log(1 + math.exp(-2)), rel=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            softmax_xent(np.array([[np.inf, 0.0]]), [0])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            softmax_xent(np.zeros((0, 3)), [])

    @settings(max_examples=100, deadline=None)
    @given(logit_batches, st.floats(-100, 100))
    def test_shift_invariance(self, logits, shift):
        labels = np.arange(logits.shape[0]) % logits.shape[1]
        base, _ = softmax_xent(logits, labels)
        shifted, _ = softmax_xent(logits + shift, labels)
        assert shifted == pytest.approx(base, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(logit_batches)
    def test_positivity(self, logits):
        labels = np.arange(logits.shape[0]) % logits.shape[1]
        loss, _ = softmax_xent(logits, labels)
        assert loss >= 0.0

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((4, 5))
        _, grad = softmax_xent(logits, [0, 1, 2, 3])
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-15)


class TestBalancedSoftmax:
    def test_equal_counts_reduce_to_standard(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, 6)
        prior = prior_from_counts([25, 25, 25, 25])
        base, gbase = softmax_xent(logits, labels)
        bal, gbal = balanced_softmax_xent(logits, labels, prior)
        assert bal == pytest.approx(base, abs=1e-12)
        np.testing.assert_allclose(gbal, gbase, atol=1e-12)

    def test_shift_by_log_counts(self):
        loss, _ = balanced_softmax_xent(np.zeros((1, 2)), [1], prior_from_counts([3, 1]))
        assert loss == pytest.approx(math.log(4), rel=1e-12)

    def test_count_scale_invariance(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((5, 3))
        labels = rng.integers(0, 3, 5)
        a, _ = balanced_softmax_xent(logits, labels, prior_from_counts([9, 3, 1]))
        b, _ = balanced_softmax_xent(logits, labels, prior_from_counts([90, 30, 10]))
        assert a == pytest.approx(b, abs=1e-12)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            balanced_softmax_xent(np.zeros((1, 2)), [0], prior_from_counts([1, 0]))


class TestOePriorXent:
    def test_uniform_everything(self):
        loss, _ = oe_prior_xent(np.zeros((4, 7)), np.full(7, 1 / 7))
        assert loss == pytest.approx(math.log(7), rel=1e-12)

    def test_one_hot_prior_equals_ce(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((3, 4))
        prior = np.array([0.0, 0.0, 1.0, 0.0])
        a, ga = oe_prior_xent(logits, prior)
        b, gb = softmax_xent(logits, [2, 2, 2])
        assert a == pytest.approx(b, rel=1e-12)
        np.testing.assert_allclose(ga, gb, atol=1e-12)

    def test_convex_combination(self):
        loss, _ = oe_prior_xent(np.zeros((1, 2)), [0.75, 0.25])
        assert loss == pytest.approx(math.log(2), rel=1e-12)

    def test_unnormalized_prior_rejected(self):
        with pytest.raises(ValueError):
            oe_prior_xent(np.zeros((1, 2)), [0.6, 0.6])


def _bits(a):
    """The float64 bit patterns of a, with every NaN as numpy's default one.

    Where two NaNs meet in a sum, which one's sign bit survives depends on
    numpy's inner loop; only a diverged run carries a NaN, so its sign is not
    pinned. Signed zeros and infinities are.
    """
    return np.where(np.isnan(a), np.nan, a).view(np.uint64).tobytes()


class TestBackward:
    def test_zero_grad_logits(self):
        params = init_params(3, 4, 2, np.random.default_rng(0))
        grads = backward(params, np.ones((2, 3)), np.zeros((2, 2)))
        for gw, gb in grads:
            np.testing.assert_array_equal(gw, 0.0)
            np.testing.assert_array_equal(gb, 0.0)

    def test_linear_outer_product(self):
        params = linear_model(np.zeros((3, 2)), np.zeros(2))
        x = np.array([[1.0, 2.0, 3.0]])
        g = np.array([[0.5, -0.5]])
        (gw, gb), = backward(params, x, g)
        np.testing.assert_array_equal(gw, np.outer(x[0], g[0]))
        np.testing.assert_array_equal(gb, g[0])

    @settings(max_examples=200, deadline=None)
    @given(runs=st.integers(1, 80), batch=st.integers(1, 256), hidden=st.integers(0, 16),
           k=st.integers(2, 10), special=st.floats(0.0, 0.3), seed=st.integers(0, 2**32 - 1))
    def test_stacked_matches_2d_bytes(self, runs, batch, hidden, k, special, seed):
        # Every batch size, so every ragged last batch, into a flat (S, P)
        # gradient buffer as the training step uses. A bias gradient must sum its
        # batch axis as one model's 2-D reduce does: row by row for h > 1,
        # pairwise for h == 1 (a hidden width of 1).
        rng = np.random.default_rng(seed)
        dims = [3, k] if hidden == 0 else [3, hidden, k]
        shapes = list(zip(dims, dims[1:]))
        width = sum((rows + 1) * cols for rows, cols in shapes)
        layers = _views(rng.standard_normal((runs, width)), shapes)
        _, acts = _forward(layers, rng.standard_normal((runs, batch, 3)))
        g = rng.standard_normal((runs, batch, k)) * 2.0 ** rng.integers(-20, 21, (runs, batch, k))
        odd = rng.random(g.shape) < special
        g[odd] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], odd.sum())
        grads = _views(np.full((runs, width), 7.0), shapes)
        with np.errstate(invalid="ignore", over="ignore"):
            _backward(layers, acts, g, grads)
            for s in range(runs):
                want = _backward([(w[s], b[s, 0]) for w, b in layers], [a[s] for a in acts], g[s])
                for (gw, gb), (ww, wb) in zip(grads, want):
                    assert _bits(gw[s]) == _bits(ww), s
                    assert _bits(gb[s, 0]) == _bits(wb), s

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        params = init_params(4, 6, 3, rng)
        x = rng.standard_normal((5, 4))
        y = rng.integers(0, 3, 5)
        assert grad_check(params, x, y, eps=1e-5) < 1e-5


class TestGradCheck:
    def test_linear_tight(self):
        rng = np.random.default_rng(6)
        params = init_params(3, 0, 4, rng)
        x = rng.standard_normal((6, 3))
        y = rng.integers(0, 4, 6)
        assert grad_check(params, x, y, eps=1e-5) < 1e-6

    def test_zero_batch(self):
        params = init_params(3, 0, 4, np.random.default_rng(7))
        err = grad_check(params, np.zeros((2, 3)), [0, 1], eps=1e-5)
        assert err < 1e-8


class TestSgdStep:
    def test_zero_lr_keeps_params(self):
        params = init_params(2, 0, 2, np.random.default_rng(8))
        state = init_optim_state(params)
        grads = tuple((np.ones_like(w), np.ones_like(b)) for w, b in params.layers)
        new_params, new_state = sgd_step(params, grads, state, 0.0)
        np.testing.assert_array_equal(new_params.layers[0][0], params.layers[0][0])
        assert new_state.velocity[0][0].max() > 0.0

    def test_plain_gradient_descent(self):
        params = linear_model([[1.0]], [0.0])
        state = init_optim_state(params, momentum=0.0, weight_decay=0.0)
        grads = (((np.array([[0.5]])), np.array([0.25])),)
        new_params, _ = sgd_step(params, grads, state, 0.1)
        assert new_params.layers[0][0][0, 0] == pytest.approx(1.0 - 0.05)
        assert new_params.layers[0][1][0] == pytest.approx(-0.025)

    def test_weight_decay_scalar(self):
        params = linear_model([[1.0]], [0.0])
        state = init_optim_state(params, momentum=0.0, weight_decay=0.0002)
        grads = ((np.array([[0.0]]), np.array([0.0])),)
        new_params, _ = sgd_step(params, grads, state, 0.1)
        assert new_params.layers[0][0][0, 0] == pytest.approx(0.99998, rel=1e-12)


class TestLrSchedule:
    def test_linear_warmup(self):
        sched = LrSchedule(5, (160, 180), 0.01)
        assert lr_at(sched, 0, 0.1) == pytest.approx(0.02)
        assert lr_at(sched, 4, 0.1) == pytest.approx(0.1)

    def test_milestone_decay(self):
        sched = LrSchedule(5, (160, 180), 0.01)
        assert lr_at(sched, 159, 0.1) == pytest.approx(0.1)
        assert lr_at(sched, 160, 0.1) == pytest.approx(0.001)
        assert lr_at(sched, 180, 0.1) == pytest.approx(1e-5)

    def test_epoch_out_of_range(self):
        sched = LrSchedule(0, (), 0.1)
        with pytest.raises(ValueError, match="^epoch must be non-negative"):
            lr_at(sched, -1, 0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_decay_refused(self, value):
        with pytest.raises(ValueError, match="^decay_factor must be finite"):
            LrSchedule(warmup_epochs=0, milestones=(), decay_factor=value)

    @pytest.mark.parametrize("value", [-0.5, -1e-300])
    def test_negative_decay_refused(self, value):
        with pytest.raises(ValueError, match=f"^decay_factor must be non-negative, got {value}$"):
            LrSchedule(warmup_epochs=0, milestones=(2,), decay_factor=value)

    @pytest.mark.parametrize("value", [0.0, 1.0, 3.0])
    def test_zero_and_growing_decay_accepted(self, value):
        assert lr_at(LrSchedule(0, (2,), value), 2, 0.1) == 0.1 * value

    def test_milestones_validated(self):
        with pytest.raises(ValueError):
            LrSchedule(5, (3, 10), 0.1)
        with pytest.raises(ValueError):
            LrSchedule(0, (10, 10), 0.1)

    @pytest.mark.parametrize("args, message", [
        ((0, [1], 0.1), "milestones must be a tuple of integers, got [1]"),
        ((0, (1.5,), 0.1), "milestones must be a tuple of integers, got (1.5,)"),
        ((0, (True,), 0.1), "milestones must be a tuple of integers, got (True,)"),
        # Refused by kind before the order check compares the items.
        ((0, (2, "a"), 0.1), "milestones must be a tuple of integers, got (2, 'a')"),
        ((1.5, (), 0.1), "warmup_epochs must be an integer, got 1.5"),
        ((0, (), "0.1"), "decay_factor must be a number, got '0.1'"),
        # lr_at used to raise OverflowError converting such a warmup to float.
        ((10**400, (), 0.1), f"warmup_epochs must be in [-2**63, 2**63), got {10**400}"),
    ], ids=["milestones-list", "milestone-float", "milestone-bool", "milestone-string", "warmup-float",
            "decay_factor-string", "warmup-past-int64"])
    def test_wrong_type_refused(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LrSchedule(*args)

    def test_integer_milestones_of_any_kind_accepted(self):
        assert LrSchedule(0, (np.int64(2), 3), 0.1).milestones == (2, 3)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_params(4, 6, 3, np.random.default_rng(9))
        path = tmp_path / "model.osnn"
        save_params(params, path)
        back = load_params(path)
        assert back.input_dim == 4 and back.hidden_dim == 6 and back.num_classes == 3
        for (w1, b1), (w2, b2) in zip(params.layers, back.layers):
            np.testing.assert_array_equal(w1, w2)
            np.testing.assert_array_equal(b1, b2)

    @pytest.mark.parametrize("hidden", [0, 8])
    def test_dimensions_derived_from_layers(self, tmp_path, hidden):
        layers = init_params(5, hidden, 3, np.random.default_rng(4)).layers
        path = tmp_path / "model.osnn"
        save_params(MlpParams(layers), path)
        back = load_params(path)
        assert (back.input_dim, back.hidden_dim, back.num_classes) == (5, hidden, 3)

    def test_linear_round_trip(self, tmp_path):
        params = init_params(4, 0, 3, np.random.default_rng(10))
        path = tmp_path / "model.osnn"
        save_params(params, path)
        assert load_params(path).hidden_dim == 0

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.osnn"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(ValueError):
            load_params(path)

    def test_unchained_layers_rejected(self, tmp_path):
        # Well-formed framing, but a 4x3 layer feeding a 2x5 one.
        path = tmp_path / "model.osnn"
        blob = b"OSNN1" + struct.pack("<I", 2)
        for rows, cols in ((4, 3), (2, 5)):
            blob += struct.pack("<II", rows, cols) + bytes(8 * (rows * cols + cols))
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="layer shapes do not chain"):
            load_params(path)

    @settings(max_examples=100, deadline=None)
    @given(
        hidden=st.sampled_from([0, 3]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    def test_truncated_or_corrupted(self, tmp_path_factory, hidden, seed, data):
        # Any strict prefix is rejected; a file with one byte changed is
        # either rejected or loads to parameters that save back to it.
        path = tmp_path_factory.mktemp("osnn") / "model.osnn"
        save_params(init_params(4, hidden, 3, np.random.default_rng(seed)), path)
        blob = path.read_bytes()
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        path.write_bytes(blob[:cut])
        with pytest.raises(FormatError):
            load_params(path)
        corrupted = bytearray(blob)
        corrupted[data.draw(st.integers(min_value=0, max_value=len(blob) - 1))] ^= data.draw(
            st.integers(min_value=1, max_value=255)
        )
        path.write_bytes(bytes(corrupted))
        try:
            params = load_params(path)
        except FormatError:
            return
        again = path.with_name("again.osnn")
        save_params(params, again)
        assert again.read_bytes() == bytes(corrupted)


class TestInit:
    def test_deterministic(self):
        a = init_params(5, 8, 3, 42)
        b = init_params(5, 8, 3, 42)
        np.testing.assert_array_equal(a.layers[0][0], b.layers[0][0])

    def test_scale_bound(self):
        params = init_params(16, 0, 4, np.random.default_rng(0))
        assert np.abs(params.layers[0][0]).max() <= 1 / 4
        np.testing.assert_array_equal(params.layers[0][1], 0.0)


def _trailing_bytes(tmp_path):
    path = tmp_path / "model.osnn"
    save_params(init_params(3, 0, 2, np.random.default_rng(0)), path)
    with open(path, "ab") as f:
        f.write(b"\0")
    return load_params(path)


def _sgd_with_lr(lr):
    params = init_params(3, 0, 2, np.random.default_rng(0))
    return sgd_step(params, params.layers, init_optim_state(params), lr)


def _chain(*widths):
    return MlpParams(tuple((np.zeros((a, b)), np.zeros(b)) for a, b in zip(widths, widths[1:])))


# Public refusals, each called directly: (call on a tmp_path, its error).
NN_REFUSALS = {
    "three-layers": (lambda tmp: _chain(3, 4, 4, 2),
                     "model must be linear or have exactly one hidden layer"),
    "negative-warmup": (lambda tmp: LrSchedule(warmup_epochs=-1), "warmup_epochs must be non-negative"),
    "label-out-of-range": (lambda tmp: softmax_xent(np.zeros((2, 3)), [0, 3]), "label out of range"),
    "negative-weight": (lambda tmp: softmax_xent(np.zeros((2, 3)), [0, 1], [1.0, -1.0]),
                        "sample weights must be non-negative"),
    "empty-oe-batch": (lambda tmp: oe_prior_xent(np.zeros((0, 3)), np.full(3, 1 / 3)), "empty batch"),
    "backward-shape": (lambda tmp: backward(_chain(3, 2), np.zeros((2, 3)), np.zeros((2, 3))),
                       "grad_logits shape mismatch"),
    "negative-lr": (lambda tmp: _sgd_with_lr(-0.1), "lr must be non-negative"),
    "zero-eps": (lambda tmp: grad_check(_chain(3, 2), np.zeros((2, 3)), [0, 1], eps=0),
                 "eps must be positive"),
    "trailing-bytes": (_trailing_bytes, r".*model\.osnn: trailing bytes in checkpoint"),
}


@pytest.mark.parametrize("name", list(NN_REFUSALS))
def test_public_refusals(tmp_path, name):
    call, error = NN_REFUSALS[name]
    with pytest.raises(ValueError, match=f"^{error}$"):
        call(tmp_path)
