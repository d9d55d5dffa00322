import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from open_rebalance.priors import (
    DEFAULT_BETA_CB,
    ClassPrior,
    LabelDistributionKind,
    cb_effective_weights,
    complementary,
    default_alpha,
    label_distribution,
    loss_prior,
    mcd,
    mixed_prior,
    prior_from_counts,
    required_aux_size,
    weights_from_probabilities,
)
from open_rebalance.data import longtail_counts


counts_lists = st.lists(st.integers(min_value=0, max_value=5000), min_size=2, max_size=20).filter(
    lambda c: sum(c) >= 1
)


def reference_profile_counts():
    # Independent evaluation of the exponential profile for K=10, ratio 100.
    return [max(1, math.floor(5000 * 100 ** (-j / 9) + 0.5)) for j in range(10)]


class TestClassPrior:
    def test_simple_ratio(self):
        p = prior_from_counts([3, 1])
        np.testing.assert_allclose(p.betas, [0.75, 0.25])
        assert p.total == 4

    def test_uniform(self):
        p = prior_from_counts([5, 5, 5, 5])
        np.testing.assert_allclose(p.betas, 0.25)
        assert p.is_uniform()

    def test_longtail_profile_beta(self):
        counts = reference_profile_counts()
        total = sum(counts)
        p = prior_from_counts(longtail_counts(5000, 10, 100))
        assert p.total == total
        assert p.betas[0] == pytest.approx(5000 / total)
        assert p.betas[0] == pytest.approx(0.403, abs=5e-4)

    @pytest.mark.parametrize("bad", [[], [3], [0, 0], [-1, 2]])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            prior_from_counts(bad)

    def test_non_integer_counts_rejected(self):
        with pytest.raises(ValueError):
            prior_from_counts([1.5, 2.5])

    @pytest.mark.parametrize("counts", [[3, 1], np.array([3.0, 1.0]), np.array([500, 158, 50, 16, 5]),
                                        (0, 7)])
    def test_total_and_betas_derived_from_counts(self, counts):
        p = ClassPrior(counts)
        assert p.counts.dtype == np.int64
        np.testing.assert_array_equal(p.counts, np.asarray(counts))
        assert p.total == int(np.sum(counts)) and type(p.total) is int
        np.testing.assert_array_equal(p.betas, p.counts / float(p.total))
        # prior_from_counts is the same constructor.
        q = prior_from_counts(counts)
        np.testing.assert_array_equal(q.counts, p.counts)
        np.testing.assert_array_equal(q.betas, p.betas)
        assert q.total == p.total

    def test_total_and_betas_cannot_be_given(self):
        with pytest.raises(TypeError):
            ClassPrior(counts=np.array([3, 1]), total=99, betas=np.array([0.1, 0.2]))
        np.testing.assert_allclose(complementary(ClassPrior([3, 1]), 0.9), [0.1875, 0.8125])

    @pytest.mark.parametrize("bad, message", [
        ([], "invalid prior: need counts for at least two classes"),
        ([3], "invalid prior: need counts for at least two classes"),
        ([[1, 2], [3, 4]], "invalid prior: need counts for at least two classes"),
        ([1.5, 2.5], "invalid prior: counts must be integers"),
        ([-1, 2], "invalid prior: negative class count"),
        ([0, 0], "invalid prior: all class counts are zero"),
    ], ids=["empty", "one-class", "matrix", "fractional", "negative", "all-zero"])
    def test_bad_counts_refused_with_one_text(self, bad, message):
        for build in (ClassPrior, prior_from_counts):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build(bad)

    def test_compares_and_hashes_by_identity(self):
        # Its fields are arrays, so a value comparison would be ambiguous.
        p, q = ClassPrior([3, 1]), ClassPrior([3, 1])
        assert p == p and p != q
        assert hash(p) == hash(p) and len({p, q}) == 2


class TestComplementary:
    def test_hand_evaluated(self):
        p = prior_from_counts([3, 1])
        np.testing.assert_allclose(complementary(p, 1.0), [0.25, 0.75])

    def test_mcd_boundary(self):
        p = prior_from_counts([3, 1])
        np.testing.assert_allclose(complementary(p, 0.75), [0.0, 1.0])

    def test_uniform_limit(self):
        p = prior_from_counts([3, 1])
        np.testing.assert_allclose(complementary(p, 1e6), 0.5, atol=1e-5)

    def test_alpha_below_max_beta(self):
        p = prior_from_counts([3, 1])
        with pytest.raises(ValueError, match="0.75"):
            complementary(p, 0.5)

    def test_degenerate_alpha(self):
        p = prior_from_counts([5, 5])
        with pytest.raises(ValueError):
            complementary(p, 0.5)

    @settings(max_examples=200, deadline=None)
    @given(counts_lists, st.floats(min_value=0.0, max_value=3.0))
    def test_simplex_invariant(self, counts, bump):
        p = prior_from_counts(counts)
        alpha = p.max_beta + bump
        if p.num_classes * alpha - 1.0 <= 0:
            return
        g = complementary(p, alpha)
        assert abs(g.sum() - 1.0) < 1e-12
        assert np.all(g >= 0.0)

    @settings(max_examples=200, deadline=None)
    @given(counts_lists, st.floats(min_value=1e-6, max_value=2.0), st.floats(min_value=0.0, max_value=5.0))
    def test_flattens_toward_uniform(self, counts, bump1, bump2):
        p = prior_from_counts(counts)
        k = p.num_classes
        a1 = p.max_beta + bump1
        a2 = a1 + bump2
        if k * a1 - 1.0 <= 0:
            return
        d1 = np.abs(complementary(p, a1) - 1.0 / k).max()
        d2 = np.abs(complementary(p, a2) - 1.0 / k).max()
        assert d2 <= d1 + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(counts_lists, st.floats(min_value=1e-3, max_value=3.0))
    def test_inverse_ordering(self, counts, bump):
        p = prior_from_counts(counts)
        alpha = p.max_beta + bump
        g = complementary(p, alpha)
        order = np.argsort(p.betas, kind="stable")
        assert np.all(np.diff(g[order]) <= 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(counts_lists)
    def test_mcd_zero_on_argmax_classes(self, counts):
        p = prior_from_counts(counts)
        if p.is_uniform():
            return
        top = p.counts == p.counts.max()
        assert np.all(mcd(p)[top] == 0.0)


class TestMcd:
    def test_two_class(self):
        np.testing.assert_allclose(mcd(prior_from_counts([3, 1])), [0.0, 1.0])

    def test_three_class(self):
        np.testing.assert_allclose(mcd(prior_from_counts([1, 2, 2])), [1.0, 0.0, 0.0])

    def test_uniform_prior_degenerate(self):
        np.testing.assert_allclose(mcd(prior_from_counts([5, 5])), [0.5, 0.5])


class TestDefaultAlpha:
    def test_two_class(self):
        assert default_alpha(prior_from_counts([3, 1])) == 1.0

    def test_uniform_k10(self):
        assert default_alpha(prior_from_counts([7] * 10)) == pytest.approx(0.2)

    def test_longtail_profile(self):
        counts = reference_profile_counts()
        p = prior_from_counts(longtail_counts(5000, 10, 100))
        expected = max(counts) / sum(counts) + min(counts) / sum(counts)
        assert default_alpha(p) == pytest.approx(expected, rel=1e-12)


class TestClassWeights:
    def test_uniform_identity(self):
        w = weights_from_probabilities(np.full(10, 0.1))
        np.testing.assert_allclose(w, 1.0)

    def test_scale_by_k(self):
        p = prior_from_counts([3, 1])
        np.testing.assert_allclose(weights_from_probabilities(complementary(p, 1.0)), [0.5, 1.5])
        np.testing.assert_allclose(weights_from_probabilities(mcd(p)), [0.0, 2.0])

    @settings(max_examples=100, deadline=None)
    @given(counts_lists, st.floats(min_value=1e-3, max_value=3.0))
    def test_weights_sum_to_k(self, counts, bump):
        p = prior_from_counts(counts)
        w = weights_from_probabilities(complementary(p, p.max_beta + bump))
        assert abs(w.sum() - p.num_classes) < 1e-12


class TestCbEffectiveWeights:
    def test_zero_beta_uniform(self):
        w = cb_effective_weights(prior_from_counts([7, 3]), 0.0)
        np.testing.assert_allclose(w, 1.0)

    def test_hand_arithmetic(self):
        # Oracle: direct evaluation of the effective-number formula.
        raw0 = (1 - 0.9) / (1 - 0.9 ** 10)
        raw1 = (1 - 0.9) / (1 - 0.9 ** 1)
        expected = np.array([raw0, raw1]) * 2 / (raw0 + raw1)
        w = cb_effective_weights(prior_from_counts([10, 1]), 0.9)
        np.testing.assert_allclose(w, expected, rtol=1e-12)
        assert (1 - 0.9 ** 10) / 0.1 == pytest.approx(6.5132156, rel=1e-6)

    def test_symmetric_counts(self):
        w = cb_effective_weights(prior_from_counts([5, 5]), 0.42)
        np.testing.assert_allclose(w, 1.0)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            cb_effective_weights(prior_from_counts([5, 0]), 0.9)

    def test_beta_out_of_range(self):
        with pytest.raises(ValueError):
            cb_effective_weights(prior_from_counts([5, 5]), 1.0)

    @settings(max_examples=100, deadline=None)
    @given(counts_lists.filter(lambda c: min(c) >= 1), st.floats(min_value=0.0, max_value=0.999))
    def test_normalization(self, counts, beta_cb):
        p = prior_from_counts(counts)
        w = cb_effective_weights(p, beta_cb)
        assert abs(w.sum() - p.num_classes) < 1e-12


class TestRequiredAuxSize:
    def brute_force_balanced(self, counts, aux_size, gammas):
        totals = np.asarray(counts) + aux_size * gammas
        return totals.max() - totals.min()

    def test_mcd_two_class(self):
        p = prior_from_counts([3, 1])
        m = required_aux_size(p, 0.75)
        assert m == 2
        assert self.brute_force_balanced([3, 1], m, mcd(p)) == pytest.approx(0.0)

    def test_alpha_one(self):
        p = prior_from_counts([3, 1])
        m = required_aux_size(p, 1.0)
        assert m == 4
        gam = complementary(p, 1.0)
        assert self.brute_force_balanced([3, 1], m, gam) == pytest.approx(0.0)

    def test_already_balanced(self):
        p = prior_from_counts([4, 4, 4, 4])
        assert required_aux_size(p, 0.25) == 0

    def test_mcd_minimizes_over_alpha(self):
        p = prior_from_counts([6, 3, 1])
        m_mcd = required_aux_size(p, p.max_beta)
        for bump in (0.01, 0.1, 0.5, 2.0):
            assert required_aux_size(p, p.max_beta + bump) >= m_mcd

    @settings(max_examples=100, deadline=None)
    @given(counts_lists.filter(lambda c: min(c) >= 1), st.floats(min_value=1e-3, max_value=2.0))
    def test_residual_imbalance_below_one(self, counts, bump):
        p = prior_from_counts(counts)
        alpha = p.max_beta + bump
        m = required_aux_size(p, alpha)
        gam = complementary(p, alpha)
        # ceil slack is < 1 auxiliary instance spread over the classes
        assert self.brute_force_balanced(counts, m, gam) <= 1.0 + 1e-9


class TestMixedPrior:
    def test_zero_aux_identity(self):
        p = prior_from_counts([3, 1])
        np.testing.assert_array_equal(mixed_prior(p, mcd(p), 0), p.betas)

    def test_count_arithmetic(self):
        p = prior_from_counts([3, 1])
        np.testing.assert_allclose(mixed_prior(p, mcd(p), 2), [0.5, 0.5])
        np.testing.assert_allclose(mixed_prior(p, complementary(p, 1e9), 4), [0.625, 0.375], atol=1e-8)

    @settings(max_examples=100, deadline=None)
    @given(counts_lists.filter(lambda c: min(c) >= 1), st.floats(min_value=1e-3, max_value=2.0))
    def test_balance_identity(self, counts, bump):
        p = prior_from_counts(counts)
        alpha = p.max_beta + bump
        m = p.total * (p.num_classes * alpha - 1.0)
        mixed = mixed_prior(p, complementary(p, alpha), m)
        assert np.abs(mixed - 1.0 / p.num_classes).max() <= p.num_classes / (p.total + m)


# Counts with no empty class, alpha's distance above max beta, and a positive eta.
loss_prior_cases = st.tuples(
    st.lists(st.integers(min_value=1, max_value=1000), min_size=2, max_size=12),
    st.floats(min_value=1e-3, max_value=2.0),
    st.floats(min_value=0.01, max_value=20.0),
)


def _complementary_case(counts, bump):
    p = prior_from_counts(counts)
    alpha = p.max_beta + bump
    return p, alpha, complementary(p, alpha)


class TestLossPrior:
    @settings(max_examples=100, deadline=None)
    @given(loss_prior_cases)
    def test_unit_omegas_at_aux_ratio_give_mixed_prior(self, case):
        counts, bump, _ = case
        p, alpha, gam = _complementary_case(counts, bump)
        m = required_aux_size(p, alpha)
        got = loss_prior(p, gam, np.ones(p.num_classes), m / p.total)
        np.testing.assert_allclose(got, mixed_prior(p, gam, m), rtol=0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(loss_prior_cases)
    def test_unit_omegas_at_balancing_eta_are_uniform(self, case):
        # beta + (K alpha - 1) Gamma = alpha in every class.
        counts, bump, _ = case
        p, alpha, gam = _complementary_case(counts, bump)
        got = loss_prior(p, gam, np.ones(p.num_classes), p.num_classes * alpha - 1.0)
        np.testing.assert_allclose(got, 1.0 / p.num_classes, rtol=0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(loss_prior_cases)
    def test_zero_eta_gives_the_prior(self, case):
        counts, bump, _ = case
        p, _, gam = _complementary_case(counts, bump)
        np.testing.assert_allclose(loss_prior(p, gam, weights_from_probabilities(gam), 0.0), p.betas,
                                   rtol=0, atol=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=1, max_value=1000), loss_prior_cases)
    def test_engine_omegas_keep_a_uniform_prior_uniform(self, k, count, case):
        _, bump, eta = case
        p, _, gam = _complementary_case([count] * k, bump)
        np.testing.assert_allclose(loss_prior(p, gam, weights_from_probabilities(gam), eta), 1.0 / k,
                                   rtol=0, atol=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(loss_prior_cases.filter(lambda case: len(set(case[0])) >= 3))
    def test_engine_omegas_never_flatten_three_distinct_counts(self, case):
        # With omega = K Gamma the mass beta_j + eta K Gamma_j^2 is a strictly
        # convex quadratic in beta_j (Gamma_j is affine in it), so it takes no
        # value at more than two distinct betas.
        counts, bump, eta = case
        p, _, gam = _complementary_case(counts, bump)
        got = loss_prior(p, gam, weights_from_probabilities(gam), eta)
        assert got.max() > got.min()

    @pytest.mark.parametrize("counts,alpha", [([3, 1], 0.75), ([3, 1], 2.0), ([9, 2], 1.0)])
    def test_engine_omegas_flatten_two_classes_at_one_eta(self, counts, alpha):
        # Two values can lie on both sides of the quadratic's vertex: at K = 2
        # the mass is the same in both classes at eta = (2 alpha - 1) / 2.
        p = prior_from_counts(counts)
        gam = complementary(p, alpha)
        got = loss_prior(p, gam, weights_from_probabilities(gam), (2.0 * alpha - 1.0) / 2.0)
        np.testing.assert_allclose(got, 0.5, rtol=0, atol=1e-15)

    def test_negative_eta_refused(self):
        p = prior_from_counts([3, 1])
        with pytest.raises(ValueError, match="^eta must be non-negative"):
            loss_prior(p, mcd(p), np.ones(2), -0.5)


@pytest.mark.parametrize(
    "name,call",
    [("alpha", complementary),
     ("alpha", required_aux_size),
     ("aux_size", lambda p, v: mixed_prior(p, mcd(p), v)),
     ("eta", lambda p, v: loss_prior(p, mcd(p), np.ones(2), v))],
    ids=["complementary", "required_aux_size", "mixed_prior", "loss_prior"],
)
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_refused(name, call, value):
    with pytest.raises(ValueError, match=f"^{name}"):
        call(prior_from_counts([3, 1]), value)


class TestLabelDistributionKind:
    def test_tags_resolve(self):
        p = prior_from_counts([500, 158, 50, 16, 5])
        for kind in (
            LabelDistributionKind("complementary"),
            LabelDistributionKind("complementary", alpha=2.0),
            LabelDistributionKind("mcd"),
            LabelDistributionKind("uniform"),
            LabelDistributionKind("class-balanced"),
            LabelDistributionKind("original-prior"),
            LabelDistributionKind("fixed-class"),
        ):
            dist = label_distribution(kind, p)
            assert dist.shape == (5,)
            assert abs(dist.sum() - 1.0) < 1e-9
            assert np.all(dist >= 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        counts_lists,
        st.floats(min_value=1e-6, max_value=3.0),
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        st.integers(min_value=0, max_value=19),
    )
    def test_every_tag_on_simplex(self, counts, bump, beta_cb, index):
        p = prior_from_counts(counts)
        k = p.num_classes
        # The effective number needs every class present unless beta_cb = 0.
        beta_cb = beta_cb if np.all(p.counts > 0) else 0.0
        kinds = (
            LabelDistributionKind("complementary"),
            LabelDistributionKind("complementary", alpha=p.max_beta + bump),
            LabelDistributionKind("mcd"),
            LabelDistributionKind("uniform"),
            LabelDistributionKind("class-balanced", beta_cb=beta_cb),
            LabelDistributionKind("original-prior"),
            LabelDistributionKind("fixed-class"),
            LabelDistributionKind("fixed-class", class_index=index % k),
        )
        assert {kind.tag for kind in kinds} == {
            "complementary", "mcd", "uniform", "class-balanced", "original-prior", "fixed-class"
        }
        for kind in kinds:
            dist = label_distribution(kind, p)
            assert dist.shape == (k,)
            assert np.all(np.isfinite(dist)) and np.all(dist >= 0.0)
            assert abs(dist.sum() - 1.0) < 1e-9

    def test_original_prior_is_betas(self):
        p = prior_from_counts([3, 1])
        np.testing.assert_array_equal(
            label_distribution(LabelDistributionKind("original-prior"), p), p.betas
        )

    def test_fixed_class_defaults_to_smallest(self):
        p = prior_from_counts([500, 158, 50, 16, 5])
        np.testing.assert_array_equal(
            label_distribution(LabelDistributionKind("fixed-class"), p), [0, 0, 0, 0, 1]
        )

    def test_class_balanced_inverse_regime(self):
        # With beta_cb near 1 the distribution should be strongly inverse.
        p = prior_from_counts([500, 158, 50, 16, 5])
        dist = label_distribution(LabelDistributionKind("class-balanced", beta_cb=DEFAULT_BETA_CB), p)
        assert np.all(np.diff(dist) > 0)

    def test_class_balanced_resolves_its_default_beta_cb(self):
        # Two spellings of one distribution are one kind, so a sweep grid
        # cannot hold both as different values.
        kind = LabelDistributionKind("class-balanced")
        assert kind.beta_cb == DEFAULT_BETA_CB
        assert kind == LabelDistributionKind("class-balanced", beta_cb=DEFAULT_BETA_CB)
        assert kind != LabelDistributionKind("class-balanced", beta_cb=0.9)
        assert LabelDistributionKind("complementary").alpha is None

    def test_uniform_flatter_than_cb(self):
        # The complementary distribution sits closer to uniform than CB does.
        p = prior_from_counts([500, 158, 50, 16, 5])
        comp = label_distribution(LabelDistributionKind("complementary"), p)
        cb = label_distribution(LabelDistributionKind("class-balanced"), p)
        assert np.abs(comp - 0.2).max() < np.abs(cb - 0.2).max()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tag": "nope"},
            {"tag": "uniform", "alpha": 1.0},
            {"tag": "complementary", "beta_cb": 0.5},
            {"tag": "class-balanced", "beta_cb": 1.5},
            {"tag": "uniform", "class_index": 0},
        ],
    )
    def test_invalid_kinds(self, kwargs):
        with pytest.raises(ValueError):
            LabelDistributionKind(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"tag": "fixed-class", "class_index": 1.5}, "class_index must be an integer or None, got 1.5"),
        ({"tag": "fixed-class", "class_index": True}, "class_index must be an integer or None, got True"),
        ({"tag": "complementary", "alpha": "2.0"}, "alpha must be a number or None, got '2.0'"),
        ({"tag": "complementary", "alpha": False}, "alpha must be a number or None, got False"),
        ({"tag": "class-balanced", "beta_cb": "0.9"}, "beta_cb must be a number or None, got '0.9'"),
    ], ids=["class_index-float", "class_index-bool", "alpha-string", "alpha-bool", "beta_cb-string"])
    def test_wrong_type_refused(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LabelDistributionKind(**kwargs)

    def test_integers_stand_in_for_numbers(self):
        p = prior_from_counts([3, 1])
        kind = LabelDistributionKind("complementary", alpha=2)
        np.testing.assert_array_equal(label_distribution(kind, p), complementary(p, 2.0))
        index = LabelDistributionKind("fixed-class", class_index=np.int64(0))
        np.testing.assert_array_equal(label_distribution(index, p), [1.0, 0.0])


def test_mixed_prior_refuses_negative_aux_size():
    prior = prior_from_counts([5, 3, 1])
    with pytest.raises(ValueError, match="^aux_size must be non-negative$"):
        mixed_prior(prior, np.full(3, 1 / 3), -1.0)
