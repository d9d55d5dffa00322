import math

import numpy as np
import pytest

from open_rebalance.data import LabeledDataset
from open_rebalance.metrics import (
    accuracy,
    aupr,
    auroc,
    fpr_at_95_tpr,
    group_accuracy,
    msp_scores,
)
from open_rebalance.nn import MlpParams, init_params


from sweep_oracles import pairwise_auroc, random_score_sets, sweep_aupr, sweep_fpr95


def constant_model(logit_rows):
    # One fixed logit vector per input via zero weights and bias = logits.
    logits = np.asarray(logit_rows, dtype=np.float64)
    return MlpParams(layers=((np.zeros((1, logits.shape[0])), logits),))


class TestAccuracy:
    def test_perfect_predictor(self):
        rng = np.random.default_rng(0)
        params = init_params(2, 0, 2, rng)
        w = np.array([[10.0, -10.0], [-10.0, 10.0]])
        params = MlpParams(layers=((w, np.zeros(2)),))
        ds = LabeledDataset(
            features=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),
            labels=np.array([0, 1, 0]),
            num_classes=2,
        )
        rep = accuracy(params, ds)
        assert rep.overall_acc == 1.0
        np.testing.assert_array_equal(rep.per_class_acc, [1.0, 1.0])

    def test_constant_predictor_balanced(self):
        params = constant_model([1.0] + [0.0] * 9)
        ds = LabeledDataset(
            features=np.zeros((100, 1)),
            labels=np.repeat(np.arange(10), 10),
            num_classes=10,
        )
        rep = accuracy(params, ds)
        assert rep.overall_acc == pytest.approx(0.1)

    def test_counting(self):
        params = constant_model([1.0, 0.0])
        ds = LabeledDataset(
            features=np.zeros((4, 1)), labels=np.array([0, 1, 0, 1]), num_classes=2
        )
        rep = accuracy(params, ds)
        assert rep.overall_acc == 0.5
        np.testing.assert_array_equal(rep.per_class_acc, [1.0, 0.0])

    def test_empty_class_absent(self):
        params = constant_model([1.0, 0.0, 0.0])
        ds = LabeledDataset(
            features=np.zeros((2, 1)), labels=np.array([0, 0]), num_classes=3
        )
        rep = accuracy(params, ds)
        assert math.isnan(rep.per_class_acc[1]) and math.isnan(rep.per_class_acc[2])

    def test_balanced_average_identity(self):
        rng = np.random.default_rng(1)
        params = init_params(3, 4, 4, rng)
        ds = LabeledDataset(
            features=rng.standard_normal((40, 3)),
            labels=np.repeat(np.arange(4), 10),
            num_classes=4,
        )
        rep = accuracy(params, ds)
        assert rep.per_class_acc.mean() == pytest.approx(rep.overall_acc, abs=1e-12)


class TestMspScores:
    def test_uniform(self):
        params = constant_model([0.0] * 10)
        np.testing.assert_allclose(msp_scores(params, np.zeros((3, 1))), 0.1)

    def test_saturated(self):
        params = constant_model([10.0, -10.0])
        assert msp_scores(params, np.zeros((1, 1)))[0] > 0.9999

    def test_two_logit_value(self):
        params = constant_model([1.0, 0.0])
        expected = 1.0 / (1.0 + math.exp(-1.0))
        assert msp_scores(params, np.zeros((1, 1)))[0] == pytest.approx(expected, rel=1e-12)


class TestFpr95:
    def test_perfect_separation(self):
        assert fpr_at_95_tpr([1.0] * 100, [0.0] * 100) == 0.0

    def test_identical_multisets(self):
        scores = list(np.linspace(0, 1, 40))
        assert fpr_at_95_tpr(scores, scores) >= 0.95

    def test_sweep_oracle_small(self):
        in_scores = list(np.linspace(0.9, 0.0, 10))
        out_scores = [0.85, 0.05]
        assert fpr_at_95_tpr(in_scores, out_scores) == sweep_fpr95(in_scores, out_scores)

    def test_bounds(self):
        assert fpr_at_95_tpr([3.0, 2.0], [1.0, 0.0]) == 0.0
        assert fpr_at_95_tpr([0.0, 1.0], [2.0, 3.0]) == 1.0

    @pytest.mark.parametrize("tpr", [0.95, 1.5, float("nan")])
    def test_tpr_is_fixed(self, tpr):
        # The rate is fixed at 0.95; no third argument is taken, 0.95 included.
        assert fpr_at_95_tpr([1, 2, 3], [0, 1, 2, 3]) == 0.75
        with pytest.raises(TypeError):
            fpr_at_95_tpr([1, 2, 3], [0, 1, 2, 3], tpr)
        with pytest.raises(TypeError):
            fpr_at_95_tpr([1, 2, 3], [0, 1, 2, 3], tpr=tpr)

    def test_matches_sweep_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            ins, outs = random_score_sets(rng)
            assert fpr_at_95_tpr(ins, outs) == pytest.approx(
                sweep_fpr95(list(ins), list(outs)), abs=1e-12
            )


class TestAuroc:
    def test_perfect(self):
        assert auroc([1.0, 0.9], [0.1, 0.2]) == 1.0

    def test_identical(self):
        assert auroc([0.5, 0.5], [0.5, 0.5]) == 0.5

    def test_enumerated_pairs(self):
        assert auroc([0.9, 0.7], [0.8, 0.1]) == 0.75

    def test_symmetry_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            ins, outs = random_score_sets(rng)
            assert auroc(ins, outs) + auroc(outs, ins) == pytest.approx(1.0, abs=1e-12)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            ins, outs = random_score_sets(rng)
            assert auroc(ins, outs) == pytest.approx(pairwise_auroc(ins, outs), abs=1e-12)


class TestAupr:
    def test_perfect_separation(self):
        assert aupr([0.9, 0.8], [0.1, 0.2], positive="out") == 1.0
        assert aupr([0.9, 0.8], [0.1, 0.2], positive="in") == 1.0

    def test_no_skill_baseline(self):
        rng = np.random.default_rng(5)
        ins = rng.random(4000)
        outs = rng.random(1000)
        prevalence = 1000 / 5000
        assert aupr(ins, outs, positive="out") == pytest.approx(prevalence, abs=0.03)

    def test_example_against_sweep(self):
        ins = [0.9, 0.7]
        outs = [0.8, 0.1]
        expected = sweep_aupr([-s for s in outs], [-s for s in ins])
        assert aupr(ins, outs, positive="out") == pytest.approx(expected, abs=1e-12)

    def test_matches_sweep_oracle_both_conventions(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            ins, outs = random_score_sets(rng)
            got_out = aupr(ins, outs, positive="out")
            want_out = sweep_aupr([-s for s in outs], [-s for s in ins])
            assert got_out == pytest.approx(want_out, abs=1e-12)
            got_in = aupr(ins, outs, positive="in")
            want_in = sweep_aupr(list(ins), list(outs))
            assert got_in == pytest.approx(want_in, abs=1e-12)

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            aupr([1.0], [0.0], positive="sideways")


DETECTION_METRICS = (fpr_at_95_tpr, auroc, aupr)


class TestScoreSets:
    # The three detection metrics share one check of their inputs.
    @pytest.mark.parametrize("metric", DETECTION_METRICS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("side", ["in_scores", "out_scores"])
    def test_nan_refused_naming_its_set(self, metric, side):
        sets = {"in_scores": [0.9, 0.8, 0.7], "out_scores": [0.2, 0.1]}
        sets[side] = sets[side][:1] + [math.nan] + sets[side][1:]
        with pytest.raises(ValueError, match=f"^{side} holds a NaN$"):
            metric(sets["in_scores"], sets["out_scores"])

    @pytest.mark.parametrize("metric", DETECTION_METRICS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("side", ["in_scores", "out_scores"])
    def test_empty_refused_naming_its_set(self, metric, side):
        sets = {"in_scores": [0.9], "out_scores": [0.1], side: []}
        with pytest.raises(ValueError, match=f"^{side} is empty$"):
            metric(sets["in_scores"], sets["out_scores"])

    def test_infinities_still_order(self):
        ins, outs = [math.inf, 0.9, 0.8], [0.2, -math.inf]
        assert fpr_at_95_tpr(ins, outs) == 0.0
        assert auroc(ins, outs) == 1.0
        assert aupr(ins, outs, positive="out") == aupr(ins, outs, positive="in") == 1.0
        assert auroc([math.inf], [math.inf]) == 0.5


class TestMonotoneInvariance:
    TRANSFORMS = (
        lambda x: 2.0 * x + 3.0,
        lambda x: x ** 3,
        lambda x: np.expm1(x),
    )

    def test_all_metrics_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            ins, outs = random_score_sets(rng)
            base = (
                fpr_at_95_tpr(ins, outs),
                auroc(ins, outs),
                aupr(ins, outs, positive="out"),
            )
            for t in self.TRANSFORMS:
                same = (
                    fpr_at_95_tpr(t(np.asarray(ins)), t(np.asarray(outs))),
                    auroc(t(np.asarray(ins)), t(np.asarray(outs))),
                    aupr(t(np.asarray(ins)), t(np.asarray(outs)), positive="out"),
                )
                assert same == base


class TestGroupAccuracy:
    def test_single_bucket(self):
        groups = group_accuracy([0.5, 0.7], [500, 600], thresholds=(20, 100))
        assert groups["many"] == pytest.approx(0.6)
        assert groups["medium"] is None and groups["few"] is None

    def test_split_many_few(self):
        groups = group_accuracy([0.9, 0.1], [5000, 50], thresholds=(20, 100))
        assert groups["many"] == pytest.approx(0.9)
        assert groups["medium"] == pytest.approx(0.1)

    def test_constant_accuracy(self):
        groups = group_accuracy([0.4, 0.4, 0.4], [500, 50, 5], thresholds=(20, 100))
        assert groups["many"] == groups["medium"] == groups["few"] == pytest.approx(0.4)

    def test_nan_entries_skipped(self):
        groups = group_accuracy([0.8, float("nan")], [5, 6], thresholds=(20, 100))
        assert groups["few"] == pytest.approx(0.8)

    def test_mismatched_lengths_refused(self):
        with pytest.raises(ValueError, match="^per_class_acc has length 3 but counts has length 2$"):
            group_accuracy([0.5, 0.6, 0.7], [10, 200])

    def test_bad_thresholds(self):
        with pytest.raises(ValueError):
            group_accuracy([0.5], [10], thresholds=(100, 20))


def test_accuracy_refuses_mismatched_class_counts():
    params = init_params(2, 0, 3, np.random.default_rng(0))
    dataset = LabeledDataset(features=np.zeros((2, 2)), labels=np.array([0, 1]), num_classes=2)
    with pytest.raises(ValueError, match="^dataset and model disagree on the number of classes$"):
        accuracy(params, dataset)
