import numpy as np
import pytest

from open_rebalance.oracle import (
    BLOCK,
    TIE_BAND,
    DiscreteJoint,
    OodMarginal,
    bayes_predict,
    flipped_instances,
    mix,
    random_case,
    rebalance_curve,
    bayes_invariance_check,
    bayes_invariance_checks,
    toxicity_count,
    toxicity_counts,
)
from open_rebalance.priors import complementary, prior_from_counts, required_aux_size


def random_joint(rng, s, k):
    table = rng.random((s, k))
    return DiscreteJoint(table=table / table.sum())


def ref_predict(table, x):
    # The per-instance banded argmax, one row at a time.
    row = table[x]
    mass = row.sum()
    if mass <= 0.0:
        raise ValueError(f"instance {x} has zero mass: posterior undefined")
    post = row / mass
    top = post.max()
    return int(np.nonzero(post >= top - TIE_BAND * max(1.0, top))[0][0])


def ref_flips(source, mixed):
    return [
        int(x)
        for x in source.support()
        if ref_predict(mixed.table, int(x)) != ref_predict(source.table, int(x))
    ]


def ref_toxicity(source, mixed):
    px_source = source.instance_marginal()
    flips = ref_flips(source, mixed)
    mass = 0.0
    for x in flips:
        mass += float(px_source[x])
    return len(flips), mass


def ref_toxicity_case(case):
    source, ood, n, m = case
    return ref_toxicity(source, mix(source, ood, n, m))


class TestBayesPredict:
    def test_direct_argmax(self):
        joint = DiscreteJoint(table=np.array([[0.3, 0.1], [0.25, 0.35]]))
        assert bayes_predict(joint, 0) == 0
        assert bayes_predict(joint, 1) == 1

    def test_tie_to_lowest(self):
        joint = DiscreteJoint(table=np.array([[0.2, 0.2], [0.3, 0.3]]))
        assert bayes_predict(joint, 0) == 0

    def test_zero_mass_rejected(self):
        joint = DiscreteJoint(table=np.array([[0.0, 0.0], [0.5, 0.5]]))
        with pytest.raises(ValueError):
            bayes_predict(joint, 0)

    def test_equals_renormalized_posterior_argmax(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            joint = random_joint(rng, int(rng.integers(2, 12)), int(rng.integers(2, 8)))
            for x in range(joint.support_size):
                row = joint.table[x]
                posterior = row / row.sum()
                assert bayes_predict(joint, x) == int(np.argmax(posterior))

    def test_equals_likelihood_times_prior(self):
        # Bayes rule: argmax_y P(x,y) = argmax_y P(x|y) P(y).
        rng = np.random.default_rng(1)
        for _ in range(200):
            joint = random_joint(rng, int(rng.integers(2, 12)), int(rng.integers(2, 8)))
            py = joint.label_marginal()
            cond = joint.table / py
            for x in range(joint.support_size):
                assert bayes_predict(joint, x) == int(np.argmax(cond[x] * py))


class TestMix:
    def test_zero_aux_weight(self):
        rng = np.random.default_rng(2)
        joint = random_joint(rng, 5, 3)
        ood = OodMarginal(px=np.full(5, 0.2), py=np.full(3, 1 / 3))
        np.testing.assert_array_equal(mix(joint, ood, 2.0, 0.0).table, joint.table)

    def test_pure_ood_is_product(self):
        px = np.array([0.5, 0.3, 0.2])
        py = np.array([0.9, 0.1])
        source = DiscreteJoint(table=np.array([[0.5, 0.5], [0.0, 0.0], [0.0, 0.0]]) / 1.0)
        mixed = mix(source, OodMarginal(px=px, py=py), 0.0, 3.0)
        np.testing.assert_allclose(mixed.table, np.outer(px, py))

    def test_uniform_labels_add_per_instance_constant(self):
        rng = np.random.default_rng(3)
        joint = random_joint(rng, 6, 4)
        px = rng.random(6)
        px /= px.sum()
        mixed = mix(joint, OodMarginal(px=px, py=np.full(4, 0.25)), 1.0, 1.0)
        shift = mixed.table - 0.5 * joint.table
        assert np.abs(shift - shift[:, :1]).max() < 1e-15

    def test_extended_support(self):
        joint = DiscreteJoint(table=np.array([[0.6, 0.4]]))
        px = np.array([0.0, 1.0])
        mixed = mix(joint, OodMarginal(px=px, py=np.array([0.5, 0.5])), 1.0, 1.0)
        assert mixed.support_size == 2
        assert abs(mixed.table.sum() - 1.0) < 1e-12

    def test_invalid_weights(self):
        joint = DiscreteJoint(table=np.array([[1.0, 0.0]]))
        ood = OodMarginal(px=np.array([1.0]), py=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            mix(joint, ood, 0.0, 0.0)


class TestBayesInvariance:
    def test_random_cases_never_flip(self):
        rng = np.random.default_rng(4)
        for i in range(300):
            source, px, n, m = random_case(rng, disjoint=bool(i % 2))
            ok, violations = bayes_invariance_check(source, px, n, m)
            assert ok, f"case {i} flipped instances {violations}"

    def test_zero_mixture_vacuous(self):
        rng = np.random.default_rng(5)
        source = random_joint(rng, 4, 3)
        ok, violations = bayes_invariance_check(source, np.full(4, 0.25), 1.0, 0.0)
        assert ok and violations == []

    def test_tie_preserved(self):
        source = DiscreteJoint(table=np.array([[0.25, 0.25], [0.25, 0.25]]))
        assert bayes_predict(source, 0) == 0
        ok, _ = bayes_invariance_check(source, np.array([0.9, 0.1]), 1.0, 10.0)
        assert ok


class TestToxicity:
    def test_uniform_labels_nontoxic(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            source, px, n, m = random_case(rng)
            ood = OodMarginal(px=np.asarray(px), py=np.full(source.num_classes, 1.0 / source.num_classes))
            assert toxicity_count(source, ood, n, m) == (0, 0.0)

    def test_constructed_flip(self):
        source = DiscreteJoint(table=np.array([[0.45, 0.05], [0.05, 0.45]]))
        ood = OodMarginal(px=np.array([0.5, 0.5]), py=np.array([0.0, 1.0]))
        flipped, mass = toxicity_count(source, ood, 1.0, 10.0)
        assert flipped == 1
        assert mass == pytest.approx(0.5)

    def test_no_mixing_no_toxicity(self):
        source = DiscreteJoint(table=np.array([[0.45, 0.05], [0.05, 0.45]]))
        ood = OodMarginal(px=np.array([0.5, 0.5]), py=np.array([0.0, 1.0]))
        assert toxicity_count(source, ood, 1.0, 0.0) == (0, 0.0)

    def test_monotone_in_aux_weight(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            source, px, n, _ = random_case(rng)
            target = int(rng.integers(0, source.num_classes))
            py = np.zeros(source.num_classes)
            py[target] = 1.0
            ood = OodMarginal(px=np.asarray(px), py=py)
            masses = [toxicity_count(source, ood, n, m)[1] for m in (0.1, 1.0, 10.0, 100.0)]
            assert all(b >= a - 1e-15 for a, b in zip(masses, masses[1:]))


class TestRebalanceCurve:
    def _setup(self):
        rng = np.random.default_rng(8)
        prior = prior_from_counts([500, 158, 50, 16, 5])
        cond = rng.random((12, 5))
        cond /= cond.sum(axis=0, keepdims=True)
        source = DiscreteJoint(table=cond * prior.betas)
        px = rng.random(12)
        return prior, source, px / px.sum()

    def test_zero_aux_column(self):
        prior, source, px = self._setup()
        rows = rebalance_curve(source, prior, px, [1.0], [0])
        assert rows[0].flipped_count == 0 and rows[0].flipped_mass == 0.0
        assert rows[0].prior_ratio == pytest.approx(500 / 5)

    def test_uniform_limit_row(self):
        prior, source, px = self._setup()
        alpha = 1e9
        m = 2000
        rows = rebalance_curve(source, prior, px, [alpha], [m])
        assert rows[0].flipped_mass == 0.0
        diluted = (prior.counts + m / 5.0) / (prior.total + m)
        assert rows[0].prior_ratio == pytest.approx(diluted.max() / diluted.min(), rel=1e-6)

    def test_balance_point_flattens(self):
        prior, source, px = self._setup()
        alpha = prior.max_beta
        m = required_aux_size(prior, alpha)
        rows = rebalance_curve(source, prior, px, [alpha], [m])
        assert rows[0].prior_ratio == pytest.approx(1.0, abs=1e-2)

    def test_empty_grid_rejected(self):
        prior, source, px = self._setup()
        with pytest.raises(ValueError):
            rebalance_curve(source, prior, px, [], [1])


class TestVectorizedOracle:
    """The whole-support flip mask against the per-instance reference loops."""

    def test_random_cases_match_reference(self):
        rng = np.random.default_rng(12)
        toxic = many_flips = 0
        for i in range(400):
            source, px, n, m = random_case(rng, disjoint=bool(i % 2))
            k = source.num_classes
            uniform = mix(source, OodMarginal(px=px, py=np.full(k, 1.0 / k)), n, m)
            ok, violations = bayes_invariance_check(source, px, n, m)
            assert violations == ref_flips(source, uniform) and ok == (violations == [])
            one_hot = np.zeros(k)
            one_hot[int(rng.integers(0, k))] = 1.0
            ood = OodMarginal(px=np.asarray(px), py=one_hot)
            for scale in (1.0, 100.0):
                mixed = mix(source, ood, n, m * scale)
                want = ref_toxicity(source, mixed)
                got = toxicity_count(source, ood, n, m * scale)
                assert type(got[0]) is int and type(got[1]) is float
                # Bitwise equal: the mass is a running total in support order.
                assert got[0] == want[0] and got[1].hex() == want[1].hex(), (i, got, want)
                assert flipped_instances(source, mixed).tolist() == ref_flips(source, mixed)
                toxic += want[0] > 0
                many_flips += want[0] >= 8
            for joint in (source, uniform, mixed):
                for x in range(joint.support_size):
                    if joint.table[x].sum() > 0.0:
                        assert bayes_predict(joint, x) == ref_predict(joint.table, x)
        # The comparison is not vacuous; eight or more flipped terms is where
        # a pairwise sum would part from the running total.
        assert toxic > 200 and many_flips > 20

    def test_rebalance_rows_match_reference(self):
        rng = np.random.default_rng(13)
        prior = prior_from_counts([500, 158, 50, 16, 5])
        cond = rng.random((20, 5))
        cond /= cond.sum(axis=0, keepdims=True)
        source = DiscreteJoint(table=cond * prior.betas)
        px = rng.random(20)
        px /= px.sum()
        alphas, sizes = [prior.max_beta, 0.8, 2.0], [0, 500, 20000, 1e6]
        rows = rebalance_curve(source, prior, px, alphas, sizes)
        want = [
            (0, 0.0) if m == 0 else ref_toxicity(source, mix(source, ood, prior.total, m))
            for ood in (OodMarginal(px=px, py=complementary(prior, a).gammas) for a in alphas)
            for m in sizes
        ]
        assert [(r.flipped_count, r.flipped_mass.hex()) for r in rows] == [
            (c, mass.hex()) for c, mass in want
        ]
        assert sum(c for c, _ in want) > 0

    def test_tie_band_edges(self):
        # Row masses are exactly 0.25, so each posterior is the row itself
        # and the score beside the max sits exactly where it was put.
        top = 0.5
        edge = top - TIE_BAND * max(1.0, top)
        at, inside, outside = edge, np.nextafter(edge, 1.0), np.nextafter(edge, 0.0)
        rows = [[x, top, top - x] for x in (at, inside, outside)]
        joint = DiscreteJoint(table=0.25 * np.array(rows + [[top, outside, top - outside]]))
        for x in range(4):
            post = joint.table[x] / joint.table[x].sum()
            np.testing.assert_array_equal(post, 4.0 * joint.table[x])
            assert bayes_predict(joint, x) == ref_predict(joint.table, x)
        assert [bayes_predict(joint, x) for x in range(4)] == [0, 0, 1, 0]

    def test_zero_mass_support_row(self):
        # Pure open-set mass (n = 0) on instance 0 only leaves source-support
        # instances 1 and 2 with no mass in the mixture.
        source = DiscreteJoint(table=np.array([[0.2, 0.1], [0.1, 0.3], [0.2, 0.1]]))
        px = np.array([1.0, 0.0, 0.0])
        ood = OodMarginal(px=px, py=np.array([0.5, 0.5]))
        mixed = mix(source, ood, 0.0, 1.0)
        with pytest.raises(ValueError) as want:
            ref_flips(source, mixed)
        assert str(want.value) == "instance 1 has zero mass: posterior undefined"
        for call in (
            lambda: flipped_instances(source, mixed),
            lambda: bayes_invariance_check(source, px, 0.0, 1.0),
            lambda: toxicity_count(source, ood, 0.0, 1.0),
        ):
            with pytest.raises(ValueError) as got:
                call()
            assert str(got.value) == str(want.value)
        with pytest.raises(ValueError, match="^instance 2 has zero mass: posterior undefined$"):
            bayes_predict(mixed, 2)

    def test_flipped_instances_shape_mismatch_rejected(self):
        source = DiscreteJoint(table=np.array([[0.2, 0.1], [0.1, 0.3], [0.2, 0.1]]))
        for table in ([[0.5, 0.5]], [[0.2, 0.1, 0.0], [0.1, 0.3, 0.0], [0.2, 0.1, 0.0]]):
            with pytest.raises(ValueError, match="must cover the source's instances and classes"):
                flipped_instances(source, DiscreteJoint(table=np.array(table)))

    def test_nan_table_rejected(self):
        with pytest.raises(ValueError, match="sums to nan"):
            DiscreteJoint(table=np.array([[np.nan, 0.5], [0.25, 0.25]]))
        with pytest.raises(ValueError, match="px sums to nan"):
            OodMarginal(px=np.array([np.nan, 1.0]), py=np.array([1.0]))


def uniform_and_one_hot_cases(seed, count):
    """Random overlapping and disjoint cases, each with uniform and one-hot labels."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        source, px, n, m = random_case(rng, disjoint=bool(i % 2))
        one_hot = np.zeros(source.num_classes)
        one_hot[int(rng.integers(0, source.num_classes))] = 1.0
        big = m * 10.0 ** rng.uniform(0, 3)
        cases.append((source, px, n, m, OodMarginal(px=px, py=one_hot), big))
    return cases


class TestBlockedOracle:
    """The blocked entry points against the per-instance reference loops."""

    def test_blocks_match_reference(self):
        cases = uniform_and_one_hot_cases(14, max(2000, 8 * BLOCK) + 7)
        uniform = [(source, px, n, m) for source, px, n, m, _, _ in cases]
        one_hot = [(source, ood, n, big) for source, _, n, _, ood, big in cases]
        checks = bayes_invariance_checks(uniform)
        counts = toxicity_counts(one_hot)
        assert iter(checks) is checks and iter(counts) is counts  # lazy
        checks, counts = list(checks), list(counts)
        assert len(checks) == len(counts) == len(cases) >= 2000
        assert {source.num_classes for source, *_ in cases} >= {8, 9, 10}
        toxic = many_flips = 0
        for i, (source, px, n, m, ood, big) in enumerate(cases):
            k = source.num_classes
            mixed = mix(source, OodMarginal(px=px, py=np.full(k, 1.0 / k)), n, m)
            want = ref_flips(source, mixed)
            assert checks[i] == (want == [], want), i
            mixed = mix(source, ood, n, big)
            flips, mass = ref_toxicity(source, mixed)
            assert type(counts[i][0]) is int and type(counts[i][1]) is float
            # Bitwise equal: the mass is a running total in support order.
            assert (counts[i][0], counts[i][1].hex()) == (flips, mass.hex()), i
            assert flipped_instances(source, mixed).tolist() == ref_flips(source, mixed)
            if i % 8 == 0:
                for joint in (source, mixed):
                    for x in range(joint.support_size):
                        if joint.table[x].sum() > 0.0:
                            assert bayes_predict(joint, x) == ref_predict(joint.table, x)
            toxic += flips > 0
            many_flips += flips >= 8
        # Not vacuous: eight or more flipped terms is where a pairwise sum
        # would part from the running total.
        assert toxic > len(cases) // 3 and many_flips > 200

    @pytest.mark.parametrize("count", [0, 1, BLOCK, BLOCK + 1])
    def test_case_counts(self, count):
        cases = uniform_and_one_hot_cases(15, count)
        one_hot = [(source, ood, n, big) for source, _, n, _, ood, big in cases]
        uniform = [(source, px, n, m) for source, px, n, m, _, _ in cases]
        got = [(c, mass.hex()) for c, mass in toxicity_counts(iter(one_hot))]
        assert got == [(c, mass.hex()) for c, mass in map(ref_toxicity_case, one_hot)]
        assert list(bayes_invariance_checks(iter(uniform))) == [(True, [])] * count

    def test_zero_mass_in_a_middle_case(self):
        # Case 100 of a block leaves instances 1 and 2 without mixed mass;
        # later cases in the block fail other checks, and case 0 opens the
        # two-class group, which the block checks first.
        rng = np.random.default_rng(16)
        good = [random_case(rng, max_classes=2) for _ in range(BLOCK + 5)]
        source = DiscreteJoint(table=np.array([[0.2, 0.1, 0.0], [0.1, 0.3, 0.0], [0.2, 0.1, 0.0]]))
        empty = (source, np.array([1.0, 0.0, 0.0]), 0.0, 1.0)
        bad_px = (good[150][0], np.ones(good[150][0].support_size), 1.0, 1.0)
        cases = good[:100] + [empty] + good[101:150] + [bad_px] + good[151:]
        with pytest.raises(ValueError) as want:
            bayes_invariance_check(*empty)
        assert str(want.value) == "instance 1 has zero mass: posterior undefined"
        seen = []
        with pytest.raises(ValueError) as got:
            for result in bayes_invariance_checks(cases):
                seen.append(result)
        assert str(got.value) == str(want.value) and len(seen) == 100
        uniform = OodMarginal(px=empty[1], py=np.full(3, 1.0 / 3))
        one_hot = [(s, OodMarginal(px=px, py=np.eye(s.num_classes)[0]), n, m) for s, px, n, m in good]
        with pytest.raises(ValueError) as got:
            list(toxicity_counts(one_hot[:100] + [(source, uniform, 0.0, 1.0)] + one_hot[100:]))
        assert str(got.value) == str(want.value)
