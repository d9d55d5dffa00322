import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from open_rebalance import oracle
from open_rebalance.oracle import (
    TIE_BAND,
    DiscreteJoint,
    OodMarginal,
    bayes_predict,
    flipped_instances,
    mix,
    random_case,
    random_invariance_checks,
    random_toxicity_counts,
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
        cases = (random_case(rng, disjoint=bool(i % 2)) for i in range(300))
        for i, (ok, violations) in enumerate(bayes_invariance_checks(cases)):
            assert ok, f"case {i} flipped instances {violations}"
        assert i == 299

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
            for ood in (OodMarginal(px=px, py=complementary(prior, a)) for a in alphas)
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

    def test_flipped_instances_mixed_past_the_source(self):
        # mix() extends the support to px's third instance; only the source's
        # two rows are compared, and row 0 flips to the one-hot class.
        source = DiscreteJoint(table=np.array([[0.45, 0.05], [0.05, 0.45]]))
        ood = OodMarginal(px=np.array([0.25, 0.25, 0.5]), py=np.array([0.0, 1.0]))
        mixed = mix(source, ood, 1.0, 10.0)
        assert mixed.support_size == 3
        assert flipped_instances(source, mixed).tolist() == ref_flips(source, mixed) == [0]

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


def tuple_block(cases):
    """How many of these (source, px, ...) cases the tuple entry points check
    in their first block: until the tables and px hold BLOCK_WORDS entries."""
    words = np.cumsum([case[0].table.size + np.size(case[1]) for case in cases])
    return int(np.searchsorted(words, oracle.BLOCK_WORDS)) + 1


class TestBlockedOracle:
    """The blocked entry points against the per-instance reference loops."""

    def test_blocks_match_reference(self):
        cases = uniform_and_one_hot_cases(14, 2055)
        uniform = [(source, px, n, m) for source, px, n, m, _, _ in cases]
        assert tuple_block(uniform) < len(cases)  # crosses a block boundary
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

    @pytest.mark.parametrize("count", [0, 1, "block", "block + 1"])
    def test_case_counts(self, count):
        # "block" is as many cases as fill the first block.
        cases = uniform_and_one_hot_cases(15, 2500)
        block = tuple_block(cases)
        assert block < len(cases)
        cases = cases[: {"block": block, "block + 1": block + 1}.get(count, count)]
        one_hot = [(source, ood, n, big) for source, _, n, _, ood, big in cases]
        uniform = [(source, px, n, m) for source, px, n, m, _, _ in cases]
        got = [(c, mass.hex()) for c, mass in toxicity_counts(iter(one_hot))]
        assert got == [(c, mass.hex()) for c, mass in map(ref_toxicity_case, one_hot)]
        assert list(bayes_invariance_checks(iter(uniform))) == [(True, [])] * len(cases)

    def test_zero_mass_in_a_middle_case(self):
        # Case 100 of a block leaves instances 1 and 2 without mixed mass;
        # later cases in the block fail other checks, and case 0 opens the
        # two-class group, which the block checks first. Five cases follow
        # in a second block.
        rng = np.random.default_rng(16)
        good = [random_case(rng, max_classes=2) for _ in range(8000)]
        source = DiscreteJoint(table=np.array([[0.2, 0.1, 0.0], [0.1, 0.3, 0.0], [0.2, 0.1, 0.0]]))
        empty = (source, np.array([1.0, 0.0, 0.0]), 0.0, 1.0)
        bad_px = (good[150][0], np.ones(good[150][0].support_size), 1.0, 1.0)
        cases = good[:100] + [empty] + good[101:150] + [bad_px] + good[151:]
        assert tuple_block(cases) < len(cases) - 5
        cases = cases[: tuple_block(cases) + 5]
        good = good[: len(cases)]
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

    def test_ragged_offsets(self):
        # In one three-class group, case 1 comes right after case 0, which
        # has more rows than it and a px longer than its support (10 mixed
        # rows on 6 source rows): an offset counted in mixed rows instead of
        # source rows names the wrong instance, or the wrong case.
        rng = np.random.default_rng(17)
        wide = random_joint(rng, 6, 3)
        wide_px = np.concatenate([np.zeros(6), np.full(4, 0.25)])
        uniform = np.full(3, 1.0 / 3)
        source = DiscreteJoint(table=np.array([[0.2, 0.1, 0.0], [0.1, 0.3, 0.0], [0.2, 0.1, 0.0]]))
        for x, px in ((0, [0.0, 1.0, 0.0]), (1, [1.0, 0.0, 0.0])):  # row 0 opens the case
            block = [(wide, wide_px, uniform, 1.0, 1.0), (source, np.array(px), uniform, 0.0, 1.0)]
            with pytest.raises(ValueError, match=f"^instance {x} has zero mass: posterior undefined$"):
                oracle._check_block(block)
        empty = (source, np.array([1.0, 0.0, 0.0]), 0.0, 1.0)
        seen = []
        with pytest.raises(ValueError, match="^instance 1 has zero mass: posterior undefined$"):
            for result in bayes_invariance_checks([(wide, wide_px, 1.0, 1.0), empty]):
                seen.append(result)
        assert seen == [(True, [])]
        # Case 1 flips its instances 0 and 2 and case 0 none.
        one_hot = np.array([0.0, 0.0, 1.0])
        flipping = DiscreteJoint(table=np.array([[0.3, 0.1, 0.05], [0.05, 0.1, 0.25], [0.05, 0.05, 0.05]]))
        cases = [(wide, OodMarginal(px=wide_px, py=one_hot), 1.0, 1e-3),
                 (flipping, OodMarginal(px=np.full(3, 1.0 / 3), py=one_hot), 1.0, 3.0)]
        got = [(count, mass.hex()) for count, mass in toxicity_counts(cases)]
        want = [(count, mass.hex()) for count, mass in map(ref_toxicity_case, cases)]
        assert got == want and [count for count, _ in got] == [0, 2]
        rows = [rows for rows, _ in oracle._check_block([(s, o.px, o.py, n, m) for s, o, n, m in cases])]
        assert rows == [[], [0, 2]]


def twin_generators(seed, carry):
    """Two generators in one state; with carry, a 32-bit half is carried in."""
    pair = [np.random.default_rng(seed) for _ in range(2)]
    for rng in pair:
        if carry:
            rng.integers(0, 7)
        assert rng.bit_generator.state["has_uint32"] == carry
    return pair


def assert_same_stream(a, b):
    """Equal generator states and equal next integers and random draws."""
    assert a.bit_generator.state == b.bit_generator.state
    assert a.integers(0, 1000, size=5).tolist() == b.integers(0, 1000, size=5).tolist()
    assert np.float64(a.random()).view(np.uint64) == np.float64(b.random()).view(np.uint64)


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def assert_decoded(groups, want):
    """_decoded's groups hold the random_case draws ``want`` bit for bit:
    each case's source rows, support, px and m, in one group per class count."""
    seen = []
    for members, tables, sizes, px, lengths, m in groups:
        assert len(members) == len(sizes) == len(lengths) == len(m)
        assert sizes.sum() == len(tables) and lengths.sum() == len(px)
        sources = np.split(tables, np.cumsum(sizes)[:-1])
        weights = np.split(px, np.cumsum(lengths)[:-1])
        for i, table, weight, mi in zip(members.tolist(), sources, weights, m):
            source, want_px, n, want_m = want[i]
            assert table.shape == source.table.shape and n == 1.0, i
            assert (bits(table) == bits(source.table)).all(), i
            assert bits(weight).tolist() == bits(want_px).tolist(), i
            assert bits(mi) == bits(want_m), i
            seen.append(i)
    assert sorted(seen) == list(range(len(want)))


def rarest_class_cases(rng, count, max_support, max_classes, m_scale):
    """random_case draws with every auxiliary label on the rarest class."""
    cases = []
    for _ in range(count):
        source, px, n, m = random_case(rng, max_support, max_classes)
        py = np.zeros(source.num_classes)
        py[int(np.argmin(source.label_marginal()))] = 1.0
        cases.append((source, OodMarginal(px=px, py=py), n, m * m_scale))
    return cases


# (max_support, max_classes): a range of 2 draws nothing, 3 the least, 20/10
# is the benchmark's shape.
SHAPES = [(2, 2), (2, 10), (20, 2), (3, 3), (20, 10)]
# The random entry points' tests set BLOCK_WORDS to hold PATCHED_BLOCK cases
# at each shape's mean words (1,659 to 16,384 at the module's budget), so the
# counts fill one block and cross into a second at these sizes.
PATCHED_BLOCK = 256
COUNTS = [0, 1, PATCHED_BLOCK, PATCHED_BLOCK + 1]


def patch_block(monkeypatch, max_support, max_classes):
    """Set BLOCK_WORDS so that blocks of random cases at this shape hold PATCHED_BLOCK."""
    monkeypatch.setattr(oracle, "BLOCK_WORDS", PATCHED_BLOCK * oracle._mean_words(max_support, max_classes))


class TestDecodedCases:
    """random_case draws decoded from raw PCG64 words, bit for bit."""

    @pytest.mark.parametrize("count", COUNTS)
    @pytest.mark.parametrize("carry", [False, True], ids=["no-carry", "carry"])
    @pytest.mark.parametrize("max_support,max_classes", SHAPES)
    def test_stacks_equal_random_case(self, max_support, max_classes, carry, count):
        fast, slow = twin_generators(100 * max_support + max_classes, carry)
        disjoint = [i % 3 == 1 for i in range(count)]
        groups = oracle._decoded(fast, max_support, max_classes, disjoint)
        want = [random_case(slow, max_support, max_classes, d) for d in disjoint]
        assert_same_stream(fast, slow)
        assert_decoded(groups, want)
        if count >= PATCHED_BLOCK:  # not vacuous
            assert len({c[0].num_classes for c in want}) == max_classes - 1
            assert len({c[0].support_size for c in want}) == max_support - 1

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.sampled_from([(2, 2), (5000, 100)]) | st.tuples(st.integers(2, 60), st.integers(2, 100)),
        disjoint=st.lists(st.booleans(), max_size=12),
        carry=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_decoded_equals_random_case(self, shape, disjoint, carry, seed):
        max_support, max_classes = shape
        if max_support * max_classes > 10**5:
            disjoint = disjoint[:3]  # up to half a million words a case
        fast, slow = twin_generators(seed, carry)
        before = fast.bit_generator.state
        groups = oracle._decoded(fast, max_support, max_classes, disjoint)
        if groups is None:  # a draw would be redrawn: nothing is decoded or drawn
            assert fast.bit_generator.state == before
            return
        want = [random_case(slow, max_support, max_classes, d) for d in disjoint]
        assert fast.bit_generator.state == slow.bit_generator.state
        assert_decoded(groups, want)

    @pytest.mark.parametrize("span", [7, 3 * 2**30, 2**31 + 1])
    def test_redraws_match_numpy_rejection(self, span):
        # A span near 2**32 makes Lemire's rejection common: numpy redraws
        # exactly when _redraws says so, and otherwise keeps the half.
        rejected = 0
        for seed in range(300):
            words, calls = np.random.default_rng(seed), np.random.default_rng(seed)
            word = int(words.bit_generator.random_raw())
            value = int(calls.integers(0, span))
            half = np.array([word & 0xFFFFFFFF], dtype=np.uint64)
            redraw = oracle._redraws(half, np.array([span], dtype=np.uint64))
            state = words.bit_generator.state
            state["has_uint32"], state["uinteger"] = 1, word >> 32
            assert redraw == (calls.bit_generator.state != state), seed
            if not redraw:
                assert value == ((word & 0xFFFFFFFF) * span) >> 32
            rejected += redraw
        assert (rejected > 30) == (span > 2**30)


class TestRandomEntryPoints:
    """random_invariance_checks and random_toxicity_counts against sequential
    random_case calls checked through the tuple entry points."""

    @pytest.mark.parametrize("count", COUNTS)
    @pytest.mark.parametrize("carry", [False, True], ids=["no-carry", "carry"])
    @pytest.mark.parametrize("max_support,max_classes", SHAPES)
    def test_sections_equal_sequential_calls(self, max_support, max_classes, carry, count, monkeypatch):
        patch_block(monkeypatch, max_support, max_classes)
        fast, slow = twin_generators(100 * max_support + max_classes + 1, carry)
        checks = random_invariance_checks(fast, count, max_support, max_classes)
        assert iter(checks) is checks  # lazy
        draws = (random_case(slow, max_support, max_classes, bool(i % 2)) for i in range(count))
        assert list(checks) == list(bayes_invariance_checks(draws))
        assert_same_stream(fast, slow)
        counts = random_toxicity_counts(fast, count, max_support, max_classes, 30.0)
        want = toxicity_counts(rarest_class_cases(slow, count, max_support, max_classes, 30.0))
        assert [(c, mass.hex()) for c, mass in counts] == [(c, mass.hex()) for c, mass in want]
        assert_same_stream(fast, slow)

    def test_stress_counts_flip(self):
        # The one-hot comparison above is not vacuous at the benchmark's shape.
        counts = [c for c, _ in random_toxicity_counts(np.random.default_rng(3), 256, 20, 10, 100.0)]
        assert sum(c > 0 for c in counts) > 128 and max(counts) >= 8

    def test_replay_when_a_draw_would_be_redrawn(self, monkeypatch):
        calls = []
        draw = oracle.random_case

        def counted(*args, **kwargs):
            calls.append(args)
            return draw(*args, **kwargs)

        monkeypatch.setattr(oracle, "_redraws", lambda halves, spans: True)
        monkeypatch.setattr(oracle, "random_case", counted)
        fast, slow = twin_generators(31, True)
        before = fast.bit_generator.state
        assert oracle._decoded(fast, 20, 10, [False, True]) is None
        assert fast.bit_generator.state == before
        count = oracle.BLOCK_WORDS // oracle._mean_words(12, 9) + 3  # into a second block
        checks = list(random_invariance_checks(fast, count, 12, 9))
        assert checks == list(bayes_invariance_checks(draw(slow, 12, 9, bool(i % 2)) for i in range(count)))
        counts = list(random_toxicity_counts(fast, count, 12, 9, 30.0))
        want = toxicity_counts(rarest_class_cases(slow, count, 12, 9, 30.0))
        assert [(c, mass.hex()) for c, mass in counts] == [(c, mass.hex()) for c, mass in want]
        assert_same_stream(fast, slow)
        assert len(calls) == 2 * count and calls[:2] == [(fast, 12, 9, False), (fast, 12, 9, True)]


# Budgets that give one case per block, a few blocks and one block per section.
BUDGETS = ["one-case", "few", "one-block"]


class TestBlockRule:
    """Blocks hold BLOCK_WORDS raw words or entries, and no block size changes
    a result, an error or the state the generator ends in."""

    @pytest.mark.parametrize("replayed", [False, True], ids=["decoded", "replayed"])
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_random_sections_same_for_any_budget(self, budget, replayed, monkeypatch):
        def sections():
            rng = np.random.default_rng(41)
            checks = list(random_invariance_checks(rng, 150, 12, 9))
            after_checks = rng.bit_generator.state
            counts = [(c, mass.hex()) for c, mass in random_toxicity_counts(rng, 90, 12, 9, 30.0)]
            return checks, after_checks, counts, rng.bit_generator.state

        want = sections()
        few = 40 * oracle._mean_words(12, 9)
        monkeypatch.setattr(oracle, "BLOCK_WORDS", {"one-case": 1, "few": few, "one-block": 2**40}[budget])
        if replayed:
            monkeypatch.setattr(oracle, "_redraws", lambda halves, spans: True)
        assert sections() == want

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_bad_tuple_case_same_for_any_budget(self, budget, monkeypatch):
        rng = np.random.default_rng(42)
        good = [random_case(rng, 12, 9, bool(i % 2)) for i in range(160)]
        source = DiscreteJoint(table=np.array([[0.2, 0.1, 0.0], [0.1, 0.3, 0.0], [0.2, 0.1, 0.0]]))
        empty = (source, np.array([1.0, 0.0, 0.0]), 0.0, 1.0)
        cases = good[:100] + [empty] + good[100:]
        one_hot = [(s, OodMarginal(px=px, py=np.eye(s.num_classes)[0]), n, m) for s, px, n, m in cases]
        words = [c[0].table.size + np.size(c[1]) for c in cases]
        few = sum(words[:60])
        monkeypatch.setattr(oracle, "BLOCK_WORDS", {"one-case": 1, "few": few, "one-block": 2**40}[budget])
        if budget == "few":
            # Blocks of cases 0-59 and 60 on; case 100 is inside the second.
            assert tuple_block(cases) == 60 and tuple_block(cases[60:]) > 41
        seen = []
        with pytest.raises(ValueError, match="^instance 1 has zero mass: posterior undefined$"):
            for result in bayes_invariance_checks(cases):
                seen.append(result)
        assert seen == [bayes_invariance_check(*case) for case in good[:100]]
        seen = []
        with pytest.raises(ValueError, match="^instance 1 has zero mass: posterior undefined$"):
            for count, mass in toxicity_counts(one_hot):
                seen.append((count, mass.hex()))
        assert seen == [(c, mass.hex()) for c, mass in map(toxicity_count, *zip(*one_hot[:100]))]

    def test_memory_bounded_per_block(self):
        # At 2,000/50 a block holds four cases, so 64 cases peak about as high
        # as 8 do; checked in one block, they peak 5-8x as high.
        def peak(cases):
            total = 0
            for seed in range(4):
                tracemalloc.start()
                try:
                    list(random_invariance_checks(np.random.default_rng(seed), cases, 2000, 50))
                    total += tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            return total

        assert oracle.BLOCK_WORDS // oracle._mean_words(2000, 50) == 4
        assert peak(64) < 3 * peak(8)
