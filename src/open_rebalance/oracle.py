"""Exact finite-domain Bayes-mixture calculator.

Verifies that mixing uniformly labeled open-set mass into a discrete joint
distribution never moves the Bayes classifier's argmax on the source support,
and quantifies how much a non-uniform auxiliary label distribution does.
random_invariance_checks and random_toxicity_counts check random_case draws
that are decoded from raw PCG64 words straight into the checking stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .priors import ClassPrior, complementary, mixed_prior

__all__ = [
    "DiscreteJoint",
    "OodMarginal",
    "RebalancePoint",
    "bayes_predict",
    "flipped_instances",
    "mix",
    "bayes_invariance_check",
    "bayes_invariance_checks",
    "toxicity_count",
    "toxicity_counts",
    "rebalance_curve",
    "random_case",
    "random_invariance_checks",
    "random_toxicity_counts",
]

TIE_BAND = 1e-12
# Raw words (or, for tuple cases, table and px entries) per checked block:
# 1 MiB of float64, so a block's memory is bounded whatever the case size.
BLOCK_WORDS = 2**17


@dataclass(frozen=True)
class DiscreteJoint:
    """Exact probability table P(x, y) over a finite instance support."""

    table: np.ndarray

    def __post_init__(self):
        # In C order every row sums as it does in the oracle's padded stacks.
        object.__setattr__(self, "table", np.ascontiguousarray(self.table))
        if self.table.ndim != 2:
            raise ValueError("joint table must be 2-D (instances x classes)")
        if np.any(self.table < 0):
            raise ValueError("joint table entries must be non-negative")
        if not abs(self.table.sum() - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError(f"joint table sums to {self.table.sum()}, expected 1")

    @property
    def support_size(self) -> int:
        return int(self.table.shape[0])

    @property
    def num_classes(self) -> int:
        return int(self.table.shape[1])

    def instance_marginal(self) -> np.ndarray:
        return self.table.sum(axis=1)

    def label_marginal(self) -> np.ndarray:
        return self.table.sum(axis=0)

    def support(self) -> np.ndarray:
        """Indices of instances with positive mass."""
        return np.nonzero(self.instance_marginal() > 0.0)[0]


@dataclass(frozen=True)
class OodMarginal:
    """Product-form open-set distribution: P(x, y) = px(x) * py(y).

    px may extend past the source support (new instance indices).
    """

    px: np.ndarray
    py: np.ndarray

    def __post_init__(self):
        for name, v in (("px", self.px), ("py", self.py)):
            if v.ndim != 1 or np.any(v < 0):
                raise ValueError(f"{name} must be a non-negative vector")
            if not abs(v.sum() - 1.0) <= 1e-12:
                raise ValueError(f"{name} sums to {v.sum()}, expected 1")


def _predict(stack: np.ndarray, live: np.ndarray) -> np.ndarray:
    """Bayes predictions of each row of a (B, S, k) stack, ties within TIE_BAND
    to the lowest class; non-``live`` rows are divided by 1, never by 0."""
    mass = stack.sum(axis=2, keepdims=True)
    empty = live & (mass[..., 0] <= 0.0)
    if empty.any():
        raise ValueError(f"instance {np.argwhere(empty)[0, 1]} has zero mass: posterior undefined")
    post = stack / np.where(live[..., None], mass, 1.0)
    top = post.max(axis=2, keepdims=True)
    return (post >= top - TIE_BAND * np.maximum(1.0, top)).argmax(axis=2)


def _flips(tables: np.ndarray, mixed: np.ndarray) -> list:
    """(source-support rows whose prediction ``mixed`` moves, their mass) per
    case; the mass is a running total in support order, as np.sum is not."""
    mass = tables.sum(axis=2)
    live = mass > 0.0
    flip = live & (_predict(mixed, live) != _predict(tables, live))
    totals = np.add.accumulate(np.where(flip, mass, 0.0), axis=1)[:, -1].tolist()
    counts = flip.sum(axis=1).tolist()
    rows, ends = np.nonzero(flip)[1], np.cumsum(counts).tolist()
    return [(rows[end - c : end], total) for c, end, total in zip(counts, ends, totals)]


def _padded(arrays: list, rows: int) -> np.ndarray:
    """(len(arrays), rows, ...) stack of the arrays, zero-padded along axis 0."""
    out = np.zeros((len(arrays), rows) + arrays[0].shape[1:])
    out[np.arange(rows) < np.array([len(a) for a in arrays])[:, None]] = np.concatenate(arrays)
    return out


def _unit_sums(sums: np.ndarray, what: str) -> None:
    bad = ~(np.abs(sums - 1.0) <= 1e-12)  # NaN fails too
    if bad.any():
        raise ValueError(f"{what} sums to {sums[bad.argmax()]}, expected 1")


def _mixed(tables: np.ndarray, px: np.ndarray, py, n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """mix() of each case of a (B, rows, k) source stack with its (B, rows) px,
    (B, k) py and (B,) weights, after OodMarginal's px and py checks and mix's
    own. py is None when some case's py does not have k entries."""
    if (px < 0).any():
        raise ValueError("px must be a non-negative vector")
    _unit_sums(px.sum(axis=1), "px")
    if ((n < 0) | (m < 0) | (n + m <= 0)).any():
        raise ValueError("need n >= 0, m >= 0, n + m > 0")
    if py is None:
        raise ValueError("py length must match the source class count")
    if (py < 0).any():
        raise ValueError("py must be a non-negative vector")
    _unit_sums(py.sum(axis=1), "py")
    # mix's elementwise formula; a padded entry adds an exact 0.0.
    mixed = (n / (n + m))[:, None, None] * tables
    mixed += (m / (n + m))[:, None, None] * (px[..., None] * py[:, None])
    if (mixed < 0).any():
        raise ValueError("joint table entries must be non-negative")
    _unit_sums(mixed.sum(axis=(1, 2)), "joint table")
    return mixed


def _mixtures(cases: list, k: int):
    """Source and mix() stacks of (source, px, py, n, m) cases with k classes.
    Only the support axis is zero-padded: a padded class would change the
    order of numpy's pairwise row sums."""
    pxs = [np.asarray(c[1], dtype=np.float64) for c in cases]
    if any(px.ndim != 1 for px in pxs):
        raise ValueError("px must be a non-negative vector")
    rows = max(max(c[0].support_size for c in cases), max(len(px) for px in pxs))
    n, m = np.array([c[3:] for c in cases], dtype=np.float64).T
    pys = [c[2] for c in cases]
    py = np.array(pys) if all(p.shape == (k,) for p in pys) else None
    tables = _padded([c[0].table for c in cases], rows)
    return tables, _mixed(tables, _padded(pxs, rows), py, n, m)


def _check_block(block: list) -> list:
    """_flips per (source, px, py, n, m) case of a block, one stack per class count."""
    groups = {}
    for i, case in enumerate(block):
        groups.setdefault(case[0].num_classes, []).append(i)
    out = [None] * len(block)
    for k, members in groups.items():
        tables, mixed = _mixtures([block[i] for i in members], k)
        support = max(block[i][0].support_size for i in members)
        for i, result in zip(members, _flips(tables[:, :support], mixed[:, :support])):
            out[i] = result
    return out


def _blocks(cases):
    """The cases in order, in lists closed once their tables and px hold
    BLOCK_WORDS entries, so each list but the last holds at least that many."""
    block, words = [], 0
    for case in cases:
        block.append(case)
        words += case[0].table.size + np.size(case[1])
        if words >= BLOCK_WORDS:
            yield block
            block, words = [], 0
    if block:
        yield block


def _checked(cases):
    """The oracle core: _check_block over the cases, one _blocks list at a time, lazily."""
    for block in _blocks(cases):
        try:
            results = _check_block(block)
        except ValueError:
            # Case by case, unpadded and so summed as in mix, the first bad
            # case raises its own error.
            results = (_check_block([case])[0] for case in block)
        yield from results


def bayes_predict(joint: DiscreteJoint, x: int) -> int:
    """argmax_y P(x, y), i.e. the Bayes prediction, ties to the lowest class."""
    live = np.zeros((1, joint.support_size), dtype=bool)
    live[0, x] = True
    return int(_predict(joint.table[None], live)[0, x])


def mix(source: DiscreteJoint, ood: OodMarginal, n: float, m: float) -> DiscreteJoint:
    """Weight-(n, m) mixture of the source joint with the product OOD table."""
    case = (source, ood.px, ood.py, n, m)
    return DiscreteJoint(table=_mixtures([case], source.num_classes)[1][0])


def flipped_instances(source: DiscreteJoint, mixed: DiscreteJoint):
    """Source-support instances, in order, whose Bayes prediction ``mixed`` moves."""
    if mixed.support_size < source.support_size or mixed.num_classes != source.num_classes:
        raise ValueError("mixed table must cover the source's instances and classes")
    return _flips(source.table[None], mixed.table[None, : source.support_size])[0][0]


def bayes_invariance_checks(cases):
    """bayes_invariance_check per (source, px, n, m) case, lazily, in order."""
    uniform = ((s, px, np.full(s.num_classes, 1.0 / s.num_classes), n, m) for s, px, n, m in cases)
    return ((rows.size == 0, rows.tolist()) for rows, _ in _checked(uniform))


def bayes_invariance_check(source: DiscreteJoint, px, n: float, m: float):
    """Bayes-invariance check for uniformly labeled open-set mass.

    Returns (ok, violations): ok is True iff every instance in the source
    support keeps its Bayes prediction after mixing with P_out(Y) uniform.
    """
    return next(bayes_invariance_checks([(source, px, n, m)]))


def toxicity_counts(cases):
    """toxicity_count per (source, ood, n, m) case, lazily, in order."""
    stacked = ((source, ood.px, ood.py, n, m) for source, ood, n, m in cases)
    return ((rows.size, mass) for rows, mass in _checked(stacked))


def toxicity_count(source: DiscreteJoint, ood: OodMarginal, n: float, m: float):
    """How many source-support instances flip prediction, and their P_s mass."""
    return next(toxicity_counts([(source, ood, n, m)]))


@dataclass(frozen=True)
class RebalancePoint:
    """One grid point of the rebalancing/toxicity trade-off."""

    alpha: float
    aux_size: float
    prior_ratio: float
    flipped_count: int
    flipped_mass: float


def rebalance_curve(
    source: DiscreteJoint, prior: ClassPrior, px, alphas, aux_sizes
) -> list:
    """Sweep (alpha, m): mixed-prior imbalance ratio vs. Bayes-flip toxicity.

    The auxiliary labels follow the complementary distribution at each alpha;
    the prior supplies the source counts N and betas, which should match the
    label marginal of the source joint.
    """
    alphas = list(alphas)
    aux_sizes = list(aux_sizes)
    if not alphas or not aux_sizes:
        raise ValueError("alpha and m grids must be non-empty")
    px = np.asarray(px, dtype=np.float64)
    grid = []
    for alpha in alphas:
        dist = complementary(prior, float(alpha))
        ood = OodMarginal(px=px, py=dist.gammas)
        for m in aux_sizes:
            mixed = mixed_prior(prior, dist, m)
            low = mixed.min()
            ratio = float(mixed.max() / low) if low > 0 else float("inf")
            grid.append((float(alpha), float(m), ratio, ood))
    flips = toxicity_counts((source, ood, prior.total, m) for _, m, _, ood in grid if m != 0)
    return [
        RebalancePoint(alpha, m, ratio, *((0, 0.0) if m == 0 else next(flips)))
        for alpha, m, ratio, _ in grid
    ]


def random_case(
    rng: np.random.Generator,
    max_support: int = 20,
    max_classes: int = 10,
    disjoint: bool = False,
):
    """Random (source joint, px, n, m) for invariance checks.

    Overlapping cases put px mass on the source support; disjoint cases put
    it only on fresh instance indices. n/m spans [1e-3, 1e3] log-uniformly.
    """
    s = int(rng.integers(2, max_support + 1))
    k = int(rng.integers(2, max_classes + 1))
    table = rng.random((s, k))
    table /= table.sum()
    if disjoint:
        extra = int(rng.integers(1, max_support + 1))
        tail = rng.random(extra)
        px = np.concatenate([np.zeros(s), tail / tail.sum()])
    else:
        px = rng.random(s)
        px /= px.sum()
    n = 1.0
    m = 10.0 ** rng.uniform(-3.0, 3.0)
    return DiscreteJoint(table=table), px, n, m


# random_case's draws, decoded from raw PCG64 words. integers(low, high)
# takes a 32-bit half of a 64-bit word, low half first, carrying the high
# half to the next call, and maps it to low + (half * span) >> 32 unless
# Lemire's rejection redraws it; a one-value range draws nothing. random()
# and uniform(-3, 3) take a word each, as (word >> 11) * 2**-53 and
# -3.0 + 6.0 * u, and leave a carried half alone.


def _mean_words(max_support: int, max_classes: int) -> int:
    """The mean raw words one random_case(rng, max_support, max_classes) takes."""
    return (max_support + 2) * (max_classes + 2) // 4 + max_support // 2 + 3


def _redraws(halves: np.ndarray, spans: np.ndarray) -> bool:
    """Whether integers() would redraw any of these halves (Lemire's rejection)."""
    return bool((((halves * spans) & 0xFFFFFFFF) < 2**32 % spans).any())


def _sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """a.sum() of each consecutive segment a of values, bit for bit. sum
    pairwise-adds a whole segment to 0.0; reduceat starts from a segment's
    first element, so each segment gets a 0.0 in front."""
    starts = np.cumsum(lengths + 1) - lengths - 1
    padded = np.zeros(len(values) + len(lengths))
    keep = np.ones(len(padded), dtype=bool)
    keep[starts] = False
    padded[keep] = values
    return np.add.reduceat(padded, starts)


def _normalized(words: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """random(length) / its sum for each segment of words, concatenated."""
    at = np.arange(lengths.sum())
    at += np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    values = words[at]
    del at  # the block's peak holds the words and at most two value arrays
    values >>= 11
    values = values * 2.0**-53
    values /= np.repeat(_sums(values, lengths), lengths)
    return values


def _decoded(rng: np.random.Generator, max_support: int, max_classes: int, disjoint: list):
    """random_case(rng, max_support, max_classes, d) for each d in disjoint,
    decoded into per-class-count stacks: an iterable of (members, tables, px,
    m, support), where members are the cases' indices, tables is (B, rows, k)
    and px (B, rows), both zero-padded along the support, and support is the
    largest source support. rng ends as the calls leave it. Gives None, with
    rng untouched, where the calls would redraw a bounded integer or the
    ranges are not 32-bit ones.
    """
    if not (2 <= max_support < 2**32 and 2 <= max_classes < 2**32):
        return None
    bitgen = rng.bit_generator
    saved = bitgen.state
    carry = saved["uinteger"] if saved["has_uint32"] else None
    high = saved["uinteger"]
    # A block takes a tenth more than its cases' mean words and is topped up
    # in the rare case that it runs short.
    mean = _mean_words(max_support, max_classes)
    words = bitgen.random_raw(len(disjoint) * mean * 11 // 10)
    pos = 0
    halves, spans, cases = [], [], []

    def integer(span):
        nonlocal words, pos, carry, high
        if span == 1:
            return 0
        if carry is None:
            if pos >= len(words):
                words = np.concatenate((words, bitgen.random_raw(pos + 1 - len(words) + 8 * mean)))
            word = int(words[pos])
            pos += 1
            half, carry = word & 0xFFFFFFFF, word >> 32
            high = carry
        else:
            half, carry = carry, None
        halves.append(half)
        spans.append(span)
        return (half * span) >> 32

    for d in disjoint:
        s = 2 + integer(max_support - 1)
        k = 2 + integer(max_classes - 1)
        table, pos = pos, pos + s * k
        offset, length = (s, 1 + integer(max_support)) if d else (0, s)
        cases.append((s, k, table, offset, pos, length, pos + length))
        pos += length + 1
    if pos > len(words):
        words = np.concatenate((words, bitgen.random_raw(pos - len(words))))
    bitgen.state = saved
    if halves and _redraws(np.array(halves, dtype=np.uint64), np.array(spans, dtype=np.uint64)):
        return None
    bitgen.advance(pos)
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = int(carry is not None), high
    bitgen.state = state
    if not cases:
        return []

    s, k, table, offset, px, length, at = (np.array(column) for column in zip(*cases))
    u = (words[at] >> 11) * 2.0**-53
    m = np.array([10.0 ** x for x in (-3.0 + 6.0 * u).tolist()])
    # In class-count order, each stack's tables and px are one run of values.
    order = np.argsort(k, kind="stable")
    s, k, offset, length, m = s[order], k[order], offset[order], length[order], m[order]
    values = _normalized(words, table[order], s * k)
    # DiscreteJoint's checks, on each table as random_case normalizes it.
    if (values < 0).any():
        raise ValueError("joint table entries must be non-negative")
    _unit_sums(_sums(values, s * k), "joint table")
    cuts = np.flatnonzero(np.diff(k)) + 1
    return _stacks(
        *(np.split(a, cuts) for a in (order, s, offset, length, m)),
        np.split(values, np.cumsum(s * k)[cuts - 1]),
        np.split(_normalized(words, px[order], length), np.cumsum(length)[cuts - 1]),
    )


def _stacks(*groups):
    """_decoded's stacks, one class count at a time, from each group's
    members, supports, px offsets and lengths, m and concatenated values."""
    for members, size, first, count, m, values, weights in zip(*groups):
        rows = int(max(size.max(), (first + count).max()))
        k = len(values) // size.sum()
        tables = np.zeros((len(members), rows, k))
        tables[np.arange(rows) < size[:, None]] = values.reshape(-1, k)
        px = np.zeros((len(members), rows))
        at = np.arange(rows) - first[:, None]
        px[(at >= 0) & (at < count[:, None])] = weights
        yield members, tables, px, m, int(size.max())


def _random_flips(rng, cases: int, max_support: int, max_classes: int, alternate: bool, labels):
    """_flips of random_case(rng, max_support, max_classes, alternate and
    bool(i % 2)) for i in range(cases), lazily, in blocks of as many cases as
    BLOCK_WORDS holds at their mean words, and at least one.
    labels(tables, m) gives a stack's (py, m) from its sources and weights.
    A block whose decode could differ from the calls replays them."""
    size = max(1, BLOCK_WORDS // _mean_words(max_support, max_classes))
    for start in range(0, cases, size):
        disjoint = [alternate and i % 2 == 1 for i in range(start, min(cases, start + size))]
        groups = _decoded(rng, max_support, max_classes, disjoint)
        if groups is None:
            block = []
            for d in disjoint:
                source, px, n, m = random_case(rng, max_support, max_classes, d)
                py, m = labels(source.table[None], np.array([m]))
                block.append((source, px, py[0], n, m[0]))
            yield from _checked(block)
            continue
        out = [None] * len(disjoint)
        for members, tables, px, m, support in groups:
            py, m = labels(tables, m)
            mixed = _mixed(tables, px, py, np.ones(len(m)), m)
            for i, result in zip(members.tolist(), _flips(tables[:, :support], mixed[:, :support])):
                out[i] = result
        yield from out


def random_invariance_checks(
    rng: np.random.Generator, cases: int, max_support: int = 20, max_classes: int = 10
):
    """bayes_invariance_check of random_case(rng, max_support, max_classes,
    disjoint=bool(i % 2)) for i in range(cases), lazily, in order.

    Each block of cases is decoded from about BLOCK_WORDS raw PCG64 words
    straight into the checking stacks; the cases, and the state rng ends
    in, are those of the random_case calls.
    """

    def uniform(tables, m):
        k = tables.shape[2]
        return np.full((len(tables), k), 1.0 / k), m

    flips = _random_flips(rng, cases, max_support, max_classes, True, uniform)
    return ((rows.size == 0, rows.tolist()) for rows, _ in flips)


def random_toxicity_counts(
    rng: np.random.Generator, cases: int, max_support: int = 20, max_classes: int = 10,
    m_scale: float = 100.0,
):
    """toxicity_count per random_case(rng, max_support, max_classes) case,
    lazily, in order, with every auxiliary label on the case's rarest class
    (py one-hot at the argmin of its label marginal) and weight m * m_scale.
    Decoded as in random_invariance_checks.
    """

    def one_hot(tables, m):
        py = np.zeros((len(tables), tables.shape[2]))
        py[np.arange(len(tables)), tables.sum(axis=1).argmin(axis=1)] = 1.0
        return py, m * m_scale

    flips = _random_flips(rng, cases, max_support, max_classes, False, one_hot)
    return ((rows.size, mass) for rows, mass in flips)
