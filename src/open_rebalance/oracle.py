"""Exact finite-domain Bayes-mixture calculator.

Verifies that mixing uniformly labeled open-set mass into a discrete joint
distribution never moves the Bayes classifier's argmax on the source support,
and quantifies how much a non-uniform auxiliary label distribution does.
random_invariance_checks and random_toxicity_counts check random_case draws
that are decoded from raw PCG64 words straight into the checked row arrays.
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
        # In C order every row sums as it does in the oracle's row arrays.
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


@dataclass(frozen=True)
class OodMarginal:
    """Product-form open-set distribution: P(x, y) = px(x) * py(y).

    px may extend past the source support (new instance indices).
    """

    px: np.ndarray
    py: np.ndarray

    def __post_init__(self):
        for name in ("px", "py"):
            v = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, v)
            if v.ndim != 1 or np.any(v < 0):
                raise ValueError(f"{name} must be a non-negative vector")
            if not abs(v.sum() - 1.0) <= 1e-12:
                raise ValueError(f"{name} sums to {v.sum()}, expected 1")


def _predict(rows: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Bayes predictions of (R, k) rows with row sums mass, ties within
    TIE_BAND to the lowest class; a row of no mass is divided by 1, not 0.
    The max runs over a class-major copy: along a short row it costs a call per row."""
    post = rows / np.where(mass > 0.0, mass, 1.0)[:, None]
    top = np.ascontiguousarray(post.T).max(axis=0)
    return (post >= (top - TIE_BAND * np.maximum(1.0, top))[:, None]).argmax(axis=1)


def _flips(tables: np.ndarray, sizes: np.ndarray, mixed: np.ndarray) -> list:
    """(source-support rows whose prediction ``mixed`` moves, their mass) per
    case of (R, k) source rows, sizes[i] of them for case i, and the mixed
    rows on them; the mass is a running total in support order, as np.sum is not."""
    mass, mixed_mass = tables.sum(axis=1), mixed.sum(axis=1)
    live, ends = mass > 0.0, np.cumsum(sizes)
    empty = np.flatnonzero(live & (mixed_mass <= 0.0))
    if empty.size:
        x = empty[0] - (ends - sizes)[np.searchsorted(ends, empty[0], side="right")]
        raise ValueError(f"instance {x} has zero mass: posterior undefined")
    flip = np.flatnonzero(live & (_predict(mixed, mixed_mass) != _predict(tables, mass)))
    case = np.searchsorted(ends, flip, side="right")
    rows, masses, out, start = (flip - (ends - sizes)[case]).tolist(), mass[flip].tolist(), [], 0
    for count in np.bincount(case, minlength=len(sizes)).tolist():
        total = 0.0
        for x in masses[start : start + count]:
            total += x
        out.append((rows[start : start + count], total))
        start += count
    return out


def _unit_sums(sums: np.ndarray, what: str) -> None:
    bad = ~(np.abs(sums - 1.0) <= 1e-12)  # NaN fails too
    if bad.any():
        raise ValueError(f"{what} sums to {sums[bad.argmax()]}, expected 1")


def _sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """a.sum() of each consecutive segment a of values, bit for bit. sum
    pairwise-adds a whole segment to 0.0; reduceat starts from a segment's
    first element, so each segment gets a 0.0 in front."""
    if len(lengths) == 1:
        return values.sum(keepdims=True)
    starts = np.cumsum(lengths + 1) - lengths - 1
    padded = np.zeros(len(values) + len(lengths))
    keep = np.ones(len(padded), dtype=bool)
    keep[starts] = False
    padded[keep] = values
    return np.add.reduceat(padded, starts)


def _at(lengths: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """starts[i], starts[i] + 1, ... (lengths[i] of them) for each i, concatenated."""
    at = np.arange(lengths.sum())
    at += np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    return at


def _spread(values: np.ndarray, lengths: np.ndarray, rows: np.ndarray, first=0) -> np.ndarray:
    """Each consecutive segment of values (lengths[i] rows) at row first[i]
    of its own rows[i] zero rows; values itself where rows is lengths."""
    if (lengths == rows).all():
        return values
    out = np.zeros((rows.sum(),) + values.shape[1:])
    out[_at(lengths, np.cumsum(rows) - rows + first)] = values
    return out


def _mixed(tables, sizes, px, lengths, py, n, m):
    """mix() of each case i, after OodMarginal's px and py checks and mix's own, from
    (R, k) source rows and px back to back (sizes[i] and lengths[i] of them), (B, k) py
    (None if some py has not k entries) and (B,) weights: the mixed tables back to back,
    max(sizes[i], lengths[i]) rows each, and their rows on the source support."""
    if (px < 0).any():
        raise ValueError("px must be a non-negative vector")
    _unit_sums(_sums(px, lengths), "px")
    if ((n < 0) | (m < 0) | (n + m <= 0)).any():
        raise ValueError("need n >= 0, m >= 0, n + m > 0")
    if py is None:
        raise ValueError("py length must match the source class count")
    if (py < 0).any():
        raise ValueError("py must be a non-negative vector")
    _unit_sums(py.sum(axis=1), "py")
    rows = np.maximum(sizes, lengths)
    # mix's elementwise formula; a row past a case's support or px adds an exact 0.0.
    source = _spread(tables, sizes, rows)
    mixed = np.repeat(n / (n + m), rows)[:, None] * source
    products = _spread(px, lengths, rows)[:, None] * np.repeat(py, rows, axis=0)
    mixed += np.repeat(m / (n + m), rows)[:, None] * products
    if (mixed < 0).any():
        raise ValueError("joint table entries must be non-negative")
    _unit_sums(_sums(mixed.ravel(), rows * mixed.shape[1]), "joint table")
    if source is tables:
        return mixed, mixed
    return mixed, np.take(mixed, _at(sizes, np.cumsum(rows) - rows), axis=0)


def _mixtures(cases: list, k: int):
    """(tables, sizes, *_mixed(...)) of (source, px, py, n, m) cases with k
    classes; nothing is padded, so each row and case sums as it does alone."""
    pxs = [np.asarray(c[1], dtype=np.float64) for c in cases]
    if any(px.ndim != 1 for px in pxs):
        raise ValueError("px must be a non-negative vector")
    n, m = np.array([c[3:] for c in cases], dtype=np.float64).T
    py = np.array([c[2] for c in cases]) if all(c[2].shape == (k,) for c in cases) else None
    tables = np.concatenate([c[0].table for c in cases], dtype=np.float64)
    sizes, lengths = np.array([[len(c[0].table), len(px)] for c, px in zip(cases, pxs)]).T
    return tables, sizes, *_mixed(tables, sizes, np.concatenate(pxs), lengths, py, n, m)


def _check_block(block: list) -> list:
    """_flips per (source, px, py, n, m) case of a block, one class count at a time."""
    groups = {}
    for i, case in enumerate(block):
        groups.setdefault(case[0].num_classes, []).append(i)
    out = [None] * len(block)
    for k, members in groups.items():
        tables, sizes, _, mixed = _mixtures([block[i] for i in members], k)
        for i, result in zip(members, _flips(tables, sizes, mixed)):
            out[i] = result
    return out


def _blocks(cases):
    """The cases in order, in lists closed once their tables and px hold BLOCK_WORDS entries."""
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
            # Case by case, so that the first bad case raises its own error.
            results = (_check_block([case])[0] for case in block)
        yield from results


def bayes_predict(joint: DiscreteJoint, x: int) -> int:
    """argmax_y P(x, y), i.e. the Bayes prediction, ties to the lowest class."""
    row = joint.table[[x]]
    if row.sum() <= 0.0:
        raise ValueError(f"instance {x} has zero mass: posterior undefined")
    return int(_predict(row, row.sum(axis=1))[0])


def mix(source: DiscreteJoint, ood: OodMarginal, n: float, m: float) -> DiscreteJoint:
    """Weight-(n, m) mixture of the source joint with the product OOD table."""
    case = (source, ood.px, ood.py, n, m)
    return DiscreteJoint(table=_mixtures([case], source.num_classes)[2])


def flipped_instances(source: DiscreteJoint, mixed: DiscreteJoint):
    """Source-support instances, in order, whose Bayes prediction ``mixed`` moves."""
    if mixed.support_size < source.support_size or mixed.num_classes != source.num_classes:
        raise ValueError("mixed table must cover the source's instances and classes")
    rows = source.support_size
    return np.array(_flips(source.table, np.array([rows]), mixed.table[:rows])[0][0], dtype=np.intp)


def bayes_invariance_checks(cases):
    """bayes_invariance_check per (source, px, n, m) case, lazily, in order."""
    uniform = ((s, px, np.full(s.num_classes, 1.0 / s.num_classes), n, m) for s, px, n, m in cases)
    return ((not rows, rows) for rows, _ in _checked(uniform))


def bayes_invariance_check(source: DiscreteJoint, px, n: float, m: float):
    """Bayes-invariance check for uniformly labeled open-set mass.

    Returns (ok, violations): ok is True iff every instance in the source
    support keeps its Bayes prediction after mixing with P_out(Y) uniform.
    """
    return next(bayes_invariance_checks([(source, px, n, m)]))


def toxicity_counts(cases):
    """toxicity_count per (source, ood, n, m) case, lazily, in order."""
    tuples = ((source, ood.px, ood.py, n, m) for source, ood, n, m in cases)
    return ((len(rows), mass) for rows, mass in _checked(tuples))


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
    grid = []
    for alpha in alphas:
        gammas = complementary(prior, float(alpha))
        ood = OodMarginal(px=px, py=gammas)
        for m in aux_sizes:
            mixed = mixed_prior(prior, gammas, m)
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
# half to the next call, and maps it to low + (half * span) >> 32, or, where
# the product's low 32 bits fall below 2**32 % span, drops it for the next
# half (Lemire's rejection); a one-value range draws nothing. random() and
# uniform(-3, 3) take a word each, as (word >> 11) * 2**-53 and -3.0 + 6.0 * u,
# and leave a carried half alone.


def _mean_words(max_support: int, max_classes: int) -> int:
    """The mean raw words one random_case(rng, max_support, max_classes) takes."""
    return (max_support + 2) * (max_classes + 2) // 4 + max_support // 2 + 3


def _normalized(words: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """random(length) / its sum for each segment of words, concatenated."""
    values = words[_at(lengths, starts)]
    values >>= 11
    values = values * 2.0**-53
    values /= np.repeat(_sums(values, lengths), lengths)
    return values


def _decoded(rng: np.random.Generator, max_support: int, max_classes: int, disjoint: list):
    """random_case(rng, max_support, max_classes, d) for each d in disjoint,
    decoded one class count at a time: a list of (members, tables, sizes, px,
    lengths, m), as _mixed takes them, where members are the cases' indices.
    rng ends as the calls leave it, bounded-integer redraws included. A
    maximum outside [2, 2**32) is refused before anything is drawn."""
    for name, value in (("max_support", max_support), ("max_classes", max_classes)):
        if not 2 <= value < 2**32:
            raise ValueError(f"{name} must be in [2, 2**32), got {value}")
    bitgen = rng.bit_generator
    saved = bitgen.state
    carry = saved["uinteger"] if saved["has_uint32"] else None
    high = saved["uinteger"]
    # A block takes a tenth more than its cases' mean words and is topped up
    # in the rare case that it runs short.
    mean = _mean_words(max_support, max_classes)
    words = bitgen.random_raw(len(disjoint) * mean * 11 // 10)
    raw, pos = memoryview(words), 0
    cases = []

    def integer(span):
        nonlocal words, raw, pos, carry, high
        if span == 1:
            return 0
        while True:
            if carry is None:
                if pos >= len(words):
                    words = np.concatenate((words, bitgen.random_raw(pos + 1 - len(words) + 8 * mean)))
                    raw = memoryview(words)
                word = raw[pos]
                pos += 1
                half, carry = word & 0xFFFFFFFF, word >> 32
                high = carry
            else:
                half, carry = carry, None
            product = half * span
            if product & 0xFFFFFFFF >= 2**32 % span:
                return product >> 32

    for d in disjoint:
        s = 2 + integer(max_support - 1)
        k = 2 + integer(max_classes - 1)
        table, pos = pos, pos + s * k
        length = 1 + integer(max_support) if d else s
        cases += (s, k, table, pos, length)
        pos += length + 1
    if pos > len(words):
        words = np.concatenate((words, bitgen.random_raw(pos - len(words))))
    bitgen.state = saved
    bitgen.advance(pos)
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = int(carry is not None), high
    bitgen.state = state
    if not cases:
        return []

    # In class-count order, each group's tables and px are one run of values.
    cases = np.array(cases).reshape(-1, 5)
    order = np.argsort(cases[:, 1], kind="stable")
    s, k, table, px, length = cases[order].T
    offset = np.where(np.array(disjoint)[order], s, 0)
    u = (words[px + length] >> 11) * 2.0**-53
    m = np.array([10.0 ** x for x in (-3.0 + 6.0 * u).tolist()])
    values = _normalized(words, table, s * k)
    # DiscreteJoint's sum check, on each table as random_case normalizes it;
    # no entry is negative, and a zero sum gives NaN, which fails it.
    _unit_sums(_sums(values, s * k), "joint table")
    # A disjoint case's px is a zero per source row, then its draws.
    width = offset + length
    px = _spread(_normalized(words, px, length), length, width, offset)
    cuts = np.flatnonzero(np.diff(k)) + 1
    groups = zip(*(np.split(a, cuts) for a in (order, s, k, width, m)),
                 np.split(values, np.cumsum(s * k)[cuts - 1]),
                 np.split(px, np.cumsum(width)[cuts - 1]))
    return [(members, tables.reshape(-1, k[0]), s, px, width, m)
            for members, s, k, width, m, tables, px in groups]


def _random_flips(rng, cases: int, max_support: int, max_classes: int, alternate: bool, labels):
    """_flips of random_case(rng, max_support, max_classes, alternate and
    bool(i % 2)) for i in range(cases), lazily, in blocks of as many cases as
    BLOCK_WORDS holds at their mean words (at least one), each decoded by
    _decoded; labels(tables, sizes, m) gives a group's (py, m)."""
    size = max(1, BLOCK_WORDS // _mean_words(max_support, max_classes))
    for start in range(0, cases, size):
        disjoint = [alternate and i % 2 == 1 for i in range(start, min(cases, start + size))]
        out = [None] * len(disjoint)
        for members, tables, sizes, px, lengths, m in _decoded(rng, max_support, max_classes, disjoint):
            py, m = labels(tables, sizes, m)
            mixed = _mixed(tables, sizes, px, lengths, py, np.ones(len(m)), m)[1]
            for i, result in zip(members, _flips(tables, sizes, mixed)):
                out[i] = result
        yield from out


def random_invariance_checks(
    rng: np.random.Generator, cases: int, max_support: int = 20, max_classes: int = 10
):
    """bayes_invariance_check of random_case(rng, max_support, max_classes,
    disjoint=bool(i % 2)) for i in range(cases), lazily, in order.

    Each block of cases is decoded from about BLOCK_WORDS raw PCG64 words
    straight into the checked row arrays; the cases, and the state rng ends
    in, are those of the random_case calls. Each maximum must lie in [2, 2**32).
    """

    def uniform(tables, sizes, m):
        return np.full((len(sizes), tables.shape[1]), 1.0 / tables.shape[1]), m

    flips = _random_flips(rng, cases, max_support, max_classes, True, uniform)
    return ((not rows, rows) for rows, _ in flips)


def random_toxicity_counts(
    rng: np.random.Generator, cases: int, max_support: int = 20, max_classes: int = 10,
    m_scale: float = 100.0,
):
    """toxicity_count per random_case(rng, max_support, max_classes) case,
    lazily, in order, with every auxiliary label on the case's rarest class
    (py one-hot at the argmin of its label marginal) and weight m * m_scale.
    Decoded as in random_invariance_checks.
    """

    def one_hot(tables, sizes, m):
        rarest = np.add.reduceat(tables, np.cumsum(sizes) - sizes).argmin(axis=1)
        return np.eye(tables.shape[1])[rarest], m * m_scale

    flips = _random_flips(rng, cases, max_support, max_classes, False, one_hot)
    return ((len(rows), mass) for rows, mass in flips)
