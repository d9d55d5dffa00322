"""Exact finite-domain Bayes-mixture calculator.

Verifies that mixing uniformly labeled open-set mass into a discrete joint
distribution never moves the Bayes classifier's argmax on the source support,
and quantifies how much a non-uniform auxiliary label distribution does.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

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
]

TIE_BAND = 1e-12
BLOCK = 256  # cases the blocked entry points check together


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


def _mixtures(cases: list, k: int):
    """Source and mix() stacks of (source, px, py, n, m) cases with k classes,
    after mix's checks and px's. Only the support axis is zero-padded: a
    padded class would change the order of numpy's pairwise row sums."""
    pxs = [np.asarray(c[1], dtype=np.float64) for c in cases]
    if any(px.ndim != 1 for px in pxs):
        raise ValueError("px must be a non-negative vector")
    rows = max(max(c[0].support_size for c in cases), max(len(px) for px in pxs))
    px_stack = _padded(pxs, rows)
    if (px_stack < 0).any():
        raise ValueError("px must be a non-negative vector")
    _unit_sums(px_stack.sum(axis=1), "px")
    n, m = np.array([c[3:] for c in cases], dtype=np.float64).T
    if ((n < 0) | (m < 0) | (n + m <= 0)).any():
        raise ValueError("need n >= 0, m >= 0, n + m > 0")
    if any(c[2].shape != (k,) for c in cases):
        raise ValueError("py length must match the source class count")
    # mix's elementwise formula; a padded entry adds an exact 0.0.
    tables = _padded([c[0].table for c in cases], rows)
    mixed = (n / (n + m))[:, None, None] * tables
    py_stack = np.array([c[2] for c in cases])
    mixed += (m / (n + m))[:, None, None] * (px_stack[..., None] * py_stack[:, None])
    if (mixed < 0).any():
        raise ValueError("joint table entries must be non-negative")
    _unit_sums(mixed.sum(axis=(1, 2)), "joint table")
    return tables, mixed


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


def _checked(cases):
    """The oracle core: _check_block over the cases, BLOCK at a time, lazily."""
    cases = iter(cases)
    while block := list(islice(cases, BLOCK)):
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
