"""Exact finite-domain Bayes-mixture calculator.

Verifies that mixing uniformly labeled open-set mass into a discrete joint
distribution never moves the Bayes classifier's argmax on the source support,
and quantifies how much a non-uniform auxiliary label distribution does.
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
    "toxicity_count",
    "rebalance_curve",
    "random_case",
]

TIE_BAND = 1e-12


@dataclass(frozen=True)
class DiscreteJoint:
    """Exact probability table P(x, y) over a finite instance support."""

    table: np.ndarray

    def __post_init__(self):
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


def _bayes_rows(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Bayes predictions for ``rows``: within TIE_BAND of the max, the lowest class."""
    sub = table[rows]
    mass = sub.sum(axis=1, keepdims=True)
    empty = mass[:, 0] <= 0.0
    if empty.any():
        raise ValueError(f"instance {rows[empty.argmax()]} has zero mass: posterior undefined")
    post = sub / mass
    top = post.max(axis=1, keepdims=True)
    return (post >= top - TIE_BAND * np.maximum(1.0, top)).argmax(axis=1)


def bayes_predict(joint: DiscreteJoint, x: int) -> int:
    """argmax_y P(x, y), i.e. the Bayes prediction, ties to the lowest class."""
    return int(_bayes_rows(joint.table, [x])[0])


def mix(source: DiscreteJoint, ood: OodMarginal, n: float, m: float) -> DiscreteJoint:
    """Weight-(n, m) mixture of the source joint with the product OOD table."""
    n, m = float(n), float(m)
    if n < 0 or m < 0 or n + m <= 0:
        raise ValueError("need n >= 0, m >= 0, n + m > 0")
    if ood.py.shape[0] != source.num_classes:
        raise ValueError("py length must match the source class count")
    s_out = max(source.support_size, ood.px.shape[0])
    out = np.zeros((s_out, source.num_classes))
    out[: source.support_size] += (n / (n + m)) * source.table
    out[: ood.px.shape[0]] += (m / (n + m)) * np.outer(ood.px, ood.py)
    return DiscreteJoint(table=out)


def flipped_instances(source: DiscreteJoint, mixed: DiscreteJoint, before=None):
    """Source-support instances, in order, whose Bayes prediction ``mixed`` moves.

    ``before`` may hold the source's predictions on its support, to reuse them.
    """
    support = source.support()
    after = _bayes_rows(mixed.table, support)
    if before is None:
        before = _bayes_rows(source.table, support)
    return support[after != before]


def bayes_invariance_check(source: DiscreteJoint, px, n: float, m: float):
    """Bayes-invariance check for uniformly labeled open-set mass.

    Returns (ok, violations): ok is True iff every instance in the source
    support keeps its Bayes prediction after mixing with P_out(Y) uniform.
    """
    px = np.asarray(px, dtype=np.float64)
    k = source.num_classes
    ood = OodMarginal(px=px, py=np.full(k, 1.0 / k))
    violations = flipped_instances(source, mix(source, ood, n, m)).tolist()
    return len(violations) == 0, violations


def toxicity_count(source: DiscreteJoint, ood: OodMarginal, n: float, m: float, before=None):
    """How many source-support instances flip prediction, and their P_s mass."""
    flipped = flipped_instances(source, mix(source, ood, n, m), before)
    # A running total from 0.0 in support order; np.sum would sum pairwise.
    terms = np.concatenate(([0.0], source.instance_marginal()[flipped]))
    return int(flipped.size), float(np.add.accumulate(terms)[-1])


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
    before = _bayes_rows(source.table, source.support())
    rows = []
    for alpha in alphas:
        dist = complementary(prior, float(alpha))
        ood = OodMarginal(px=px, py=dist.gammas)
        for m in aux_sizes:
            mixed = mixed_prior(prior, dist, m)
            low = mixed.min()
            ratio = float(mixed.max() / low) if low > 0 else float("inf")
            flipped, mass = (0, 0.0) if m == 0 else toxicity_count(
                source, ood, prior.total, float(m), before)
            rows.append(
                RebalancePoint(
                    alpha=float(alpha),
                    aux_size=float(m),
                    prior_ratio=ratio,
                    flipped_count=flipped,
                    flipped_mass=mass,
                )
            )
    return rows


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
