"""Label-distribution arithmetic for long-tailed training sets.

Class priors, the complementary sampling distribution used to relabel
auxiliary out-of-distribution instances, the per-class loss weights derived
from it, and the baseline re-weighting schemes it is compared against.
All operations are pure functions; the distributions and weights they
return are plain float64 vectors over the classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ClassPrior",
    "LabelDistributionKind",
    "prior_from_counts",
    "complementary",
    "mcd",
    "default_alpha",
    "weights_from_probabilities",
    "cb_effective_weights",
    "required_aux_size",
    "mixed_prior",
    "label_distribution",
]

DEFAULT_BETA_CB = 0.9999


@dataclass(frozen=True)
class ClassPrior:
    """Per-class sample counts n_j, their total N, and frequencies beta_j = n_j / N."""

    counts: np.ndarray
    total: int
    betas: np.ndarray

    @property
    def num_classes(self) -> int:
        return int(self.counts.shape[0])

    @property
    def max_beta(self) -> float:
        return float(self.betas.max())

    @property
    def min_beta(self) -> float:
        return float(self.betas.min())

    def is_uniform(self) -> bool:
        return bool(np.all(self.counts == self.counts[0]))


def prior_from_counts(counts) -> ClassPrior:
    """Build a ClassPrior from per-class sample counts."""
    raw = np.asarray(counts)
    if raw.ndim != 1 or raw.shape[0] < 2:
        raise ValueError("invalid prior: need counts for at least two classes")
    if not np.issubdtype(raw.dtype, np.integer):
        if not np.all(raw == np.floor(raw)):
            raise ValueError("invalid prior: counts must be integers")
    arr = raw.astype(np.int64)
    if np.any(arr < 0):
        raise ValueError("invalid prior: negative class count")
    total = int(arr.sum())
    if total < 1:
        raise ValueError("invalid prior: all class counts are zero")
    betas = arr / float(total)
    return ClassPrior(counts=arr, total=total, betas=betas)


def complementary(prior: ClassPrior, alpha: float) -> np.ndarray:
    """Complementary sampling rates Gamma_j = (alpha - beta_j) / (K*alpha - 1).

    Requires alpha >= max_j beta_j so every rate is non-negative, and
    K*alpha - 1 > 0 so the normalizer is positive.
    """
    alpha = float(alpha)
    k = prior.num_classes
    if alpha < prior.max_beta:
        raise ValueError(
            f"alpha={alpha} out of range: minimum admissible alpha is "
            f"max beta = {prior.max_beta}"
        )
    denom = k * alpha - 1.0
    if denom <= 0.0:
        raise ValueError(
            f"alpha={alpha} degenerate: K*alpha - 1 must be positive (K={k})"
        )
    return (alpha - prior.betas) / denom


def mcd(prior: ClassPrior) -> np.ndarray:
    """Minimum complementary distribution, i.e. complementary() at alpha = max beta.

    A perfectly balanced prior makes the construction degenerate
    (K * max beta - 1 = 0); the uniform distribution is returned instead,
    since balanced data needs no rebalancing.
    """
    if prior.is_uniform():
        return np.full(prior.num_classes, 1.0 / prior.num_classes)
    return complementary(prior, prior.max_beta)


def default_alpha(prior: ClassPrior) -> float:
    """Default flatness parameter: max beta + min beta."""
    return prior.max_beta + prior.min_beta


def weights_from_probabilities(probs) -> np.ndarray:
    """Scale a probability vector by K so the weights sum to K; for Gamma,
    the auxiliary loss weights omega_j = K * Gamma_j."""
    p = np.asarray(probs, dtype=np.float64)
    return p * p.shape[0]


def cb_effective_weights(prior: ClassPrior, beta_cb: float) -> np.ndarray:
    """Inverse-effective-number weights (1 - beta_cb) / (1 - beta_cb^n_j).

    Rescaled so the weights sum to K. beta_cb = 0 gives uniform weights.
    """
    beta_cb = float(beta_cb)
    if not 0.0 <= beta_cb < 1.0:
        raise ValueError(f"beta_cb={beta_cb} must lie in [0, 1)")
    k = prior.num_classes
    if beta_cb == 0.0:
        return np.ones(k)
    if np.any(prior.counts == 0):
        raise ValueError("effective number undefined for a zero-count class")
    raw = (1.0 - beta_cb) / (1.0 - beta_cb ** prior.counts.astype(np.float64))
    return raw * (k / raw.sum())


def required_aux_size(prior: ClassPrior, alpha: float) -> int:
    """Auxiliary instances needed to balance the prior: ceil(N * (K*alpha - 1)).

    Allocating M * Gamma_j instances to class j then equalizes per-class
    totals up to a residual imbalance of at most K instances from rounding.
    """
    alpha = float(alpha)
    if alpha < prior.max_beta:
        raise ValueError(
            f"alpha={alpha} out of range: minimum admissible alpha is "
            f"max beta = {prior.max_beta}"
        )
    return int(math.ceil(prior.total * (prior.num_classes * alpha - 1.0)))


def mixed_prior(prior: ClassPrior, gammas, aux_size) -> np.ndarray:
    """Label prior after mixing: (N * beta_y + M * Gamma_y) / (N + M)."""
    m = float(aux_size)
    if m < 0:
        raise ValueError("aux_size must be non-negative")
    n = float(prior.total)
    return (n * prior.betas + m * np.asarray(gammas)) / (n + m)


_KIND_TAGS = (
    "complementary",
    "mcd",
    "uniform",
    "class-balanced",
    "original-prior",
    "fixed-class",
)


@dataclass(frozen=True)
class LabelDistributionKind:
    """Which distribution auxiliary labels are drawn from.

    ``complementary`` carries an optional alpha (None means the default
    max beta + min beta), ``class-balanced`` carries its own beta_cb
    hyperparameter, and ``fixed-class`` puts all mass on one class
    (None means the smallest class) for toxicity experiments.
    """

    tag: str
    alpha: float | None = None
    beta_cb: float | None = None
    class_index: int | None = None

    def __post_init__(self):
        if self.tag not in _KIND_TAGS:
            raise ValueError(f"unknown label distribution tag {self.tag!r}")
        if self.alpha is not None and self.tag != "complementary":
            raise ValueError("alpha only applies to the complementary tag")
        if self.beta_cb is not None:
            if self.tag != "class-balanced":
                raise ValueError("beta_cb only applies to the class-balanced tag")
            if not 0.0 <= self.beta_cb < 1.0:
                raise ValueError(f"beta_cb={self.beta_cb} must lie in [0, 1)")
        if self.class_index is not None and self.tag != "fixed-class":
            raise ValueError("class_index only applies to the fixed-class tag")

    @classmethod
    def complementary(cls, alpha: float | None = None) -> "LabelDistributionKind":
        return cls(tag="complementary", alpha=alpha)

    @classmethod
    def mcd(cls) -> "LabelDistributionKind":
        return cls(tag="mcd")

    @classmethod
    def uniform(cls) -> "LabelDistributionKind":
        return cls(tag="uniform")

    @classmethod
    def class_balanced(cls, beta_cb: float = DEFAULT_BETA_CB) -> "LabelDistributionKind":
        return cls(tag="class-balanced", beta_cb=beta_cb)

    @classmethod
    def original_prior(cls) -> "LabelDistributionKind":
        return cls(tag="original-prior")

    @classmethod
    def fixed_class(cls, class_index: int | None = None) -> "LabelDistributionKind":
        return cls(tag="fixed-class", class_index=class_index)


def label_distribution(kind: LabelDistributionKind, prior: ClassPrior) -> np.ndarray:
    """Resolve a LabelDistributionKind into a probability vector over classes."""
    k = prior.num_classes
    if kind.tag == "complementary":
        alpha = kind.alpha if kind.alpha is not None else default_alpha(prior)
        return complementary(prior, alpha)
    if kind.tag == "mcd":
        return mcd(prior)
    if kind.tag == "uniform":
        return np.full(k, 1.0 / k)
    if kind.tag == "class-balanced":
        beta_cb = kind.beta_cb if kind.beta_cb is not None else DEFAULT_BETA_CB
        return cb_effective_weights(prior, beta_cb) / k
    if kind.tag == "original-prior":
        return prior.betas.copy()
    if kind.tag == "fixed-class":
        j = kind.class_index if kind.class_index is not None else int(np.argmin(prior.counts))
        if not 0 <= j < k:
            raise ValueError(f"fixed-class index {j} out of range for K={k}")
        out = np.zeros(k)
        out[j] = 1.0
        return out
    raise ValueError(f"unknown label distribution tag {kind.tag!r}")
