"""Label-distribution arithmetic for long-tailed training sets.

Class priors, the complementary sampling distribution used to relabel
auxiliary out-of-distribution instances, the per-class loss weights derived
from it, and the baseline re-weighting schemes it is compared against.
All operations are pure functions; the distributions and weights they
return are plain float64 vectors over the classes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

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
    "loss_prior",
    "label_distribution",
]

DEFAULT_BETA_CB = 0.9999

# The values a field's annotation admits, and how a refusal names them; `T | None` admits None
# too, and (tuple, kind) a tuple of items of kind. Ints stand in for floats; a bool is neither.
_FIELD_KINDS = {
    "int": (numbers.Integral, "an integer"),
    "float": (numbers.Real, "a number"),
    "bool": (bool, "a bool"),
    "tuple[int, ...]": ((tuple, numbers.Integral), "a tuple of integers"),
}


def _admits(kind, value) -> bool:
    if isinstance(kind, tuple):
        return isinstance(value, kind[0]) and all(_admits(kind[1], item) for item in value)
    return isinstance(value, kind) and isinstance(value, bool) == (kind is bool)


def _check_fields(obj, kinds=_FIELD_KINDS) -> None:
    """Refuse the first field of a dataclass whose annotation, looked up in
    kinds, does not admit its value, or whose integer lies outside int64's
    range (a run length or seed past it cannot be scheduled or named);
    the ValueError starts with its name."""
    for f in fields(obj):
        name, optional = f.type.removesuffix(" | None"), f.type.endswith(" | None")
        if name in kinds:
            kind, noun = kinds[name]
            value = getattr(obj, f.name)
            if not (optional and value is None or _admits(kind, value)):
                noun = f"{noun} or None" if optional else noun
                raise ValueError(f"{f.name} must be {noun}, got {value!r}")
            if kind is numbers.Integral and value is not None:
                _check_int64(f.name, value)


def _check_int64(name: str, value: int) -> None:
    """Refuse an integer outside int64's range; the ValueError starts with name."""
    if not -2**63 <= value < 2**63:
        raise ValueError(f"{name} must be in [-2**63, 2**63), got {value!r}")


@dataclass(frozen=True, eq=False)
class ClassPrior:
    """Per-class sample counts n_j, and their total N and frequencies beta_j = n_j / N.

    Priors compare and hash by identity: their fields are arrays.
    """

    counts: np.ndarray
    total: int = field(init=False)
    betas: np.ndarray = field(init=False)

    def __post_init__(self):
        raw = np.asarray(self.counts)
        if raw.ndim != 1 or raw.shape[0] < 2:
            raise ValueError("invalid prior: need counts for at least two classes")
        if not np.issubdtype(raw.dtype, np.integer) and not np.all(raw == np.floor(raw)):
            raise ValueError("invalid prior: counts must be integers")
        counts = raw.astype(np.int64)
        if np.any(counts < 0):
            raise ValueError("invalid prior: negative class count")
        total = int(counts.sum())
        if total < 1:
            raise ValueError("invalid prior: all class counts are zero")
        for name, value in (("counts", counts), ("total", total), ("betas", counts / float(total))):
            object.__setattr__(self, name, value)

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
    return ClassPrior(counts)


def _checked_alpha(prior: ClassPrior, alpha: float) -> float:
    """alpha as a float, refused unless finite and at least max beta."""
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha={alpha} must be finite")
    if alpha < prior.max_beta:
        raise ValueError(f"alpha={alpha} out of range: minimum admissible alpha is "
                         f"max beta = {prior.max_beta}")
    return alpha


def complementary(prior: ClassPrior, alpha: float) -> np.ndarray:
    """Complementary sampling rates Gamma_j = (alpha - beta_j) / (K*alpha - 1).

    Requires a finite alpha >= max_j beta_j so every rate is non-negative,
    and K*alpha - 1 > 0 so the normalizer is positive.
    """
    alpha = _checked_alpha(prior, alpha)
    k = prior.num_classes
    denom = k * alpha - 1.0
    if denom <= 0.0:
        raise ValueError(f"alpha={alpha} degenerate: K*alpha - 1 must be positive (K={k})")
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
    alpha = _checked_alpha(prior, alpha)
    return int(math.ceil(prior.total * (prior.num_classes * alpha - 1.0)))


def mixed_prior(prior: ClassPrior, gammas, aux_size) -> np.ndarray:
    """Label prior after mixing: (N * beta_y + M * Gamma_y) / (N + M)."""
    m = float(aux_size)
    if m < 0:
        raise ValueError("aux_size must be non-negative")
    if not m < math.inf:  # NaN too
        raise ValueError(f"aux_size must be finite, got {m}")
    n = float(prior.total)
    return (n * prior.betas + m * np.asarray(gammas)) / (n + m)


def loss_prior(prior: ClassPrior, gammas, omegas, eta) -> np.ndarray:
    """The class mix a training step's loss sees: beta + eta * Gamma * omega, normalised.

    A step averages the loss over training rows, whose labels follow beta,
    and adds eta times an omega-weighted average over auxiliary rows labelled
    from Gamma, so class j carries an expected weight proportional to
    beta_j + eta * Gamma_j * omega_j. With omega = 1 and eta = M / N this is
    mixed_prior(prior, gammas, M).
    """
    eta = float(eta)
    if eta < 0:
        raise ValueError("eta must be non-negative")
    if not eta < math.inf:  # NaN too
        raise ValueError(f"eta must be finite, got {eta}")
    mass = prior.betas + eta * (np.asarray(gammas, dtype=np.float64) * np.asarray(omegas, dtype=np.float64))
    return mass / mass.sum()


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
    """Which distribution auxiliary labels are drawn from, by tag.

    ``complementary`` carries an optional alpha (None means the default
    max beta + min beta), ``class-balanced`` a beta_cb (None is resolved to
    DEFAULT_BETA_CB as the kind is built, so kinds of one distribution compare
    equal), and ``fixed-class`` puts all mass on one class
    (None means the smallest class) for toxicity experiments, as in
    ``LabelDistributionKind("complementary", alpha=0.5)``.
    """

    tag: str
    alpha: float | None = None
    beta_cb: float | None = None
    class_index: int | None = None

    def __post_init__(self):
        _check_fields(self)
        if self.tag not in _KIND_TAGS:
            raise ValueError(f"unknown label distribution tag {self.tag!r}")
        if self.tag == "class-balanced" and self.beta_cb is None:
            object.__setattr__(self, "beta_cb", DEFAULT_BETA_CB)
        if self.alpha is not None and self.tag != "complementary":
            raise ValueError("alpha only applies to the complementary tag")
        if self.beta_cb is not None:
            if self.tag != "class-balanced":
                raise ValueError("beta_cb only applies to the class-balanced tag")
            if not 0.0 <= self.beta_cb < 1.0:
                raise ValueError(f"beta_cb={self.beta_cb} must lie in [0, 1)")
        if self.class_index is not None and self.tag != "fixed-class":
            raise ValueError("class_index only applies to the fixed-class tag")


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
        return cb_effective_weights(prior, kind.beta_cb) / k
    if kind.tag == "original-prior":
        return prior.betas.copy()
    # fixed-class, the one tag left
    j = kind.class_index if kind.class_index is not None else int(np.argmin(prior.counts))
    if not 0 <= j < k:
        raise ValueError(f"fixed-class index {j} out of range for K={k}")
    out = np.zeros(k)
    out[j] = 1.0
    return out
