"""Classification and OOD-detection evaluation.

Overall / per-class / group accuracy, maximum-softmax-probability scores,
and the three standard detection metrics (FPR at 95% TPR, AUROC, AUPR).
All detection metrics are rank statistics computed exactly via sorting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import MlpParams, _check_batch, _forward, _log_softmax, forward

__all__ = [
    "MetricsReport",
    "accuracy",
    "msp_scores",
    "fpr_at_95_tpr",
    "auroc",
    "aupr",
    "group_accuracy",
]

GROUP_THRESHOLDS = (20, 100)


@dataclass(frozen=True)
class MetricsReport:
    """Evaluation record; per-class entries are NaN for empty test classes."""

    overall_acc: float
    per_class_acc: np.ndarray


def _accuracies(layers, features, labels, num_classes: int):
    """Overall and per-class accuracy of one model, or of each model in a stack."""
    correct = np.argmax(_forward(layers, features)[0], axis=-1) == labels
    per_class = np.full(correct.shape[:-1] + (num_classes,), np.nan)
    for j in range(num_classes):
        mask = labels == j
        if mask.any():
            per_class[..., j] = correct[..., mask].mean(axis=-1)
    return correct.mean(axis=-1), per_class


def accuracy(params: MlpParams, dataset) -> MetricsReport:
    """Argmax-of-logits accuracy, overall and per class (ties to lowest index)."""
    if dataset.num_classes != params.num_classes:
        raise ValueError("dataset and model disagree on the number of classes")
    features = _check_batch(params, dataset.features)
    overall, per_class = _accuracies(params.layers, features, dataset.labels, dataset.num_classes)
    return MetricsReport(overall_acc=float(overall), per_class_acc=per_class)


def msp_scores(params: MlpParams, features) -> np.ndarray:
    """Maximum softmax probability per sample; in-distribution scores run high."""
    logp = _log_softmax(forward(params, features))
    return np.exp(logp.max(axis=1))


def _scores(name: str, scores) -> np.ndarray:
    """One score set as a float64 array, refused if it is empty or holds a
    NaN, which has no rank; +-inf still orders."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError(f"{name} is empty")
    if np.isnan(scores).any():
        raise ValueError(f"{name} holds a NaN")
    return scores


def _score_sets(in_scores, out_scores):
    """Both score sets, each checked as ``_scores`` checks it."""
    return _scores("in_scores", in_scores), _scores("out_scores", out_scores)


def fpr_at_95_tpr(in_scores, out_scores) -> float:
    """False-positive rate on OOD scores at the 95%-TPR threshold.

    The threshold is the largest in-distribution score tau such that
    fraction(in >= tau) >= 0.95; the result is fraction(out >= tau).
    """
    in_scores, out_scores = _score_sets(in_scores, out_scores)
    srt = np.sort(in_scores)
    taus = srt[::-1]
    counts = in_scores.size - np.searchsorted(srt, taus, side="left")
    ok = counts / in_scores.size >= 0.95
    tau = taus[int(np.argmax(ok))]
    return float(np.mean(out_scores >= tau))


def auroc(in_scores, out_scores) -> float:
    """P(in > out) + 0.5 * P(in == out), with in-distribution as positive."""
    in_scores, out_scores = _score_sets(in_scores, out_scores)
    srt_out = np.sort(out_scores)
    less = np.searchsorted(srt_out, in_scores, side="left").sum()
    less_eq = np.searchsorted(srt_out, in_scores, side="right").sum()
    wins = float(less) + 0.5 * float(less_eq - less)
    return wins / (in_scores.size * out_scores.size)


def _average_precision(pos: np.ndarray, neg: np.ndarray) -> float:
    # Exact step-interpolated area: AP = sum_k (R_k - R_{k-1}) * P_k over the
    # thresholds at distinct scores, descending.
    scores = np.concatenate([pos, neg])
    is_pos = np.concatenate([np.ones(pos.size), np.zeros(neg.size)])
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    lab = is_pos[order]
    tp = np.cumsum(lab)
    fp = np.cumsum(1.0 - lab)
    # Keep the last index of each tie group: those are the threshold points.
    keep = np.append(np.nonzero(np.diff(s))[0], s.size - 1)
    tp_k = tp[keep]
    fp_k = fp[keep]
    precision = tp_k / (tp_k + fp_k)
    recall = tp_k / pos.size
    return float(np.sum(np.diff(np.concatenate([[0.0], recall])) * precision))


def aupr(in_scores, out_scores, positive: str = "out") -> float:
    """Area under the precision-recall curve.

    The default treats the OOD side as the positive (anomaly) class, scoring
    by negated values so low scores rank as anomalous; positive="in" uses the
    scores as-is with in-distribution as positive.
    """
    in_scores, out_scores = _score_sets(in_scores, out_scores)
    if positive == "out":
        return _average_precision(-out_scores, -in_scores)
    if positive == "in":
        return _average_precision(in_scores, out_scores)
    raise ValueError(f"positive must be 'in' or 'out', got {positive!r}")


def group_accuracy(per_class_acc, counts, thresholds=GROUP_THRESHOLDS) -> dict:
    """Unweighted mean per-class accuracy inside count buckets.

    few: n < t_low; medium: t_low <= n <= t_high; many: n > t_high. Buckets
    with no (defined) classes are reported as None.
    """
    acc = np.asarray(per_class_acc, dtype=np.float64)
    counts = np.asarray(counts)
    if acc.shape != counts.shape:
        raise ValueError(f"per_class_acc has length {acc.size} but counts has length {counts.size}")
    t_low, t_high = thresholds
    if not t_low < t_high:
        raise ValueError("thresholds must satisfy t_low < t_high")
    masks = {
        "many": counts > t_high,
        "medium": (counts >= t_low) & (counts <= t_high),
        "few": counts < t_low,
    }
    out = {}
    for name, mask in masks.items():
        vals = acc[mask]
        vals = vals[~np.isnan(vals)]
        out[name] = float(vals.mean()) if vals.size else None
    return out
