"""Synthetic long-tailed datasets, open-set auxiliary pools, and on-disk formats.

Every generator is a pure function of its seed and parameters; repeated calls
are bit-identical. Datasets and pools are treated as immutable once built.
"""

from __future__ import annotations

import math
import mmap
import os
import struct
from dataclasses import dataclass

import numpy as np

from .priors import ClassPrior, prior_from_counts

__all__ = [
    "FormatError",
    "LabeledDataset",
    "AuxiliaryPool",
    "LongTailProfile",
    "longtail_counts",
    "gaussian_class_means",
    "gen_gaussian_classes",
    "subsample_longtail",
    "check_pool_params",
    "gen_ood_pool",
    "shifted_mixture_centers",
    "read_cifar10_binary",
    "write_dataset",
    "read_dataset",
    "write_pool",
    "read_pool",
]

DATASET_MAGIC = b"OSDS1"

OOD_KINDS = ("gaussian", "rademacher", "blobs", "shifted-mixture", "file")
_RADEMACHER_ROWS = 256  # rows per draw of a rademacher pool


class FormatError(ValueError):
    """Raised when an on-disk file does not match its declared format."""


@dataclass(frozen=True)
class LabeledDataset:
    """Dense feature matrix with integer labels in [0, num_classes)."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[1] < 1:
            raise ValueError("features must be an N x d matrix with d >= 1")
        if self.labels.ndim != 1 or self.labels.shape[0] != self.features.shape[0]:
            raise ValueError("labels length must match feature row count")
        if self.features.shape[0] < 1:
            raise ValueError("dataset must contain at least one sample")
        if self.num_classes < 1:
            raise ValueError("num_classes must be positive")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("labels must lie in [0, num_classes)")

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])

    def __len__(self) -> int:
        return int(self.features.shape[0])

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)

    def prior(self) -> ClassPrior:
        return prior_from_counts(self.class_counts())


@dataclass(frozen=True)
class AuxiliaryPool:
    """Unlabeled feature matrix of open-set instances with a provenance tag."""

    features: np.ndarray
    kind: str

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError("pool must be a non-empty M x d matrix")

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])

    def __len__(self) -> int:
        return int(self.features.shape[0])


@dataclass(frozen=True)
class LongTailProfile:
    """Target per-class counts decaying exponentially from base at the given ratio."""

    counts: np.ndarray
    ratio: float
    base: int

    @property
    def num_classes(self) -> int:
        return int(self.counts.shape[0])


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def longtail_counts(n_max: int, num_classes: int, ratio: float) -> LongTailProfile:
    """Exponential long-tail profile: counts[j] = round(n_max * ratio^(-j/(K-1))).

    Counts are floored at one sample so no class is empty.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if num_classes < 2:
        raise ValueError("need at least two classes")
    ratio = float(ratio)
    if ratio < 1.0:
        raise ValueError(f"invalid imbalance ratio {ratio}: must be >= 1")
    ks = np.arange(num_classes)
    raw = n_max * ratio ** (-ks / (num_classes - 1))
    counts = np.array([max(1, _round_half_up(v)) for v in raw], dtype=np.int64)
    return LongTailProfile(counts=counts, ratio=ratio, base=int(n_max))


def _random_rotation(dim: int, rng: np.random.Generator) -> np.ndarray:
    # QR with sign correction makes the rotation unique given the Gaussian draw.
    a = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def gaussian_class_means(
    num_classes: int, dim: int, mean_radius: float, seed: int
) -> np.ndarray:
    """Class means at K equally spaced directions, rotated at random by seed."""
    if dim < 2:
        raise ValueError("need dim >= 2 to place class means")
    rng = np.random.default_rng([int(seed), 0xC1A55])
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    circle = np.zeros((num_classes, dim))
    circle[:, 0] = np.cos(angles)
    circle[:, 1] = np.sin(angles)
    rot = _random_rotation(dim, rng)
    return mean_radius * (circle @ rot.T)


def gen_gaussian_classes(
    num_classes: int,
    dim: int,
    per_class,
    mean_radius: float,
    sigma: float,
    seed: int,
    means_seed: int | None = None,
) -> LabeledDataset:
    """Isotropic Gaussian classes around deterministic means.

    ``means_seed`` pins the class geometry independently of the sample draw,
    so train and test splits can share class-conditional distributions.
    """
    for name, value in (("mean_radius", mean_radius), ("sigma", sigma)):
        if not (math.isfinite(float(value)) and float(value) >= 0.0):
            raise ValueError(f"{name} must be finite and non-negative, got {value}")
    counts = np.asarray(per_class, dtype=np.int64)
    if counts.shape[0] != num_classes:
        raise ValueError("per_class length must equal num_classes")
    if np.any(counts < 0) or counts.sum() < 1:
        raise ValueError("per_class must be non-negative with a positive total")
    means = gaussian_class_means(
        num_classes, dim, mean_radius, seed if means_seed is None else means_seed
    )
    rng = np.random.default_rng([int(seed), 0x5A3B1E5])
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), counts)
    noise = rng.standard_normal((int(counts.sum()), dim))
    features = means[labels] + float(sigma) * noise
    return LabeledDataset(features=features, labels=labels, num_classes=num_classes)


def subsample_longtail(
    dataset: LabeledDataset, profile: LongTailProfile, seed: int
) -> LabeledDataset:
    """Uniform per-class subsample without replacement, matching the profile exactly."""
    if profile.num_classes != dataset.num_classes:
        raise ValueError("profile class count must match the dataset")
    rng = np.random.default_rng([int(seed), 0x50B5])
    have = dataset.class_counts()
    picks = []
    for j, need in enumerate(profile.counts):
        if have[j] < need:
            raise ValueError(
                f"class {j} has {have[j]} samples but the profile needs {need}"
            )
        idx = np.nonzero(dataset.labels == j)[0]
        picks.append(rng.choice(idx, size=int(need), replace=False))
    order = np.concatenate(picks)
    return LabeledDataset(
        features=dataset.features[order],
        labels=dataset.labels[order],
        num_classes=dataset.num_classes,
    )


def check_pool_params(size: int, **params) -> None:
    """Raise ValueError for ``gen_ood_pool`` arguments that no pool kind accepts.

    ``params`` are any of gen_ood_pool's ``sigma``, ``window``, ``low``,
    ``high`` and ``margin``; the ones not given are not checked.
    """
    if size < 1:
        raise ValueError("pool size must be at least 1")
    if "window" in params and int(params["window"]) < 1:
        raise ValueError(f"window must be at least 1, got {params['window']}")
    for name in ("sigma", "low", "high", "margin"):
        if name in params and not math.isfinite(float(params[name])):
            raise ValueError(f"{name} must be finite, got {params[name]}")


def gen_ood_pool(
    kind: str,
    size: int,
    dim: int,
    seed: int,
    *,
    sigma: float = 1.0,
    window: int = 5,
    low: float = 0.0,
    high: float = 1.0,
    class_means=None,
    margin: float = 10.0,
    clusters: int = 8,
) -> AuxiliaryPool:
    """Synthesize an open-set auxiliary pool of the requested kind.

    gaussian: i.i.d. normal entries scaled by sigma. rademacher: entries
    +-1 equiprobably. blobs: uniform noise smoothed by a moving average of
    width ``window`` along the feature axis, binarized at each row's median
    to ``low``/``high``. shifted-mixture: Gaussian clusters whose centers sit
    at least ``margin`` away from every row of ``class_means``.
    """
    check_pool_params(size, sigma=sigma, window=window, low=low, high=high, margin=margin)
    rng = np.random.default_rng([int(seed), 0x00D])
    if kind == "gaussian":
        features = rng.standard_normal((size, dim))
        features *= float(sigma)
    elif kind == "rademacher":
        # int32 draws in row blocks give the same stream as one int64 draw
        # of the whole pool, without a second pool-sized array.
        features = np.empty((size, dim))
        for start in range(0, size, _RADEMACHER_ROWS):
            block = features[start : start + _RADEMACHER_ROWS]
            np.multiply(rng.integers(0, 2, size=block.shape, dtype=np.int32), 2.0, out=block)
            block -= 1.0
    elif kind == "blobs":
        # Imported here: scipy.ndimage is most of the package's import time.
        from scipy.ndimage import uniform_filter1d

        # The noise buffer takes the median's partition and then the result,
        # so the smoothed copy is the only other full-size float array.
        features = rng.random((size, dim))
        smooth = uniform_filter1d(features, size=int(window), axis=1, mode="nearest")
        features[...] = smooth
        # One partition at k gives np.median's value: the middle element, or
        # for even dim the mean of the lower half's max and the upper middle.
        k = dim // 2
        features.partition(k, axis=1)
        med = features[:, k : k + 1].copy()
        if dim % 2 == 0:
            med += features[:, :k].max(axis=1, keepdims=True)
            med /= 2
        features.fill(float(low))
        np.copyto(features, float(high), where=smooth > med)
    elif kind == "shifted-mixture":
        if class_means is None:
            raise ValueError("shifted-mixture needs the in-distribution class means")
        centers = shifted_mixture_centers(class_means, margin, sigma, clusters, rng)
        if centers.shape[1] != dim:
            raise ValueError("class_means must be a K x dim matrix")
        assign = rng.integers(0, int(clusters), size=size)
        features = centers[assign] + float(sigma) * rng.standard_normal((size, dim))
    else:
        raise ValueError(f"unknown auxiliary pool kind {kind!r}")
    return AuxiliaryPool(features=features, kind=kind)


def shifted_mixture_centers(
    class_means, margin: float, sigma: float, clusters: int, rng: np.random.Generator
) -> np.ndarray:
    """Cluster centers guaranteed at least ``margin`` from every class mean.

    Centers sit on rays past the largest class-mean radius plus the margin,
    so the distance bound holds for any draw.
    """
    means = np.asarray(class_means, dtype=np.float64)
    if means.ndim != 2:
        raise ValueError("class_means must be a K x dim matrix")
    radius = float(np.linalg.norm(means, axis=1).max())
    dirs = rng.standard_normal((int(clusters), means.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    offsets = np.abs(rng.standard_normal(int(clusters))) * float(sigma)
    return (radius + float(margin) + offsets)[:, None] * dirs


CIFAR_RECORD = 3073
CIFAR_DIM = 3072


def read_cifar10_binary(paths) -> LabeledDataset:
    """Parse CIFAR-10 binary batches: 1 label byte then 3072 pixel bytes per record.

    Pixels are scaled to [0, 1] as 64-bit floats.
    """
    paths = list(paths)
    if not paths:
        raise ValueError("no input files given")
    sizes = [os.stat(path).st_size for path in paths]
    for path, size in zip(paths, sizes):
        if size == 0 or size % CIFAR_RECORD != 0:
            raise FormatError(
                f"{path}: length {size} is not a positive multiple of {CIFAR_RECORD}"
            )
    # Sized once from the file lengths; each file's pixels are scaled
    # straight into their rows, with no per-file float copy or concatenate.
    n = sum(sizes) // CIFAR_RECORD
    features = np.empty((n, CIFAR_DIM))
    labels = np.empty(n, dtype=np.int64)
    start = 0
    for path in paths:
        records = np.fromfile(path, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
        stop = start + len(records)
        bad = np.nonzero(records[:, 0] > 9)[0]
        if bad.size:
            raise FormatError(
                f"{path}: corrupt record {int(bad[0])}: label byte {int(records[bad[0], 0])} > 9"
            )
        labels[start:stop] = records[:, 0]
        np.divide(records[:, 1:], 255.0, out=features[start:stop], dtype=np.float64)
        start = stop
    return LabeledDataset(features=features, labels=labels, num_classes=10)


def write_dataset(dataset: LabeledDataset, path) -> None:
    """Write the native dataset format (magic OSDS1, little-endian, row-major)."""
    with open(path, "wb") as f:
        f.write(DATASET_MAGIC)
        f.write(struct.pack("<III", len(dataset), dataset.dim, dataset.num_classes))
        # The arrays' own buffers, not a full-size bytes copy of each.
        f.write(np.ascontiguousarray(dataset.features, dtype="<f8").data)
        f.write(np.ascontiguousarray(dataset.labels, dtype="<u4").data)


def read_dataset(path) -> LabeledDataset:
    """Read the native dataset format; round-trips write_dataset bit-exactly.

    The file is sized up front and read straight into the returned arrays,
    so memory peaks at the data size, not twice it.
    """
    head = len(DATASET_MAGIC) + 12
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        header = f.read(head)
        if len(header) < head:
            raise FormatError(f"{path}: short read in header")
        if header[: len(DATASET_MAGIC)] != DATASET_MAGIC:
            raise FormatError(f"{path}: bad magic, not a dataset file")
        n, d, k = struct.unpack_from("<III", header, len(DATASET_MAGIC))
        if n == 0 or d == 0 or k == 0:
            raise FormatError(f"{path}: invalid header N={n} d={d} K={k}")
        expected = head + n * d * 8 + n * 4
        if size < expected:
            raise FormatError(f"{path}: short read, expected {expected} bytes, got {size}")
        if size > expected:
            raise FormatError(f"{path}: trailing bytes after {expected}")
        # Features live in an anonymous mapping, not on the malloc heap, so
        # dropping the dataset returns the memory to the OS at once rather
        # than leaving a free block that later small allocations pin. A
        # private mapping advised for huge pages faults in as fast as
        # np.empty; the default shared one is shmem-backed and takes twice
        # as long to fill.
        features = mmap.mmap(-1, n * d * 8, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        if hasattr(mmap, "MADV_HUGEPAGE"):
            features.madvise(mmap.MADV_HUGEPAGE)
        labels = np.empty(n, dtype="<u4")
        got = head + f.readinto(features) + f.readinto(labels)
        if got != expected:
            raise FormatError(f"{path}: short read, expected {expected} bytes, got {got}")
    labels = labels.astype(np.int64)
    if labels.max() >= k:
        raise FormatError(f"{path}: label {int(labels.max())} out of range for K={k}")
    features = np.frombuffer(features, dtype="<f8").reshape(n, d)
    return LabeledDataset(features=features, labels=labels, num_classes=int(k))


def write_pool(pool: AuxiliaryPool, path) -> None:
    """Store an auxiliary pool in the native dataset format with dummy labels."""
    ds = LabeledDataset(
        features=pool.features,
        labels=np.zeros(len(pool), dtype=np.int64),
        num_classes=1,
    )
    write_dataset(ds, path)


def read_pool(path, kind: str = "file") -> AuxiliaryPool:
    ds = read_dataset(path)
    return AuxiliaryPool(features=ds.features, kind=kind)
