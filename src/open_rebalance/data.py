"""Synthetic long-tailed datasets, open-set auxiliary pools, and on-disk formats.

Every generator is a pure function of its seed and parameters; repeated calls
are bit-identical. Datasets and pools are treated as immutable once built.
"""

from __future__ import annotations

import contextlib
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
    "longtail_counts",
    "gaussian_class_means",
    "gen_gaussian_classes",
    "subsample_longtail",
    "gen_ood_pool",
    "shifted_mixture_centers",
    "read_cifar10_binary",
    "feature_buffer",
    "write_dataset",
    "read_header",
    "read_dataset",
    "write_pool",
    "read_pool",
]

DATASET_MAGIC = b"OSDS1"

# Rows per block of a rademacher or blobs pool; even, so that a rademacher
# block never ends on half a raw word.
_POOL_BLOCK_ROWS = 32


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


def _anonymous(shape, dtype=np.float64) -> np.ndarray:
    """An uninitialised C-order array in its own private anonymous mapping.

    Not on the malloc heap: dropping the array returns the memory to the OS
    at once rather than leaving a free block that later small allocations
    pin. A private mapping advised for huge pages faults in as fast as
    np.empty; the default shared one is shmem-backed and takes twice as
    long to fill.
    """
    count = math.prod(shape)
    nbytes = count * np.dtype(dtype).itemsize
    buf = mmap.mmap(-1, max(nbytes, 1), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        buf.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)


def feature_buffer(count: int) -> np.ndarray:
    """A flat float64 array of count elements in its own anonymous mapping.

    Pass it as the ``out`` of the readers and pool generators to build one
    set after another in the same memory.
    """
    return _anonymous((count,))


def _features(n: int, d: int, out, dtype=np.float64) -> np.ndarray:
    """A fresh (n, d) view of out's first n * d elements, or a fresh mapping.

    An out that is not a flat array of dtype with room for n * d elements
    gets the fresh mapping, so no caller depends on sizing it right.
    """
    if out is None or out.dtype != dtype or out.ndim != 1 or out.size < n * d:
        return _anonymous((n, d), dtype)
    return out[: n * d].reshape(n, d)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def longtail_counts(n_max: int, num_classes: int, ratio: float) -> np.ndarray:
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
    return np.array([max(1, _round_half_up(v)) for v in raw], dtype=np.int64)


def gaussian_class_means(
    num_classes: int, dim: int, mean_radius: float, seed: int
) -> np.ndarray:
    """Class means at K equally spaced directions, rotated at random by seed."""
    if dim < 2:
        raise ValueError("need dim >= 2 to place class means")
    if not (math.isfinite(float(mean_radius)) and float(mean_radius) >= 0.0):
        raise ValueError(f"mean_radius must be finite and non-negative, got {mean_radius}")
    rng = np.random.default_rng([int(seed), 0xC1A55])
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    circle = np.zeros((num_classes, dim))
    circle[:, 0] = np.cos(angles)
    circle[:, 1] = np.sin(angles)
    # A random rotation: QR's sign correction makes it unique given the draw.
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return mean_radius * (circle @ (q * np.sign(np.diag(r))).T)


def gen_gaussian_classes(means, per_class, sigma: float, seed: int) -> LabeledDataset:
    """Isotropic Gaussian classes of scale sigma around the (K, d) class means.

    Splits drawn around one means array (see ``gaussian_class_means``) share
    their class-conditional distributions; seed draws only the samples.
    """
    if not (math.isfinite(float(sigma)) and float(sigma) >= 0.0):
        raise ValueError(f"sigma must be finite and non-negative, got {sigma}")
    means = np.asarray(means, dtype=np.float64)
    if means.ndim != 2:
        raise ValueError("means must be a K x d matrix")
    num_classes, dim = means.shape
    counts = np.asarray(per_class, dtype=np.int64)
    if counts.shape[0] != num_classes:
        raise ValueError("per_class length must equal the number of class means")
    if np.any(counts < 0) or counts.sum() < 1:
        raise ValueError("per_class must be non-negative with a positive total")
    rng = np.random.default_rng([int(seed), 0x5A3B1E5])
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), counts)
    # noise * sigma + mean, one class's rows at a time: the same bits as
    # means[labels] + sigma * noise, with no set-sized temporary.
    features = _anonymous((len(labels), dim))
    rng.standard_normal(out=features)
    stops = np.cumsum(counts)
    with _finite_scale(f"sigma {sigma} overflows the Gaussian classes"):
        features *= float(sigma)
        for mean, start, stop in zip(means, stops - counts, stops):
            features[start:stop] += mean
    return LabeledDataset(features=features, labels=labels, num_classes=num_classes)


def subsample_longtail(dataset: LabeledDataset, counts, seed: int) -> LabeledDataset:
    """Uniform per-class subsample without replacement of exactly counts[j] rows of class j."""
    if len(counts) != dataset.num_classes:
        raise ValueError("counts must give one count per class of the dataset")
    rng = np.random.default_rng([int(seed), 0x50B5])
    have = dataset.class_counts()
    picks = []
    for j, need in enumerate(counts):
        if have[j] < need:
            raise ValueError(
                f"class {j} has {have[j]} samples but the profile needs {need}"
            )
        idx = np.nonzero(dataset.labels == j)[0]
        picks.append(rng.choice(idx, size=int(need), replace=False))
    order = np.concatenate(picks)
    features = _anonymous((len(order), dataset.dim))
    # The indices are in range, so "clip" takes the same rows as "raise"
    # without buffering the whole output first.
    np.take(dataset.features, order, axis=0, out=features, mode="clip")
    return LabeledDataset(
        features=features, labels=dataset.labels[order], num_classes=dataset.num_classes
    )


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
    out=None,
) -> np.ndarray:
    """Synthesize an open-set auxiliary pool, a (size, dim) float64 array.

    gaussian: i.i.d. normal entries scaled by sigma. rademacher: entries
    +-1 equiprobably. blobs: uniform noise smoothed by a moving average of
    width ``window`` along the feature axis, binarized at each row's median
    to ``low``/``high``. shifted-mixture: Gaussian clusters whose centers sit
    at least ``margin`` away from every row of ``class_means``. The features
    fill the start of ``out``, a flat float64 array, when it has room.
    """
    if size < 1:
        raise ValueError("pool size must be at least 1")
    for name, value in (("window", window), ("clusters", clusters)):
        if int(value) < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    for name, value in (("sigma", sigma), ("low", low), ("high", high), ("margin", margin)):
        if not math.isfinite(float(value)):
            raise ValueError(f"{name} must be finite, got {value}")
    _check_spread(margin, sigma)
    rng = np.random.default_rng([int(seed), 0x00D])
    if kind == "gaussian":
        features = _features(size, dim, out)
        rng.standard_normal(out=features)
        with _finite_scale(f"sigma {sigma} overflows the pool"):
            features *= float(sigma)
    elif kind == "rademacher":
        # rng.integers(0, 2) takes the top bit of each 32-bit half of a raw
        # PCG64 word, low half first; Lemire's threshold (2**32 - 2) % 2 is 0,
        # so it never redraws, and the fresh generator holds no buffered half.
        # Read as int32, a half's top bit is its sign, and ~half >= 0 exactly
        # when that bit is set, giving +1.0.
        features = _features(size, dim, out)
        for start in range(0, size, _POOL_BLOCK_ROWS):
            block = features[start : start + _POOL_BLOCK_ROWS]
            words = rng.bit_generator.random_raw(-(-block.size // 2))
            halves = words.astype("<u8", copy=False).view("<i4")[: block.size]
            np.invert(halves, out=halves)
            np.copysign(1.0, halves.reshape(block.shape), out=block)
    elif kind == "blobs":
        # Imported here: scipy.ndimage is most of the package's import time.
        from scipy.ndimage import uniform_filter1d

        features = _features(size, dim, out)
        smooth = np.empty((min(size, _POOL_BLOCK_ROWS), dim))
        low_bits = np.array(float(low)).view(np.uint64)
        flip_bits = low_bits ^ np.array(float(high)).view(np.uint64)
        k = dim // 2
        for start in range(0, size, _POOL_BLOCK_ROWS):
            # One double per raw word, so blocks give the whole pool's draw.
            block = features[start : start + _POOL_BLOCK_ROWS]
            sm = smooth[: len(block)]
            rng.random(out=block)
            uniform_filter1d(block, size=int(window), axis=1, mode="nearest", output=sm)
            # The noise is spent: the block takes the median's partition. One
            # partition at k gives np.median's value: the middle element, or
            # for even dim the mean of the lower half's max and the upper middle.
            block[...] = sm
            block.partition(k, axis=1)
            med = block[:, k : k + 1].copy()
            if dim % 2 == 0:
                med += block[:, :k].max(axis=1, keepdims=True)
                med /= 2
            # For finite values, med - sm has its sign bit set exactly when
            # sm > med (equal values give +0.0), so the bit picks high over low.
            np.subtract(med, sm, out=sm)
            bits = sm.view(np.uint64)
            bits >>= 63
            bits *= flip_bits
            np.bitwise_xor(bits, low_bits, out=block.view(np.uint64))
    elif kind == "shifted-mixture":
        if class_means is None:
            raise ValueError("shifted-mixture needs the in-distribution class means")
        with _finite_scale(f"sigma {sigma} with margin {margin} overflows the pool"):
            centers = shifted_mixture_centers(class_means, margin, sigma, clusters, rng)
            if centers.shape[1] != dim:
                raise ValueError("class_means must be a K x dim matrix")
            assign = rng.integers(0, int(clusters), size=size)
            # noise * sigma + center, in blocks: the same bits as the products
            # and sums the other way round, with no full-size temporary.
            features = _features(size, dim, out)
            rng.standard_normal(out=features)
            features *= float(sigma)
            for start in range(0, size, _POOL_BLOCK_ROWS):
                block = features[start : start + _POOL_BLOCK_ROWS]
                block += centers[assign[start : start + _POOL_BLOCK_ROWS]]
    else:
        raise ValueError(f"unknown auxiliary pool kind {kind!r}")
    return features


@contextlib.contextmanager
def _finite_scale(message: str):
    """Refuse, as a ValueError with message, a scale whose arithmetic
    overflows to +-inf or turns invalid, in place of a numpy warning."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise ValueError(f"{message} ({exc})") from exc


def _check_spread(margin, sigma) -> None:
    """Refuse a negative margin or sigma: both are lengths, and a negative one
    breaks shifted_mixture_centers' margin bound."""
    for name, value in (("margin", margin), ("sigma", sigma)):
        if float(value) < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")


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
    _check_spread(margin, sigma)
    radius = float(np.linalg.norm(means, axis=1).max())
    dirs = rng.standard_normal((int(clusters), means.shape[1]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    offsets = np.abs(rng.standard_normal(int(clusters))) * float(sigma)
    return (radius + float(margin) + offsets)[:, None] * dirs


CIFAR_RECORD = 3073
CIFAR_DIM = 3072


def read_cifar10_binary(paths, *, out=None) -> LabeledDataset:
    """Parse CIFAR-10 binary batches: 1 label byte then 3072 pixel bytes per record.

    Pixels are scaled to [0, 1] as 64-bit floats, into the start of ``out``,
    a flat float64 array, when it has room.
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
    features = _features(n, CIFAR_DIM, out)
    labels = np.empty(n, dtype=np.int64)
    start = 0
    for path, size in zip(paths, sizes):
        records = _anonymous((size // CIFAR_RECORD, CIFAR_RECORD), np.uint8)
        with open(path, "rb") as f:
            if f.readinto(records) != size:
                raise FormatError(f"{path}: short read, expected {size} bytes")
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


def _header(f, path) -> tuple[int, int, int]:
    """N, d and K from an open dataset file, checked against its magic and length."""
    head = len(DATASET_MAGIC) + 12
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
    return n, d, k


def read_header(path) -> tuple[int, int, int]:
    """N, d and K of a native dataset file, checked as read_dataset checks them."""
    with open(path, "rb") as f:
        return _header(f, path)


def read_dataset(path, *, out=None) -> LabeledDataset:
    """Read the native dataset format; round-trips write_dataset bit-exactly.

    The file is sized up front and read straight into the returned arrays,
    so memory peaks at the data size, not twice it. The features fill the
    start of ``out``, a flat float64 array, when it has room.
    """
    with open(path, "rb") as f:
        n, d, k = _header(f, path)
        features = _features(n, d, out, np.dtype("<f8"))
        labels = np.empty(n, dtype="<u4")
        head = f.tell()
        expected = head + features.nbytes + labels.nbytes
        got = head + f.readinto(features) + f.readinto(labels)
        if got != expected:
            raise FormatError(f"{path}: short read, expected {expected} bytes, got {got}")
    labels = labels.astype(np.int64)
    if labels.max() >= k:
        raise FormatError(f"{path}: label {int(labels.max())} out of range for K={k}")
    return LabeledDataset(features=features, labels=labels, num_classes=int(k))


def write_pool(pool: np.ndarray, path) -> None:
    """Store an (M, d) pool in the native dataset format with dummy labels."""
    ds = LabeledDataset(
        features=pool,
        labels=np.zeros(len(pool), dtype=np.int64),
        num_classes=1,
    )
    write_dataset(ds, path)


def read_pool(path, *, out=None) -> np.ndarray:
    """A pool that write_pool stored (any dataset file's features), into out if it has room."""
    return read_dataset(path, out=out).features
