import math
import mmap
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from scipy.ndimage import uniform_filter1d

from open_rebalance.data import (
    _POOL_BLOCK_ROWS,
    DATASET_MAGIC,
    AuxiliaryPool,
    FormatError,
    LabeledDataset,
    feature_buffer,
    gaussian_class_means,
    gen_gaussian_classes,
    gen_ood_pool,
    longtail_counts,
    read_cifar10_binary,
    read_dataset,
    read_header,
    read_pool,
    shifted_mixture_centers,
    subsample_longtail,
    write_dataset,
    write_pool,
)


def _mapping(array):
    """The mmap at the root of an array's base chain, or None."""
    while isinstance(array, np.ndarray):
        array = array.base
    if isinstance(array, memoryview):
        array = array.obj
    return array if isinstance(array, mmap.mmap) else None


class TestLongtailCounts:
    def test_known_profile_values(self):
        prof = longtail_counts(5000, 10, 100)
        assert prof[0] == 5000
        assert prof[9] == 50
        assert prof[4] == 646

    def test_exponent_oracle(self):
        # Recompute every entry with independent arithmetic.
        prof = longtail_counts(5000, 10, 100)
        for j in range(10):
            expected = max(1, math.floor(5000 * 100 ** (-j / 9) + 0.5))
            assert prof[j] == expected

    def test_unit_ratio(self):
        prof = longtail_counts(123, 7, 1.0)
        assert np.all(prof == 123)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            longtail_counts(100, 5, 0.5)

    def test_floor_at_one(self):
        prof = longtail_counts(10, 5, 1000.0)
        assert prof.min() == 1

    def test_monotone_and_geometric(self):
        prof = longtail_counts(2000, 8, 50)
        assert np.all(np.diff(prof) <= 0)
        step = 50 ** (-1 / 7)
        for j in range(7):
            assert abs(prof[j + 1] - prof[j] * step) <= 1.0


class TestGaussianClasses:
    def test_determinism(self):
        a = gen_gaussian_classes(3, 4, [10, 5, 2], 2.0, 1.0, seed=9)
        b = gen_gaussian_classes(3, 4, [10, 5, 2], 2.0, 1.0, seed=9)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_counts_match_profile(self):
        prof = longtail_counts(500, 5, 100)
        np.testing.assert_array_equal(prof, [500, 158, 50, 16, 5])
        ds = gen_gaussian_classes(5, 3, prof, 2.0, 1.0, seed=1)
        np.testing.assert_array_equal(ds.class_counts(), prof)

    def test_single_nonempty_class(self):
        ds = gen_gaussian_classes(3, 2, [0, 7, 0], 2.0, 1.0, seed=1)
        assert np.all(ds.labels == 1)

    def test_means_seed_shares_geometry(self):
        a = gen_gaussian_classes(4, 6, [20] * 4, 3.0, 0.1, seed=1, means_seed=42)
        b = gen_gaussian_classes(4, 6, [20] * 4, 3.0, 0.1, seed=2, means_seed=42)
        means = gaussian_class_means(4, 6, 3.0, 42)
        for ds in (a, b):
            for j in range(4):
                centroid = ds.features[ds.labels == j].mean(axis=0)
                assert np.linalg.norm(centroid - means[j]) < 0.2

    @pytest.mark.parametrize(
        "per_class,dim,mean_radius,sigma",
        [([10, 5, 2], 4, 2.0, 1.0), ([3, 0, 4], 5, 2.0, 0.7), ([6, 6], 3, 1.5, 0.0),
         ([4, 9, 1], 2, 0.0, 1.3), ([3, 1, 2], 3072, 3.0, 0.5)],
        ids=["plain", "empty-class", "sigma-0", "radius-0", "cifar-dim"],
    )
    def test_bytes_match_direct_formula(self, per_class, dim, mean_radius, sigma):
        # The class means gathered per row plus the scaled noise of one draw.
        k = len(per_class)
        ds = gen_gaussian_classes(k, dim, per_class, mean_radius, sigma, seed=6, means_seed=8)
        rng = np.random.default_rng([6, 0x5A3B1E5])
        labels = np.repeat(np.arange(k), per_class)
        noise = rng.standard_normal((sum(per_class), dim))
        want = gaussian_class_means(k, dim, mean_radius, 8)[labels] + sigma * noise
        assert ds.features.dtype == want.dtype and ds.features.shape == want.shape
        assert ds.features.tobytes() == want.tobytes()
        np.testing.assert_array_equal(ds.labels, labels)

    def test_mean_radius(self):
        means = gaussian_class_means(5, 8, 2.5, 7)
        np.testing.assert_allclose(np.linalg.norm(means, axis=1), 2.5, rtol=1e-9)

    @pytest.mark.parametrize("name", ["mean_radius", "sigma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.5])
    def test_bad_scale_rejected(self, name, value):
        args = {"mean_radius": 2.0, "sigma": 1.0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite and non-negative"):
            gen_gaussian_classes(3, 4, [10, 5, 2], args["mean_radius"], args["sigma"], seed=9)


class TestSubsample:
    def test_identity_cardinality_is_permutation(self):
        ds = gen_gaussian_classes(3, 2, [10, 20, 30], 2.0, 1.0, seed=5)
        prof = longtail_counts(30, 3, 3.0)
        np.testing.assert_array_equal(prof, [30, 17, 10])
        sub = subsample_longtail(
            gen_gaussian_classes(3, 2, [30, 17, 10], 2.0, 1.0, seed=5),
            prof,
            seed=0,
        )
        full = gen_gaussian_classes(3, 2, [30, 17, 10], 2.0, 1.0, seed=5)
        np.testing.assert_array_equal(
            np.sort(sub.features, axis=0), np.sort(full.features, axis=0)
        )

    def test_profile_fidelity(self):
        base = gen_gaussian_classes(10, 2, [100] * 10, 2.0, 1.0, seed=0)
        prof = longtail_counts(100, 10, 10)
        sub = subsample_longtail(base, prof, seed=1)
        np.testing.assert_array_equal(sub.class_counts(), prof)

    def test_determinism(self):
        base = gen_gaussian_classes(4, 2, [50] * 4, 2.0, 1.0, seed=0)
        prof = longtail_counts(50, 4, 5)
        a = subsample_longtail(base, prof, seed=3)
        b = subsample_longtail(base, prof, seed=3)
        np.testing.assert_array_equal(a.features, b.features)

    @pytest.mark.parametrize("seed", [0, 3, 101])
    def test_bytes_match_direct_formula(self, seed):
        # The per-class picks written out, then one fancy-indexed copy.
        base = gen_gaussian_classes(4, 5, [40, 25, 30, 12], 2.0, 1.0, seed=8)
        prof = longtail_counts(12, 4, 4.0)
        sub = subsample_longtail(base, prof, seed=seed)
        rng = np.random.default_rng([seed, 0x50B5])
        order = np.concatenate([
            rng.choice(np.nonzero(base.labels == j)[0], size=int(need), replace=False)
            for j, need in enumerate(prof)
        ])
        want = base.features[order]
        assert sub.features.dtype == want.dtype and sub.features.shape == want.shape
        assert sub.features.tobytes() == want.tobytes()
        assert sub.labels.tobytes() == base.labels[order].tobytes()

    def test_capacity_error_names_class(self):
        base = gen_gaussian_classes(2, 2, [100, 50], 2.0, 1.0, seed=0)
        prof = longtail_counts(100, 2, 1.5)
        with pytest.raises(ValueError, match="class 1"):
            subsample_longtail(base, prof, seed=0)


class TestOodPools:
    def test_rademacher_support(self):
        pool = gen_ood_pool("rademacher", 200, 7, seed=0)
        assert set(np.unique(pool.features)) == {-1.0, 1.0}

    def test_gaussian_mean_concentration(self):
        pool = gen_ood_pool("gaussian", 10000, 4, seed=0)
        assert abs(pool.features.mean()) < 3.0 / math.sqrt(10000 * 4)

    def test_blobs_binary_with_edges(self):
        pool = gen_ood_pool("blobs", 50, 32, seed=0)
        assert set(np.unique(pool.features)) <= {0.0, 1.0}
        # smoothing produces contiguous runs, not salt-and-pepper noise
        flips = np.abs(np.diff(pool.features, axis=1)).sum(axis=1)
        assert flips.mean() < 32 / 2

    def test_shifted_mixture_margin(self):
        means = gaussian_class_means(5, 8, 2.0, 7)
        centers = shifted_mixture_centers(means, 10.0, 1.0, 16, np.random.default_rng(0))
        gaps = np.linalg.norm(centers[:, None, :] - means[None], axis=2)
        assert gaps.min() >= 10.0

    def test_shifted_mixture_requires_means(self):
        with pytest.raises(ValueError):
            gen_ood_pool("shifted-mixture", 10, 4, seed=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_ood_pool("perlin", 10, 4, seed=0)

    def test_determinism(self):
        a = gen_ood_pool("gaussian", 64, 3, seed=11)
        b = gen_ood_pool("gaussian", 64, 3, seed=11)
        np.testing.assert_array_equal(a.features, b.features)

    @pytest.mark.parametrize("dim", [33, 40])
    @pytest.mark.parametrize("kind", ["gaussian", "rademacher", "blobs", "shifted-mixture"])
    def test_bytes_match_direct_formula(self, kind, dim):
        # Each kind written out as one plain expression over the same stream.
        means = gaussian_class_means(3, dim, 2.0, 5)
        pool = gen_ood_pool(
            kind, 30, dim, seed=9, sigma=0.7, window=4, low=-0.5, high=2.0,
            class_means=means, margin=3.0, clusters=4,
        )
        rng = np.random.default_rng([9, 0x00D])
        if kind == "gaussian":
            want = 0.7 * rng.standard_normal((30, dim))
        elif kind == "rademacher":
            want = (2.0 * rng.integers(0, 2, size=(30, dim)) - 1.0).astype(np.float64)
        elif kind == "blobs":
            smooth = uniform_filter1d(rng.random((30, dim)), size=4, axis=1, mode="nearest")
            want = np.where(smooth > np.median(smooth, axis=1, keepdims=True), 2.0, -0.5)
        else:
            centers = shifted_mixture_centers(means, 3.0, 0.7, 4, rng)
            want = centers[rng.integers(0, 4, size=30)] + 0.7 * rng.standard_normal((30, dim))
        assert pool.features.dtype == want.dtype and pool.features.shape == want.shape
        assert pool.features.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["gaussian", "rademacher", "blobs", "shifted-mixture"])
    def test_multi_block_bytes_match_direct_formula(self, kind):
        # Rows spanning several blocks with a short last one, from one
        # generator as the plain expressions draw them.
        rows, dim = 3 * _POOL_BLOCK_ROWS + 5, 6
        means = gaussian_class_means(3, dim, 2.0, 5)
        pool = gen_ood_pool(kind, rows, dim, seed=4, sigma=1.3, window=3,
                            class_means=means, margin=3.0, clusters=5)
        rng = np.random.default_rng([4, 0x00D])
        if kind == "gaussian":
            want = rng.standard_normal((rows, dim)) * 1.3
        elif kind == "rademacher":
            want = 2.0 * rng.integers(0, 2, size=(rows, dim)) - 1.0
        elif kind == "blobs":
            smooth = uniform_filter1d(rng.random((rows, dim)), size=3, axis=1, mode="nearest")
            want = np.where(smooth > np.median(smooth, axis=1, keepdims=True), 1.0, 0.0)
        else:
            centers = shifted_mixture_centers(means, 3.0, 1.3, 5, rng)
            want = centers[rng.integers(0, 5, size=rows)] + 1.3 * rng.standard_normal((rows, dim))
        assert pool.features.dtype == want.dtype and pool.features.shape == want.shape
        assert pool.features.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim,window", [(1, 1), (1, 4), (2, 1), (2, 4), (3, 4), (4, 9), (33, 50)])
    @pytest.mark.parametrize("kind", ["gaussian", "rademacher", "blobs"])
    def test_narrow_rows_bytes_match_direct_formula(self, kind, dim, window):
        # One- and two-feature rows, and windows wider than the row: the blobs
        # median is then a single element or the mean of two.
        pool = gen_ood_pool(kind, 30, dim, seed=9, sigma=0.7, window=window, low=-0.5, high=2.0)
        rng = np.random.default_rng([9, 0x00D])
        if kind == "gaussian":
            want = 0.7 * rng.standard_normal((30, dim))
        elif kind == "rademacher":
            want = (2.0 * rng.integers(0, 2, size=(30, dim)) - 1.0).astype(np.float64)
        else:
            smooth = uniform_filter1d(rng.random((30, dim)), size=window, axis=1, mode="nearest")
            want = np.where(smooth > np.median(smooth, axis=1, keepdims=True), 2.0, -0.5)
        assert pool.features.dtype == want.dtype and pool.features.shape == want.shape
        assert pool.features.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 9, 101])
    @pytest.mark.parametrize("rows,dim", [(1, 1), (3, 5), (255, 3), (2 * _POOL_BLOCK_ROWS + 1, 7)])
    def test_rademacher_blocks_match_one_draw(self, seed, rows, dim):
        # Decoded in row blocks from raw words, the pool has the single int64
        # draw's bytes, also when the last block is short.
        pool = gen_ood_pool("rademacher", rows, dim, seed=seed)
        rng = np.random.default_rng([seed, 0x00D])
        want = 2.0 * rng.integers(0, 2, size=(rows, dim)) - 1.0
        assert pool.features.dtype == want.dtype and pool.features.shape == want.shape
        assert pool.features.tobytes() == want.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(["rademacher", "blobs"]),
        rows=st.integers(1, 3 * _POOL_BLOCK_ROWS + 1),
        dim=st.integers(1, 3) | st.integers(4, 70),
        window=st.integers(1, 80),
        low=st.sampled_from([-0.0, 0.0]) | st.floats(allow_nan=False, allow_infinity=False),
        high=st.sampled_from([-0.0, 0.0]) | st.floats(allow_nan=False, allow_infinity=False),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_pools_match_plain_formulas(self, kind, rows, dim, window, low, high, seed):
        # Any row count (a multiple of the block or not), odd size * dim,
        # windows wider than the row, and any finite low/high, -0.0 included.
        pool = gen_ood_pool(kind, rows, dim, seed=seed, window=window, low=low, high=high)
        rng = np.random.default_rng([seed, 0x00D])
        if kind == "rademacher":
            want = 2.0 * rng.integers(0, 2, size=(rows, dim)) - 1.0
        else:
            smooth = uniform_filter1d(rng.random((rows, dim)), size=window, axis=1, mode="nearest")
            want = np.where(smooth > np.median(smooth, axis=1, keepdims=True), high, low)
        assert pool.features.dtype == want.dtype and pool.features.shape == want.shape
        assert pool.features.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["rademacher", "blobs"])
    def test_generation_peak_is_pool_plus_block_buffers(self, kind):
        # numpy reports its allocations to tracemalloc. A pool-sized
        # temporary (the whole-pool draw or smoothed copy) would double the
        # peak; a few block-sized buffers and small objects are all it may add.
        rows, dim = 20 * _POOL_BLOCK_ROWS + 5, 512
        gen_ood_pool(kind, 2, 2, seed=0)  # imports done outside the trace
        tracemalloc.start()
        try:
            pool = gen_ood_pool(kind, rows, dim, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block_bytes = _POOL_BLOCK_ROWS * dim * 8
        assert peak <= pool.features.nbytes + 2 * block_bytes + 16 * 1024, peak

    @pytest.mark.parametrize("kind", ["gaussian", "rademacher", "blobs", "shifted-mixture"])
    def test_generation_heap_peak_is_block_buffers(self, kind):
        # numpy reports its heap allocations to tracemalloc; the features
        # live in their own mapping, off the heap. A pool-sized temporary
        # (the whole-pool draw, smoothed copy or gathered centers) would show
        # as a pool-sized peak; a few block-sized buffers and small objects
        # are all it may add.
        rows, dim = 20 * _POOL_BLOCK_ROWS + 5, 512
        means = gaussian_class_means(3, dim, 2.0, 5)
        gen_ood_pool(kind, 2, dim, seed=0, class_means=means)  # imports done outside the trace
        tracemalloc.start()
        try:
            pool = gen_ood_pool(kind, rows, dim, seed=3, class_means=means)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert _mapping(pool.features) is not None
        block_bytes = _POOL_BLOCK_ROWS * dim * 8
        assert peak <= 2 * block_bytes + 16 * 1024, peak

    @pytest.mark.parametrize(
        "bad",
        [{"window": 0}, {"window": -3}, {"sigma": math.nan}, {"sigma": math.inf},
         {"low": math.nan}, {"high": -math.inf}, {"margin": math.nan}],
        ids=["window-0", "window-neg", "sigma-nan", "sigma-inf", "low-nan", "high-inf",
             "margin-nan"],
    )
    @pytest.mark.parametrize("kind", ["gaussian", "blobs"])
    def test_bad_parameters_rejected_at_entry(self, kind, bad):
        name = next(iter(bad))
        with pytest.raises(ValueError, match=f"^{name} must be"):
            gen_ood_pool(kind, 10, 4, seed=0, **bad)


class TestCifarParser:
    def _record(self, label, fill):
        return bytes([label]) + bytes([fill] * 3072)

    def test_parse_and_scaling(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(self._record(3, 255) + self._record(9, 0))
        ds = read_cifar10_binary([path])
        assert len(ds) == 2 and ds.dim == 3072 and ds.num_classes == 10
        np.testing.assert_array_equal(ds.labels, [3, 9])
        assert ds.features[0].max() == 1.0
        assert ds.features[1].max() == 0.0

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 3074)
        with pytest.raises(FormatError, match="3073"):
            read_cifar10_binary([path])

    def test_corrupt_label(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(self._record(0, 1) + self._record(10, 1))
        with pytest.raises(FormatError, match="record 1"):
            read_cifar10_binary([path])

    def test_multiple_files(self, tmp_path):
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        p1.write_bytes(self._record(0, 5))
        p2.write_bytes(self._record(1, 6) + self._record(2, 7))
        ds = read_cifar10_binary([p1, p2])
        assert len(ds) == 3
        np.testing.assert_array_equal(ds.labels, [0, 1, 2])

    def test_multi_file_matches_direct_formula(self, tmp_path):
        rng = np.random.default_rng(21)
        paths, parts = [], []
        for i, n in enumerate((1, 4, 7)):
            records = rng.integers(0, 256, size=(n, 3073), dtype=np.uint8)
            records[:, 0] %= 10
            paths.append(tmp_path / f"batch{i}.bin")
            records.tofile(paths[-1])
            parts.append(records)
        ds = read_cifar10_binary(paths)
        records = np.concatenate(parts)
        want = records[:, 1:].astype(np.float64) / 255.0
        assert ds.features.dtype == want.dtype and ds.features.shape == want.shape
        assert ds.features.tobytes() == want.tobytes()
        assert ds.labels.dtype == np.int64
        np.testing.assert_array_equal(ds.labels, records[:, 0])

    def test_bad_length_in_any_file_fails_before_reading(self, tmp_path):
        # Every length is checked before any file is read, so a later file's
        # bad length is reported ahead of an earlier file's corrupt label.
        corrupt = tmp_path / "corrupt.bin"
        corrupt.write_bytes(self._record(10, 0))
        for size in (0, 3072, 3074):
            bad = tmp_path / f"bad{size}.bin"
            bad.write_bytes(b"\x00" * size)
            want = f"{bad}: length {size} is not a positive multiple of 3073"
            with pytest.raises(FormatError) as info:
                read_cifar10_binary([corrupt, bad])
            assert str(info.value) == want

    def test_no_files(self):
        with pytest.raises(ValueError, match="no input files given"):
            read_cifar10_binary([])


class TestNativeFormat:
    def test_round_trip(self, tmp_path):
        ds = gen_gaussian_classes(3, 5, [4, 3, 2], 2.0, 1.0, seed=0)
        path = tmp_path / "ds.osds"
        write_dataset(ds, path)
        back = read_dataset(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.num_classes == ds.num_classes

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=8),
        d=st.integers(min_value=1, max_value=5),
        k=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_round_trip_random(self, tmp_path_factory, n, d, k, seed):
        rng = np.random.default_rng(seed)
        ds = LabeledDataset(
            features=rng.standard_normal((n, d)),
            labels=rng.integers(0, k, n),
            num_classes=k,
        )
        path = tmp_path_factory.mktemp("rt") / "ds.osds"
        write_dataset(ds, path)
        back = read_dataset(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), data=st.data())
    def test_truncated_or_corrupted(self, tmp_path_factory, seed, data):
        # Any strict prefix is rejected; a file with one byte changed is
        # either rejected or reads back to a dataset that writes the same bytes.
        rng = np.random.default_rng(seed)
        ds = LabeledDataset(
            features=rng.standard_normal((3, 2)), labels=rng.integers(0, 3, 3), num_classes=3
        )
        path = tmp_path_factory.mktemp("osds") / "ds.osds"
        write_dataset(ds, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: data.draw(st.integers(min_value=0, max_value=len(blob) - 1))])
        with pytest.raises(FormatError):
            read_dataset(path)
        corrupted = bytearray(blob)
        corrupted[data.draw(st.integers(min_value=0, max_value=len(blob) - 1))] ^= data.draw(
            st.integers(min_value=1, max_value=255)
        )
        path.write_bytes(bytes(corrupted))
        try:
            back = read_dataset(path)
        except FormatError:
            return
        again = path.with_name("again.osds")
        write_dataset(back, again)
        assert again.read_bytes() == bytes(corrupted)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.osds"
        path.write_bytes(b"XXXXX" + b"\x00" * 100)
        with pytest.raises(FormatError, match="magic"):
            read_dataset(path)

    def test_zero_dim_header(self, tmp_path):
        path = tmp_path / "bad.osds"
        path.write_bytes(DATASET_MAGIC + struct.pack("<III", 1, 0, 1))
        with pytest.raises(FormatError, match="header"):
            read_dataset(path)

    def test_short_read(self, tmp_path):
        path = tmp_path / "bad.osds"
        path.write_bytes(DATASET_MAGIC + struct.pack("<III", 10, 3, 2) + b"\x00" * 16)
        with pytest.raises(FormatError, match="short read"):
            read_dataset(path)

    def test_trailing_bytes(self, tmp_path):
        ds = gen_gaussian_classes(2, 2, [1, 1], 1.0, 1.0, seed=0)
        path = tmp_path / "ds.osds"
        write_dataset(ds, path)
        path.write_bytes(path.read_bytes() + b"!")
        with pytest.raises(FormatError, match="trailing"):
            read_dataset(path)

    def test_every_truncation_and_trailing_byte(self, tmp_path):
        # The reader sizes the file and reads into preallocated arrays; each
        # malformed length must still fail with the message it always had.
        ds = LabeledDataset(
            features=np.arange(6, dtype=np.float64).reshape(3, 2) - 2.5,
            labels=np.array([1, 0, 1]),
            num_classes=2,
        )
        path = tmp_path / "ds.osds"
        write_dataset(ds, path)
        blob = path.read_bytes()
        head = len(DATASET_MAGIC) + 12
        assert len(blob) == head + 3 * 2 * 8 + 3 * 4
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            if cut < head:
                expect = f"{path}: short read in header"
            else:
                expect = f"{path}: short read, expected {len(blob)} bytes, got {cut}"
            # read_header makes the same checks, before any row is read.
            for read in (read_dataset, read_header):
                with pytest.raises(FormatError) as info:
                    read(path)
                assert str(info.value) == expect
        path.write_bytes(blob + b"\x00" * 3)
        for read in (read_dataset, read_header):
            with pytest.raises(FormatError) as info:
                read(path)
            assert str(info.value) == f"{path}: trailing bytes after {len(blob)}"
        path.write_bytes(blob[:-4] + struct.pack("<I", 2))
        with pytest.raises(FormatError) as info:
            read_dataset(path)
        assert str(info.value) == f"{path}: label 2 out of range for K=2"
        path.write_bytes(blob)
        back = read_dataset(path)
        assert back.features.tobytes() == ds.features.tobytes()
        assert back.labels.tolist() == [1, 0, 1] and back.labels.dtype == np.int64
        assert back.features.flags.c_contiguous and back.features.flags.writeable
        assert read_header(path) == (3, 2, 2)

    @pytest.mark.parametrize("layout", ["fortran", "big-endian", "strided"])
    def test_write_bytes_match_tobytes_formula(self, tmp_path, layout):
        base = np.random.default_rng(4).standard_normal((6, 10))
        features = {
            "fortran": np.asfortranarray(base[:, :5]),
            "big-endian": base[:, :5].astype(">f8"),
            "strided": base[:, ::2],
        }[layout]
        labels = np.array([2, 0, 1, 1, 0, 2])
        path = tmp_path / "ds.osds"
        write_dataset(LabeledDataset(features=features, labels=labels, num_classes=3), path)
        want = (
            DATASET_MAGIC
            + struct.pack("<III", 6, 5, 3)
            + np.ascontiguousarray(features, dtype="<f8").tobytes()
            + np.ascontiguousarray(labels, dtype="<u4").tobytes()
        )
        assert path.read_bytes() == want

    def test_pool_round_trip(self, tmp_path):
        pool = gen_ood_pool("gaussian", 7, 3, seed=2)
        path = tmp_path / "pool.osds"
        write_pool(pool, path)
        back = read_pool(path, kind="gaussian")
        np.testing.assert_array_equal(back.features, pool.features)
        assert back.kind == "gaussian"


class TestAnonymousMappings:
    """Large data-layer arrays live in their own mappings, unmapped on drop."""

    @staticmethod
    def _dropped_with_owner(make):
        # Returns the owner's features' mapping weakref, taken while alive.
        owner = make()
        mapping = _mapping(owner.features)
        assert mapping is not None, type(owner.features.base)
        assert owner.features.flags.c_contiguous and owner.features.flags.writeable
        ref = weakref.ref(mapping)
        del owner, mapping
        return ref

    def test_read_dataset(self, tmp_path):
        write_dataset(gen_gaussian_classes(3, 4, [5, 6, 7], 2.0, 1.0, seed=1), tmp_path / "d.osds")
        assert self._dropped_with_owner(lambda: read_dataset(tmp_path / "d.osds"))() is None

    def test_read_cifar10_binary(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(bytes([4]) + bytes(range(256)) * 12)
        assert self._dropped_with_owner(lambda: read_cifar10_binary([path, path]))() is None

    def test_subsample_longtail(self):
        base = gen_gaussian_classes(3, 4, [20, 20, 20], 2.0, 1.0, seed=1)
        prof = longtail_counts(20, 3, 4.0)
        assert self._dropped_with_owner(lambda: subsample_longtail(base, prof, seed=2))() is None

    @pytest.mark.parametrize("kind", ["gaussian", "rademacher", "blobs", "shifted-mixture"])
    def test_gen_ood_pool(self, kind):
        means = gaussian_class_means(3, 7, 2.0, 5)
        make = lambda: gen_ood_pool(kind, 2 * _POOL_BLOCK_ROWS + 1, 7, seed=3, class_means=means)
        assert self._dropped_with_owner(make)() is None

    def test_gen_gaussian_classes(self):
        make = lambda: gen_gaussian_classes(3, 4, [5, 0, 7], 2.0, 1.0, seed=1)
        assert self._dropped_with_owner(make)() is None

    def test_feature_buffer(self):
        buf = feature_buffer(11)
        assert buf.shape == (11,) and buf.dtype == np.float64 and buf.flags.writeable
        ref = weakref.ref(_mapping(buf))
        del buf
        assert ref() is None


def _poisoned(count):
    buf = feature_buffer(count)
    buf[:] = np.nan
    return buf


class TestOut:
    """Readers and pool generators fill the start of a flat out that has room.

    Every element of the features is written: out is NaN-poisoned first, and
    the result must have the bits of a build into a fresh mapping.
    """

    @staticmethod
    def _check(build, n, d):
        want = build(None).features
        assert _mapping(want) is not None
        big = _poisoned(n * d + 7)
        got = build(big).features
        assert got.shape == (n, d) and got.flags.c_contiguous
        assert np.shares_memory(got, big) and got.__array_interface__["data"][0] == big.ctypes.data
        assert got.tobytes() == want.tobytes()
        assert np.isnan(big[n * d:]).all()
        for small in (_poisoned(n * d - 1), _poisoned(n * d + 7).astype(np.float32),
                      _poisoned(2 * n * d).reshape(2 * n, d)):
            got = build(small).features
            assert not np.shares_memory(got, small) and _mapping(got) is not None
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [5, 6])
    def test_read_dataset_and_read_pool(self, tmp_path, dim):
        path = tmp_path / "d.osds"
        write_dataset(gen_gaussian_classes(3, dim, [4, 5, 6], 2.0, 1.0, seed=1), path)
        self._check(lambda out: read_dataset(path, out=out), 15, dim)
        self._check(lambda out: read_pool(path, out=out), 15, dim)

    def test_read_cifar10_binary(self, tmp_path):
        rng = np.random.default_rng(3)
        paths = []
        for i, n in enumerate((2, 3)):
            records = rng.integers(0, 256, size=(n, 3073), dtype=np.uint8)
            records[:, 0] %= 10
            paths.append(tmp_path / f"b{i}.bin")
            records.tofile(paths[-1])
        self._check(lambda out: read_cifar10_binary(paths, out=out), 5, 3072)

    @pytest.mark.parametrize("dim", [7, 8])
    @pytest.mark.parametrize("kind", ["gaussian", "rademacher", "blobs", "shifted-mixture"])
    def test_gen_ood_pool(self, kind, dim):
        rows = 2 * _POOL_BLOCK_ROWS + 3
        means = gaussian_class_means(3, dim, 2.0, 5)
        self._check(lambda out: gen_ood_pool(kind, rows, dim, seed=4, window=3, class_means=means,
                                             out=out), rows, dim)


class TestDatasetValidation:
    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            LabeledDataset(
                features=np.zeros((2, 2)), labels=np.array([0, 5]), num_classes=2
            )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            LabeledDataset(
                features=np.zeros((2, 2)), labels=np.array([0]), num_classes=2
            )

    def test_pool_nonempty(self):
        with pytest.raises(ValueError):
            AuxiliaryPool(features=np.zeros((0, 3)), kind="gaussian")
