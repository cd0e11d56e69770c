import math

import numpy as np
import pytest
from conftest import holds_at_every_scale, raise_exactly, with_failing_lapack

from svdsep import bench, image, synth
from svdsep.errors import (
    ConfigError,
    ConvergenceError,
    InvalidInputError,
    OrderError,
    RangeError,
    ShapeError,
)
from svdsep.image import GrayImage, WindowConfig


def random_window(rng, side=5):
    return rng.uniform(size=(side, side))


class TestGrayImage:
    def test_range_enforced(self):
        with pytest.raises(InvalidInputError):
            GrayImage(np.full((3, 3), 1.5))

    def test_too_small_rejected(self):
        with pytest.raises(ShapeError):
            GrayImage(np.zeros((1, 5)))

    def test_uint8_round_trip(self):
        arr = np.arange(256, dtype=np.uint8).reshape(16, 16)
        img = GrayImage.from_uint8(arr)
        assert img.pixels.min() >= 0.0 and img.pixels.max() <= 1.0
        assert np.array_equal(img.to_uint8(), arr)

    def test_uint8_samples_kept_and_pixels_bit_identical(self):
        arr = np.arange(256, dtype=np.uint8).reshape(16, 16)
        img = GrayImage.from_uint8(arr)
        assert img.samples.dtype == np.uint8 and img.maxval == 255
        assert img.pixels.tobytes() == (arr / 255.0).tobytes()
        assert img.to_uint8().tobytes() == arr.tobytes()

    def test_maxval_is_for_uint8_samples_only(self):
        with pytest.raises(InvalidInputError):
            GrayImage(np.full((3, 3), 0.5), maxval=2)

    @pytest.mark.parametrize("maxval", [0, 256])
    def test_maxval_outside_8_bits_rejected(self, maxval):
        with pytest.raises(InvalidInputError):
            GrayImage(np.zeros((3, 3), dtype=np.uint8), maxval=maxval)

    def test_sample_above_maxval_rejected(self):
        with pytest.raises(InvalidInputError, match=r"must lie in \[0, 15\]"):
            GrayImage(np.full((3, 3), 16, dtype=np.uint8), maxval=15)


class TestInformationDensity:
    def test_identity(self):
        assert image.information_density(np.eye(2), 1, 2) == pytest.approx(math.sqrt(2.0))

    def test_single_value_range(self):
        assert image.information_density(np.diag([3.0, 1.0]), 1, 1) == pytest.approx(3.0)

    def test_matches_eigenvalue_oracle(self):
        # independent route: eigenvalues of D^T D, not the svd path
        rng = np.random.default_rng(0)
        for _ in range(10):
            d = random_window(rng)
            lam = np.sort(np.linalg.eigvalsh(d.T @ d))[::-1]
            for hi in range(1, 6):
                expected = math.sqrt(float(np.sum(lam[:hi])))
                assert image.information_density(d, 1, hi) == pytest.approx(expected, rel=1e-9)

    def test_monotone_in_upper_index(self):
        rng = np.random.default_rng(1)
        d = random_window(rng)
        values = [image.information_density(d, 1, hi) for hi in range(1, 6)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_default_range_is_full_rank(self):
        rng = np.random.default_rng(2)
        d = random_window(rng)
        full = image.information_density(d)
        assert full == pytest.approx(math.sqrt(float(np.sum(d * d))), rel=1e-9)

    def test_bad_range_rejected(self):
        with pytest.raises(RangeError):
            image.information_density(np.eye(2), 2, 1)
        with pytest.raises(RangeError):
            image.information_density(np.eye(2), 1, 5)
        with pytest.raises(RangeError):
            image.information_density(np.diag([3.0, 0.0]), 1, 2)  # rank 1

    def test_zero_window_matches_the_density_map(self):
        # the full-rank default of a rank-0 window is the empty range, whose density is 0
        assert image.information_density(np.zeros((4, 4))) == 0.0
        with pytest.raises(RangeError):
            image.information_density(np.zeros((3, 3)), 1, 1)  # an explicit range must fall within the rank

    def test_scales_linearly(self):
        rng = np.random.default_rng(3)
        d = random_window(rng)
        base = image.information_density(d)
        for c in (0.1, 2.0, 10.0):
            assert image.information_density(c * d) == pytest.approx(c * base, rel=1e-9)


class TestSingularSmoothness:
    def test_diag_two_one(self):
        assert image.singular_smoothness(np.diag([2.0, 1.0]), 1) == pytest.approx(math.sqrt(3.0))

    def test_scale_invariant(self):
        rng = np.random.default_rng(4)
        d = random_window(rng)
        base = image.singular_smoothness(d, 1)
        assert image.singular_smoothness(7.0 * d, 1) == pytest.approx(base, rel=1e-12)

    def test_constant_window_capped_by_guard(self):
        d = np.full((5, 5), 0.37)  # rank 1, sigma_2 = 0
        assert image.singular_smoothness(d, 1) == pytest.approx(1.0 / 1e-6, rel=1e-9)

    def test_zero_window(self):
        assert image.singular_smoothness(np.zeros((4, 4)), 1) == 0.0

    def test_higher_order_accumulates(self):
        d = np.diag([3.0, 2.0, 1.0])
        expected = math.sqrt((9.0 - 4.0) / 4.0 + (4.0 - 1.0) / 1.0)
        assert image.singular_smoothness(d, 2) == pytest.approx(expected, rel=1e-12)

    def test_order_exceeding_window_rejected(self):
        with pytest.raises(OrderError):
            image.singular_smoothness(np.eye(3), 3)


def test_window_metrics_hold_at_every_scale():
    """Smoothness and density / c of c * D equal those of D for every c in
    [1e-300, 1e300], without a warning, although the squares of c * sigma
    under- or overflow; so does the scan map of an image scaled by c <= 1,
    which keeps its intensities in [0, 1]."""

    def check(c, seed):
        rng = np.random.default_rng(seed)
        side = int(rng.integers(4, 10))
        n = int(rng.integers(1, side))
        d = random_window(rng, side)
        assert image.singular_smoothness(c * d, n) == pytest.approx(image.singular_smoothness(d, n), rel=1e-12)
        assert image.information_density(c * d) / c == pytest.approx(image.information_density(d), rel=1e-12)
        px = rng.uniform(size=(side + 2, side + 3))
        cfg = WindowConfig(window_size=side, order=n)
        scaled = image.sliding_scan(GrayImage(min(c, 1.0) * px), cfg).grid
        assert scaled == pytest.approx(image.sliding_scan(GrayImage(px), cfg).grid, rel=1e-12)

    holds_at_every_scale(check, seeds=1000)


class TestSlidingScan:
    def test_grid_geometry(self):
        img = GrayImage(np.random.default_rng(5).uniform(size=(20, 20)))
        smap = image.sliding_scan(img, WindowConfig(window_size=5, stride=5))
        assert smap.grid.shape == (4, 4)
        assert smap.decompositions == 16

    def test_numpy_integer_geometry(self):
        img = GrayImage(np.random.default_rng(5).uniform(size=(20, 20)))
        want = image.sliding_scan(img, WindowConfig(window_size=5, stride=5, order=2))
        got = image.sliding_scan(img, WindowConfig(window_size=np.int64(5), stride=np.int32(5),
                                                   order=np.int16(2)))
        assert got.grid.tobytes() == want.grid.tobytes()

    def test_geometry_formula_sweep(self):
        rng = np.random.default_rng(6)
        img = GrayImage(rng.uniform(size=(37, 61)))
        for w in (2, 5, 8):
            for stride in (1, 2, 3, 7):
                smap = image.sliding_scan(img, WindowConfig(window_size=w, stride=stride))
                assert smap.grid_rows == (37 - w) // stride + 1
                assert smap.grid_cols == (61 - w) // stride + 1
                assert smap.decompositions == smap.grid_rows * smap.grid_cols

    def test_constant_image_uniform_map(self):
        smap = image.sliding_scan(GrayImage(np.full((12, 12), 0.25)), WindowConfig(window_size=4, stride=2))
        assert np.all(smap.grid == smap.grid[0, 0])
        assert np.all(np.isfinite(smap.grid))

    def test_window_placement(self):
        # windows must tile row-major with the top-left at (i*stride, j*stride); a zero window reads 0
        px = np.zeros((8, 8))
        px[4:8, 0:4] = np.random.default_rng(7).uniform(0.2, 1.0, size=(4, 4))
        smap = image.sliding_scan(GrayImage(px), WindowConfig(window_size=4, stride=4))
        assert smap.grid[0, 0] == 0.0
        assert smap.grid[1, 0] > 0.0
        assert smap.grid[0, 1] == 0.0

    def test_oversized_window_rejected(self):
        img = GrayImage(np.full((6, 6), 0.5))
        with pytest.raises(ConfigError):
            image.sliding_scan(img, WindowConfig(window_size=8))

    def test_order_vs_window_checked(self):
        img = GrayImage(np.full((6, 6), 0.5))
        with pytest.raises(OrderError):
            image.sliding_scan(img, WindowConfig(window_size=3, order=3))

    @pytest.mark.parametrize("highest", [False, True], ids=["smoothness-extra0", "smoothness-extra1"])
    @pytest.mark.parametrize("w, stride", [(5, 1), (8, 4), (32, 8)])
    def test_uint8_image_scans_like_its_intensities(self, w, stride, highest):
        arr = np.random.default_rng(w + stride).integers(0, 256, size=(48, 56), dtype=np.uint8)
        arr[:20, :24] = 128  # a flat block, so degenerate windows are met too
        cfg = WindowConfig(window_size=w, stride=stride, order=w - 1 if highest else 1)
        got = image.sliding_scan(GrayImage.from_uint8(arr), cfg).grid
        want = image.sliding_scan(GrayImage(arr / 255.0), cfg).grid
        assert got.tobytes() == want.tobytes()


class TestThresholdMap:
    def _map(self):
        grid = np.array([[1.0, 2.0], [3.0, 4.0]])
        return image.SmoothnessMap(grid=grid, decompositions=4)

    def test_theta_below_min_all_ones(self):
        assert np.all(image.threshold_map(self._map(), 0.5) == 1)

    def test_theta_above_max_all_zeros(self):
        assert np.all(image.threshold_map(self._map(), 4.5) == 0)

    def test_below_polarity(self):
        mask = image.threshold_map(self._map(), 2.0, polarity="below")
        assert np.array_equal(mask, [[1, 1], [0, 0]])

    def test_boundary_inclusive(self):
        mask = image.threshold_map(self._map(), 2.0, polarity="above")
        assert np.array_equal(mask, [[0, 1], [1, 1]])

    def test_bad_polarity(self):
        with pytest.raises(ConfigError):
            image.threshold_map(self._map(), 1.0, polarity="sideways")

    def test_two_region_separation(self):
        rng = np.random.default_rng(10)
        px = np.empty((20, 40))
        px[:, :20] = 0.5 + 1e-3 * (rng.uniform(size=(20, 20)) - 0.5)  # flat half
        px[:, 20:] = rng.uniform(size=(20, 20))                        # noise half
        smap = image.sliding_scan(GrayImage(px), WindowConfig(window_size=5, stride=5))
        flat_mean = smap.grid[:, :4].mean()
        noise_mean = smap.grid[:, 4:].mean()
        theta = 0.5 * (flat_mean + noise_mean)
        mask = image.threshold_map(smap, theta)
        truth = np.zeros_like(mask)
        truth[:, :4] = 1
        assert (mask == truth).mean() >= 0.95


class TestScanOperatingRange:
    """Where the order-1 scan tells a smooth band from rough texture today.

    A 32 x 32 ``anomaly-band`` of noise amplitude a sits at (48, 48) in a
    128 x 128 rough texture of amplitude 0.8, quantized to 8 bits as a PGM
    holds it, and is scanned at w = 5, stride 1. A band window lies wholly
    inside the band; a rough window does not touch it. Like
    ``TestArgmaxOperatingRange`` in ``test_signal.py``, this pins the
    present answers, so a change to the scan shows up as a change to the
    table.
    """

    W, ORIGIN, SIDE, THETA = 5, 48, 32, 100.0

    def classes(self, a, seed):
        """The band windows' and the rough windows' smoothness values."""
        spec = synth.TextureSpec(
            width=128, height=128, seed=seed, noise_amplitude={"anomaly-band": a},
            regions=(synth.Region(0, 0, 128, 128, "rough"),
                     synth.Region(self.ORIGIN, self.ORIGIN, self.SIDE, self.SIDE, "anomaly-band")))
        img = GrayImage.from_uint8(synth.gen_texture(spec)[0].to_uint8())
        grid = image.sliding_scan(img, WindowConfig(window_size=self.W)).grid
        start = np.arange(grid.shape[0])  # a window's first row or column
        end = start + self.W
        inside = (start >= self.ORIGIN) & (end <= self.ORIGIN + self.SIDE)
        touches = (end > self.ORIGIN) & (start < self.ORIGIN + self.SIDE)
        return grid[np.ix_(inside, inside)], grid[~np.outer(touches, touches)]

    # Per a: a floor under the least band value, and the range of the share
    # of band windows that theta = 100 flags.
    # Measured on seeds 0-2: band min 299 / 155 / 62.4 / 19.0 / 6.05, rough
    # max 9.37-9.71, flagged 100 / 100 / 30-33 / 0 / 0 %.
    @pytest.mark.parametrize("a, band_min, flagged", [
        (1e-3, 150.0, (1.0, 1.0)),
        (1e-2, 100.0, (1.0, 1.0)),
        (3e-2, 30.0, (0.1, 0.6)),
        (1e-1, 12.0, (0.0, 0.0)),
        (3e-1, 3.0, (0.0, 0.0)),
    ])
    def test_band_against_rough(self, a, band_min, flagged):
        for seed in range(3):
            band, rough = self.classes(a, seed)
            assert 6.0 < rough.max() < 15.0, seed  # theta = 100 flags no rough window
            assert band.min() > band_min, seed
            # every band window scores above every rough window up to a = 0.1
            assert (band.min() > rough.max()) == (a <= 0.1), seed
            assert flagged[0] <= (band >= self.THETA).mean() <= flagged[1], seed
            if a >= 1e-2:
                # smoothness ~ b sqrt(3 w) / a at band level b = 0.5 (README, scan --threshold);
                # medians run 1.27-1.43x above it. At a = 1e-3 the 8-bit step, not a, sets the noise.
                ratio = np.median(band) / (0.5 * math.sqrt(3 * self.W) / a)
                assert 1.0 < ratio < 2.0, seed


# Reference: the per-window metric loop that ``sliding_scan`` used before the
# spectra of a grid row were scored by one vectorized kernel.
_EPS = np.finfo(np.float64).eps


def _ref_rank_of(values, dim):
    if values.size == 0 or values[0] <= 0.0:
        return 0
    return int(np.count_nonzero(values > dim * _EPS * values[0]))


def _ref_density_from_values(values, lo, hi):
    return float(np.sqrt(np.sum(values[lo - 1 : hi] ** 2)))


def _ref_smoothness_from_values(values, n, guard):
    s1_sq = values[0] ** 2
    if s1_sq == 0.0:
        return 0.0
    sq = values[: n + 1] ** 2
    den = np.maximum(sq[1:], guard * guard * s1_sq)
    return float(np.sqrt(np.sum((sq[:-1] - sq[1:]) / den)))


def _ref_window_value(win, cfg):
    return _ref_smoothness_from_values(np.linalg.svd(win, compute_uv=False), cfg.order, 1e-6)


def _ref_scan(img, cfg):
    w, s = cfg.window_size, cfg.stride
    rows = (img.height - w) // s + 1
    cols = (img.width - w) // s + 1
    return np.array([[_ref_window_value(img.pixels[i * s : i * s + w, j * s : j * s + w], cfg)
                      for j in range(cols)] for i in range(rows)])


def _parity_texture(seed, side=44):
    # rough and smooth halves plus a constant and a rank-one block, so the
    # scan meets full-rank, near-rank-1, rank-1 and degenerate windows
    rng = np.random.default_rng(seed)
    px = rng.uniform(size=(side, side))
    px[:, side // 2 :] = 0.5 + 2e-3 * rng.uniform(size=(side, side - side // 2))
    px[: side // 3, : side // 3] = 0.25
    ramp = np.linspace(0.1, 0.9, side // 3)
    px[-(side // 3) :, : side // 3] = np.outer(ramp, ramp)
    px[side // 3 : side // 3 + 4, :] = 0.0
    return GrayImage(px)


def _parity_cases():
    # each case keeps its id: the numbering skips the three slots per geometry
    # that the retired density-map cases held. The two slots of the retired
    # auto-order cases hold orders 2 and w - 1; on w = 2 neither is a new
    # order, so both stay empty.
    k = 0
    for w, strides in ((2, (1, 3)), (5, (1, 2)), (8, (1, 3)), (12, (3, 5)), (32, (4, 8))):
        for stride in strides:
            seen = set()
            for n in [n for n in (1, 3) if n < w] + [2, w - 1]:
                if n < w and n not in seen:
                    seen.add(n)
                    yield pytest.param(w, stride, n, id=f"{w}-{stride}-smoothness-extra{k}")
                k += 1
            k += 3


class TestScanParity:
    @pytest.mark.parametrize("w,stride,order", _parity_cases())
    def test_matches_per_window_loop(self, w, stride, order):
        cfg = WindowConfig(window_size=w, stride=stride, order=order)
        for seed in (0, 1):
            img = _parity_texture(seed)
            assert np.array_equal(image.sliding_scan(img, cfg).grid, _ref_scan(img, cfg))

    @pytest.mark.parametrize("order", [1, 3, 5])
    def test_constant_image_hits_guard_floor(self, order):
        cfg = WindowConfig(window_size=6, stride=2, order=order)
        img = GrayImage(np.full((14, 14), 0.6))
        got = image.sliding_scan(img, cfg).grid
        assert np.array_equal(got, _ref_scan(img, cfg))
        assert np.allclose(got, 1.0 / 1e-6, rtol=1e-9)

    def test_scalar_api_matches_reference(self):
        rng = np.random.default_rng(11)
        # at side 12, runs of 8 to 11 values shorter than the spectrum are summed like the reference's
        for side in (2, 5, 8, 12):
            d = rng.uniform(size=(side, side + 3))
            values = np.linalg.svd(d, compute_uv=False)
            rank = _ref_rank_of(values, max(d.shape))
            for lo in range(1, rank + 1):
                for hi in range(lo, rank + 1):
                    assert image.information_density(d, lo, hi) == _ref_density_from_values(values, lo, hi)
            for n in range(1, side):
                assert image.singular_smoothness(d, n) == _ref_smoothness_from_values(values, n, 1e-6)


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: GrayImage(np.zeros((2, 2, 2))), ShapeError, id="image-3d"),
    pytest.param(lambda: GrayImage(np.full((2, 2), np.nan)), InvalidInputError, id="image-nan"),
    pytest.param(lambda: WindowConfig(5, stride=0), ConfigError, id="stride"),
    pytest.param(lambda: WindowConfig(5, stride=1.5), ConfigError, id="stride-float"),
    pytest.param(lambda: WindowConfig(5.0), ConfigError, id="window-float"),
    pytest.param(lambda: WindowConfig(5, order=1.5), ConfigError, id="order-float"),
    pytest.param(lambda: WindowConfig(5, order="best"), ConfigError, id="order-name"),
    pytest.param(lambda: WindowConfig(5, order=0), ConfigError, id="order"),
    # a fixed order needs order + 1 singular values
    pytest.param(lambda: WindowConfig(5, order=5), OrderError, id="order-above-window"),
    pytest.param(lambda: image.threshold_map(image.SmoothnessMap(grid=np.ones((2, 2)), decompositions=4), math.nan),
                 ConfigError, id="threshold-nan"),
    pytest.param(lambda: image.singular_smoothness(np.eye(3), n=0), OrderError, id="smoothness-order"),
    # the order is checked before the SVD, which would raise ConvergenceError here
    pytest.param(lambda: with_failing_lapack("svd", lambda: image.singular_smoothness(np.eye(3), n=0)),
                 OrderError, id="smoothness-order-before-svd"),
    pytest.param(lambda: with_failing_lapack("svd", lambda: image.singular_smoothness(np.eye(3), n=3)),
                 OrderError, id="smoothness-order-above-rank-before-svd"),
    pytest.param(lambda: bench.run_scan_bench([4], 16, reps=0), InvalidInputError, id="scan-bench-reps"),
])
def test_typed_errors(call, error):
    raise_exactly(error, call)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: with_failing_lapack("svd", lambda: image.singular_smoothness(np.eye(3))),
                 "SVD of a 3x3 matrix failed", id="smoothness"),
    pytest.param(lambda: with_failing_lapack("svd", lambda: image.information_density(np.ones((4, 2)))),
                 "SVD of a 4x2 matrix failed", id="density"),
    # a 6 x 6 grid: call 15 is the window of grid row 2, column 2
    pytest.param(lambda: with_failing_lapack("svd", lambda: image.sliding_scan(
        GrayImage(np.random.default_rng(3).random((8, 8))), WindowConfig(3)), on_call=15),
                 r"SVD of the scan window at \(row 2, col 2\) failed", id="scan-window"),
])
def test_lapack_failures_are_typed(call, message):
    raise_exactly(ConvergenceError, call, match=message)
