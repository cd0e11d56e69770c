"""Window-level texture metrics and the sliding-window scanner.

Two metrics are offered per window fragment D:

* information density  sqrt(sum of selected sigma_i^2) -- scales with
  brightness;
* singular smoothness  sqrt(sum_{i<=n} (sigma_i^2 - sigma_{i+1}^2) /
  max(sigma_{i+1}^2, guard^2 sigma_1^2)) -- a ratio form that is invariant
  under rescaling the window, high for near-rank-1 (smooth) fragments and
  low for textured ones.

Both read only the singular values, so one set of vectorized kernels over
a ``(..., w)`` array of descending spectra computes them: ``sliding_scan``
takes one SVD per window and scores a whole grid row at once, and
``information_density``, ``singular_smoothness`` and ``select_order`` call
the same kernels on a batch of one. The kernels square each spectrum
shifted by the binary exponent of its sigma_1 (``linalg._shifted``), so
fixed-order smoothness and density / c of a window scaled by c hold from
c = 1e-300 to 1e300.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    ConvergenceError,
    InsufficientRankError,
    InvalidInputError,
    OrderError,
    ShapeError,
)
from .linalg import SpectrumResult, _lapack, _rank, _shifted, _tolerance
from .validation import check_index_range, check_matrix

__all__ = [
    "GrayImage",
    "WindowConfig",
    "SmoothnessMap",
    "information_density",
    "singular_smoothness",
    "select_order",
    "sliding_scan",
    "threshold_map",
    "METRIC_SMOOTHNESS",
    "METRIC_DENSITY",
]

METRIC_SMOOTHNESS = "smoothness"
METRIC_DENSITY = "information-density"

# Entries per float64 temporary of ``_quantize_u8`` (32 KiB): the temporary
# stays a small fraction of the array being quantized, however wide its rows.
_QUANTIZE_ENTRIES = 4096


def _quantize_u8(arr: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``np.round((arr - lo) / (hi - lo) * 255.0).astype(np.uint8)``, one row block at a time.

    Every block of ``max(1, _QUANTIZE_ENTRIES // row width)`` rows goes
    through one reused float64 buffer, updated in place by the same
    operations in the same order, so the bytes equal those of the
    whole-array expression.
    """
    out = np.empty(arr.shape, dtype=np.uint8)
    step = max(1, _QUANTIZE_ENTRIES // arr.shape[1])
    buf = np.empty((min(step, arr.shape[0]),) + arr.shape[1:])
    for start in range(0, arr.shape[0], step):
        block = arr[start : start + step]
        t = buf[: block.shape[0]]
        np.subtract(block, lo, out=t)
        t /= hi - lo
        t *= 255.0
        np.round(t, out=t)
        out[start : start + step] = t
    return out


@dataclass(frozen=True)
class GrayImage:
    """Grayscale image: its samples and the sample value that means full white.

    An 8-bit image keeps its uint8 ``samples`` and the format's ``maxval``
    (255 for PNG, the header's value for PGM); intensities are formed only
    where they are read, as ``samples / maxval``. Any other array is taken
    as float64 intensities in [0, 1], whose ``maxval`` must be 1.
    ``pixels`` gives the intensities either way.
    """

    samples: np.ndarray  # (height, width)
    maxval: int = 1

    def __post_init__(self):
        arr = np.asarray(self.samples)
        if arr.dtype == np.uint8:
            if not 1 <= self.maxval <= 255:
                raise InvalidInputError(f"maxval must lie in [1, 255], got {self.maxval}")
        elif self.maxval != 1:
            raise InvalidInputError(f"maxval is the scale of uint8 samples; {arr.dtype} samples "
                                    f"are intensities and need maxval 1, got {self.maxval}")
        else:
            arr = arr.astype(np.float64, copy=False)
        if arr.ndim != 2:
            raise ShapeError(f"image must be 2-D, got ndim={arr.ndim}")
        if arr.shape[0] < 2 or arr.shape[1] < 2:
            raise ShapeError(f"image must be at least 2x2, got {arr.shape}")
        if arr.dtype != np.uint8 and not np.all(np.isfinite(arr)):
            raise InvalidInputError("image contains non-finite pixels")
        if arr.min() < 0 or arr.max() > self.maxval:
            raise InvalidInputError(f"pixel values must lie in [0, {self.maxval}]")
        object.__setattr__(self, "samples", arr)

    @property
    def pixels(self) -> np.ndarray:
        """Intensities in [0, 1]: a new float64 array for 8-bit samples, else the samples."""
        if self.samples.dtype == np.uint8:
            return self.samples / self.maxval
        return self.samples

    @property
    def width(self) -> int:
        return self.samples.shape[1]

    @property
    def height(self) -> int:
        return self.samples.shape[0]

    @classmethod
    def from_uint8(cls, arr) -> "GrayImage":
        """An 8-bit image: a uint8 ``arr`` is kept as its samples, any other is divided by 255."""
        a = np.asarray(arr)
        return cls(a, 255) if a.dtype == np.uint8 else cls(a / 255.0)

    def to_uint8(self) -> np.ndarray:
        """Round ``pixels * 255`` half to even into a uint8 array.

        Quantized in row blocks, so the only float64 temporary is one block.
        """
        return _quantize_u8(self.samples, 0.0, self.maxval)


@dataclass(frozen=True)
class WindowConfig:
    """Square sliding-window geometry and metric options.

    ``order`` is a fixed smoothness order n >= 1, or the string "auto" to
    pick the smallest n with sigma_n - sigma_{n+1} <= delta per window.
    ``delta`` is absolute, so an "auto" map is not scale-invariant: scaling
    the image can change the order picked and so the values.
    ``epsilon_guard`` floors near-zero denominators at guard^2 sigma_1^2 so
    degenerate (e.g. constant) windows stay finite. The density metric
    sums over each window's full numerical rank.
    """

    window_size: int
    stride: int = 1
    order: int | str = 1
    delta: float = 0.0
    epsilon_guard: float = 1e-6

    def __post_init__(self):
        for name in ("window_size", "stride") + (() if isinstance(self.order, str) else ("order",)):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}") from None
        if self.window_size < 2:
            raise ConfigError(f"window_size must be >= 2, got {self.window_size}")
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")
        if isinstance(self.order, str):
            if self.order != "auto":
                raise ConfigError(f"order must be a positive integer or 'auto', got {self.order!r}")
        elif self.order < 1:
            raise ConfigError(f"order must be >= 1, got {self.order}")
        if not self.delta >= 0:
            raise ConfigError(f"delta must be nonnegative, got {self.delta}")
        if not 0 < self.epsilon_guard < np.inf:
            raise ConfigError(f"epsilon_guard must be finite and positive, got {self.epsilon_guard}")


@dataclass(frozen=True)
class SmoothnessMap:
    """Grid of per-window metric values plus the geometry that produced it."""

    grid: np.ndarray
    config: WindowConfig
    metric: str
    decompositions: int

    @property
    def grid_rows(self) -> int:
        return self.grid.shape[0]

    @property
    def grid_cols(self) -> int:
        return self.grid.shape[1]


def _run_sum(x: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Sum of ``x`` over the contiguous run ``keep`` of each last-axis row.

    np.sum adds fewer than 8 values in order and 8 or more pairwise, so a
    run shorter than its row is added in order (cumsum) and a full row by
    np.sum: both match np.sum of the run alone whenever it has < 8 values.
    """
    x = np.where(keep, x, 0.0)
    return np.where(keep.all(axis=-1), np.sum(x, axis=-1), np.cumsum(x, axis=-1)[..., -1])


def _density(values: np.ndarray, lo: int, hi) -> np.ndarray:
    """Root energy over the 1-based range lo..hi (an int, or one per spectrum); 0 when it is empty."""
    k = np.arange(1, values.shape[-1] + 1)
    sq, e = _shifted(values)
    sq *= sq
    return np.ldexp(np.sqrt(_run_sum(sq, (k >= lo) & (k <= np.asarray(hi)[..., None]))), e[..., 0])


def _auto_order(values: np.ndarray, rank, delta: float) -> np.ndarray:
    """Smallest n < rank with sigma_n - sigma_{n+1} <= delta, else rank - 1; 1 when rank < 2."""
    n = np.arange(1, values.shape[-1])
    hit = (values[..., :-1] - values[..., 1:] <= delta) & (n < np.asarray(rank)[..., None])
    return np.maximum(np.where(hit.any(axis=-1), hit.argmax(axis=-1) + 1, rank - 1), 1)


def _smoothness(values: np.ndarray, n, guard: float) -> np.ndarray:
    """Order-n smoothness of each spectrum; ``n`` is an int or one order per spectrum.

    A spectrum with sigma_1 = 0 has no energy at any order and maps to 0.
    """
    if np.ndim(n) == 0:
        values = values[..., : n + 1]
    sq, _ = _shifted(values)
    # the guard floor squares sigma_1 with libm pow, as numpy's scalar ** does;
    # x * x differs from it by one ulp on ~0.1 % of inputs
    s1_sq = np.float_power(sq[..., :1], 2)
    sq *= sq
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = (sq[..., :-1] - sq[..., 1:]) / np.maximum(sq[..., 1:], guard * guard * s1_sq)
        total = _run_sum(terms, np.arange(1, sq.shape[-1]) <= np.asarray(n)[..., None])
        return np.where(s1_sq[..., 0] == 0.0, 0.0, np.sqrt(total))


def _metric(values: np.ndarray, cfg: WindowConfig, metric: str) -> np.ndarray:
    """The ``cfg`` window metric of each descending spectrum along the last axis.

    A square window's spectrum length is max(m, n), so the rank tolerance
    is ``linalg.svd``'s default.
    """
    if metric == METRIC_DENSITY:
        return _density(values, 1, _rank(values, _tolerance(None, values.shape[-1:])))
    n = cfg.order
    if n == "auto":
        n = _auto_order(values, _rank(values, _tolerance(None, values.shape[-1:])), cfg.delta)
    return _smoothness(values, n, cfg.epsilon_guard)


def information_density(d, lo: int = 1, hi: int | None = None) -> float:
    """Root energy of the window spectrum over the 1-based range [lo, hi].

    ``hi=None`` selects the full numerical rank, so a fragment of rank 0
    has density 0, as in the scan's density map. An explicit range must
    fall within the rank of the fragment.
    """
    arr = check_matrix(d, "D")
    values = _lapack("SVD", arr.shape, np.linalg.svd, arr, compute_uv=False)
    rank = int(_rank(values, _tolerance(None, arr.shape)))
    if hi is None:
        if rank == 0:
            return 0.0
        hi = rank
    check_index_range(lo, hi, rank, "density range")
    return float(_density(values, lo, hi))


def singular_smoothness(d, n: int = 1, epsilon_guard: float = 1e-6) -> float:
    """Order-n smoothness of a window fragment.

    The n-th order form relates consecutive squared singular values, so it
    does not change when the fragment is rescaled; a fragment of exact
    rank <= n caps at sqrt-of-1/guard^2-scale values instead of diverging.
    A zero fragment has no energy at any order and maps to 0.
    """
    arr = check_matrix(d, "D")
    if not 0 < epsilon_guard < np.inf:
        raise InvalidInputError(f"epsilon_guard must be finite and positive, got {epsilon_guard}")
    if n < 1:
        raise OrderError(f"order must be >= 1, got {n}")
    if n + 1 > min(arr.shape):
        raise OrderError(f"order {n} needs {n + 1} singular values, window has {min(arr.shape)}")
    values = _lapack("SVD", arr.shape, np.linalg.svd, arr, compute_uv=False)
    return float(_smoothness(values, n, epsilon_guard))


def select_order(spectrum: SpectrumResult, delta: float) -> int:
    """Smallest n >= 1 with sigma_n - sigma_{n+1} <= delta; r - 1 if none.

    Scans the descending spectrum for the first pair of nearly equal
    neighbors; when the whole spectrum is strictly separated beyond delta
    the full usable order r - 1 is returned. ``delta`` is absolute, not
    relative to sigma_1, so the order picked can change when the fragment
    is rescaled.
    """
    if not delta >= 0:
        raise InvalidInputError(f"delta must be nonnegative, got {delta}")
    r = spectrum.numerical_rank
    if r < 2:
        raise InsufficientRankError(f"numerical rank {r} < 2: no order can be selected")
    return int(_auto_order(spectrum.singular_values, r, delta))


def sliding_scan(img: GrayImage, cfg: WindowConfig, metric: str = METRIC_SMOOTHNESS) -> SmoothnessMap:
    """Evaluate a metric on every window position of a moving-window grid.

    The window at grid cell (i, j) covers pixels
    ``[j*stride, j*stride + w) x [i*stride, i*stride + w)`` and the grid has
    ``floor((side - w) / stride) + 1`` cells per dimension. Each window
    takes one singular-value decomposition (values only, no bases); the
    spectra of a grid row are then scored together by the same
    values-to-metric kernel that ``information_density`` and
    ``singular_smoothness`` use. Intensities are formed one band of w rows
    at a time, so an 8-bit image is never widened to float64 as a whole.
    """
    if metric not in (METRIC_SMOOTHNESS, METRIC_DENSITY):
        raise ConfigError(f"unknown metric {metric!r}")
    w = cfg.window_size
    if w > min(img.width, img.height):
        raise ConfigError(f"window_size {w} exceeds image sides {img.width}x{img.height}")
    if metric == METRIC_SMOOTHNESS and isinstance(cfg.order, int) and cfg.order + 1 > w:
        raise OrderError(f"order {cfg.order} needs {cfg.order + 1} singular values, window has {w}")
    rows = (img.height - w) // cfg.stride + 1
    cols = (img.width - w) // cfg.stride + 1
    grid = np.empty((rows, cols))
    spectra = np.empty((cols, w))

    # One try around the whole loop: entering it costs nothing per window.
    try:
        for i in range(rows):
            # intensities of one band of rows, the division ``pixels`` makes
            band = img.samples[i * cfg.stride : i * cfg.stride + w] / img.maxval
            for j in range(cols):
                left = j * cfg.stride
                spectra[j] = np.linalg.svd(band[:, left : left + w], compute_uv=False)
            grid[i] = _metric(spectra, cfg, metric)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD of the scan window at (row {i}, col {j}) failed: {exc}") from exc
    return SmoothnessMap(grid=grid, config=cfg, metric=metric, decompositions=rows * cols)


def _check_threshold(theta: float) -> None:
    """Raise :class:`ConfigError` for a threshold no value compares with."""
    if np.isnan(theta):
        raise ConfigError("threshold must be a number, got nan")


def threshold_map(smap: SmoothnessMap, theta: float, polarity: str = "above") -> np.ndarray:
    """Binary mask of windows at or beyond ``theta``.

    ``polarity='above'`` flags values >= theta, ``'below'`` flags <= theta.
    The mask is the comparison's own bool array, viewed as uint8 0/1.
    """
    _check_threshold(theta)
    if polarity == "above":
        return (smap.grid >= theta).view(np.uint8)
    if polarity == "below":
        return (smap.grid <= theta).view(np.uint8)
    raise ConfigError(f"polarity must be 'above' or 'below', got {polarity!r}")
