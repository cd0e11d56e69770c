"""Window-level texture metrics and the sliding-window scanner.

Two metrics are offered per window fragment D:

* information density  sqrt(sum of selected sigma_i^2) -- scales with
  brightness;
* singular smoothness  sqrt(sum_{i<=n} (sigma_i^2 - sigma_{i+1}^2) /
  max(sigma_{i+1}^2, guard^2 sigma_1^2)) -- a ratio form that is invariant
  under rescaling the window, high for near-rank-1 (smooth) fragments and
  low for textured ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    InsufficientRankError,
    InvalidInputError,
    OrderError,
    RangeError,
    ShapeError,
)
from .linalg import SpectrumResult
from .validation import check_matrix

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

_EPS = np.finfo(np.float64).eps

METRIC_SMOOTHNESS = "smoothness"
METRIC_DENSITY = "information-density"


@dataclass(frozen=True)
class GrayImage:
    """Grayscale image with intensities normalized to [0, 1]."""

    pixels: np.ndarray  # (height, width)

    def __post_init__(self):
        arr = np.asarray(self.pixels, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"image must be 2-D, got ndim={arr.ndim}")
        if arr.shape[0] < 2 or arr.shape[1] < 2:
            raise ShapeError(f"image must be at least 2x2, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("image contains non-finite pixels")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise InvalidInputError("pixel intensities must lie in [0, 1]")
        object.__setattr__(self, "pixels", arr)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @classmethod
    def from_uint8(cls, arr) -> "GrayImage":
        """Normalize an 8-bit array to [0, 1]."""
        a = np.asarray(arr)
        return cls(a.astype(np.float64) / 255.0)

    def to_uint8(self) -> np.ndarray:
        return np.round(self.pixels * 255.0).astype(np.uint8)


@dataclass(frozen=True)
class WindowConfig:
    """Square sliding-window geometry and metric options.

    ``order`` is a fixed smoothness order n >= 1, or the string "auto" to
    pick the smallest n with sigma_n - sigma_{n+1} <= delta per window.
    ``epsilon_guard`` floors near-zero denominators at guard^2 sigma_1^2 so
    degenerate (e.g. constant) windows stay finite. ``density_range`` is
    the 1-based inclusive index range of the density metric; an upper
    bound of None means the full numerical rank of each window.
    """

    window_size: int
    stride: int = 1
    order: int | str = 1
    delta: float = 0.0
    epsilon_guard: float = 1e-6
    density_range: tuple[int, int | None] = (1, None)

    def __post_init__(self):
        if self.window_size < 2:
            raise ConfigError(f"window_size must be >= 2, got {self.window_size}")
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")
        if isinstance(self.order, str):
            if self.order != "auto":
                raise ConfigError(f"order must be a positive integer or 'auto', got {self.order!r}")
        elif self.order < 1:
            raise ConfigError(f"order must be >= 1, got {self.order}")
        if self.delta < 0:
            raise ConfigError(f"delta must be nonnegative, got {self.delta}")
        if self.epsilon_guard <= 0:
            raise ConfigError(f"epsilon_guard must be positive, got {self.epsilon_guard}")
        lo = self.density_range[0]
        hi = self.density_range[1]
        if lo < 1 or (hi is not None and hi < lo):
            raise ConfigError(f"invalid density_range {self.density_range}")


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


def _rank_of(values: np.ndarray, dim: int | None = None) -> int:
    """Numerical rank at the default relative tolerance max(m, n) * eps."""
    if values.size == 0 or values[0] <= 0.0:
        return 0
    if dim is None:
        dim = values.size
    return int(np.count_nonzero(values > dim * _EPS * values[0]))


def _density_from_values(values: np.ndarray, lo: int, hi: int) -> float:
    return float(np.sqrt(np.sum(values[lo - 1 : hi] ** 2)))


def _smoothness_from_values(values: np.ndarray, n: int, guard: float) -> float:
    if n < 1:
        raise OrderError(f"order must be >= 1, got {n}")
    if n + 1 > values.size:
        raise OrderError(f"order {n} needs {n + 1} singular values, window has {values.size}")
    s1_sq = values[0] ** 2
    if s1_sq == 0.0:
        return 0.0
    sq = values[: n + 1] ** 2
    den = np.maximum(sq[1:], guard * guard * s1_sq)
    return float(np.sqrt(np.sum((sq[:-1] - sq[1:]) / den)))


def information_density(d, lo: int = 1, hi: int | None = None) -> float:
    """Root energy of the window spectrum over the 1-based range [lo, hi].

    ``hi=None`` selects the full numerical rank. The range must fall
    within the rank of the fragment.
    """
    arr = check_matrix(d, "D")
    values = np.linalg.svd(arr, compute_uv=False)
    rank = _rank_of(values, max(arr.shape))
    if hi is None:
        hi = rank
    if not 1 <= lo <= hi <= rank:
        raise RangeError(f"density range [{lo}, {hi}] must satisfy 1 <= lo <= hi <= rank ({rank})")
    return _density_from_values(values, lo, hi)


def singular_smoothness(d, n: int = 1, epsilon_guard: float = 1e-6) -> float:
    """Order-n smoothness of a window fragment.

    The n-th order form relates consecutive squared singular values, so it
    does not change when the fragment is rescaled; a fragment of exact
    rank <= n caps at sqrt-of-1/guard^2-scale values instead of diverging.
    A zero fragment has no energy at any order and maps to 0.
    """
    arr = check_matrix(d, "D")
    if epsilon_guard <= 0:
        raise InvalidInputError(f"epsilon_guard must be positive, got {epsilon_guard}")
    values = np.linalg.svd(arr, compute_uv=False)
    return _smoothness_from_values(values, n, epsilon_guard)


def select_order(spectrum: SpectrumResult, delta: float) -> int:
    """Smallest n >= 1 with sigma_n - sigma_{n+1} <= delta; r - 1 if none.

    Scans the descending spectrum for the first pair of nearly equal
    neighbors; when the whole spectrum is strictly separated beyond delta
    the full usable order r - 1 is returned.
    """
    if delta < 0:
        raise InvalidInputError(f"delta must be nonnegative, got {delta}")
    r = spectrum.numerical_rank
    if r < 2:
        raise InsufficientRankError(f"numerical rank {r} < 2: no order can be selected")
    return _select_order_from_values(spectrum.singular_values, r, delta)


def _select_order_from_values(values: np.ndarray, rank: int, delta: float) -> int:
    for n in range(1, rank):
        if values[n - 1] - values[n] <= delta:
            return n
    return rank - 1


def _window_value(win: np.ndarray, cfg: WindowConfig, metric: str) -> float:
    values = np.linalg.svd(win, compute_uv=False)
    if metric == METRIC_DENSITY:
        rank = _rank_of(values)
        lo, hi = cfg.density_range
        if hi is None:
            hi = rank
        if rank == 0 or lo > rank:
            return 0.0
        return _density_from_values(values, lo, min(hi, rank))
    if cfg.order == "auto":
        rank = _rank_of(values)
        n = _select_order_from_values(values, rank, cfg.delta) if rank >= 2 else 1
    else:
        n = cfg.order
    return _smoothness_from_values(values, n, cfg.epsilon_guard)


def sliding_scan(img: GrayImage, cfg: WindowConfig, metric: str = METRIC_SMOOTHNESS) -> SmoothnessMap:
    """Evaluate a metric on every window position of a moving-window grid.

    The window at grid cell (i, j) covers pixels
    ``[j*stride, j*stride + w) x [i*stride, i*stride + w)`` and the grid has
    ``floor((side - w) / stride) + 1`` cells per dimension. Each window
    takes one singular-value decomposition (values only, no bases).
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
    px = img.pixels

    for i in range(rows):
        top = i * cfg.stride
        for j in range(cols):
            left = j * cfg.stride
            grid[i, j] = _window_value(px[top : top + w, left : left + w], cfg, metric)
    return SmoothnessMap(grid=grid, config=cfg, metric=metric, decompositions=rows * cols)


def threshold_map(smap: SmoothnessMap, theta: float, polarity: str = "above") -> np.ndarray:
    """Binary mask of windows at or beyond ``theta``.

    ``polarity='above'`` flags values >= theta, ``'below'`` flags <= theta.
    """
    if polarity == "above":
        return (smap.grid >= theta).astype(np.uint8)
    if polarity == "below":
        return (smap.grid <= theta).astype(np.uint8)
    raise ConfigError(f"polarity must be 'above' or 'below', got {polarity!r}")
