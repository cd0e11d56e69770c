"""Window-level texture metrics and the sliding-window scanner.

The scan scores each window fragment D by its order-n singular smoothness
sqrt(sum_{i<=n} (sigma_i^2 - sigma_{i+1}^2) / max(sigma_{i+1}^2, g^2 sigma_1^2))
at one fixed integer order n, with the fixed guard g = 1e-6 -- a ratio
form that is invariant under rescaling the window, high for near-rank-1
(smooth) fragments and low for textured ones. The scalar
``information_density`` gives one fragment's root energy
sqrt(sum of selected sigma_i^2), which scales with brightness.

Both read only the singular values. ``sliding_scan`` takes one SVD per
window and scores a whole grid row at once with the kernel that
``singular_smoothness`` calls on a batch of one. The kernels square each
spectrum shifted by the binary exponent of its sigma_1
(``linalg._shifted``), so smoothness and density / c of a window scaled
by c hold from c = 1e-300 to 1e300.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConvergenceError, InvalidInputError, OrderError, ShapeError
from .linalg import _lapack, _rank, _shifted
from .validation import check_index_range, check_integer, check_matrix

__all__ = [
    "GrayImage",
    "WindowConfig",
    "SmoothnessMap",
    "information_density",
    "singular_smoothness",
    "sliding_scan",
    "threshold_map",
]

# Entries per float64 temporary of ``_quantize_u8`` (32 KiB): the temporary
# stays a small fraction of the array being quantized, however wide its rows.
_QUANTIZE_ENTRIES = 4096

# Smoothness guard g: each sigma_{i+1}^2 denominator is floored at (g sigma_1)^2.
_GUARD = 1e-6


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
    """Square sliding-window geometry and smoothness order.

    The order n >= 1 needs n + 1 singular values, so ``order >= window_size``
    is an :class:`OrderError` here, before any image is read.
    """

    window_size: int
    stride: int = 1
    order: int = 1

    def __post_init__(self):
        for name in ("window_size", "stride", "order"):
            check_integer(getattr(self, name), name, ConfigError)
        if self.window_size < 2:
            raise ConfigError(f"window_size must be >= 2, got {self.window_size}")
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")
        if self.order < 1:
            raise ConfigError(f"order must be >= 1, got {self.order}")
        if self.order + 1 > self.window_size:
            raise OrderError(f"order {self.order} needs {self.order + 1} singular values, "
                             f"window has {self.window_size}")


@dataclass(frozen=True)
class SmoothnessMap:
    """Grid of per-window smoothness values and the count of window SVDs run."""

    grid: np.ndarray
    decompositions: int

    @property
    def grid_rows(self) -> int:
        return self.grid.shape[0]

    @property
    def grid_cols(self) -> int:
        return self.grid.shape[1]


def _density(values: np.ndarray, lo: int, hi: int) -> np.floating:
    """Root energy of one spectrum over the 1-based range lo..hi."""
    sq, e = _shifted(values)
    sq *= sq
    return np.ldexp(np.sqrt(np.sum(sq[lo - 1 : hi])), e[0])


def _smoothness(values: np.ndarray, n: int) -> np.ndarray:
    """Order-n smoothness of each descending spectrum along the last axis.

    A spectrum with sigma_1 = 0 has no energy at any order and maps to 0.
    """
    sq, _ = _shifted(values[..., : n + 1])
    # the guard floor squares sigma_1 with libm pow, as numpy's scalar ** does;
    # x * x differs from it by one ulp on ~0.1 % of inputs
    s1_sq = np.float_power(sq[..., :1], 2)
    sq *= sq
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = (sq[..., :-1] - sq[..., 1:]) / np.maximum(sq[..., 1:], _GUARD * _GUARD * s1_sq)
        return np.where(s1_sq[..., 0] == 0.0, 0.0, np.sqrt(np.sum(terms, axis=-1)))


def information_density(d, lo: int = 1, hi: int | None = None) -> float:
    """Root energy of the window spectrum over the 1-based range [lo, hi].

    ``hi=None`` selects the full numerical rank, so a fragment of rank 0
    has density 0. An explicit range must fall within the rank of the
    fragment.
    """
    arr = check_matrix(d, "D")
    values = _lapack("SVD", arr.shape, np.linalg.svd, arr, compute_uv=False)
    rank = int(_rank(values, max(arr.shape)))
    if hi is None:
        if rank == 0:
            return 0.0
        hi = rank
    check_index_range(lo, hi, rank, "density range")
    return float(_density(values, lo, hi))


def singular_smoothness(d, n: int = 1) -> float:
    """Order-n smoothness of a window fragment.

    The n-th order form relates consecutive squared singular values, so it
    does not change when the fragment is rescaled; a fragment of exact
    rank <= n caps at about 1/g (g = 1e-6, the scan's guard) instead of
    diverging. A zero fragment has no energy at any order and maps to 0.
    """
    arr = check_matrix(d, "D")
    check_integer(n, "order", OrderError)
    if n < 1:
        raise OrderError(f"order must be >= 1, got {n}")
    if n + 1 > min(arr.shape):
        raise OrderError(f"order {n} needs {n + 1} singular values, window has {min(arr.shape)}")
    values = _lapack("SVD", arr.shape, np.linalg.svd, arr, compute_uv=False)
    return float(_smoothness(values, n))


def sliding_scan(img: GrayImage, cfg: WindowConfig) -> SmoothnessMap:
    """Evaluate the smoothness on every window position of a moving-window grid.

    The window at grid cell (i, j) covers pixels
    ``[j*stride, j*stride + w) x [i*stride, i*stride + w)`` and the grid has
    ``floor((side - w) / stride) + 1`` cells per dimension. Each window
    takes one singular-value decomposition (values only, no bases); the
    spectra of a grid row are then scored together by the same
    values-to-smoothness kernel that ``singular_smoothness`` uses.
    Intensities are formed one band of w rows at a time, so an 8-bit image
    is never widened to float64 as a whole.
    """
    w = cfg.window_size
    if w > min(img.width, img.height):
        raise ConfigError(f"window_size {w} exceeds image sides {img.width}x{img.height}")
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
            grid[i] = _smoothness(spectra, cfg.order)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD of the scan window at (row {i}, col {j}) failed: {exc}") from exc
    return SmoothnessMap(grid=grid, decompositions=rows * cols)


def _check_threshold(theta: float, polarity: str) -> None:
    """Raise :class:`ConfigError` for a threshold no value compares with or an unknown polarity."""
    if np.isnan(theta):
        raise ConfigError("threshold must be a number, got nan")
    if polarity not in ("above", "below"):
        raise ConfigError(f"polarity must be 'above' or 'below', got {polarity!r}")


def threshold_map(smap: SmoothnessMap, theta: float, polarity: str = "above") -> np.ndarray:
    """Binary mask of windows at or beyond ``theta``.

    ``polarity='above'`` flags values >= theta, ``'below'`` flags <= theta.
    The mask is the comparison's own bool array, viewed as uint8 0/1.
    """
    _check_threshold(theta, polarity)
    if polarity == "above":
        return (smap.grid >= theta).view(np.uint8)
    return (smap.grid <= theta).view(np.uint8)
