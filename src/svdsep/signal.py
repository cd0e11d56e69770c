"""Multichannel signal embedding and energy-gap cutoff detection.

The central object is the variation chain built from a descending value
sequence sigma_1 >= ... >= sigma_r:

    gap_k   = 2 * sigma_{k+1}^2          (sigma_{r+1} taken as 0)
    gamma   = sum_k gap_k
    SE_k    = -(gap_k / gamma) * ln(gap_k / gamma)   (0 ln 0 = 0)
    V_k     = SE_k - SE_{k-1}            (SE_0 = 0, k = 1..r-1)

The dominant/weak boundary m is the argmax of V. A second, weak/noise
boundary f shows up as a magnitude spike of V past m: once the normalized
gaps drop below 1/e the entropy term decreases through any boundary, so
the spike is negative and only |V| exposes it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DegenerateSpectrumError,
    InsufficientRankError,
    InvalidInputError,
    LayoutError,
    RangeError,
    ShapeError,
)
from .linalg import GsvdResult, SpectrumResult, truncated_sum
from .validation import check_matrix

__all__ = [
    "ChannelSet",
    "EmbedLayout",
    "EgvProfile",
    "CutoffResult",
    "embed",
    "unembed",
    "energy_gap",
    "singular_energies",
    "egv",
    "egv_profile",
    "cutoff_from_values",
    "find_cutoff",
    "find_two_cutoffs",
    "cutoff_from_gsvd",
    "gsvd_cutoff",
    "separate",
    "gsvd_separate",
]

MODE_CHANNEL_COLUMNS = "channel-columns"
MODE_HANKEL = "hankel-sliding"


@dataclass(frozen=True)
class ChannelSet:
    """Equal-length real sample sequences with optional channel labels.

    ``data`` is (samples, channels): one column per channel, matching the
    CSV interchange layout.
    """

    data: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"channel data must be 2-D (samples, channels), got ndim={arr.ndim}")
        if arr.shape[0] < 2 or arr.shape[1] < 1:
            raise ShapeError(f"need at least 2 samples and 1 channel, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("channel data contains non-finite samples")
        if self.labels is not None and len(self.labels) != arr.shape[1]:
            raise ShapeError(f"got {len(self.labels)} labels for {arr.shape[1]} channels")
        object.__setattr__(self, "data", arr)
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))

    @classmethod
    def from_channels(cls, channels, labels=None) -> "ChannelSet":
        """Build from a sequence of 1-D channels (rows become columns)."""
        cols = [np.asarray(c, dtype=np.float64).reshape(-1) for c in channels]
        if not cols:
            raise ShapeError("need at least one channel")
        lengths = {c.size for c in cols}
        if len(lengths) != 1:
            raise ShapeError(f"all channels must have the same length, got lengths {sorted(lengths)}")
        return cls(np.column_stack(cols), labels=labels)

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    @property
    def n_channels(self) -> int:
        return self.data.shape[1]

    def channel(self, index: int) -> np.ndarray:
        return self.data[:, index]


@dataclass(frozen=True)
class EmbedLayout:
    """How signals are reshaped into a matrix and back.

    channel-columns mode: column j holds ``window_length`` consecutive
    samples of channel j starting at ``source_offsets[j]``.

    hankel-sliding mode: columns are overlapping windows of a single
    channel, advancing by ``stride`` samples.
    """

    mode: str
    window_length: int
    stride: int = 1
    source_offsets: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.mode not in (MODE_CHANNEL_COLUMNS, MODE_HANKEL):
            raise LayoutError(f"unknown layout mode {self.mode!r}")
        if self.window_length < 2:
            raise LayoutError(f"window_length must be >= 2, got {self.window_length}")
        if self.stride < 1:
            raise LayoutError(f"stride must be >= 1, got {self.stride}")
        if self.source_offsets is not None:
            offsets = tuple(int(o) for o in self.source_offsets)
            if any(o < 0 for o in offsets):
                raise LayoutError("source offsets must be nonnegative")
            object.__setattr__(self, "source_offsets", offsets)

    @classmethod
    def channel_columns(cls, window_length: int, offsets=None) -> "EmbedLayout":
        return cls(MODE_CHANNEL_COLUMNS, window_length,
                   source_offsets=None if offsets is None else tuple(offsets))

    @classmethod
    def hankel(cls, window_length: int, stride: int = 1) -> "EmbedLayout":
        return cls(MODE_HANKEL, window_length, stride=stride)


def embed(signals: ChannelSet, layout: EmbedLayout) -> np.ndarray:
    """Reshape signals into the trajectory matrix described by ``layout``."""
    n = layout.window_length
    if layout.mode == MODE_CHANNEL_COLUMNS:
        offsets = layout.source_offsets or (0,) * signals.n_channels
        if len(offsets) != signals.n_channels:
            raise LayoutError(f"{len(offsets)} offsets for {signals.n_channels} channels")
        for j, off in enumerate(offsets):
            if off + n > signals.n_samples:
                raise RangeError(f"window [{off}, {off + n}) of column {j} exceeds {signals.n_samples} samples")
        return np.column_stack([signals.data[off : off + n, j] for j, off in enumerate(offsets)])
    # hankel-sliding
    if signals.n_channels != 1:
        raise LayoutError("hankel-sliding layout expects a single channel")
    x = signals.channel(0)
    if n > x.size:
        raise RangeError(f"window_length {n} exceeds signal length {x.size}")
    starts = np.arange(0, x.size - n + 1, layout.stride)
    return x[starts[np.newaxis, :] + np.arange(n)[:, np.newaxis]]


def unembed(matrix, layout: EmbedLayout, target_length: int) -> ChannelSet:
    """Invert :func:`embed`; overlapping hankel windows are combined by
    diagonal averaging (each sample is the mean of every window entry
    covering it). Positions no window covers are zero."""
    m = check_matrix(matrix, "matrix")
    n = layout.window_length
    if m.shape[0] != n:
        raise LayoutError(f"matrix has {m.shape[0]} rows but layout window_length is {n}")
    if layout.mode == MODE_CHANNEL_COLUMNS:
        offsets = layout.source_offsets or (0,) * m.shape[1]
        if len(offsets) != m.shape[1]:
            raise LayoutError(f"{len(offsets)} offsets for {m.shape[1]} columns")
        out = np.zeros((target_length, m.shape[1]))
        for j, off in enumerate(offsets):
            if off + n > target_length:
                raise LayoutError(f"column {j} at offset {off} does not fit in {target_length} samples")
            out[off : off + n, j] = m[:, j]
        return ChannelSet(out)
    starts = np.arange(m.shape[1]) * layout.stride
    if starts.size and starts[-1] + n > target_length:
        raise LayoutError(f"windows extend to {starts[-1] + n} but target_length is {target_length}")
    idx = (starts[np.newaxis, :] + np.arange(n)[:, np.newaxis]).ravel()
    acc = np.bincount(idx, weights=m.ravel(), minlength=target_length)
    cnt = np.bincount(idx, minlength=target_length)
    covered = cnt > 0
    acc[covered] /= cnt[covered]
    return ChannelSet(acc.reshape(-1, 1))


@dataclass(frozen=True)
class EgvProfile:
    """Per-index energy gaps, entropy terms and variations of a spectrum."""

    gaps: np.ndarray               # (r,), gap_r = 0 by the sigma_{r+1} = 0 convention
    singular_energies: np.ndarray  # (r,)
    variations: np.ndarray         # (r-1,)
    gamma: float


@dataclass(frozen=True)
class CutoffResult:
    """Boundary indices splitting a spectrum into dominant/weak/noise bands.

    ``m`` counts the dominant values; ``f`` (optional) the last weak one.
    """

    m: int
    f: int | None
    peak_values: tuple[float, ...]
    method: str


def energy_gap(spectrum: SpectrumResult, k: int) -> float:
    """Increase of the leading/trailing energy gap from split k to k+1.

    Equals ``2 * sigma_{k+1}^2`` with ``sigma_{r+1}`` taken as zero, which
    matches the four-norm difference of the truncated reconstructions.
    """
    r = spectrum.numerical_rank
    if not 1 <= k <= r:
        raise RangeError(f"k={k} outside [1, {r}]")
    s_next = spectrum.singular_values[k] if k < r else 0.0
    return 2.0 * float(s_next) ** 2


def singular_energies(gaps) -> tuple[np.ndarray, float]:
    """Entropy terms -(g/gamma) ln(g/gamma) of the gap increments.

    Returns ``(se, gamma)`` with the 0 ln 0 = 0 convention. Raises
    :class:`DegenerateSpectrumError` when every gap is zero (gamma = 0).
    """
    g = np.asarray(gaps, dtype=np.float64).reshape(-1)
    if g.size == 0 or np.any(g < 0):
        raise InvalidInputError("gaps must be a non-empty nonnegative sequence")
    gamma = float(np.sum(g))
    if gamma <= 0.0:
        raise DegenerateSpectrumError("all energy gaps are zero; entropy chain undefined")
    p = g / gamma
    se = np.zeros_like(p)
    pos = p > 0
    se[pos] = -p[pos] * np.log(p[pos])
    return se + 0.0, gamma  # +0.0 normalizes -0.0 from p = 1


def egv(singular_energies_seq) -> np.ndarray:
    """Variations V_k = SE_k - SE_{k-1} with SE_0 = 0, for k = 1..r-1."""
    se = np.asarray(singular_energies_seq, dtype=np.float64).reshape(-1)
    if se.size < 2:
        return np.zeros(max(se.size - 1, 0))
    return np.diff(se, prepend=0.0)[: se.size - 1]


def egv_profile(values, simplified: bool = False) -> EgvProfile:
    """Full gap/entropy/variation chain for a descending value sequence.

    ``simplified=True`` drops the factor 2 from the gaps; the entropy terms
    depend only on the normalized ratios, so both variants give identical
    variations.
    """
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    if v.size < 1:
        raise InvalidInputError("need at least one value")
    scale = 1.0 if simplified else 2.0
    gaps = scale * np.concatenate([v[1:], [0.0]]) ** 2
    se, gamma = singular_energies(gaps)
    return EgvProfile(gaps=gaps, singular_energies=se, variations=egv(se), gamma=gamma)


def _abs_local_maxima(variations: np.ndarray) -> list[int]:
    """1-based indices of strict local maxima of |V|; boundaries one-sided."""
    a = np.abs(variations)
    out = []
    for i in range(a.size):
        if (i == 0 or a[i] > a[i - 1]) and (i == a.size - 1 or a[i] > a[i + 1]):
            out.append(i + 1)
    return out


def cutoff_from_values(values, method: str = "svd-egv", min_separation: int | None = None) -> CutoffResult:
    """Cutoff detection on a plain descending value sequence.

    ``m`` is the argmax of the variations (smallest index on ties). When
    ``min_separation`` is given, a second boundary ``f`` is sought among
    the strict local maxima of |V| at indices >= m + min_separation; if
    none qualifies the result carries ``f=None`` and a warning is issued.
    """
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    if v.size < 2:
        raise InsufficientRankError(f"need at least 2 values for a cutoff, got {v.size}")
    if np.any(v < 0) or np.any(np.diff(v) > 0):
        raise InvalidInputError("values must be nonnegative and non-increasing")
    profile = egv_profile(v)
    var = profile.variations
    m = int(np.argmax(var)) + 1
    if min_separation is None:
        return CutoffResult(m=m, f=None, peak_values=(float(var[m - 1]),), method=method)
    candidates = [k for k in _abs_local_maxima(var) if k >= m + min_separation]
    if not candidates:
        warnings.warn("no second variation peak found; treating spectrum as single-source",
                      RuntimeWarning, stacklevel=2)
        return CutoffResult(m=m, f=None, peak_values=(float(var[m - 1]),), method=method)
    f = max(candidates, key=lambda k: abs(var[k - 1]))
    return CutoffResult(m=m, f=f, peak_values=(float(var[m - 1]), float(var[f - 1])), method=method)


def find_cutoff(spectrum: SpectrumResult) -> CutoffResult:
    """Dominant/weak boundary of a spectrum: argmax of the variation chain."""
    r = spectrum.numerical_rank
    if r < 2:
        raise InsufficientRankError(f"numerical rank {r} < 2: spectrum is degenerate, no cutoff exists")
    return cutoff_from_values(spectrum.singular_values[:r], method="svd-egv")


def find_two_cutoffs(spectrum: SpectrumResult, min_separation: int = 1) -> CutoffResult:
    """Both boundaries (dominant/weak and weak/noise) of a spectrum.

    ``f`` is absent when no second peak qualifies, which also covers
    noise-free spectra whose weak band runs to the end of the spectrum.
    """
    r = spectrum.numerical_rank
    if r < 3:
        raise InsufficientRankError(f"numerical rank {r} < 3: two cutoffs need at least three values")
    if min_separation < 1:
        raise InvalidInputError(f"min_separation must be >= 1, got {min_separation}")
    return cutoff_from_values(spectrum.singular_values[:r], method="svd-egv", min_separation=min_separation)


def cutoff_from_gsvd(result: GsvdResult) -> CutoffResult:
    """Cutoff on the finite generalized values of an existing decomposition.

    Infinite generalized values (directions where B vanishes) cannot enter
    the logarithmic chain; they are unconditionally counted into the
    dominant band and a warning is issued.
    """
    values = result.generalized_values
    finite = values[np.isfinite(values)]
    n_inf = values.size - finite.size
    if n_inf:
        warnings.warn(f"{n_inf} infinite generalized value(s) excluded from the "
                      "variation chain and counted as dominant", RuntimeWarning, stacklevel=2)
    if finite.size < 2:
        raise InsufficientRankError(f"only {finite.size} finite generalized values; need at least 2")
    inner = cutoff_from_values(finite, method="gsvd-egv")
    return CutoffResult(m=n_inf + inner.m, f=None, peak_values=inner.peak_values, method="gsvd-egv")


def gsvd_cutoff(a, b) -> CutoffResult:
    """Decompose the pair (A, B) and find the boundary on its generalized values."""
    return cutoff_from_gsvd(linalg.gsvd(a, b))


def separate(spectrum: SpectrumResult, cut: CutoffResult) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a matrix into dominant, weak and noise reconstructions.

    Returns the partial sums over singular triples 1..m, m+1..f and
    f+1..r. An absent ``f`` means the weak band runs to the end of the
    spectrum and the noise part is zero; the three parts always sum to the
    rank-r reconstruction.
    """
    r = spectrum.numerical_rank
    m = cut.m
    f = cut.f if cut.f is not None else r
    if not 1 <= m <= r:
        raise RangeError(f"m={m} outside [1, {r}]")
    if not m <= f <= r:
        raise RangeError(f"f={f} outside [{m}, {r}]")
    zero = np.zeros(spectrum.shape)
    dominant = truncated_sum(spectrum, 1, m)
    weak = truncated_sum(spectrum, m + 1, f) if m < f else zero
    noise = truncated_sum(spectrum, f + 1, r) if f < r else zero
    return dominant, weak, noise


def gsvd_separate(result: GsvdResult, cut: CutoffResult) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Band-split the A-side reconstruction of a generalized decomposition.

    Rank-one singular triples do not exist in this factorization, so each
    band keeps the columns of U and X inside its range of the descending
    generalized-value order and reconstructs U C_band X^T from them.
    """
    n = result.alpha.size
    m = cut.m
    f = cut.f if cut.f is not None else n
    if not 1 <= m <= n:
        raise RangeError(f"m={m} outside [1, {n}]")
    if not m <= f <= n:
        raise RangeError(f"f={f} outside [{m}, {n}]")

    def band(first: int, last: int) -> np.ndarray:
        # descending position i (1-based) lives at storage index n - i
        lo, hi = n - last, n - first + 1
        return (result.u_basis[:, lo:hi] * result.alpha[lo:hi]) @ result.x_factor[:, lo:hi].T

    return band(1, m), band(m + 1, f), band(f + 1, n)
