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
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    InsufficientRankError,
    InvalidInputError,
    LayoutError,
    RangeError,
    ShapeError,
)
from .linalg import GsvdResult, SpectrumResult, StreamedSpectrum, _band, _shifted
from .validation import check_index_range, check_integer, check_matrix

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
    "cutoff",
    "separate",
    "band_signals",
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
        _check_samples(arr.shape)
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


def _check_samples(shape: tuple[int, int]) -> None:
    """Raise :class:`ShapeError` unless a (samples, channels) table of ``shape``
    has what a :class:`ChannelSet` needs: 2 samples and 1 channel."""
    if shape[0] < 2 or shape[1] < 1:
        raise ShapeError(f"need at least 2 samples and 1 channel, got {shape}")


@dataclass(frozen=True)
class EmbedLayout:
    """How signals are reshaped into a matrix and back.

    channel-columns mode: column j holds the first ``window_length``
    samples of channel j.

    hankel-sliding mode: columns are overlapping windows of a single
    channel, advancing by ``stride`` samples.
    """

    mode: str
    window_length: int
    stride: int = 1

    def __post_init__(self):
        if self.mode not in (MODE_CHANNEL_COLUMNS, MODE_HANKEL):
            raise LayoutError(f"unknown layout mode {self.mode!r}")
        for name in ("window_length", "stride"):
            check_integer(getattr(self, name), name, LayoutError)
        if self.window_length < 2:
            raise LayoutError(f"window_length must be >= 2, got {self.window_length}")
        if self.stride < 1:
            raise LayoutError(f"stride must be >= 1, got {self.stride}")

    @classmethod
    def channel_columns(cls, window_length: int) -> "EmbedLayout":
        return cls(MODE_CHANNEL_COLUMNS, window_length)

    @classmethod
    def hankel(cls, window_length: int, stride: int = 1) -> "EmbedLayout":
        return cls(MODE_HANKEL, window_length, stride=stride)


def embed(signals: ChannelSet, layout: EmbedLayout) -> np.ndarray:
    """The trajectory matrix of ``signals`` described by ``layout``, as a
    read-only view of the samples: neither layout copies them.

    A channel-columns matrix is the first ``window_length`` rows of the
    (samples, channels) data. A hankel matrix has column j the window of
    the single channel at sample j * stride, so a sample appears in up to
    L entries.
    """
    n = layout.window_length
    if layout.mode == MODE_HANKEL and signals.n_channels != 1:
        raise LayoutError("hankel-sliding layout expects a single channel")
    if n > signals.n_samples:
        raise RangeError(f"window_length {n} exceeds signal length {signals.n_samples}")
    if layout.mode == MODE_HANKEL:
        return np.lib.stride_tricks.sliding_window_view(signals.channel(0), n)[:: layout.stride].T
    matrix = signals.data[:n]
    matrix.flags.writeable = False
    return matrix


def unembed(matrix, layout: EmbedLayout, target_length: int) -> ChannelSet:
    """Invert :func:`embed`; overlapping hankel windows are combined by
    diagonal averaging (each sample is the mean of every window entry
    covering it). Positions no window covers are zero."""
    return ChannelSet(_unembed(check_matrix(matrix, "matrix"), layout, target_length))


def _hankel_counts(j: np.ndarray, n: int, windows: int, stride: int = 1) -> np.ndarray:
    """How many of ``windows`` Hankel windows of length ``n`` cover each
    sample index in ``j``, as floats.

    Window k covers samples [k * stride, k * stride + n), so sample j lies in
    windows k from ceil((j - n + 1) / stride), and not below 0, to
    floor(j / stride), and not above the last window: the diagonal-averaging
    divisor of SSA (Korobeynikov, Statistics and Its Interface 3(3), 2010).
    A sample between windows (stride > n) counts 0. The terms are small
    integers, so the count is exact.
    """
    return np.minimum(j // stride, windows - 1) + 1.0 - np.maximum(0, -((n - 1 - j) // stride))


def _unembed(matrix: np.ndarray, layout: EmbedLayout, target_length: int) -> np.ndarray:
    """The (samples, channels) array :func:`unembed` gives for ``matrix``.

    Channel-columns puts the matrix in the first rows. A Hankel matrix is
    diagonal-averaged in one pass over its rows: entry (i, j) is sample
    i + j * stride, so each row adds into one strided slice, a sample
    receives its entries in row order, and their sum is divided by the
    sample's window count (:func:`_hankel_counts`).

    Raises :class:`LayoutError`, before any row is read, when the rows are
    not the layout's window length or the windows run past ``target_length``.
    """
    rows, columns = matrix.shape
    n = layout.window_length
    if rows != n:
        raise LayoutError(f"matrix has {rows} rows but layout window_length is {n}")
    end = (columns - 1) * layout.stride + n if layout.mode == MODE_HANKEL else n
    if end > target_length:
        raise LayoutError(f"windows extend to {end} but target_length is {target_length}")
    if layout.mode != MODE_HANKEL:
        out = np.zeros((target_length, columns))
        out[:end] = matrix
        return out
    span = (columns - 1) * layout.stride + 1
    acc = np.zeros(target_length)
    for i, row in enumerate(matrix):
        acc[i : i + span : layout.stride] += row
    counts = _hankel_counts(np.arange(end), n, columns, layout.stride)
    acc[:end] /= np.maximum(counts, 1.0, out=counts)  # a sample between windows keeps its 0
    return acc.reshape(-1, 1)


def _hankel_rows(basis: np.ndarray, ranges, x: np.ndarray, j0: int, j1: int) -> list[np.ndarray]:
    """Rows ``[j0, j1)``, within the samples of ``x``, of the dominant, weak
    and noise signals of the stride-1 Hankel trajectory X of ``x`` with left
    basis ``basis``.

    ``w_k = u_k^T X`` is ``np.correlate(x, u_k, "valid")``, and a band's
    diagonal sums are the sum over its ranks of ``np.convolve(u_k, w_k)``
    (Korobeynikov, Statistics and Its Interface 3(3), 2010), divided by each
    sample's window count (:func:`_hankel_counts`). Only the windows over
    the rows are read (more than L where X has them: ``np.convolve`` sums in
    reverse order when its second operand is the longer), and rows inside L
    windows each are its "valid" part, so each row has the bytes of the sums
    over all of x. The noise is x less the other two.
    """
    n = basis.shape[0]
    windows = x.size - n + 1
    k1 = min(windows, max(j1, n + 1))
    k0 = max(0, min(j0 - n + 1, k1 - n - 1))
    mode, first = ("valid", k0 + n - 1) if n - 1 <= j0 and j1 <= windows else ("full", k0)
    counts = _hankel_counts(np.arange(j0, j1), n, windows)
    dominant, weak, noise = (np.zeros((j1 - j0, 1)) for _ in range(3))
    noise[:, 0] = x[j0:j1]
    windowed = x[k0 : k1 + n - 1]
    for acc, (lo, hi) in zip((dominant, weak), ranges):
        for u in basis[:, lo:hi].T:
            acc[:, 0] += np.convolve(u, np.correlate(windowed, u, "valid"), mode)[j0 - first : j1 - first]
        acc[:, 0] /= counts  # at stride 1 every sample counts at least 1
        noise -= acc
    return [dominant, weak, noise]


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
    ``profile`` is the variation chain both were read from.
    """

    m: int
    f: int | None
    peak_values: tuple[float, ...]
    method: str
    profile: EgvProfile | None = field(default=None, compare=False, repr=False)


def energy_gap(spectrum: SpectrumResult, k: int) -> float:
    """Increase of the leading/trailing energy gap from split k to k+1.

    Equals ``2 * sigma_{k+1}^2`` with ``sigma_{r+1}`` taken as zero, which
    matches the four-norm difference of the truncated reconstructions.
    The square is taken of the significand and shifted back by twice the
    exponent, so it reads inf, with no warning, where the true value is
    not representable, and 0 where it is below the least subnormal.
    """
    r = spectrum.numerical_rank
    check_index_range(k, k, r, "split k")
    significand, e = np.frexp(spectrum.singular_values[k] if k < r else 0.0)
    with np.errstate(over="ignore"):
        return float(np.ldexp(2.0 * significand * significand, 2 * e))


def singular_energies(gaps) -> tuple[np.ndarray, float]:
    """Entropy terms -(g/gamma) ln(g/gamma) of the gap increments.

    Returns ``(se, gamma)`` with the 0 ln 0 = 0 convention. Raises
    :class:`DegenerateSpectrumError` when every gap is zero (gamma = 0).
    """
    g = np.asarray(gaps, dtype=np.float64).reshape(-1)
    if g.size == 0 or not np.all((g >= 0) & (g < np.inf)):
        raise InvalidInputError("gaps must be a non-empty finite nonnegative sequence")
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
    return np.diff(se, prepend=0.0)[: se.size - 1]


def egv_profile(values, simplified: bool = False) -> EgvProfile:
    """Full gap/entropy/variation chain for a descending value sequence.

    ``simplified=True`` drops the factor 2 from the gaps; the entropy terms
    depend only on the normalized ratios, so both variants give identical
    variations. The chain is built from the values shifted by the binary
    exponent of sigma_1, which is exact, so it does not under- or overflow
    at any scale; ``gaps`` and ``gamma`` are shifted back and read inf only
    where the true value is not representable.
    """
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    if v.size < 1 or not np.all(np.isfinite(v)):
        raise InvalidInputError("values must be a non-empty finite sequence")
    scale = 1.0 if simplified else 2.0
    u, e = _shifted(v)
    gaps = scale * np.concatenate([u[1:], [0.0]]) ** 2
    se, gamma = singular_energies(gaps)
    with np.errstate(over="ignore"):  # inf only where the true value is not representable
        gaps, gamma = np.ldexp(gaps, 2 * e), float(np.ldexp(gamma, 2 * e[0]))
    return EgvProfile(gaps=gaps, singular_energies=se, variations=egv(se), gamma=gamma)


def cutoff_from_values(values, method: str = "svd-egv") -> CutoffResult:
    """Dominant/weak boundary of a plain descending value sequence.

    ``m`` is the argmax of the variations (smallest index on ties); the
    result keeps the chain it was read from.
    """
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    if v.size < 2:
        raise InsufficientRankError(f"need at least 2 values for a cutoff, got {v.size}")
    if not np.all(np.isfinite(v)) or np.any(v < 0) or np.any(np.diff(v) > 0):
        raise InvalidInputError("values must be finite, nonnegative and non-increasing")
    profile = egv_profile(v)
    m = int(np.argmax(profile.variations)) + 1
    return CutoffResult(m=m, f=None, peak_values=(float(profile.variations[m - 1]),),
                        method=method, profile=profile)


def find_cutoff(spectrum: SpectrumResult) -> CutoffResult:
    """Dominant/weak boundary of a spectrum: argmax of the variation chain."""
    r = spectrum.numerical_rank
    if r < 2:
        raise InsufficientRankError(f"numerical rank {r} < 2: spectrum is degenerate, no cutoff exists")
    return cutoff_from_values(spectrum.singular_values[:r], method="svd-egv")


def find_two_cutoffs(spectrum: SpectrumResult) -> CutoffResult:
    """Both boundaries (dominant/weak and weak/noise) of a spectrum.

    ``m`` is that of :func:`find_cutoff`; ``f`` is the strict local maximum
    of |V| of largest magnitude past m. It is absent, with a warning, when
    no peak qualifies, which also covers noise-free spectra whose weak band
    runs to the end of the spectrum.
    """
    r = spectrum.numerical_rank
    if r < 3:
        raise InsufficientRankError(f"numerical rank {r} < 3: two cutoffs need at least three values")
    cut = find_cutoff(spectrum)
    var = cut.profile.variations
    a = np.abs(var)
    # 1-based k > m >= 1, so a[k - 2] exists; the last index is a peak one-sided
    candidates = [k for k in range(cut.m + 1, a.size + 1)
                  if a[k - 1] > a[k - 2] and (k == a.size or a[k - 1] > a[k])]
    if not candidates:
        warnings.warn("no second variation peak found; treating spectrum as single-source",
                      RuntimeWarning, stacklevel=2)
        return cut
    f = max(candidates, key=lambda k: a[k - 1])
    return replace(cut, f=f, peak_values=cut.peak_values + (float(var[f - 1]),))


def cutoff_from_gsvd(result: GsvdResult) -> CutoffResult:
    """Cutoff on the finite generalized values of an existing decomposition.

    The chain is read from the balanced values, so no rescaling of A or B
    moves the cutoff. Infinite values (directions where B vanishes) cannot
    enter the logarithmic chain; they are unconditionally counted into the
    dominant band and a warning is issued.
    """
    values = result.balanced_values
    finite = values[np.isfinite(values)]
    n_inf = values.size - finite.size
    if n_inf:
        warnings.warn(f"{n_inf} infinite generalized value(s) excluded from the "
                      "variation chain and counted as dominant", RuntimeWarning, stacklevel=2)
    if finite.size < 2:
        raise InsufficientRankError(f"only {finite.size} finite generalized values; need at least 2")
    inner = cutoff_from_values(finite, method="gsvd-egv")
    return replace(inner, m=n_inf + inner.m)


def cutoff(factors: SpectrumResult | StreamedSpectrum | GsvdResult) -> CutoffResult:
    """The band boundaries :func:`separate` splits a decomposition at.

    A spectrum of numerical rank >= 3 gets both boundaries
    (:func:`find_two_cutoffs`), a rank-2 spectrum only the dominant/weak
    one (:func:`find_cutoff`). A generalized decomposition gets the
    dominant/weak boundary of its finite values (:func:`cutoff_from_gsvd`).
    """
    if isinstance(factors, GsvdResult):
        return cutoff_from_gsvd(factors)
    if factors.numerical_rank >= 3:
        return find_two_cutoffs(factors)
    return find_cutoff(factors)


def separate(factors: SpectrumResult | GsvdResult,
             cut: CutoffResult) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a matrix into dominant, weak and noise reconstructions.

    Returns the partial sums over descending positions 1..m, m+1..f and
    f+1..r, where r is the numerical rank of a spectrum or the column count
    of a generalized decomposition. An absent ``f`` means the weak band
    runs to the end and the noise part is zero; the three parts always sum
    to the rank-r reconstruction (of A, for a generalized decomposition).

    A generalized decomposition has no rank-one triples: each band keeps
    the columns of U and X inside its range and reconstructs U C_band X^T.
    A streamed spectrum, with no right basis, is a :class:`LayoutError`, as
    is a generalized decomposition built from A's triangle, with no rows of A.
    """
    if isinstance(factors, StreamedSpectrum):
        raise LayoutError("a streamed spectrum forms no matrix parts: take its band_signals")
    return tuple(_band_rows(factors, _band_ranges(factors, cut), 0, factors.shape[0]))


def band_signals(factors: SpectrumResult | StreamedSpectrum | GsvdResult, cut: CutoffResult):
    """Yield the dominant, weak and noise signals of ``factors`` split at ``cut``.

    An SVD or GSVD yields :func:`separate`'s parts, bitwise, as whole
    channel columns of ``factors.shape[0]`` samples. A streamed spectrum of
    the window view ``embed(...).T`` of a stride-1 hankel layout yields its
    signals over the K + L - 1 samples the view covers, formed by rank with
    no block of the trajectory read; they agree with ``unembed`` of the
    matrix route's parts to rounding. Its noise is the input less the other
    two, so the three sum to the input, and the noise keeps the residual
    past the numerical rank r when r < min(L, K). Any other streamed
    spectrum is a :class:`LayoutError` before any band is formed.
    """
    samples = sum(factors.shape) - 1 if isinstance(factors, StreamedSpectrum) else factors.shape[0]
    for table in _band_blocks(factors, cut)(0, samples):
        yield ChannelSet(table)


def _band_blocks(factors: SpectrumResult | StreamedSpectrum | GsvdResult, cut: CutoffResult, a=None):
    """``blocks(r0, r1)``: rows ``[r0, r1)`` of the three signals of
    :func:`band_signals`, exact whatever the blocks, after every check.

    An SVD or GSVD gives the rows of its bands (:func:`_band_rows`); a GSVD
    reads them from ``a`` when given, an object whose ``a[r0:r1]`` are rows
    of A, as the CLI's second read of A is. A
    streamed spectrum is hankelized by rank (:func:`_hankel_rows`) from x,
    read in place as a 1-D view of the memory of ``transposed``: in the
    window view ``embed(...).T``, a row stride equal to its column stride
    puts entry (j, i) at the one location of sample j + i. Which
    factorization runs on which layout is the CLI's choice, not checked here.
    """
    ranges = _band_ranges(factors, cut)
    if not isinstance(factors, StreamedSpectrum):
        return lambda r0, r1: _band_rows(factors, ranges, r0, r1, a)
    xt = factors.transposed
    pitch = xt.strides[1]  # bytes from one sample to the next
    if xt.strides[0] != pitch:
        raise LayoutError("a streamed spectrum forms its bands on a stride-1 hankel layout only, "
                          "read from its window view embed(...).T")
    x = np.lib.stride_tricks.as_strided(xt, shape=(sum(xt.shape) - 1,), strides=(pitch,), writeable=False)
    return lambda r0, r1: _hankel_rows(factors.left_basis, ranges, x, r0, r1)


def _band_rows(factors: SpectrumResult | GsvdResult, ranges, r0: int, r1: int, a=None) -> list[np.ndarray]:
    """Rows ``[r0, r1)`` of the bands ``ranges`` of ``factors``.

    A band is ``U[:, b] diag(w[b]) X[:, b]^T``. A generalized band is rows
    of A times an n x n band matrix, so no (m, n) basis is formed; the rows
    are read from ``a`` when given, else from ``factors.a``, which a
    decomposition given A as a reference lacks (:class:`LayoutError`).
    """
    rows = factors.shape[0]
    if r1 - r0 == 1 and rows >= 2:
        # a one-row product would be a matrix-vector product, which rounds differently
        first = min(r0, rows - 2)
        return [band[r0 - first : r0 - first + 1] for band in _band_rows(factors, ranges, first, first + 2, a)]
    if isinstance(factors, GsvdResult):
        a = factors.a if a is None else a
        if a is None:
            raise LayoutError("this decomposition was built from A's triangle and holds no rows of A "
                              "to form its bands from")
        block = a[r0:r1]
        return [block @ factors.band_matrix(lo, hi) for lo, hi in ranges]
    u = factors.left_basis[r0:r1]
    return [_band(u, factors.singular_values, factors.right_basis, lo, hi) for lo, hi in ranges]


def _band_ranges(factors: SpectrumResult | StreamedSpectrum | GsvdResult, cut: CutoffResult):
    """The storage ranges ``[lo, hi)`` of the three bands of ``factors``."""
    ascending = isinstance(factors, GsvdResult)
    r = factors.alpha.size if ascending else factors.numerical_rank
    m = cut.m
    f = cut.f if cut.f is not None else r
    check_index_range(1, m, r, "dominant band")
    check_index_range(m, f, r, "cutoff (m, f)")
    # alpha ascends in storage: descending position i (1-based) is index r - i
    return [(r - last, r - first + 1) if ascending else (first - 1, last)
            for first, last in ((1, m), (m + 1, f), (f + 1, r))]


# A name only: perfbench/spans.py wraps ``signal.gsvd_separate`` by name and
# raises AttributeError when it is missing.
gsvd_separate = separate
