"""Dense decompositions and energy functionals on real matrices.

Everything here is a pure function of its inputs; results are plain frozen
dataclasses wrapping float64 arrays. Singular vectors follow a fixed sign
convention (largest-magnitude entry of each left vector is nonnegative) so
repeated calls on identical input are bit-identical.
"""

from __future__ import annotations

import ctypes
import glob
import os
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ConvergenceError, DegeneratePencilError, InvalidInputError, LayoutError, ShapeError
from .validation import check_index_range, check_matrix

__all__ = [
    "SpectrumResult",
    "StreamedSpectrum",
    "GsvdResult",
    "svd",
    "streamed_svd",
    "gsvd",
    "frobenius_energy",
    "truncated_sum",
]

_EPS = np.finfo(np.float64).eps


def _openblas_threads():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS, or None.

    ``ctypes.CDLL`` of a library numpy has already loaded returns that same
    library, so setting its count steers numpy's own LAPACK calls. Builds
    without a bundled OpenBLAS (Accelerate, MKL, Windows) give None.
    """
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


# Looked up once: a lookup per use allocates ~5 KiB of glob and ctypes objects.
_OPENBLAS = _openblas_threads()


class _one_blas_thread:
    """Run the block with OpenBLAS on one thread; restore the caller's count after.

    The factorizations here are of tall, narrow matrices (8 channels, or
    windows of a Hankel block), where a threaded OpenBLAS call is slower than
    one thread and leaves its worker spinning for ~50 ms afterwards. The
    thread count is process-wide, so the CLI takes it per command and the
    library functions keep whatever their caller set. Without an OpenBLAS
    the block runs as it is.

    A class, not a generator: a generator's frame is ~0.5 KiB that the
    traced peak of every command would carry; this holds ~0.1 KiB.
    """

    __slots__ = ("_before",)

    def __enter__(self) -> None:
        if _OPENBLAS is not None:
            get, put = _OPENBLAS
            self._before = get()
            put(1)

    def __exit__(self, *exc) -> None:
        if _OPENBLAS is not None:
            _OPENBLAS[1](self._before)


@dataclass(frozen=True)
class SpectrumResult:
    """Thin singular value decomposition of a real matrix, k = min(m, n).

    Attributes
    ----------
    left_basis : ndarray, shape (m, k)
        Orthonormal left singular vectors (columns).
    right_basis : ndarray, shape (n, k)
        Orthonormal right singular vectors (columns).
    singular_values : ndarray, shape (k,)
        Nonnegative values in non-increasing order.
    numerical_rank : int
        Count of singular values above ``max(m, n) * eps * singular_values[0]``.
    factorizations : int
        Factorizations one call of :func:`svd` performs (a class constant).
    """

    left_basis: np.ndarray
    right_basis: np.ndarray
    singular_values: np.ndarray
    numerical_rank: int
    factorizations: ClassVar[int] = 1

    @property
    def shape(self) -> tuple[int, int]:
        return (self.left_basis.shape[0], self.right_basis.shape[0])


@dataclass(frozen=True)
class StreamedSpectrum:
    """Singular values and left basis of an (m, n) matrix X read from its
    transpose in row blocks, k = min(m, n); no right basis is formed.

    ``left_basis``, ``singular_values`` and ``numerical_rank`` are as in
    :class:`SpectrumResult`. ``transposed`` is the (n, m) array or view X^T
    was read from: ``signal.band_signals`` forms the band signals of the
    window view of a stride-1 hankel layout from it, by rank. It has no
    matrix parts (``signal.separate`` refuses it).
    ``factorizations`` counts the factorizations run: a QR per block, a QR
    per merge of two triangles (one fewer than the blocks) and the final
    SVD, so twice the block count.
    """

    left_basis: np.ndarray
    singular_values: np.ndarray
    numerical_rank: int
    transposed: np.ndarray
    factorizations: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.left_basis.shape[0], self.transposed.shape[0])


@dataclass(frozen=True)
class GsvdResult:
    """Thin joint decomposition A = U C X^T, 2^k B = V S X^T with C^T C + S^T S = I.

    The pair is balanced before it is factored: B is scaled by the power of
    two ``2^k``, ``k = b_shift``, that brings its largest |entry| to the
    binary exponent of A's, so neither matrix is lost next to the other in
    the stacked triangles. The shift is exact, and 0 when the exponents match.

    ``alpha`` and ``beta`` are the diagonals of C and S in storage order:
    alpha non-decreasing, beta non-increasing, so that the nonzero betas
    occupy the representable diagonal of S even when B has fewer rows than
    columns. ``balanced_values`` is the derived sequence alpha/beta sorted
    non-increasing, with ``inf`` marking directions where beta vanishes (A
    dominates B completely); those sort first. Tied values that round out of
    order are clamped to the least value before them. The cutoff reads these.
    ``generalized_values`` are those of the caller's (A, B), ``2^k`` times
    the balanced ones: inf or 0 only where the true value is not
    representable. Beside ``a``, the array or view A was read from, only
    n x n factors are held: a band of A is A times one of them
    (:meth:`band_matrix`), and U = Q_A ``u_factor`` is formed on read from
    the Q of the blocked QR that gave R_A (:func:`_blocked_q`).
    ``factorizations`` counts the QRs of the TSQRs of A and of B, 2 blocks - 1
    each, and two SVDs: 4 when each matrix is one block.

    A result is built in one of two ways. From a matrix B it also holds
    ``b``, the array or view B was read from, and V, the orthonormal factor
    of Q_B ``v_factor``, is formed on read from B in the same way.
    From a reference, B reduced to its triangle before A was read (what the
    CLI does, so that A and B are never held together), ``b`` is None:
    :attr:`v_basis` and :meth:`reconstruct_b` raise :class:`LayoutError`,
    and every other field holds the bytes the matrix would give.
    """

    a: np.ndarray            # (m, n) as given
    b: np.ndarray | None     # (s, n) as given, unscaled; None when built from a reference
    x_factor: np.ndarray     # (n, n) nonsingular
    x_dual: np.ndarray       # (n, n) X^{-T}
    u_factor: np.ndarray     # (n, n) orthogonal
    v_factor: np.ndarray     # (min(s, n), n) orthogonal columns of norms beta
    alpha: np.ndarray        # (n,)
    beta: np.ndarray         # (n,)
    balanced_values: np.ndarray  # (n,) descending, inf first
    b_shift: int
    factorizations: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.a.shape[0], self.x_factor.shape[0])

    @property
    def u_basis(self) -> np.ndarray:
        """U, (m, n) orthonormal columns."""
        return _blocked_q(self.a) @ self.u_factor

    @property
    def v_basis(self) -> np.ndarray:
        """V, (s, min(s, n)) orthonormal columns; needs the matrix B."""
        if self.b is None:
            raise LayoutError("V needs B, and this decomposition was built from B's triangle alone")
        t = _blocked_q(self.b) @ self.v_factor
        v, r = _lapack("QR", t.shape, np.linalg.qr, t)
        v[:, np.diagonal(r) < 0] *= -1.0
        return v

    @property
    def generalized_values(self) -> np.ndarray:
        with np.errstate(over="ignore"):  # inf only where the true value is not representable
            return np.ldexp(self.balanced_values, self.b_shift)

    def band_matrix(self, lo: int, hi: int) -> np.ndarray:
        """The (n, n) matrix ``X^{-T}[:, lo:hi] X[:, lo:hi]^T``: A times it is
        the band ``U[:, lo:hi] C[lo:hi] X[:, lo:hi]^T`` of A."""
        return self.x_dual[:, lo:hi] @ self.x_factor[:, lo:hi].T

    def reconstruct_a(self) -> np.ndarray:
        return _band(self.u_basis, self.alpha, self.x_factor, 0, self.alpha.size)

    def reconstruct_b(self) -> np.ndarray:
        """2^-k V S X^T, B as reconstructed; needs the matrix B, as :attr:`v_basis` does."""
        band = _band(self.v_basis, self.beta, self.x_factor, 0, self.v_factor.shape[0])
        return np.ldexp(band, -self.b_shift, out=band)


def _band(u: np.ndarray, w: np.ndarray, x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``U[:, lo:hi] diag(w[lo:hi]) X[:, lo:hi]^T``; an empty range gives zeros."""
    return (u[:, lo:hi] * w[lo:hi]) @ x[:, lo:hi].T


def _rank(values: np.ndarray, size: int) -> np.ndarray:
    """Numerical rank of each descending spectrum along the last axis: the
    count of values above ``size * eps * sigma_1``, where ``size`` is the
    larger dimension, max(m, n), of the matrix the values came from."""
    return np.count_nonzero(values > size * _EPS * values[..., :1], axis=-1)


def _shifted(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each descending spectrum along the last axis times ``2^-e``, and ``e``.

    ``e`` (shape ``(..., 1)``) is the binary exponent of the spectrum's sigma_1,
    so the shifted sigma_1 lies in [0.5, 1): no square of a shifted value
    overflows, and only values below about 1e-154 sigma_1, whose squares are
    negligible next to sigma_1^2, underflow. A power of two keeps every
    significand: a sum of squares shifted back by ``2^(2e)`` with ``np.ldexp``
    has the bytes of the unshifted one wherever that is representable.
    """
    e = np.frexp(values[..., :1])[1]
    return np.ldexp(values, -e), e


def _lapack(name: str, shape: tuple[int, ...], fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, a numpy LAPACK call; its ``LinAlgError`` becomes a
    :class:`ConvergenceError` naming the factorization and the ``shape`` it was given."""
    try:
        return fn(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        dims = "x".join(map(str, shape))
        raise ConvergenceError(f"{name} of a {dims} matrix failed: {exc}") from exc


def _fix_signs(u: np.ndarray, v: np.ndarray | None = None) -> None:
    """Make the largest-magnitude entry of each left vector nonnegative.

    ``u`` and ``v`` hold the paired left and right vectors as columns; the
    sign flip propagates to the right vector, when there is one. In-place.
    The pivot is the first entry of largest magnitude, read from each
    column's min and max; only a column whose min and max tie in magnitude
    is searched for which comes first, so only a tie takes a temporary the
    size of a column.
    """
    lo, hi = u.min(axis=0), u.max(axis=0)
    for j in np.flatnonzero(-lo >= hi):
        if -lo[j] > hi[j] or u[:, j].argmin() < u[:, j].argmax():
            u[:, j] *= -1.0
            if v is not None:
                v[:, j] *= -1.0


def svd(a) -> SpectrumResult:
    """Thin SVD with deterministic signs and a numerical rank.

    The bases hold only the k = min(m, n) singular vectors paired with a
    singular value: ``left_basis`` is (m, k), ``right_basis`` is (n, k).
    The rank counts the values above ``max(m, n) * eps * sigma_1``.

    Parameters
    ----------
    a : array-like, shape (m, n)
        Real matrix with finite entries.
    """
    arr = check_matrix(a, "A")
    if arr.shape[0] < arr.shape[1]:
        # LAPACK factors a wide matrix several times slower than its tall
        # transpose, whose left factor is already the (n, k) right basis.
        v, s, ut = _lapack("SVD", arr.shape, np.linalg.svd, arr.T, full_matrices=False)
        u = ut.T.copy()
    else:
        u, s, vt = _lapack("SVD", arr.shape, np.linalg.svd, arr, full_matrices=False)
        v = vt.T.copy()
    _fix_signs(u, v)
    return SpectrumResult(
        left_basis=u,
        right_basis=v,
        singular_values=s,
        numerical_rank=int(_rank(s, max(arr.shape))),
    )


# Rows of X^T per QR block of streamed_svd's TSQR, per row of X: 8 m; no
# other code reads it. On the 4000-sample, L = 40 hankel benchmark input
# (seed 0), whose parts are formed 1024 samples at a time, a whole in-process
# `separate` run (one OpenBLAS thread, 2-vCPU host) with 4 L, 8 L, 16 L and
# 32 L windows per block peaks at 0.17, 0.19, 0.29 and 0.48 MiB and takes 13,
# 12, 12 and 13 ms (median of 60). At 40 000 samples of two sines, L = 200, it
# peaks at 2.5, 3.7, 6.2 and 11.1 MiB and takes 294, 297, 298 and 360 ms (of 5).
_STREAM_BLOCK = 8

# Entries per QR block of gsvd's TSQRs of A and B: max(n, 8192 // n) rows,
# 1024 rows (a 64 KiB copy) at 8 channels. R_A of a seeded n = 8 A, LAPACK on
# one OpenBLAS thread, in ms (median, 2-vCPU host) and traced peak / A:
#   entries       2048      4096      8192      16384     32768     one QR
#   4 000 rows    0.9 .08   0.6 .15   0.4 .27   0.3 .52   0.2 1.0   0.2 1.0
#   40 000 rows   5.8 .008  5.8 .015  3.9 .027  2.9 .053  2.5 .10   5.8 1.0
#   400 000 rows  85 .001   50 .001   36 .003   28 .005   24 .010   78 1.0
# Under 3200 entries the benchmark's 400-row smoke input is two blocks; from
# 32 000 its 4000-row input is one, and the peak a copy of A again.
_BLOCK_ENTRIES = 8192


def _tsqr(name: str, x: np.ndarray, step: int) -> tuple[np.ndarray | None, int]:
    """R of x = QR, (min(rows, n), n), by sequential TSQR over blocks of ``step``
    rows (Demmel, Grigori, Hoemmen and Langou, SIAM J. Sci. Comput. 34(1),
    2012), and the QRs run, ``2 * blocks - 1``; R is None when x has no rows.
    Each block is QR-factored alone, which copies it once for LAPACK, and its
    triangle is merged into R as the R factor of the stack [R; R_block]. A
    failure is a :class:`ConvergenceError` naming ``name`` and x's shape.
    """
    r = None
    for j in range(0, x.shape[0], step):
        r_block = _lapack(name, x.shape, np.linalg.qr, x[j : j + step], mode="r")
        r = r_block if r is None else _lapack(name, x.shape, np.linalg.qr,
                                               np.vstack([r, r_block]), mode="r")
    return r, 2 * -(-x.shape[0] // step) - 1


def streamed_svd(xt) -> StreamedSpectrum:
    """Singular values and left basis of X, read from X^T in row blocks.

    ``xt`` is X^T, (n, m): an array or a strided view such as a window view,
    read ``8 m`` rows at a time. The triangular factor R of X^T = QR holds
    the singular values of X, and its right singular vectors are the left
    ones of X (Chan's R-SVD). R is built by sequential TSQR (:func:`_tsqr`),
    whose merges stack two m x m triangles. This is backward stable, unlike
    forming X X^T, and holds neither a copy of X nor its (n, k) right basis.
    The rank rule is :func:`svd`'s, ``max(m, n) * eps * sigma_1``.
    """
    n, m = xt.shape
    r, qrs = _tsqr("blocked QR", xt, max(1, int(_STREAM_BLOCK * m)))
    if r is None:
        raise ShapeError("streamed_svd needs at least one row of X^T")
    # R, not xt: on a window view, a mask of xt is as large as the trajectory.
    if not np.all(np.isfinite(r)):
        raise InvalidInputError("X contains non-finite entries")
    _, s, vt = _lapack("SVD", r.shape, np.linalg.svd, r, full_matrices=False)
    u = vt.T.copy()
    _fix_signs(u)
    return StreamedSpectrum(
        left_basis=u,
        singular_values=s,
        numerical_rank=int(_rank(s, max(m, n))),
        transposed=xt,
        factorizations=qrs + 1,
    )


def _block_rows(x: np.ndarray) -> int:
    """Rows per block of gsvd's TSQR of x: ``_BLOCK_ENTRIES`` entries, at least n rows."""
    return max(x.shape[1], _BLOCK_ENTRIES // x.shape[1])


def _blocked_q(x: np.ndarray) -> np.ndarray:
    """Q of x = QR for the R of gsvd's TSQR of x: the same QRs, each keeping
    its Q, and each block's Q carried back through the merges after it. A
    whole QR's Q pairs with that R only up to the signs of its columns, and
    not at all where a column of x is zero or repeats another."""
    step = _block_rows(x)
    q, r = _lapack("QR", x.shape, np.linalg.qr, x[:step])
    blocks, merges = [q], []
    for j in range(step, x.shape[0], step):
        q, r_block = _lapack("QR", x.shape, np.linalg.qr, x[j : j + step])
        merge, r = _lapack("QR", x.shape, np.linalg.qr, np.vstack([r, r_block]))
        blocks.append(q)
        merges.append(merge)
    tail, carry = [], np.eye(r.shape[0])
    for q, merge in zip(blocks[:0:-1], merges[::-1]):  # last merge first
        top = merge.shape[0] - q.shape[1]  # the rows of the triangle the block was stacked under
        tail.append(q @ (merge[top:] @ carry))
        carry = merge[:top] @ carry
    return np.vstack([blocks[0] @ carry, *tail[::-1]]) if merges else blocks[0]


@dataclass(frozen=True)
class _Reference:
    """A reference B reduced to what :func:`gsvd` reads of it: the triangle
    R_B of B = Q_B R_B, the binary exponent of its largest |entry|, its
    (s, n) shape and the QRs run. B itself may be dropped once this is made."""

    triangle: np.ndarray     # (min(s, n), n)
    exponent: int
    shape: tuple[int, int]
    factorizations: int


def _reduced(b_arr: np.ndarray) -> _Reference:
    """The :class:`_Reference` of a checked matrix B: its TSQR."""
    r_b, qrs = _tsqr("QR", b_arr, _block_rows(b_arr))
    return _Reference(triangle=r_b, exponent=_exponent(b_arr), shape=b_arr.shape, factorizations=qrs)


def _reference(b) -> _Reference:
    """B reduced for :func:`gsvd` before A is read, so that the two are never
    held together; its checks are those ``gsvd(a, b)`` makes of B."""
    return _reduced(check_matrix(b, "B"))


def gsvd(a, b) -> GsvdResult:
    """Generalized SVD of the pair (A, B) from the n x n triangles of A and B.

    Requires A with at least as many rows as columns and a stacked matrix
    [A; B] of full column rank, which is never formed: A = Q_A R_A and
    B = Q_B R_B are factored apart, as LAPACK's xGGSVP3 begins (Bai and
    Demmel, SIAM J. Sci. Comput. 14(6), 1993), each R by sequential TSQR over
    blocks of ``_BLOCK_ENTRIES`` entries, so that no copy of A or B is made
    beyond one block (:func:`_tsqr`). The SVD P Sigma Z^T of
    [R_A; R_B] carries the rank check; the SVD of the top block of P gives
    alpha and W, and beta is the column norms of its bottom block times W.
    Then X = Z Sigma W and X^{-T} = Z Sigma^{-1} W, with no solve. B is first
    balanced against A by a power of two, applied to R_B (see
    :class:`GsvdResult`), so the result holds at any scale of either matrix.

    ``b`` is a matrix, factored after A, or a reference B reduced before A
    was read (``_reference(b)``, the CLI's route): the result holds the same
    bytes either way, but no ``b`` when built from the reference.

    Raises
    ------
    ShapeError
        If the column counts differ or A has fewer rows than columns.
    DegeneratePencilError
        If [A; B] is rank deficient (the C^T C + S^T S = I normalization
        is unattainable on the null directions).
    ConvergenceError
        If LAPACK fails to factor A, B, the stacked triangles or its top
        block; a failing block of A or B names the whole matrix's shape.
    """
    a_arr = check_matrix(a, "A")
    b_arr = None if isinstance(b, _Reference) else check_matrix(b, "B")
    (m, n), (s, b_cols) = a_arr.shape, (b.shape if b_arr is None else b_arr.shape)
    if b_cols != n:
        raise ShapeError(f"A and B must share a column count, got {n} and {b_cols}")
    if m < n:
        raise ShapeError(f"A must have at least as many rows as columns, got {a_arr.shape}")
    r_a, qrs = _tsqr("QR", a_arr, _block_rows(a_arr))
    ref = b if b_arr is None else _reduced(b_arr)
    # A power of the radix, as LAPACK's xGGBAL balances a pencil (Ward,
    # SIAM J. Sci. Stat. Comput. 2(2), 1981). Max |entry|, not a norm: a norm
    # overflows at 1e160. QR commutes exactly with it, so R_B takes it, not B.
    shift = _exponent(a_arr) - ref.exponent
    stack = np.vstack([r_a, np.ldexp(ref.triangle, shift)])
    stacked_size = max(m + s, n)  # the larger dimension of [A; B]
    p, sigma, zt = _lapack("SVD", stack.shape, np.linalg.svd, stack, full_matrices=False)
    # The triangles have the singular values of [A; 2^k B]: they carry the rank check.
    if sigma[-1] <= stacked_size * _EPS * sigma[0]:
        raise DegeneratePencilError(
            "stacked matrix [A; B] is rank deficient; the pair has no full generalized decomposition"
        )

    u, alpha, wt = _lapack("SVD", (n, n), np.linalg.svd, p[:n])
    _fix_signs(u, wt.T)
    # Reorder so alpha ascends: nonzero betas then land on the leading
    # diagonal of S, which is the only representable layout when s < n.
    alpha = np.minimum(alpha[::-1], 1.0)
    u = u[:, ::-1]
    w = wt[::-1].T

    t = p[n:] @ w  # columns orthogonal with norms beta_i
    beta = np.zeros(n)
    beta[: t.shape[0]] = np.linalg.norm(t[:, : t.shape[0]], axis=0)

    inf_tol = stacked_size * _EPS
    with np.errstate(divide="ignore"):
        values = np.where(beta > inf_tol, alpha / np.maximum(beta, inf_tol), np.inf)
    return GsvdResult(
        a=a_arr,
        b=b_arr,
        x_factor=(zt.T * sigma) @ w,
        x_dual=(zt.T / sigma) @ w,
        u_factor=u,
        v_factor=t,
        alpha=alpha,
        beta=beta,
        balanced_values=np.minimum.accumulate(values[::-1]),
        b_shift=shift,
        factorizations=qrs + ref.factorizations + 2,
    )


def _exponent(x: np.ndarray) -> int:
    """Binary exponent of the largest |entry| of ``x``, the rule of :func:`_shifted`."""
    return int(np.frexp(max(x.max(), -x.min()))[1])


def frobenius_energy(a) -> float:
    """Total energy of a matrix: the sum of its squared entries."""
    arr = check_matrix(a, "A")
    return float(np.sum(arr * arr))


def truncated_sum(spectrum: SpectrumResult, first: int, last: int) -> np.ndarray:
    """Partial reconstruction from singular triples ``first..last`` (1-based, inclusive)."""
    check_index_range(first, last, spectrum.numerical_rank, "truncation range")
    return _band(spectrum.left_basis, spectrum.singular_values, spectrum.right_basis, first - 1, last)
