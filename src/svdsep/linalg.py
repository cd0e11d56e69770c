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
    was read from: when it is the window view of a stride-1 hankel layout,
    ``signal.band_signals`` forms the band signals over its n + m - 1
    samples from it, one linear filter per band whatever its rank. It has
    no matrix parts (``signal.separate`` refuses it). A ``left_basis`` with
    other than m rows, one per column of ``transposed``, is a :class:`ShapeError`.
    ``factorizations`` counts the factorizations run: a QR per block of
    ``linalg._block_rows`` rows, a QR per merge of two triangles (one fewer
    than the blocks) and the final SVD, so twice the block count.
    """

    left_basis: np.ndarray
    singular_values: np.ndarray
    numerical_rank: int
    transposed: np.ndarray
    factorizations: int

    def __post_init__(self):
        rows, m = self.left_basis.shape[0], self.transposed.shape[1]
        if rows != m:
            raise ShapeError(f"left_basis has {rows} rows, but X^T has {m} columns")

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
    representable. Beyond the arrays or views A and B were read from, only
    n x n factors are held: a band of A is rows of A times one of them
    (:meth:`band_matrix`), and U = Q_A ``u_factor`` is formed on read from
    the Q of the blocked QR that gave R_A (:func:`_blocked_q`), as V is
    from Q_B ``v_factor``. ``factorizations`` counts the QRs of the TSQRs of
    A and of B, 2 blocks - 1 each over blocks of ``linalg._block_rows``
    rows, and two SVDs: 4 when each matrix is one block.

    Either matrix may be given as a reference instead (:func:`_reference`),
    reduced to its triangle as it is read, so that it is never held: the CLI
    passes both so. Every field then holds the bytes the matrix would give,
    but ``a`` or ``b`` is None. Without A, :attr:`u_basis` and
    :meth:`reconstruct_a` raise :class:`LayoutError`, and the bands are
    formed from rows of A the caller keeps (``signal._band_blocks``, as the
    CLI reads back the rows of A it spilled while parsing); without B,
    :attr:`v_basis` and :meth:`reconstruct_b` do.
    """

    a: np.ndarray | None     # (m, n) as given; None when given as a reference
    b: np.ndarray | None     # (s, n) as given, unscaled; None when given as a reference
    shape: tuple[int, int]   # (m, n)
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
    def u_basis(self) -> np.ndarray:
        """U, (m, n) orthonormal columns; needs the matrix A."""
        if self.a is None:
            raise LayoutError("U needs A, and this decomposition was built from A's triangle alone")
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
        """U C X^T, A as reconstructed; needs the matrix A, as :attr:`u_basis` does."""
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


# Entries per QR block of every TSQR (_block_rows): max(8 n, 8192 // n) rows
# for an x of n columns, so 1024 rows (a 64 KiB copy) at gsvd's 8 channels
# and at L = 8, and 8 L windows of a Hankel trajectory from L = 32. One
# OpenBLAS thread, 2-vCPU host, median ms and traced peak (/ A, or MiB):
#   R_A, n = 8; entries  2048      4096      8192*     16384     32768     one QR
#     4 000 rows         0.9 .08   0.6 .15   0.4 .27   0.3 .52   0.2 1.0   0.2 1.0
#     40 000 rows        5.8 .008  5.8 .015  3.9 .027  2.9 .053  2.5 .10   5.8 1.0
#     400 000 rows       85 .001   50 .001   36 .003   28 .005   24 .010   78 1.0
#   hankel `separate`    4 L       8 L*      16 L      32 L      windows (whole run)
#     4000, L = 40       13 0.17   12 0.19   12 0.29   13 0.48   (seed 0, of 60)
#     40 000, L = 200    294 2.5   297 3.7   298 6.2   360 11.1  (two sines, of 5)
#   streamed_svd of 40 000 samples, ms (factorizations): 8 L windows against 8192*
#     L = 2, 8           66 (5000) and 19 (1250) against 0.70 (20) and 2.7 (80)
# Under 3200 entries the benchmark's 400-row gsvd smoke input is two blocks;
# from 32 000 its 4000-row input is one, and the peak a copy of A again.
_BLOCK_ENTRIES = 8192


def _block_rows(width: int) -> int:
    """Rows per block of a TSQR of ``width`` columns: ``_BLOCK_ENTRIES`` entries, at least 8 ``width`` rows."""
    return max(8 * width, _BLOCK_ENTRIES // width)


def _tsqr(name: str, x) -> tuple[np.ndarray, int]:
    """R of x = QR, (min(rows, n), n), of an x with rows, by sequential TSQR
    over row blocks (Demmel, Grigori, Hoemmen and Langou, SIAM J. Sci.
    Comput. 34(1), 2012), and the QRs run, ``2 * blocks - 1``. x is an array,
    read in blocks of :func:`_block_rows` rows, or an iterable of row blocks
    of one width, read once; R is None when it yields none. Each block is
    QR-factored alone, which copies it once for LAPACK, and its triangle is
    merged into R as the R factor of the stack [R; R_block]. A failure is a
    :class:`ConvergenceError` naming ``name`` and x's shape: for an
    iterable, that of the rows read so far.
    """
    if isinstance(x, np.ndarray):
        step = _block_rows(x.shape[1])
        blocks, whole = (x[j : j + step] for j in range(0, x.shape[0], step)), x.shape
    else:
        blocks, whole = x, None
    r, rows, qrs = None, 0, -1
    for block in blocks:
        rows += block.shape[0]
        shape = whole or (rows, block.shape[1])
        r_block = _lapack(name, shape, np.linalg.qr, block, mode="r")
        r = r_block if r is None else _lapack(name, shape, np.linalg.qr, np.vstack([r, r_block]), mode="r")
        qrs += 2
    return r, qrs


def streamed_svd(xt) -> StreamedSpectrum:
    """Singular values and left basis of X, read from X^T in row blocks.

    ``xt`` is X^T, (n, m): an array or a strided view such as a window view,
    read :func:`_block_rows` at a time. The triangular factor R of X^T = QR
    holds the singular values of X, and its right singular vectors are the
    left ones of X (Chan's R-SVD). R is built by sequential TSQR
    (:func:`_tsqr`), whose merges stack two m x m triangles. This is backward
    stable, unlike forming X X^T, and holds neither a copy of X nor its
    (n, k) right basis. The rank rule is :func:`svd`'s, ``max(m, n) * eps * sigma_1``.
    """
    n, m = xt.shape
    if n < 1 or m < 1:
        raise ShapeError(f"streamed_svd needs at least one row and one column of X^T, got {xt.shape}")
    r, qrs = _tsqr("blocked QR", xt)
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


def _blocked_q(x: np.ndarray) -> np.ndarray:
    """Q of x = QR for the R of :func:`_tsqr` of x: the same QRs, each keeping
    its Q, and each block's Q carried back through the merges after it. A
    whole QR's Q pairs with that R only up to the signs of its columns, and
    not at all where a column of x is zero or repeats another."""
    step = _block_rows(x.shape[1])
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
    """A matrix reduced to what :func:`gsvd` reads of it: the triangle R of
    its QR, the binary exponent of its largest |entry|, its (rows, n) shape
    and the QRs run. The matrix itself may be dropped once this is made."""

    triangle: np.ndarray     # (min(rows, n), n)
    exponent: int
    shape: tuple[int, int]
    factorizations: int


def _reduced(arr: np.ndarray) -> _Reference:
    """The :class:`_Reference` of a checked matrix: its TSQR."""
    r, qrs = _tsqr("QR", arr)
    return _Reference(triangle=r, exponent=_exponent(max(arr.max(), -arr.min())), shape=arr.shape,
                      factorizations=qrs)


def _reference(x, name: str = "B") -> _Reference:
    """A or B reduced for :func:`gsvd` as it is read, so that it is never
    held beside the other, nor at all when read in blocks.

    ``x`` is the matrix, or an iterable of its row blocks, each read once:
    the CLI reads A and B so, from their files. The checks are those
    ``gsvd`` makes of a matrix ``name``, made per block, and the exponent is
    that of the running max of |entry|. The blocks are the TSQR's own, so a
    matrix and its :func:`_block_rows` slices give the same bytes; a QR
    failure in a block names the rows read so far.
    """
    if isinstance(x, np.ndarray):
        return _reduced(check_matrix(x, name))
    width, rows, peak = None, 0, 0.0

    def checked():
        nonlocal width, rows, peak
        for block in x:
            block = check_matrix(block, name)
            if width not in (None, block.shape[1]):
                raise ShapeError(f"{name}'s row blocks must share a column count, got {width} and {block.shape[1]}")
            width, rows = block.shape[1], rows + block.shape[0]
            peak = max(peak, block.max(), -block.min())
            yield block

    r, qrs = _tsqr("QR", checked())
    if r is None:
        raise ShapeError(f"{name} must have at least one row and one column, got no rows")
    return _Reference(triangle=r, exponent=_exponent(peak), shape=(rows, width), factorizations=qrs)


def gsvd(a, b) -> GsvdResult:
    """Generalized SVD of the pair (A, B) from the n x n triangles of A and B.

    Requires A with at least as many rows as columns and a stacked matrix
    [A; B] of full column rank, which is never formed: A = Q_A R_A and
    B = Q_B R_B are factored apart, as LAPACK's xGGSVP3 begins (Bai and
    Demmel, SIAM J. Sci. Comput. 14(6), 1993), each R by sequential TSQR over
    blocks of :func:`_block_rows` rows, so that no copy of A or B is made
    beyond one block (:func:`_tsqr`). The SVD P Sigma Z^T of
    [R_A; R_B] carries the rank check; the SVD of the top block of P gives
    alpha and W, and beta is the column norms of its bottom block times W.
    Then X = Z Sigma W and X^{-T} = Z Sigma^{-1} W, with no solve. B is first
    balanced against A by a power of two, applied to R_B (see
    :class:`GsvdResult`), so the result holds at any scale of either matrix.

    ``a`` and ``b`` are each a matrix, factored here, A first, or a
    reference reduced as it was read (``_reference(blocks, name)``): the CLI
    passes two references, B's made first, so that it holds neither
    recording. The result holds the same bytes either way, but no ``a`` or
    ``b`` for a reference (see :class:`GsvdResult`).

    Raises
    ------
    ShapeError
        If the column counts differ or A has fewer rows than columns.
    DegeneratePencilError
        If [A; B] is rank deficient (the C^T C + S^T S = I normalization
        is unattainable on the null directions).
    ConvergenceError
        If LAPACK fails to factor A, B, the stacked triangles or its top
        block; a failing block of a matrix A or B names its whole shape.
    """
    a_arr = None if isinstance(a, _Reference) else check_matrix(a, "A")
    b_arr = None if isinstance(b, _Reference) else check_matrix(b, "B")
    (m, n), (s, b_cols) = (a if a_arr is None else a_arr).shape, (b if b_arr is None else b_arr).shape
    if b_cols != n:
        raise ShapeError(f"A and B must share a column count, got {n} and {b_cols}")
    if m < n:
        raise ShapeError(f"A must have at least as many rows as columns, got {(m, n)}")
    ref_a = a if a_arr is None else _reduced(a_arr)
    ref_b = b if b_arr is None else _reduced(b_arr)
    # A power of the radix, as LAPACK's xGGBAL balances a pencil (Ward,
    # SIAM J. Sci. Stat. Comput. 2(2), 1981). Max |entry|, not a norm: a norm
    # overflows at 1e160. QR commutes exactly with it, so R_B takes it, not B.
    shift = ref_a.exponent - ref_b.exponent
    stack = np.vstack([ref_a.triangle, np.ldexp(ref_b.triangle, shift)])
    stacked_size = max(m + s, n)  # the larger dimension of [A; B]
    p, sigma, zt = _lapack("SVD", stack.shape, np.linalg.svd, stack, full_matrices=False)
    # The triangles have the singular values of [A; 2^k B]: they carry the rank check.
    if _rank(sigma, stacked_size) < n:
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
        shape=(m, n),
        x_factor=(zt.T * sigma) @ w,
        x_dual=(zt.T / sigma) @ w,
        u_factor=u,
        v_factor=t,
        alpha=alpha,
        beta=beta,
        balanced_values=np.minimum.accumulate(values[::-1]),
        b_shift=shift,
        factorizations=ref_a.factorizations + ref_b.factorizations + 2,
    )


def _exponent(peak: float) -> int:
    """Binary exponent of ``peak``, a matrix's largest |entry|: the rule of :func:`_shifted`."""
    return int(np.frexp(peak)[1])


def frobenius_energy(a) -> float:
    """Total energy of a matrix: the sum of its squared entries."""
    arr = check_matrix(a, "A")
    return float(np.sum(arr * arr))


def truncated_sum(spectrum: SpectrumResult, first: int, last: int) -> np.ndarray:
    """Partial reconstruction from singular triples ``first..last`` (1-based, inclusive)."""
    check_index_range(first, last, spectrum.numerical_rank, "truncation range")
    return _band(spectrum.left_basis, spectrum.singular_values, spectrum.right_basis, first - 1, last)
