"""Dense decompositions and energy functionals on real matrices.

Everything here is a pure function of its inputs; results are plain frozen
dataclasses wrapping float64 arrays. Singular vectors follow a fixed sign
convention (largest-magnitude entry of each left vector is nonnegative) so
repeated calls on identical input are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import ConvergenceError, DegeneratePencilError, InvalidInputError, ShapeError
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
        Count of singular values above ``rank_tolerance * singular_values[0]``.
    rank_tolerance : float
        The relative tolerance that was applied.
    factorizations : int
        Factorizations one call of :func:`svd` performs (a class constant).
    """

    left_basis: np.ndarray
    right_basis: np.ndarray
    singular_values: np.ndarray
    numerical_rank: int
    rank_tolerance: float
    factorizations: ClassVar[int] = 1

    @property
    def shape(self) -> tuple[int, int]:
        return (self.left_basis.shape[0], self.right_basis.shape[0])


@dataclass(frozen=True)
class StreamedSpectrum:
    """Singular values and left basis of an (m, n) matrix X read from its
    transpose in row blocks, k = min(m, n); no right basis is formed.

    ``left_basis``, ``singular_values``, ``numerical_rank`` and
    ``rank_tolerance`` are as in :class:`SpectrumResult`. ``transposed`` is
    the (n, m) array or view X^T was read from; a band of X is its
    projection ``U_b U_b^T X``. ``factorizations`` counts the QR
    factorizations run, one per block, plus the final SVD.
    """

    left_basis: np.ndarray
    singular_values: np.ndarray
    numerical_rank: int
    rank_tolerance: float
    transposed: np.ndarray
    factorizations: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.left_basis.shape[0], self.transposed.shape[0])


@dataclass(frozen=True)
class GsvdResult:
    """Thin joint decomposition A = U C X^T, B = V S X^T with C^T C + S^T S = I.

    ``alpha`` and ``beta`` are the diagonals of C and S in storage order:
    alpha non-decreasing, beta non-increasing, so that the nonzero betas
    occupy the representable diagonal of S even when B has fewer rows than
    columns. ``generalized_values`` is the derived sequence alpha/beta
    sorted non-increasing, with ``inf`` marking directions where beta
    vanishes (A dominates B completely); those sort first. Only the
    columns of U and V paired with a diagonal entry are kept.
    """

    u_basis: np.ndarray      # (m, n) orthonormal columns
    v_basis: np.ndarray      # (s, min(s, n)) orthonormal columns
    x_factor: np.ndarray     # (n, n) nonsingular
    alpha: np.ndarray        # (n,)
    beta: np.ndarray         # (n,)
    generalized_values: np.ndarray  # (n,) descending, inf first
    # Factorizations one gsvd call performs: QR of [A; B], SVD of R (the rank
    # check), SVD of Q1 and QR of Q2 W.
    factorizations: ClassVar[int] = 4

    @property
    def shape(self) -> tuple[int, int]:
        return (self.u_basis.shape[0], self.x_factor.shape[0])

    def reconstruct_a(self) -> np.ndarray:
        return _band(self.u_basis, self.alpha, self.x_factor, 0, self.alpha.size)

    def reconstruct_b(self) -> np.ndarray:
        return _band(self.v_basis, self.beta, self.x_factor, 0, self.v_basis.shape[1])


def _band(u: np.ndarray, w: np.ndarray, x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``U[:, lo:hi] diag(w[lo:hi]) X[:, lo:hi]^T``; an empty range gives zeros."""
    return (u[:, lo:hi] * w[lo:hi]) @ x[:, lo:hi].T


def _rank(values: np.ndarray, rank_tolerance: float) -> np.ndarray:
    """Count of values above ``rank_tolerance * sigma_1`` in each descending
    spectrum along the last axis."""
    return np.count_nonzero(values > rank_tolerance * values[..., :1], axis=-1)


def _tolerance(rank_tolerance: float | None, shape: tuple[int, int]) -> float:
    """The relative rank tolerance to apply: ``max(m, n) * eps`` unless given."""
    if rank_tolerance is None:
        return max(shape) * _EPS
    if rank_tolerance < 0:
        raise InvalidInputError(f"rank_tolerance must be nonnegative, got {rank_tolerance}")
    return float(rank_tolerance)


def _lapack(name: str, shape: tuple[int, ...], fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, a numpy LAPACK call; its ``LinAlgError`` becomes a
    :class:`ConvergenceError` naming the factorization and the ``shape`` it was given."""
    try:
        return fn(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        dims = "x".join(map(str, shape))
        raise ConvergenceError(f"{name} of a {dims} matrix failed: {exc}") from exc


# Entries of a left basis whose pivots _fix_signs takes in one step: their
# magnitudes are its only temporary, 32 KiB. A basis of more than 2048 rows
# goes one column at a time.
_SIGN_BLOCK = 4096


def _fix_signs(u: np.ndarray, v: np.ndarray | None = None) -> None:
    """Make the largest-magnitude entry of each left vector nonnegative.

    ``u`` and ``v`` hold the paired left and right vectors as columns; the
    sign flip propagates to the right vector, when there is one. In-place,
    over blocks of ``max(1, _SIGN_BLOCK // m)`` columns of the (m, k) ``u``.
    The pivot is the first entry of largest magnitude.
    """
    step = max(1, _SIGN_BLOCK // u.shape[0])
    for j in range(0, u.shape[1], step):
        block = u[:, j : j + step]
        # one row per column, so argmax runs along contiguous rows and copies nothing
        pivots = np.abs(block.T, order="C").argmax(axis=1)
        flip = block[pivots, np.arange(block.shape[1])] < 0
        if flip.any():
            signs = np.where(flip, -1.0, 1.0)
            block *= signs
            if v is not None:
                v[:, j : j + step] *= signs


def svd(a, rank_tolerance: float | None = None) -> SpectrumResult:
    """Thin SVD with deterministic signs and a numerical rank.

    The bases hold only the k = min(m, n) singular vectors paired with a
    singular value: ``left_basis`` is (m, k), ``right_basis`` is (n, k).

    Parameters
    ----------
    a : array-like, shape (m, n)
        Real matrix with finite entries.
    rank_tolerance : float, optional
        Relative tolerance: rank counts values above
        ``rank_tolerance * sigma_1``. Defaults to ``max(m, n) * eps``.
    """
    arr = check_matrix(a, "A")
    rank_tolerance = _tolerance(rank_tolerance, arr.shape)
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
        numerical_rank=int(_rank(s, rank_tolerance)),
        rank_tolerance=rank_tolerance,
    )


# Rows of X^T per QR block, per row of X: 8 m. On the 4000-sample, L = 40
# hankel benchmark input a whole `separate` run with 4 L, 8 L, 16 L and 32 L
# windows per block peaks at 0.28, 0.36, 0.55 and 0.92 MiB and takes 56, 49,
# 51 and 54 ms (median of 30 runs, 2-vCPU host).
_STREAM_BLOCK = 8


def _stream_step(m: int) -> int:
    """Rows of X^T per block for an X of ``m`` rows; Hankel averages use it too."""
    return max(1, int(_STREAM_BLOCK * m))


def streamed_svd(xt, rank_tolerance: float | None = None) -> StreamedSpectrum:
    """Singular values and left basis of X, read from X^T in row blocks.

    ``xt`` is X^T, (n, m): an array or a strided view such as a window view,
    read ``8 m`` rows at a time. The triangular factor R of X^T = QR holds
    the singular values of X, and its right singular vectors are the left
    ones of X (Chan's R-SVD). R is built one block at a time as the R factor
    of [R; block] (sequential TSQR), which is backward stable, unlike
    forming X X^T; so neither a copy of X nor its (n, k) right basis is ever
    held. The rank rule is :func:`svd`'s.
    """
    n, m = xt.shape
    step = _stream_step(m)
    r = None
    for j in range(0, n, step):
        block = xt[j : j + step]
        r = _lapack("blocked QR", xt.shape, np.linalg.qr,
                    block if r is None else np.vstack([r, block]), mode="r")
    if r is None:
        raise ShapeError("streamed_svd needs at least one row of X^T")
    # R, not xt: on a window view, a mask of xt is as large as the trajectory.
    if not np.all(np.isfinite(r)):
        raise InvalidInputError("X contains non-finite entries")
    rank_tolerance = _tolerance(rank_tolerance, (m, n))
    _, s, vt = _lapack("SVD", r.shape, np.linalg.svd, r, full_matrices=False)
    u = vt.T.copy()
    _fix_signs(u)
    return StreamedSpectrum(
        left_basis=u,
        singular_values=s,
        numerical_rank=int(_rank(s, rank_tolerance)),
        rank_tolerance=rank_tolerance,
        transposed=xt,
        factorizations=-(-n // step) + 1,
    )


def gsvd(a, b) -> GsvdResult:
    """Generalized SVD of the pair (A, B) via the CS-decomposition route.

    Requires A with at least as many rows as columns and a stacked matrix
    [A; B] of full column rank. The construction QR-factors the stack,
    splits the orthonormal factor, takes the thin SVD of the top block,
    and orthogonalizes the image of the bottom block, which is numerically
    stabler than forming A^T A and B^T B. U is (m, n) and V is
    (s, min(s, n)).

    Raises
    ------
    ShapeError
        If the column counts differ or A has fewer rows than columns.
    DegeneratePencilError
        If [A; B] is rank deficient (the C^T C + S^T S = I normalization
        is unattainable on the null directions).
    ConvergenceError
        If LAPACK fails to factor the stack or one of its blocks.
    """
    return _gsvd_stacked(*_stack(a, b))


def _stack(a, b) -> tuple[np.ndarray, int]:
    """The stack [A; B] of a :func:`gsvd` pair and the row count m of A, once
    the pair passes :func:`gsvd`'s shape checks."""
    a_arr = check_matrix(a, "A")
    b_arr = check_matrix(b, "B")
    m, n = a_arr.shape
    if b_arr.shape[1] != n:
        raise ShapeError(f"A and B must share a column count, got {n} and {b_arr.shape[1]}")
    if m < n:
        raise ShapeError(f"A must have at least as many rows as columns, got {a_arr.shape}")
    return np.vstack([a_arr, b_arr]), m


def _gsvd_stacked(stack: np.ndarray, m: int) -> GsvdResult:
    """:func:`gsvd` of the pair whose :func:`_stack` is ``stack``, A its first ``m`` rows.

    Takes the stack so that a caller can drop A and B before the QR, which
    then holds the stack, LAPACK's copy of it and Q.
    """
    rows, n = stack.shape
    stacked_size = max(rows, n)  # the larger dimension of [A; B]
    # reduced: q is (m+s, n), r is (n, n)
    q, r_stack = _lapack("QR", stack.shape, np.linalg.qr, stack)
    # R has the singular values of [A; B], so it carries the rank check.
    stack_sv = _lapack("SVD", r_stack.shape, np.linalg.svd, r_stack, compute_uv=False)
    if stack_sv[-1] <= stacked_size * _EPS * stack_sv[0]:
        raise DegeneratePencilError(
            "stacked matrix [A; B] is rank deficient; the pair has no full generalized decomposition"
        )
    q1, q2 = q[:m], q[m:]

    u, alpha, wt = _lapack("SVD", q1.shape, np.linalg.svd, q1, full_matrices=False)
    _fix_signs(u, wt.T)
    # Reorder so alpha ascends: nonzero betas then land on the leading
    # diagonal of S, which is the only representable layout when s < n.
    alpha = np.minimum(alpha[::-1], 1.0)
    u = u[:, ::-1]
    w = wt[::-1].T

    t = q2 @ w  # columns orthogonal with norms beta_i
    del q, q1, q2  # t is the last use of Q
    v, r_t = _lapack("QR", t.shape, np.linalg.qr, t)
    diag = np.diagonal(r_t)
    v[:, diag < 0] *= -1.0
    beta = np.zeros(n)
    beta[: diag.size] = np.abs(diag)

    x = r_stack.T @ w

    inf_tol = stacked_size * _EPS
    with np.errstate(divide="ignore"):
        values = np.where(beta > inf_tol, alpha / np.maximum(beta, inf_tol), np.inf)
    return GsvdResult(
        u_basis=u,
        v_basis=v,
        x_factor=x,
        alpha=alpha,
        beta=beta,
        generalized_values=values[::-1].copy(),
    )


def frobenius_energy(a) -> float:
    """Total energy of a matrix: the sum of its squared entries."""
    arr = check_matrix(a, "A")
    return float(np.sum(arr * arr))


def truncated_sum(spectrum: SpectrumResult, first: int, last: int) -> np.ndarray:
    """Partial reconstruction from singular triples ``first..last`` (1-based, inclusive)."""
    check_index_range(first, last, spectrum.numerical_rank, "truncation range")
    return _band(spectrum.left_basis, spectrum.singular_values, spectrum.right_basis, first - 1, last)
