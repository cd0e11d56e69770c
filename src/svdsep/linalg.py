"""Dense decompositions and energy functionals on real matrices.

Everything here is a pure function of its inputs; results are plain frozen
dataclasses wrapping float64 arrays. Singular vectors follow a fixed sign
convention (largest-magnitude entry of each left vector is nonnegative) so
repeated calls on identical input are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePencilError, InvalidInputError, ShapeError
from .validation import check_index_range, check_matrix

__all__ = [
    "SpectrumResult",
    "GsvdResult",
    "svd",
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
    """

    left_basis: np.ndarray
    right_basis: np.ndarray
    singular_values: np.ndarray
    numerical_rank: int
    rank_tolerance: float

    @property
    def shape(self) -> tuple[int, int]:
        return (self.left_basis.shape[0], self.right_basis.shape[0])


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

    def reconstruct_a(self) -> np.ndarray:
        return (self.u_basis * self.alpha) @ self.x_factor.T

    def reconstruct_b(self) -> np.ndarray:
        k = self.v_basis.shape[1]
        return (self.v_basis * self.beta[:k]) @ self.x_factor[:, :k].T


def _fix_signs(u: np.ndarray, v: np.ndarray) -> None:
    """Make the largest-magnitude entry of each left vector nonnegative.

    ``u`` and ``v`` hold the paired left and right vectors as columns; the
    sign flip propagates to the right vector. In-place.
    """
    idx = np.argmax(np.abs(u), axis=0)
    signs = np.where(u[idx, np.arange(u.shape[1])] < 0, -1.0, 1.0)
    u *= signs
    v *= signs


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
    if rank_tolerance is None:
        rank_tolerance = max(arr.shape) * _EPS
    elif rank_tolerance < 0:
        raise InvalidInputError(f"rank_tolerance must be nonnegative, got {rank_tolerance}")
    if arr.shape[0] < arr.shape[1]:
        # LAPACK factors a wide matrix several times slower than its tall
        # transpose, whose left factor is already the (n, k) right basis.
        v, s, ut = np.linalg.svd(arr.T, full_matrices=False)
        u = ut.T.copy()
    else:
        u, s, vt = np.linalg.svd(arr, full_matrices=False)
        v = vt.T.copy()
    _fix_signs(u, v)
    rank = int(np.count_nonzero(s > rank_tolerance * s[0]))
    return SpectrumResult(
        left_basis=u,
        right_basis=v,
        singular_values=s,
        numerical_rank=rank,
        rank_tolerance=float(rank_tolerance),
    )


# Factorizations one gsvd call performs: QR of [A; B], SVD of R (the rank
# check), SVD of Q1 and QR of Q2 W.
GSVD_FACTORIZATIONS = 4


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
    """
    a_arr = check_matrix(a, "A")
    b_arr = check_matrix(b, "B")
    m, n = a_arr.shape
    s_rows = b_arr.shape[0]
    if b_arr.shape[1] != n:
        raise ShapeError(f"A and B must share a column count, got {n} and {b_arr.shape[1]}")
    if m < n:
        raise ShapeError(f"A must have at least as many rows as columns, got {a_arr.shape}")

    stacked = np.vstack([a_arr, b_arr])
    q, r_stack = np.linalg.qr(stacked)  # reduced: q is (m+s, n), r is (n, n)
    # R has the singular values of [A; B], so it carries the rank check.
    stack_sv = np.linalg.svd(r_stack, compute_uv=False)
    if stack_sv[-1] <= max(stacked.shape) * _EPS * stack_sv[0]:
        raise DegeneratePencilError(
            "stacked matrix [A; B] is rank deficient; the pair has no full generalized decomposition"
        )
    q1, q2 = q[:m], q[m:]

    u, alpha, wt = np.linalg.svd(q1, full_matrices=False)
    _fix_signs(u, wt.T)
    # Reorder so alpha ascends: nonzero betas then land on the leading
    # diagonal of S, which is the only representable layout when s < n.
    alpha = np.minimum(alpha[::-1], 1.0)
    u = u[:, ::-1]
    w = wt[::-1].T

    t = q2 @ w  # columns orthogonal with norms beta_i
    v, r_t = np.linalg.qr(t)
    diag = np.diagonal(r_t)
    v[:, diag < 0] *= -1.0
    beta = np.zeros(n)
    beta[: diag.size] = np.abs(diag)

    x = r_stack.T @ w

    inf_tol = max(m + s_rows, n) * _EPS
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
    u = spectrum.left_basis[:, first - 1 : last]
    s = spectrum.singular_values[first - 1 : last]
    v = spectrum.right_basis[:, first - 1 : last]
    return (u * s) @ v.T
