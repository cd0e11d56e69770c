import warnings

import numpy as np
import pytest
from conftest import lapack_fails, raise_exactly, random_rect, sym_eig_2x2, traced_peak

from svdsep import linalg, signal
from svdsep.errors import (
    ConvergenceError,
    DegeneratePencilError,
    InvalidInputError,
    LayoutError,
    RangeError,
    ShapeError,
)
from svdsep.validation import check_matrix

_EPS = np.finfo(np.float64).eps


class TestSvd:
    def test_identity(self):
        res = linalg.svd(np.eye(2))
        assert np.allclose(res.singular_values, [1.0, 1.0])
        assert res.numerical_rank == 2

    def test_diagonal_with_zero(self):
        res = linalg.svd(np.diag([3.0, 0.0]))
        assert np.allclose(res.singular_values, [3.0, 0.0], atol=1e-14)
        assert res.numerical_rank == 1

    def test_ones_matrix_against_eigen_oracle(self):
        # eigenvalues of A^T A from the quadratic formula, not LAPACK
        a = np.ones((2, 2))
        lam1, lam2 = sym_eig_2x2(a.T @ a)
        res = linalg.svd(a)
        assert np.allclose(res.singular_values, [np.sqrt(lam1), np.sqrt(lam2)], atol=1e-12)
        assert res.numerical_rank == 1

    def test_orthogonality_and_reconstruction(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            a = random_rect(rng)
            res = linalg.svd(a)
            m, n = a.shape
            k = min(m, n)
            assert res.left_basis.shape == (m, k)
            assert res.right_basis.shape == (n, k)
            assert np.max(np.abs(res.left_basis.T @ res.left_basis - np.eye(k))) < 1e-10
            assert np.max(np.abs(res.right_basis.T @ res.right_basis - np.eye(k))) < 1e-10
            rec = linalg.truncated_sum(res, 1, res.numerical_rank)
            assert np.linalg.norm(rec - a) <= 1e-9 * np.linalg.norm(a)

    def test_rank_of_zero_matrix_is_zero(self):
        assert linalg.svd(np.zeros((3, 2))).numerical_rank == 0

    def test_rank_tolerance_is_relative(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])  # sigma_2 ~ 5e-14 sigma_1 > 2 eps sigma_1
        for scale in (1e-200, 1.0, 1e200):
            assert linalg.svd(scale * a).numerical_rank == 2
            assert linalg.svd(scale * np.ones((3, 3))).numerical_rank == 1

    def test_sign_convention(self):
        res = linalg.svd(np.diag([-3.0, 2.0]))
        for i in range(2):
            col = res.left_basis[:, i]
            assert col[np.argmax(np.abs(col))] >= 0

    def test_bitwise_determinism(self):
        a = np.random.default_rng(7).standard_normal((12, 5))
        r1, r2 = linalg.svd(a), linalg.svd(a)
        assert r1.left_basis.tobytes() == r2.left_basis.tobytes()
        assert r1.right_basis.tobytes() == r2.right_basis.tobytes()
        assert r1.singular_values.tobytes() == r2.singular_values.tobytes()

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            linalg.svd(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            linalg.svd(np.ones(3))


class TestSvdWide:
    """A wide input (m < n) is factored through its transpose."""

    SHAPES = [(1, 5), (6, 20), (40, 397)]

    @staticmethod
    def wide(shape):
        return np.random.default_rng(shape[1]).standard_normal(shape)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_thin_orthonormal_factors_reconstruct(self, shape):
        a = self.wide(shape)
        res = linalg.svd(a)
        m, n = shape
        assert res.left_basis.shape == (m, m) and res.right_basis.shape == (n, m)
        assert np.max(np.abs(res.left_basis.T @ res.left_basis - np.eye(m))) < 1e-13
        assert np.max(np.abs(res.right_basis.T @ res.right_basis - np.eye(m))) < 1e-13
        rec = (res.left_basis * res.singular_values) @ res.right_basis.T
        assert np.linalg.norm(rec - a) <= 1e-13 * np.linalg.norm(a)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_sign_rule_and_layout(self, shape):
        res = linalg.svd(self.wide(shape))
        for col in res.left_basis.T:
            assert col[np.argmax(np.abs(col))] >= 0
        assert res.right_basis.flags.c_contiguous

    @pytest.mark.parametrize("shape", SHAPES)
    def test_bitwise_determinism(self, shape):
        a = self.wide(shape)
        r1, r2 = linalg.svd(a), linalg.svd(a)
        for field in ("left_basis", "right_basis", "singular_values"):
            assert getattr(r1, field).tobytes() == getattr(r2, field).tobytes()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_values_match_the_tall_route(self, shape):
        a = self.wide(shape)
        wide, tall = linalg.svd(a).singular_values, linalg.svd(a.T).singular_values
        assert np.max(np.abs(wide - tall)) <= 1e-15 * tall[0]


def _fix_signs_reference(u, v=None):
    """The whole-array sign rule that the column loop of ``_fix_signs`` replaced."""
    idx = np.argmax(np.abs(u), axis=0)
    signs = np.where(u[idx, np.arange(u.shape[1])] < 0, -1.0, 1.0)
    u *= signs
    if v is not None:
        v *= signs


class TestFixSigns:
    """_fix_signs takes its pivots from column reductions, with the old whole-array rule."""

    @staticmethod
    def assert_matches_reference(u, v=None):
        want_u = u.copy()
        want_v = None if v is None else v.copy()
        _fix_signs_reference(want_u, want_v)
        linalg._fix_signs(u, v)
        assert u.tobytes() == want_u.tobytes()
        if v is not None:
            assert v.tobytes() == want_v.tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (7, 3), (200, 8), (5, 5)])
    def test_random_columns(self, shape):
        rng = np.random.default_rng(sum(shape))
        self.assert_matches_reference(rng.standard_normal(shape), rng.standard_normal((4, shape[1])))
        self.assert_matches_reference(rng.standard_normal(shape))

    @staticmethod
    def planted(shape):
        """A random basis whose columns cycle through four kinds: untouched, an
        exact +/- tie with the negative entry first, one with the positive
        entry first, and signed zeros of random sign."""
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        u = rng.standard_normal(shape)
        m = shape[0]
        for j in range(shape[1]):
            col = u[:, j]
            if j % 4 == 3:
                col[:] = np.where(rng.random(m) < 0.5, -0.0, 0.0)
            elif j % 4 and m > 1:
                a, b = np.sort(rng.choice(m, 2, replace=False))
                big = 2.0 * np.max(np.abs(col))
                col[a], col[b] = (-big, big) if j % 4 == 1 else (big, -big)
        return u

    @pytest.mark.parametrize("shape", [(4000, 8), (40_000, 8), (40, 40), (200, 200), (8, 40), (2, 9)])
    def test_planted_ties_and_signed_zeros(self, shape):
        # tall, square and wide bases, with and without right vectors
        u = self.planted(shape)
        self.assert_matches_reference(u.copy(), np.random.default_rng(5).standard_normal((5, shape[1])))
        self.assert_matches_reference(u)

    def test_a_tall_basis_takes_no_column_sized_temporary(self):
        rng = np.random.default_rng(40)
        u, v = rng.standard_normal((40_000, 8)), rng.standard_normal((8, 8))
        _, peak = traced_peak(lambda: linalg._fix_signs(u, v))
        assert peak < 4096

    def test_tied_magnitudes_of_opposite_sign_first_wins(self):
        u = np.array([[0.5, 2.0, 1.0],
                      [-2.0, -2.0, 0.0],
                      [1.0, 0.5, -1.0],
                      [2.0, 1.0, 0.0]])
        v = np.arange(6.0).reshape(2, 3)
        self.assert_matches_reference(u, v)
        assert list(u[1]) == [2.0, -2.0, 0.0] and list(v[:, 0]) == [-0.0, -3.0]

    def test_all_zero_columns_keep_their_bits(self):
        u = np.array([[0.0, -0.0, 3.0], [-0.0, 0.0, -4.0]])
        self.assert_matches_reference(u, np.ones((2, 3)))
        self.assert_matches_reference(np.zeros((6, 2)))

    def test_right_vectors_as_a_transposed_view(self):
        # gsvd hands the right vectors over as wt.T: the flips land in the rows of wt.
        rng = np.random.default_rng(31)
        u, wt = rng.standard_normal((30, 4)), rng.standard_normal((4, 4))
        want_u, want_wt = u.copy(), wt.copy()
        _fix_signs_reference(want_u, want_wt.T)
        linalg._fix_signs(u, wt.T)
        assert u.tobytes() == want_u.tobytes() and wt.tobytes() == want_wt.tobytes()

    @pytest.mark.parametrize("shape", [(40, 9), (9, 40), (6, 6)])
    def test_svd_is_the_reference_on_the_raw_factors(self, shape):
        # A wide input is factored through its transpose, and its left basis
        # is then a copied transpose; a tall one keeps LAPACK's U.
        a = np.random.default_rng(shape[1]).standard_normal(shape)
        if shape[0] < shape[1]:
            v, _, ut = np.linalg.svd(a.T, full_matrices=False)
            u = ut.T.copy()
        else:
            u, _, vt = np.linalg.svd(a, full_matrices=False)
            v = vt.T.copy()
        _fix_signs_reference(u, v)
        got = linalg.svd(a)
        assert got.left_basis.tobytes() == u.tobytes()
        assert got.right_basis.tobytes() == v.tobytes()


class TestPeakMemory:
    """Traced peaks of the tall factorizations that channel-columns separate runs."""

    def test_tall_svd_stays_near_its_left_basis(self):
        # The whole-array sign rule held |U| and a copy of it: ~3x the left basis.
        # Pivots read from column reductions add no column: ~1.001x.
        a = np.random.default_rng(40).standard_normal((40_000, 8))
        res, peak = traced_peak(lambda: linalg.svd(a))
        assert peak <= 1.02 * res.left_basis.nbytes

    def test_gsvd_peak_is_set_by_its_qr(self):
        # The triangles are built a block of 1024 rows at a time, so the peak
        # is ~0.072x the pair, most of it check_matrix's isfinite mask of A.
        # The copy a whole QR of A made was ~0.57x; a QR of the stack
        # [A; B], holding the stack and Q, ~3.0x; and a whole-array sign rule
        # on an (m, n) U ~3.9x.
        rng = np.random.default_rng(41)
        a, b = rng.standard_normal((40_000, 8)), rng.standard_normal((30_000, 8))
        res, peak = traced_peak(lambda: linalg.gsvd(a, b))
        assert peak <= 0.15 * (a.nbytes + b.nbytes)
        assert np.linalg.norm(res.reconstruct_a() - a) <= 1e-9 * np.linalg.norm(a)


class TestStreamedSvd:
    """streamed_svd reads X^T in row blocks and never forms its right basis."""

    @staticmethod
    def assert_matches_the_dense_svd(xt, step):
        a = np.array(xt.T)
        got, want = linalg.streamed_svd(xt), linalg.svd(a)
        k = min(a.shape)
        assert got.shape == a.shape and got.left_basis.shape == (a.shape[0], k)
        assert got.transposed is xt
        assert np.max(np.abs(got.singular_values - want.singular_values)) <= 1e-14 * want.singular_values[0]
        assert got.numerical_rank == want.numerical_rank
        u = got.left_basis
        assert np.max(np.abs(u.T @ u - np.eye(k))) < 1e-13
        # projecting onto the basis keeps every column: U U^T A = A
        assert np.linalg.norm(u @ (u.T @ a) - a) <= 1e-13 * np.linalg.norm(a)
        for col in u.T:
            assert col[np.argmax(np.abs(col))] >= 0
        assert got.factorizations == 2 * -(-a.shape[1] // step)

    @pytest.mark.parametrize("shape, step", [
        ((40, 397), 397), ((40, 397), 13), ((40, 397), 1), ((12, 5), 2), ((6, 6), 4)])
    def test_matches_the_dense_svd(self, monkeypatch, shape, step):
        monkeypatch.setattr(linalg, "_block_rows", lambda x: step)
        a = np.random.default_rng(sum(shape)).standard_normal(shape)
        self.assert_matches_the_dense_svd(a.T, step)

    def test_reads_a_window_view(self):
        # 481 windows of 20 samples, 409 rows per block: two blocks
        x = np.random.default_rng(9).standard_normal(500)
        self.assert_matches_the_dense_svd(np.lib.stride_tricks.sliding_window_view(x, 20), 409)

    @pytest.mark.parametrize("window, step", [(2, 4096), (8, 1024)])
    def test_short_windows_take_blocks_of_8192_entries(self, window, step):
        # 8 L windows per block would cut these 40 000 samples into 5000 and
        # 1250 blocks; 8192 entries make 10 and 40.
        x = np.random.default_rng(window).standard_normal(40_000)
        self.assert_matches_the_dense_svd(np.lib.stride_tricks.sliding_window_view(x, window), step)

    def test_holds_one_block_and_the_triangles(self):
        # 19 901 windows of L = 100 in blocks of 8 L: each block's QR copies
        # it once, and merging two triangles stacks 2 L x L.
        window = 100
        xt = np.lib.stride_tricks.sliding_window_view(np.random.default_rng(12).standard_normal(20_000), window)
        _, peak = traced_peak(lambda: linalg.streamed_svd(xt))
        assert peak <= 1.2 * (8 * window * window + 4 * window * window) * 8

    def test_rank_tolerance_rule_is_svd_s(self):
        # rank 1 plus 1e-9 sigma_1 in seven more directions, and that rank-1
        # part alone: max(8, 30) eps sigma_1 counts 8 and 1 on both routes
        base = np.outer(np.arange(1.0, 9.0), np.ones(30))
        for a, rank in ((base + 1e-9 * np.eye(8, 30), 8), (base, 1)):
            assert linalg.streamed_svd(a.T).numerical_rank == linalg.svd(a).numerical_rank == rank

    def test_rejects_non_finite_and_no_blocks(self):
        a = np.ones((4, 9))
        a[2, 5] = np.nan
        with pytest.raises(InvalidInputError):
            linalg.streamed_svd(a.T)
        with pytest.raises(ShapeError):
            linalg.streamed_svd(np.empty((0, 4)))
        with pytest.raises(ShapeError, match="one column"):
            linalg.streamed_svd(np.empty((4, 0)))


class TestGsvd:
    def test_identity_pair(self):
        # generalized eigenvalues of (I, I) are all 1
        res = linalg.gsvd(np.eye(2), np.eye(2))
        assert np.allclose(res.alpha, 1 / np.sqrt(2), atol=1e-12)
        assert np.allclose(res.beta, 1 / np.sqrt(2), atol=1e-12)
        assert np.allclose(res.generalized_values, [1.0, 1.0], atol=1e-12)

    def test_identity_vs_diag(self):
        res = linalg.gsvd(np.eye(2), np.diag([2.0, 1.0]))
        assert np.allclose(res.generalized_values, [1.0, 0.5], atol=1e-12)

    def test_against_generalized_eigenvalue_oracle(self):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            a = rng.standard_normal((n + int(rng.integers(2, 8)), n))
            b = rng.standard_normal((n + int(rng.integers(0, 8)), n))
            expected = np.sqrt(scipy_linalg.eigh(a.T @ a, b.T @ b, eigvals_only=True))[::-1]
            got = linalg.gsvd(a, b).generalized_values
            assert np.allclose(got, expected, rtol=1e-8)

    def test_contract_on_seeded_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            a = rng.standard_normal((n + int(rng.integers(0, 10)), n))
            b = rng.standard_normal((int(rng.integers(1, 12)), n))
            res = linalg.gsvd(a, b)
            assert np.max(np.abs(res.alpha**2 + res.beta**2 - 1.0)) <= 1e-10
            assert np.linalg.norm(res.reconstruct_a() - a) <= 1e-9 * np.linalg.norm(a)
            assert np.linalg.norm(res.reconstruct_b() - b) <= 1e-9 * np.linalg.norm(b)
            m, s = a.shape[0], b.shape[0]
            assert res.u_basis.shape == (m, n)
            assert res.v_basis.shape == (s, min(s, n))
            assert np.max(np.abs(res.u_basis.T @ res.u_basis - np.eye(n))) < 1e-9
            assert np.max(np.abs(res.v_basis.T @ res.v_basis - np.eye(min(s, n)))) < 1e-9
            # nonsingular X
            assert np.linalg.matrix_rank(res.x_factor) == n

    def test_generalized_values_sorted_descending(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((9, 4))
        b = rng.standard_normal((6, 4))
        vals = linalg.gsvd(a, b).generalized_values
        assert np.all(np.diff(vals) <= 0)

    def test_identity_reference_matches_singular_values(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((12, 5))
        res = linalg.gsvd(a, np.eye(5))
        sv = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(res.generalized_values, sv, rtol=1e-8)

    def test_infinite_values_when_reference_is_deficient(self):
        # the reference matrix sees only the second coordinate, so the first
        # direction has no reference energy at all
        a = np.eye(2)
        b = np.array([[0.0, 1.0]])
        res = linalg.gsvd(a, b)
        assert np.isinf(res.generalized_values[0])
        assert np.isfinite(res.generalized_values[1])
        assert np.linalg.norm(res.reconstruct_a() - a) <= 1e-9
        assert np.linalg.norm(res.reconstruct_b() - b) <= 1e-9

    def test_wide_reference(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((5, 3))
        b = rng.standard_normal((9, 3))
        res = linalg.gsvd(a, b)
        assert np.linalg.norm(res.reconstruct_b() - b) <= 1e-9 * np.linalg.norm(b)

    def test_a_power_of_two_on_b_moves_only_the_shift(self):
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal((9, 4)), rng.standard_normal((6, 4))
        plain = linalg.gsvd(a, b)
        assert plain.b_shift == 0
        res = linalg.gsvd(a, np.ldexp(b, -600))
        assert res.b_shift == 600
        for name in ("u_basis", "v_basis", "x_factor", "alpha", "beta", "balanced_values"):
            assert getattr(res, name).tobytes() == getattr(plain, name).tobytes(), name
        assert res.generalized_values.tobytes() == np.ldexp(plain.generalized_values, 600).tobytes()
        assert res.reconstruct_b().tobytes() == np.ldexp(plain.reconstruct_b(), -600).tobytes()

    def test_values_of_the_callers_pair_saturate_only_where_unrepresentable(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal((9, 4)), rng.standard_normal((6, 4))
        for c, want in ((1e-200, 1e200), (1e300, 1e-300)):
            res = linalg.gsvd(a, c * b)
            assert np.max(np.abs(res.alpha**2 + res.beta**2 - 1.0)) <= 1e-10
            assert np.linalg.norm(res.reconstruct_b() / c - b) <= 1e-9 * np.linalg.norm(b)
            assert np.allclose(res.generalized_values, want * linalg.gsvd(a, b).generalized_values,
                               rtol=1e-8, atol=0.0)
        with np.errstate(over="raise"):
            res = linalg.gsvd(1e300 * a, 1e-300 * b)
        assert np.all(np.isfinite(res.balanced_values))
        assert np.all(np.isinf(res.generalized_values))  # ~1e600: not a float64

    def test_column_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            linalg.gsvd(np.eye(3), np.eye(2))

    def test_fewer_rows_than_columns_rejected(self):
        with pytest.raises(ShapeError):
            linalg.gsvd(np.ones((2, 3)), np.ones((3, 3)))

    def test_degenerate_pencil_rejected(self):
        a = np.ones((3, 2))
        b = np.ones((1, 2))
        with pytest.raises(DegeneratePencilError):
            linalg.gsvd(a, b)

    def test_determinism(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((8, 3)), rng.standard_normal((5, 3))
        r1, r2 = linalg.gsvd(a, b), linalg.gsvd(a, b)
        assert r1.x_factor.tobytes() == r2.x_factor.tobytes()
        assert r1.generalized_values.tobytes() == r2.generalized_values.tobytes()

    @pytest.mark.parametrize("kappa", [1e2, 1e5, 1e8, 1e10])
    def test_dominant_band_of_a_planted_pencil(self, kappa):
        # A = U_a C X^T and B = V_b S X^T with cond(X) = kappa and two
        # planted dominant directions; rounding A and B moves the band by
        # about kappa eps, so that is the error to expect, with no more.
        values = np.array([100.0, 50.0, 1.0, 0.8, 0.6, 0.4, 0.2, 0.1])
        alpha, beta = values / np.hypot(values, 1.0), 1.0 / np.hypot(values, 1.0)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            x_left, x_right, u_a, v_b = (np.linalg.qr(rng.standard_normal((rows, 8)))[0]
                                         for rows in (8, 8, 400, 300))
            x = x_left @ np.diag(np.geomspace(1.0, 1.0 / kappa, 8)) @ x_right.T
            a, b = (u_a * alpha) @ x.T, (v_b * beta) @ x.T
            res = linalg.gsvd(a, b)
            cut = signal.cutoff(res)
            assert cut.m == 2
            dominant = signal.separate(res, cut)[0]
            planted = (u_a[:, :2] * alpha[:2]) @ x[:, :2].T
            assert np.max(np.abs(dominant - planted)) <= 10 * kappa * _EPS * np.max(np.abs(a)), seed


class TestGsvdOfAReference:
    """gsvd(a, _reference(b)), the CLI's route: B reduced to its triangle before
    A is read gives the bytes of gsvd(a, b), and holds nothing of B's rows."""

    @pytest.mark.parametrize("c", [1e-300, 1.0, 1e300])
    @pytest.mark.parametrize("rows", [3, 6, 40])  # fewer rows than columns, more, and more than A's
    def test_equals_the_matrix_route(self, c, rows):
        rng = np.random.default_rng(rows)
        a, b = rng.standard_normal((9, 4)), c * rng.standard_normal((rows, 4))
        want, got = linalg.gsvd(a, b), linalg.gsvd(a, linalg._reference(b))
        for name in ("x_factor", "alpha", "beta", "balanced_values"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert got.b_shift == want.b_shift
        assert got.b is None and got.v_factor.shape[0] == min(rows, 4)

    def test_b_only_members_are_typed_errors(self):
        rng = np.random.default_rng(1)
        res = linalg.gsvd(rng.standard_normal((9, 4)), linalg._reference(rng.standard_normal((6, 4))))
        for read in (lambda: res.v_basis, res.reconstruct_b):
            raise_exactly(LayoutError, read, match="^V needs B, and this decomposition was built "
                                                   "from B's triangle alone$")

    @pytest.mark.parametrize("a, b, error, message", [
        (np.eye(3), np.eye(2), ShapeError, "^A and B must share a column count, got 3 and 2$"),
        (np.ones((2, 3)), np.ones((3, 3)), ShapeError,
         r"^A must have at least as many rows as columns, got \(2, 3\)$"),
        (np.ones((3, 2)), np.ones((1, 2)), DegeneratePencilError,
         r"^stacked matrix \[A; B\] is rank deficient; the pair has no full generalized decomposition$"),
    ], ids=["columns", "rows", "deficient"])
    def test_faults_keep_the_matrix_routes_messages(self, a, b, error, message):
        raise_exactly(error, lambda: linalg.gsvd(a, b), match=message)
        reference = linalg._reference(b)
        raise_exactly(error, lambda: linalg.gsvd(a, reference), match=message)

    def test_a_bad_reference_is_refused_when_it_is_reduced(self):
        raise_exactly(InvalidInputError, lambda: linalg._reference(np.array([[1.0, np.nan]])),
                      match="^B contains non-finite entries$")
        with lapack_fails("qr"):
            raise_exactly(ConvergenceError, lambda: linalg._reference(_B),
                          match="^QR of a 5x3 matrix failed: qr did not converge$")


class TestBlockedGsvd:
    """gsvd builds R_A and R_B by TSQR over blocks of _block_rows rows; small
    blocks agree with one block to rounding."""

    @staticmethod
    def pair(n, rows_a, rows_b, rank, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((rows_a, rank)) @ rng.standard_normal((rank, n))
        return a, rng.standard_normal((rows_b, n))

    @staticmethod
    def assert_agrees_with_one_block(monkeypatch, a, b, step):
        one = linalg.gsvd(a, b)
        monkeypatch.setattr(linalg, "_block_rows", lambda x: step)
        got = linalg.gsvd(a, b)
        (m, n), s = a.shape, b.shape[0]
        assert got.factorizations == 2 * (-(-m // step) + -(-s // step))
        if n >= 2:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # infinite values when s < n
                cuts = [signal.cutoff(res) for res in (got, one)]
            assert [(cut.m, cut.f) for cut in cuts] == [(cuts[1].m, cuts[1].f)] * 2
        finite = np.isfinite(one.generalized_values)
        assert np.array_equal(np.isfinite(got.generalized_values), finite)
        assert np.max(np.abs(got.generalized_values[finite] - one.generalized_values[finite])) \
            <= 1e-13 * np.max(one.generalized_values[finite])
        for basis in (got.u_basis, got.v_basis):
            assert np.max(np.abs(basis.T @ basis - np.eye(basis.shape[1]))) <= 1e-13
        assert np.linalg.norm(got.reconstruct_a() - a) <= 1e-12 * np.linalg.norm(a)
        assert np.linalg.norm(got.reconstruct_b() - b) <= 1e-12 * np.linalg.norm(b)

    @pytest.mark.parametrize("n, rows_a, rows_b, step", [
        (1, 7, 5, 1),         # blocks of 1 row
        (8, 40, 33, 8),       # blocks of n rows, a 1-row tail of B
        (8, 45, 40, 9),       # blocks of n + 1 rows, no tail of A and a 4-row one of B
        (8, 203, 150, 64),    # 64-row blocks, an 11-row tail of A and a 22-row one of B
        (8, 300, 5, 8),       # a reference with s < n: one wide block
    ], ids=["1-row", "n-rows", "n+1-rows", "tails", "wide-reference"])
    def test_agrees_with_one_block(self, monkeypatch, n, rows_a, rows_b, step):
        a, b = self.pair(n, rows_a, rows_b, n, rows_a)
        self.assert_agrees_with_one_block(monkeypatch, a, b, step)

    @pytest.mark.parametrize("rank", [7, 6])
    @pytest.mark.parametrize("rows_b", [150, 5])
    def test_rank_deficient_a(self, monkeypatch, rank, rows_b):
        a, b = self.pair(8, 203, rows_b, rank, rank)
        self.assert_agrees_with_one_block(monkeypatch, a, b, 8)

    @pytest.mark.parametrize("column", ["zero", "repeated"])
    def test_a_dead_or_repeated_channel(self, monkeypatch, column):
        # The triangles of a whole QR and of a TSQR then differ in more than
        # the signs of their rows, so U reads the Q of the same blocks: a whole
        # QR's Q with its columns' signs fixed missed A by 2.7e-3 to 2.7e-2.
        a, b = self.pair(8, 3000, 3500, 8, 3)
        a[:, 2] = 0.0 if column == "zero" else a[:, 1]
        self.assert_agrees_with_one_block(monkeypatch, a, b, 64)

    def test_one_block_is_a_whole_qr(self):
        # 1024 rows of 8 channels are one block: R_A is qr(A, mode="r") itself,
        # and U the whole QR's Q times u_factor, byte for byte
        a, b = self.pair(8, 1024, 1024, 8, 4)
        res = linalg.gsvd(a, b)
        assert res.factorizations == 4
        r, qrs = linalg._tsqr("QR", a)
        assert qrs == 1 and r.tobytes() == np.linalg.qr(a, mode="r").tobytes()
        assert res.u_basis.tobytes() == (np.linalg.qr(a)[0] @ res.u_factor).tobytes()

    def test_a_failing_block_names_the_whole_matrix(self, monkeypatch):
        monkeypatch.setattr(linalg, "_block_rows", lambda x: 8)
        a, b = self.pair(8, 40, 20, 8, 5)
        for call, shape in ((2, "40x8"), (12, "20x8")):  # A's second block, B's first merge
            with lapack_fails("qr", call):
                raise_exactly(ConvergenceError, lambda: linalg.gsvd(a, b),
                              match=f"^QR of a {shape} matrix failed: qr did not converge$")


_RNG = np.random.default_rng(50)
_A, _B, _XT = _RNG.standard_normal((8, 3)), _RNG.standard_normal((5, 3)), _RNG.standard_normal((100, 4))


@pytest.mark.parametrize("name, call, run, message", [
    ("svd", 1, lambda: linalg.svd(_A), "SVD of a 8x3 matrix"),
    ("svd", 1, lambda: linalg.svd(_A.T), "SVD of a 3x8 matrix"),
    ("qr", 2, lambda: linalg.streamed_svd(_XT), "blocked QR of a 100x4 matrix"),
    ("svd", 1, lambda: linalg.streamed_svd(_XT), "SVD of a 4x4 matrix"),
    ("qr", 1, lambda: linalg.gsvd(_A, _B), "QR of a 8x3 matrix"),
    ("qr", 2, lambda: linalg.gsvd(_A, _B), "QR of a 5x3 matrix"),
    ("svd", 1, lambda: linalg.gsvd(_A, _B), "SVD of a 6x3 matrix"),
    ("svd", 2, lambda: linalg.gsvd(_A, _B), "SVD of a 3x3 matrix"),
], ids=["svd", "svd-wide", "streamed-qr", "streamed-svd", "gsvd-a-qr", "gsvd-b-qr",
        "gsvd-rank-svd", "gsvd-q1-svd"])
def test_lapack_failure_is_a_typed_error(monkeypatch, name, call, run, message):
    monkeypatch.setattr(linalg, "_block_rows", lambda x: 32)  # _XT's 100 rows in four blocks
    with lapack_fails(name, call):
        raise_exactly(ConvergenceError, run, match=f"^{message} failed: {name} did not converge$")


class TestEnergies:
    def test_frobenius_identity(self):
        assert linalg.frobenius_energy(np.eye(3)) == 3.0

    def test_frobenius_hand_sum(self):
        # 1 + 4 + 9 + 16
        assert linalg.frobenius_energy([[1.0, 2.0], [3.0, 4.0]]) == 30.0

    def test_frobenius_zero(self):
        assert linalg.frobenius_energy(np.zeros((4, 2))) == 0.0

    def test_frobenius_equals_spectrum_energy(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.standard_normal((int(rng.integers(2, 20)), int(rng.integers(2, 20))))
            e = linalg.frobenius_energy(a)
            s = linalg.svd(a).singular_values
            assert abs(e - np.sum(s**2)) <= 1e-9 * e


class TestTruncatedSum:
    def test_full_range_reproduces_input(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((7, 5))
        res = linalg.svd(a)
        assert np.linalg.norm(linalg.truncated_sum(res, 1, res.numerical_rank) - a) \
            <= 1e-9 * np.linalg.norm(a)

    def test_diagonal_truncation(self):
        res = linalg.svd(np.diag([3.0, 1.0]))
        assert np.allclose(linalg.truncated_sum(res, 1, 1), np.diag([3.0, 0.0]), atol=1e-14)

    def test_split_additivity(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((6, 6))
        res = linalg.svd(a)
        r = res.numerical_rank
        for k in range(1, r):
            total = linalg.truncated_sum(res, 1, k) + linalg.truncated_sum(res, k + 1, r)
            assert np.allclose(total, a, atol=1e-10)

    def test_orthogonal_split_energy(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((10, 8))
        res = linalg.svd(a)
        r = res.numerical_rank
        total = linalg.frobenius_energy(a)
        for k in range(1, r):
            head = linalg.frobenius_energy(linalg.truncated_sum(res, 1, k))
            tail = linalg.frobenius_energy(linalg.truncated_sum(res, k + 1, r))
            assert abs(head + tail - total) <= 1e-8 * total

    def test_out_of_range_rejected(self):
        res = linalg.svd(np.diag([3.0, 1.0]))
        with pytest.raises(RangeError):
            linalg.truncated_sum(res, 0, 1)
        with pytest.raises(RangeError):
            linalg.truncated_sum(res, 1, 3)
        with pytest.raises(RangeError):
            linalg.truncated_sum(res, 2, 1)


@pytest.mark.parametrize("a", [np.zeros((0, 3)), np.zeros((3, 0))], ids=["no-rows", "no-columns"])
def test_check_matrix_rejects_an_empty_matrix(a):
    raise_exactly(ShapeError, lambda: check_matrix(a))
