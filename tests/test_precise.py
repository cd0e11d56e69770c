"""The numbers `separate --method svd` and `--method gsvd` write, on channel
columns and on a hankel layout, against a 200-bit reference.

The svd reference takes the eigenpairs of A^T A, and the gsvd reference
solves the symmetric-definite pencil (A^T A, B^T B) through a Cholesky
factor of B^T B, with mpmath at 200 bits: routes of their own, not the
library's QR and SVD route. The Gram matrices and the band products are
formed exactly in integers, so forming A^T A loses nothing.
"""

import functools

import numpy as np
import pytest

from svdsep import linalg, signal, synth
from svdsep.signal import ChannelSet, EmbedLayout

mpmath = pytest.importorskip("mpmath")

_BITS = 200


def _mixture(seed, samples=400):
    """A samples x 8 recording shaped as the benchmark's separate inputs."""
    spec = synth.MixtureSpec(samples=samples, channels=8, dominant_rank=2, weak_rank_span=2,
                             dominant_period=40, seed=seed)
    return synth.gen_mixture(spec)[0].data


def _exact(x):
    """``(ints, s)``: x as an object array of Python ints with x = ints 2^-s exactly."""
    s = 53 - int(np.frexp(x[x != 0])[1].min())  # an entry is a multiple of 2^(its exponent - 53)
    return np.array([int(v) for v in np.ldexp(x, s).flat], dtype=object).reshape(x.shape), s


def _gram(x_int, s):
    """X^T X of x = x_int 2^-s, summed exactly in integers, as an mpmath matrix."""
    return mpmath.mp.matrix([[mpmath.mp.ldexp(mpmath.mp.mpf(v), -2 * s) for v in row]
                             for row in (x_int.T @ x_int).tolist()])


def _bands(a_int, s_a, columns, rows, m, f):
    """The dominant, weak and noise bands A K of A = a_int 2^-s_a at the
    boundaries ``m`` and ``f`` (None: the weak band runs to the end), where a
    band's K is the sum of ``columns[i] * rows[i]`` over its indices.

    Each K is rounded to _BITS bits of its largest entry, so A K is formed
    exactly in integers and rounded once to float64.
    """
    mp = mpmath.mp
    n = a_int.shape[1]
    bands = []
    for lo, hi in ((0, m), (m, n if f is None else f), (n if f is None else f, n)):
        if lo == hi:
            bands.append(np.zeros(a_int.shape))
            continue
        k = mp.zeros(n, n)
        for column, row in zip(columns[lo:hi], rows[lo:hi]):
            k += column * row
        t = _BITS - mp.mag(mp.mnorm(k, mp.inf))
        k_int = np.array([[int(mp.nint(mp.ldexp(v, t))) for v in row] for row in k.tolist()], dtype=object)
        scale = 1 << (s_a + t)
        bands.append(np.array([[v / scale for v in row] for row in (a_int @ k_int).tolist()]))
    return bands


def svd_reference(a, m, f):
    """Singular values (descending) of A and its dominant, weak and noise
    bands at the boundaries ``m`` and ``f``, at 200 bits, each rounded once
    to float64.

    The eigenpairs (lambda, v) of A^T A give the singular values
    sqrt(lambda) and the right singular vectors V; a band over the columns
    V_b of V is A V_b V_b^T.
    """
    mp = mpmath.mp
    a_int, s_a = _exact(a)
    with mp.workprec(_BITS):
        lam, v = mp.eigsy(_gram(a_int, s_a))
        order = sorted(range(a.shape[1]), key=lambda i: lam[i], reverse=True)
        values = np.array([float(mp.sqrt(max(lam[i], 0))) for i in order])
        columns = [v[:, i] for i in order]
        bands = _bands(a_int, s_a, columns, [c.T for c in columns], m, f)
    return values, bands


def gsvd_reference(a, b, m, f):
    """Generalized values (descending) of the pair (A, B) and its dominant, weak
    and noise bands at the boundaries ``m`` and ``f``, at 200 bits, each
    rounded once to float64.

    With B^T B = L L^T, the eigenpairs (lambda, y) of L^-1 A^T A L^-T give the
    generalized values sqrt(lambda) and the B^T B-orthonormal directions
    W = L^-T Y; a band over the columns W_b of W is A W_b W_b^T B^T B.
    """
    mp = mpmath.mp
    (a_int, s_a), (b_int, s_b) = _exact(a), _exact(b)
    with mp.workprec(_BITS):
        gram_b = _gram(b_int, s_b)
        l_inv_t = mp.inverse(mp.cholesky(gram_b)).T
        lam, y = mp.eigsy(l_inv_t.T * _gram(a_int, s_a) * l_inv_t)
        order = sorted(range(a.shape[1]), key=lambda i: lam[i], reverse=True)
        values = np.array([float(mp.sqrt(max(lam[i], 0))) for i in order])
        w = l_inv_t * y
        columns = [w[:, i] for i in order]
        bands = _bands(a_int, s_a, columns, [c.T * gram_b for c in columns], m, f)
    return values, bands


@functools.cache
def _reference(seed):
    """``(A, B, values, bands)`` of the seed's pair, shaped as the benchmark's
    separate-gsvd pair (the reference is the mixture of seed + 1 000 003), the
    bands at the cutoff the one-block route finds."""
    a, b = _mixture(seed), _mixture(seed + 1_000_003)
    cut = signal.cutoff(linalg.gsvd(a, b))
    return (a, b, *gsvd_reference(a, b, cut.m, cut.f))


@functools.cache
def _hankel_reference(seed):
    """``(x, windows, values, bands)``: 300 samples x of channel 0 of the
    seed's mixture, their K x L window view at L = 20 as the CLI reads it,
    and the values and bands of that 281 x 20 matrix at the cutoff
    ``streamed_svd`` finds."""
    x = _mixture(seed, 300)[:, 0]
    windows = signal.embed(ChannelSet(x[:, np.newaxis]), EmbedLayout.hankel(20)).T
    cut = signal.cutoff(linalg.streamed_svd(windows))
    return (x, windows, *svd_reference(np.array(windows), cut.m, cut.f))


def _errors(a, b, values, bands):
    """The cutoff of ``gsvd(a, b)``, the relative error of each generalized
    value, and the largest error of the three parts over max|A|."""
    res = linalg.gsvd(a, b)
    cut = signal.cutoff(res)
    parts = signal.separate(res, cut)
    part_error = max(np.max(np.abs(p - q)) for p, q in zip(parts, bands)) / np.max(np.abs(a))
    return (cut.m, cut.f), np.abs(res.generalized_values - values) / values, part_error


class TestSvdAgainst200Bits:
    # measured at seeds 0, 1, 2: values within 3.8e-16, 2.5e-16 and 6.3e-16
    # (400 x 8) and 1.3e-16, 7.5e-16 and 1.3e-16 (4000 x 8) of sigma_1;
    # parts within 1.9e-15, 1.9e-15 and 2.5e-15 (400 x 8) and 1.0e-14,
    # 1.0e-14 and 7.3e-15 (4000 x 8) of max|A|
    @pytest.mark.parametrize("samples, part_bound", [(400, 1e-14), (4000, 4e-14)], ids=["400x8", "4000x8"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_svd_and_separate(self, seed, samples, part_bound):
        a = _mixture(seed, samples)
        res = linalg.svd(a)
        cut = signal.cutoff(res)
        values, bands = svd_reference(a, cut.m, cut.f)
        parts = signal.separate(res, cut)
        assert np.max(np.abs(res.singular_values - values)) <= 2e-15 * values[0]
        assert max(np.max(np.abs(p - q)) for p, q in zip(parts, bands)) <= part_bound * np.max(np.abs(a))


class TestHankelAgainst200Bits:
    @staticmethod
    def diagonal_averages(band, samples):
        """The signal of a K x L window-matrix band: each sample's sum over the
        windows that hold it, divided by their count, both by a pass per column."""
        windows = band.shape[0]
        sums, counts = np.zeros(samples), np.zeros(samples)
        for i, column in enumerate(band.T):
            sums[i : i + windows] += column
            counts[i : i + windows] += 1
        return sums / counts

    # measured at seeds 0, 1, 2: values within 4.9e-16, 1.8e-16 and 7.8e-16
    # of sigma_1; signals within 9.3e-16, 5.2e-15 and 1.5e-14 of max|x|
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_streamed_svd_and_band_signals(self, seed):
        x, windows, values, bands = _hankel_reference(seed)
        res = linalg.streamed_svd(windows)
        cut = signal.cutoff(res)
        got = [part.data[:, 0] for part in signal.band_signals(res, cut)]
        want = [self.diagonal_averages(band, x.size) for band in bands]
        assert np.max(np.abs(res.singular_values - values)) <= 2e-15 * values[0]
        assert max(np.max(np.abs(p - q)) for p, q in zip(got, want)) <= 5e-14 * np.max(np.abs(x))

    def test_median_value_error_over_ten_seeds(self):
        # Each seed's largest value error is one draw of rounding, so a Gram
        # route (eigh of R^T R in place of the SVD of R) stays under the
        # per-seed bound at seeds 0-2; the median over 10 seeds tells it apart
        # (measured: 4.8e-16 sigma_1 here, 1.5e-15 sigma_1 for the Gram route).
        errors = []
        for seed in range(10):
            _, windows, values, _ = _hankel_reference(seed)
            errors.append(np.max(np.abs(linalg.streamed_svd(windows).singular_values - values)) / values[0])
        assert np.median(errors) <= 1e-15

    def test_median_signal_error_over_ten_seeds(self):
        # The per-seed signal bound holds at seeds 0-2 only: seed 5 errs by
        # 6.4e-14 x max|x|, by rank and by one filter per band alike. So the
        # median over 10 seeds gates the signals (measured: 3.27e-15 x max|x|
        # formed by rank, 3.23e-15 by one filter per band).
        errors = []
        for seed in range(10):
            x, windows, _, bands = _hankel_reference(seed)
            res = linalg.streamed_svd(windows)
            got = [part.data[:, 0] for part in signal.band_signals(res, signal.cutoff(res))]
            want = [self.diagonal_averages(band, x.size) for band in bands]
            errors.append(max(np.max(np.abs(p - q)) for p, q in zip(got, want)) / np.max(np.abs(x)))
        assert np.median(errors) <= 2 * 3.3e-15


class TestGsvdAgainst200Bits:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_block_route(self, seed):
        # measured at seeds 0, 1, 2: values within 5.4e-15, 6.2e-15 and
        # 5.2e-15 of themselves; parts within 1.6e-13, 1.3e-13 and 2.1e-12
        # of max|A|
        _, value_errors, part_error = _errors(*_reference(seed))
        assert np.max(value_errors) <= 2e-14
        assert part_error <= 6e-12

    def test_blocked_route_is_as_accurate(self, monkeypatch):
        # 400 rows in 64-row blocks: seven blocks of A and of B. Each seed's
        # error is one draw of rounding: between the two routes it differs
        # by 0.07x to 10x at a single seed, so the gate compares medians over
        # 30 seeds (measured: values 1.3x, parts 0.9x the one-block route's).
        seeds = range(30)
        one_block = [_errors(*_reference(seed)) for seed in seeds]
        monkeypatch.setattr(linalg, "_block_rows", lambda x: 64)
        blocked = [_errors(*_reference(seed)) for seed in seeds]
        assert [cut for cut, _, _ in blocked] == [cut for cut, _, _ in one_block]
        for k in (1, 2):
            got = np.median(np.concatenate([np.ravel(e[k]) for e in blocked]))
            want = np.median(np.concatenate([np.ravel(e[k]) for e in one_block]))
            assert got <= 2 * want, k
