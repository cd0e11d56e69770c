"""The numbers `separate --method gsvd` writes, against a 200-bit reference.

The reference solves the symmetric-definite pencil (A^T A, B^T B) through a
Cholesky factor of B^T B, with mpmath at 200 bits: a route of its own, not
the library's QR and SVD route. The Gram matrices and the band products
are formed exactly in integers, so forming A^T A loses nothing.
"""

import functools

import numpy as np
import pytest

from svdsep import linalg, signal, synth

mpmath = pytest.importorskip("mpmath")

_BITS = 200


def _mixture(seed):
    """A 400 x 8 recording shaped as the benchmark's separate inputs."""
    spec = synth.MixtureSpec(samples=400, channels=8, dominant_rank=2, weak_rank_span=2,
                             dominant_period=40, seed=seed)
    return synth.gen_mixture(spec)[0].data


def _exact(x):
    """``(ints, s)``: x as an object array of Python ints with x = ints 2^-s exactly."""
    s = 53 - int(np.frexp(x[x != 0])[1].min())  # an entry is a multiple of 2^(its exponent - 53)
    return np.array([int(v) for v in np.ldexp(x, s).flat], dtype=object).reshape(x.shape), s


def gsvd_reference(a, b, m, f):
    """Generalized values (descending) of the pair (A, B) and its dominant, weak
    and noise bands at the boundaries ``m`` and ``f`` (None: the weak band runs
    to the end), at 200 bits, each rounded once to float64.

    With B^T B = L L^T, the eigenpairs (lambda, y) of L^-1 A^T A L^-T give the
    generalized values sqrt(lambda) and the B^T B-orthonormal directions
    W = L^-T Y; a band over the columns W_b of W is A W_b W_b^T B^T B.
    """
    mp = mpmath.mp
    n = a.shape[1]
    (a_int, s_a), (b_int, s_b) = _exact(a), _exact(b)
    with mp.workprec(_BITS):
        def gram(x_int, s):
            return mp.matrix([[mp.ldexp(mp.mpf(v), -2 * s) for v in row] for row in (x_int.T @ x_int).tolist()])

        gram_b = gram(b_int, s_b)
        l_inv_t = mp.inverse(mp.cholesky(gram_b)).T
        lam, y = mp.eigsy(l_inv_t.T * gram(a_int, s_a) * l_inv_t)
        order = sorted(range(n), key=lambda i: lam[i], reverse=True)
        values = np.array([float(mp.sqrt(max(lam[i], 0))) for i in order])
        w = l_inv_t * y
        bands = []
        for lo, hi in ((0, m), (m, n if f is None else f), (n if f is None else f, n)):
            if lo == hi:
                bands.append(np.zeros(a.shape))
                continue
            k = mp.zeros(n, n)
            for i in order[lo:hi]:
                k += w[:, i] * (w[:, i].T * gram_b)
            # A k as exact integers: k rounded to _BITS bits of its largest entry
            t = _BITS - mp.mag(mp.mnorm(k, mp.inf))
            k_int = np.array([[int(mp.nint(mp.ldexp(v, t))) for v in row] for row in k.tolist()], dtype=object)
            scale = 1 << (s_a + t)
            bands.append(np.array([[v / scale for v in row] for row in (a_int @ k_int).tolist()]))
    return values, bands


@functools.cache
def _reference(seed):
    """``(A, B, values, bands)`` of the seed's pair, shaped as the benchmark's
    separate-gsvd pair (the reference is the mixture of seed + 1 000 003), the
    bands at the cutoff the one-block route finds."""
    a, b = _mixture(seed), _mixture(seed + 1_000_003)
    cut = signal.cutoff(linalg.gsvd(a, b))
    return (a, b, *gsvd_reference(a, b, cut.m, cut.f))


def _errors(a, b, values, bands):
    """The cutoff of ``gsvd(a, b)``, the relative error of each generalized
    value, and the largest error of the three parts over max|A|."""
    res = linalg.gsvd(a, b)
    cut = signal.cutoff(res)
    parts = signal.separate(res, cut)
    part_error = max(np.max(np.abs(p - q)) for p, q in zip(parts, bands)) / np.max(np.abs(a))
    return (cut.m, cut.f), np.abs(res.generalized_values - values) / values, part_error


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
        monkeypatch.setattr(linalg, "_BLOCK_ENTRIES", 64 * 8)
        blocked = [_errors(*_reference(seed)) for seed in seeds]
        assert [cut for cut, _, _ in blocked] == [cut for cut, _, _ in one_block]
        for k in (1, 2):
            got = np.median(np.concatenate([np.ravel(e[k]) for e in blocked]))
            want = np.median(np.concatenate([np.ravel(e[k]) for e in one_block]))
            assert got <= 2 * want, k
