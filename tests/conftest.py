"""Shared independent oracles for the test suite.

These deliberately use plain Python loops and textbook formulas rather
than the library's own code paths, so expected values are derived on a
separate route from the implementation under test.
"""

import contextlib
import gc
import math
import struct
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest

from svdsep.errors import SvdsepError


def chain_oracle(sigmas, doubled=True):
    """Reference gap/entropy/variation chain for a descending sequence.

    Returns (gaps, gamma, energies, variations), all plain lists, computed
    with scalar arithmetic only.
    """
    sigmas = [float(s) for s in sigmas]
    r = len(sigmas)
    scale = 2.0 if doubled else 1.0
    gaps = []
    for k in range(1, r + 1):
        nxt = sigmas[k] if k < r else 0.0
        gaps.append(scale * nxt * nxt)
    gamma = sum(gaps)
    energies = []
    for g in gaps:
        p = g / gamma if gamma > 0 else 0.0
        energies.append(-p * math.log(p) if p > 0 else 0.0)
    variations = []
    prev = 0.0
    for k in range(r - 1):
        variations.append(energies[k] - prev)
        prev = energies[k]
    return gaps, gamma, energies, variations


def argmax_oracle(variations):
    """1-based argmax with smallest-index tie break, by linear scan."""
    best, best_val = 1, variations[0]
    for i, v in enumerate(variations[1:], start=2):
        if v > best_val:
            best, best_val = i, v
    return best


def sym_eig_2x2(m):
    """Eigenvalues of a symmetric 2x2 matrix by the quadratic formula."""
    a, b, c = float(m[0][0]), float(m[0][1]), float(m[1][1])
    half_tr = (a + c) / 2.0
    disc = math.sqrt(max(half_tr * half_tr - (a * c - b * b), 0.0))
    return half_tr + disc, half_tr - disc


def traced_peak(fn):
    """``(fn(), peak)``: the result and the tracemalloc peak in bytes of the
    allocations made during the call. A full collection first frees what
    earlier tests left in cycles and resets the collector's counters, so the
    collections during the call do not depend on which tests ran before."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def raise_exactly(error, call, match=None):
    """Check that ``call()`` raises ``error`` itself: not a subclass, not a sibling."""
    with pytest.raises(SvdsepError, match=match) as info:
        call()
    assert type(info.value) is error


@contextlib.contextmanager
def lapack_fails(name, call=1):
    """Inside the block, ``np.linalg.<name>`` raises ``LinAlgError`` on its
    ``call``-th call (1-based) and runs as usual on every other call."""
    real = getattr(np.linalg, name)
    calls = []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == call:
            raise np.linalg.LinAlgError(f"{name} did not converge")
        return real(*args, **kwargs)

    setattr(np.linalg, name, failing)
    try:
        yield
    finally:
        setattr(np.linalg, name, real)


def with_failing_lapack(name, call, on_call=1):
    """``call()`` while ``np.linalg.<name>`` fails on its ``on_call``-th call."""
    with lapack_fails(name, on_call):
        return call()


# Scales at which a square of a raw singular value of an O(1) matrix
# underflows (1e-170, 1e-300) or overflows (1e160, 1e300).
SQUARING_SCALES = (1e-300, 1e-170, 1e160, 1e300)


def holds_at_every_scale(check, seeds, max_examples=60):
    """Run ``check(c, seed)`` for hypothesis draws of ``seed`` in
    ``range(seeds)`` and of c log-uniform over [1e-300, 1e300], and for
    seed 0 at each of ``SQUARING_SCALES``. Every warning is an error."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def test(c, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check(c, seed)

    for c in SQUARING_SCALES:
        test = hypothesis.example(c=c, seed=0)(test)
    test = hypothesis.given(c=st.floats(-300.0, 300.0).map(lambda x: 10.0**x),
                            seed=st.integers(0, seeds - 1))(test)
    hypothesis.settings(derandomize=True, max_examples=max_examples, deadline=None, database=None)(test)()


def random_rect(rng, min_rows=10, max_rows=24, min_cols=3, max_cols=8):
    """Random rectangular Gaussian matrix with a comfortable aspect margin,
    keeping the smallest singular value well away from zero."""
    n = int(rng.integers(min_cols, max_cols + 1))
    m = int(rng.integers(max(min_rows, n + 4), max_rows + 1))
    return rng.standard_normal((m, n))


def encode_png_gray8(pixels, filter_type, color_type=0):
    """Tiny reference PNG encoder: one fixed filter type per scanline.

    ``color_type`` 0 takes (h, w) grayscale pixels, 2 takes (h, w, 3) RGB.
    """
    bpp = {0: 1, 2: 3}[color_type]
    h, w = pixels.shape[:2]
    raw = bytearray()
    prev = np.zeros(w * bpp, dtype=np.int32)
    for y in range(h):
        line = pixels[y].reshape(-1).astype(np.int32)
        if filter_type == 0:
            filt = line.copy()
        elif filter_type == 1:
            filt = line.copy()
            filt[bpp:] -= line[:-bpp]
        elif filter_type == 2:
            filt = line - prev
        elif filter_type == 3:
            left = np.concatenate([np.zeros(bpp, dtype=np.int32), line[:-bpp]])
            filt = line - (left + prev) // 2
        elif filter_type == 4:
            filt = np.empty(line.size, dtype=np.int32)
            for x in range(line.size):
                a = int(line[x - bpp]) if x >= bpp else 0
                b = int(prev[x])
                c = int(prev[x - bpp]) if x >= bpp else 0
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                filt[x] = int(line[x]) - pred
        raw.append(filter_type)
        raw.extend((filt % 256).astype(np.uint8).tobytes())
        prev = line

    def chunk(ctype: bytes, payload: bytes) -> bytes:
        return (struct.pack(">I", len(payload)) + ctype + payload
                + struct.pack(">I", zlib.crc32(ctype + payload)))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(bytes(raw))) + chunk(b"IEND", b""))


def short_ihdr_png():
    """A PNG whose IHDR chunk holds 9 of its 13 bytes, with a valid CRC."""
    ihdr = struct.pack(">IIB", 4, 4, 8)
    return (b"\x89PNG\r\n\x1a\n" + struct.pack(">I", len(ihdr)) + b"IHDR" + ihdr
            + struct.pack(">I", zlib.crc32(b"IHDR" + ihdr)))
