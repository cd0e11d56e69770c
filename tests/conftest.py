"""Shared independent oracles for the test suite.

These deliberately use plain Python loops and textbook formulas rather
than the library's own code paths, so expected values are derived on a
separate route from the implementation under test.
"""

import math
import struct
import tracemalloc
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
    allocations made during the call."""
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
