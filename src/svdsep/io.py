"""File formats: signal CSV, map CSV, PGM (P2/P5) and 8-bit grayscale PNG.

Floats are written with ``%.17g`` so a write/read round trip reproduces
every value bit-exactly. The PNG path is read-only and decodes exactly the
subset needed here (8-bit grayscale, non-interlaced) with the standard
library's zlib; anything else raises :class:`ParseError`.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import ParseError
from .image import GrayImage
from .signal import ChannelSet

__all__ = [
    "write_channels_csv",
    "read_channels_csv",
    "write_grid_csv",
    "read_grid_csv",
    "write_pgm",
    "read_pgm",
    "read_png",
    "load_gray_image",
    "render_grid_u8",
]

_FLOAT_FMT = "%.17g"


def write_channels_csv(path, channels: ChannelSet, header: bool = True) -> None:
    """One column per channel, comma separated, optional label header row."""
    labels = channels.labels or tuple(f"ch{j}" for j in range(channels.n_channels))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header:
            fh.write(",".join(labels) + "\n")
        for row in channels.data:
            fh.write(",".join(_FLOAT_FMT % v for v in row) + "\n")


def read_channels_csv(path) -> ChannelSet:
    """Parse a signal CSV; a non-numeric first row is taken as the header."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n").rstrip("\r") for ln in fh]
    rows = [(i + 1, ln) for i, ln in enumerate(lines) if ln.strip()]
    if not rows:
        raise ParseError(f"{path}: no data rows")

    labels = None
    first_cells = rows[0][1].split(",")
    try:
        [float(c) for c in first_cells]
    except ValueError:
        labels = tuple(c.strip() for c in first_cells)
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path}: header but no data rows")

    width = len(rows[0][1].split(","))
    data = np.empty((len(rows), width))
    for r, (lineno, ln) in enumerate(rows):
        cells = ln.split(",")
        if len(cells) != width:
            raise ParseError(f"{path}: expected {width} columns, got {len(cells)}", line=lineno)
        for c, cell in enumerate(cells):
            try:
                data[r, c] = float(cell)
            except ValueError:
                raise ParseError(f"{path}: not a number: {cell.strip()!r}", line=lineno, column=c + 1) from None
    nonfinite = np.argwhere(~np.isfinite(data))
    if nonfinite.size:
        r, c = nonfinite[0]
        raise ParseError(f"{path}: non-finite value", line=rows[r][0], column=int(c) + 1)
    if labels is not None and len(labels) != width:
        raise ParseError(f"{path}: header has {len(labels)} labels for {width} columns", line=1)
    return ChannelSet(data, labels=labels)


def write_grid_csv(path, grid) -> None:
    arr = np.asarray(grid, dtype=np.float64)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in np.atleast_2d(arr):
            fh.write(",".join(_FLOAT_FMT % v for v in row) + "\n")


def read_grid_csv(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty grid")
    out = []
    for i, ln in enumerate(lines):
        try:
            out.append([float(c) for c in ln.split(",")])
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}", line=i + 1) from None
    widths = {len(r) for r in out}
    if len(widths) != 1:
        raise ParseError(f"{path}: ragged rows (widths {sorted(widths)})")
    return np.asarray(out)


def write_pgm(path, gray_u8, binary: bool = True) -> None:
    """Write an 8-bit grayscale array as PGM (P5 binary or P2 ascii)."""
    arr = np.ascontiguousarray(np.asarray(gray_u8, dtype=np.uint8))
    h, w = arr.shape
    if binary:
        with open(path, "wb") as fh:
            fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
            fh.write(arr.tobytes())
    else:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(f"P2\n{w} {h}\n255\n")
            for row in arr:
                fh.write(" ".join(str(int(v)) for v in row) + "\n")


def _pgm_tokens(data: bytes):
    """Yield whitespace-separated header tokens, skipping # comments."""
    i = 0
    while i < len(data):
        if data[i : i + 1].isspace():
            i += 1
            continue
        if data[i : i + 1] == b"#":
            nl = data.find(b"\n", i)
            i = len(data) if nl < 0 else nl + 1
            continue
        j = i
        while j < len(data) and not data[j : j + 1].isspace():
            j += 1
        yield data[i:j], j
        i = j


def read_pgm(path) -> np.ndarray:
    """Read a P2 or P5 PGM with maxval <= 255 into a uint8 array."""
    raw = Path(path).read_bytes()
    tokens = _pgm_tokens(raw)
    try:
        magic, _ = next(tokens)
    except StopIteration:
        raise ParseError(f"{path}: empty file") from None
    if magic not in (b"P2", b"P5"):
        raise ParseError(f"{path}: not a PGM file (magic {magic!r})")
    try:
        (w_tok, _), (h_tok, _), (max_tok, end) = next(tokens), next(tokens), next(tokens)
        width, height, maxval = int(w_tok), int(h_tok), int(max_tok)
    except (StopIteration, ValueError):
        raise ParseError(f"{path}: malformed PGM header") from None
    if width < 1 or height < 1:
        raise ParseError(f"{path}: bad PGM dimensions {width}x{height}")
    if not 0 < maxval <= 255:
        raise ParseError(f"{path}: unsupported PGM maxval {maxval}")
    if magic == b"P5":
        start = end + 1  # single whitespace byte after maxval
        pixels = np.frombuffer(raw, dtype=np.uint8, count=width * height, offset=start) \
            if len(raw) - start >= width * height else None
        if pixels is None:
            raise ParseError(f"{path}: truncated PGM pixel data")
        return pixels.reshape(height, width).copy()
    values = []
    for tok, _ in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise ParseError(f"{path}: non-integer PGM sample {tok!r}") from None
    if len(values) != width * height:
        raise ParseError(f"{path}: expected {width * height} samples, got {len(values)}")
    arr = np.asarray(values)
    if arr.min() < 0 or arr.max() > maxval:
        raise ParseError(f"{path}: PGM sample out of range [0, {maxval}]")
    return arr.astype(np.uint8).reshape(height, width)


_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    return b if pb <= pc else c


def read_png(path) -> np.ndarray:
    """Decode an 8-bit grayscale non-interlaced PNG into a uint8 array."""
    raw = Path(path).read_bytes()
    if raw[:8] != _PNG_SIGNATURE:
        raise ParseError(f"{path}: not a PNG file")
    pos = 8
    width = height = None
    idat = bytearray()
    while pos + 8 <= len(raw):
        length, ctype = struct.unpack(">I4s", raw[pos : pos + 8])
        chunk = raw[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if ctype == b"IHDR":
            width, height, depth, color, comp, filt, interlace = struct.unpack(">IIBBBBB", chunk)
            if depth != 8 or color != 0:
                raise ParseError(f"{path}: only 8-bit grayscale PNG is supported "
                                 f"(depth={depth}, color type={color})")
            if comp != 0 or filt != 0 or interlace != 0:
                raise ParseError(f"{path}: unsupported PNG compression/filter/interlace settings")
        elif ctype == b"IDAT":
            idat.extend(chunk)
        elif ctype == b"IEND":
            break
    if width is None:
        raise ParseError(f"{path}: missing IHDR chunk")
    try:
        stream = zlib.decompress(bytes(idat))
    except zlib.error as exc:
        raise ParseError(f"{path}: corrupt PNG stream ({exc})") from None
    if len(stream) != height * (width + 1):
        raise ParseError(f"{path}: PNG stream length {len(stream)} does not match {width}x{height}")

    out = np.empty((height, width), dtype=np.uint8)
    prev = bytearray(width)
    for y in range(height):
        row_start = y * (width + 1)
        ftype = stream[row_start]
        line = bytearray(stream[row_start + 1 : row_start + 1 + width])
        if ftype == 1:    # sub
            for x in range(1, width):
                line[x] = (line[x] + line[x - 1]) & 0xFF
        elif ftype == 2:  # up
            for x in range(width):
                line[x] = (line[x] + prev[x]) & 0xFF
        elif ftype == 3:  # average
            for x in range(width):
                left = line[x - 1] if x else 0
                line[x] = (line[x] + ((left + prev[x]) >> 1)) & 0xFF
        elif ftype == 4:  # paeth
            for x in range(width):
                left = line[x - 1] if x else 0
                upleft = prev[x - 1] if x else 0
                line[x] = (line[x] + _paeth(left, prev[x], upleft)) & 0xFF
        elif ftype != 0:
            raise ParseError(f"{path}: unknown PNG filter type {ftype}", line=y + 1)
        out[y] = np.frombuffer(bytes(line), dtype=np.uint8)
        prev = line
    return out


def load_gray_image(path) -> GrayImage:
    """Load a PGM or PNG file as a normalized grayscale image."""
    with open(path, "rb") as fh:
        head = fh.read(8)
    if head[:8] == _PNG_SIGNATURE:
        return GrayImage.from_uint8(read_png(path))
    if head[:2] in (b"P2", b"P5"):
        return GrayImage.from_uint8(read_pgm(path))
    raise ParseError(f"{path}: unrecognized image format (expected PGM or PNG)")


def render_grid_u8(grid) -> np.ndarray:
    """Min-max normalize a metric grid to 0..255 for a PGM rendering."""
    arr = np.asarray(grid, dtype=np.float64)
    lo, hi = float(arr.min()), float(arr.max())
    if hi <= lo:
        return np.zeros(arr.shape, dtype=np.uint8)
    return np.round((arr - lo) / (hi - lo) * 255.0).astype(np.uint8)
