"""File formats: signal CSV, map CSV, PGM (P2/P5) and 8-bit grayscale PNG.

Signal and map CSVs share one codec that writes floats with ``%.17g``, so a
write/read round trip is bit-exact. numpy's C text reader parses the rows,
all at once or in row blocks; a line-at-a-time loop reads the file again
only when that reader rejects a block, to name the fault by line and column. The PNG path is read-only
and decodes exactly the subset needed here (8-bit grayscale, non-interlaced)
with the standard library's zlib; anything else raises :class:`ParseError`.
"""

from __future__ import annotations

import contextlib
import math
import re
import struct
import zlib
from array import array
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, ParseError, ShapeError
from .image import GrayImage, _quantize_u8
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


def write_channels_csv(path, channels, labels=None) -> None:
    """One column per channel, comma separated, under a header row of labels.

    ``channels`` is a :class:`ChannelSet`, whose labels are written unless
    ``labels`` is given, or a (samples, channels) array; unlabelled channels
    are headed ``ch0``, ``ch1``, ...

    Raises :class:`InvalidInputError`, before the file is opened, for a
    header the reader would not give back: labels that all parse as
    numbers, a label with a comma, CR or LF or with outer whitespace, or a
    blank header line. A block of rows holding a non-finite value raises it
    too, when that block is reached, and leaves no file.
    """
    if isinstance(channels, ChannelSet):
        channels, labels = channels.data, labels or channels.labels
    _write_channel_tables([path], channels.shape, lambda r0, r1: [channels[r0:r1]], labels)


def _write_channel_tables(paths, shape, blocks, labels=None) -> None:
    """:func:`write_channels_csv` of one ``shape`` table per path, under one
    header, such as the three parts ``separate`` writes (:func:`_write_rows`)."""
    _check_table(paths, shape)  # before the labels: a table with no column has none to check
    width = shape[1]
    if labels is not None and len(labels) != width:
        raise ShapeError(f"got {len(labels)} labels for {width} channels")
    labels = tuple(labels or (f"ch{j}" for j in range(width)))
    _check_labels(labels)
    _write_rows(paths, shape, blocks, _FLOAT_FMT, ",", ",".join(labels))


def _check_labels(labels) -> None:
    """Raise unless :func:`_read_csv`'s header rule reads the header of ``labels`` back as them."""
    for label in labels:
        if "," in label or "\r" in label or "\n" in label:
            raise InvalidInputError(f"channel label {label!r} holds a comma or line break")
        if label != label.strip():
            raise InvalidInputError(f"channel label {label!r} has outer whitespace")
    if labels == ("",):
        raise InvalidInputError("a lone empty channel label makes a blank header line")
    if _labels(labels) is None:
        raise InvalidInputError(f"channel labels {labels!r} all parse as numbers, "
                                "so the header would read back as data")


def _named(path, build, *args):
    """``build(*args)``, with ``path: `` before the message of a :class:`ShapeError` it raises."""
    try:
        return build(*args)
    except ShapeError as exc:
        raise ShapeError(f"{path}: {exc}") from None


def read_channels_csv(path) -> ChannelSet:
    """Parse a signal CSV; a non-numeric first row is taken as the header."""
    return _named(path, ChannelSet, *_read_csv(path, header=True))


def write_grid_csv(path, grid) -> None:
    grid = np.atleast_2d(np.asarray(grid, dtype=np.float64))
    _write_rows([path], grid.shape, lambda r0, r1: [grid[r0:r1]], _FLOAT_FMT, ",")


def read_grid_csv(path) -> np.ndarray:
    return _read_csv(path, header=False)[0]


# Entries per ``%`` in _write_rows: one format of a whole block of rows is faster
# than one per row and writes the same bytes. 1024 measured best; its text adds at
# most ~66 KB of peak.
_WRITE_ENTRIES = 1024


def _write_rows(paths, shape, blocks, cell, sep, head=None) -> None:
    """Write ``head`` (if any), then one 2-D table of ``shape`` per path, in
    lockstep blocks of ``max(1, _WRITE_ENTRIES // width)`` rows, each formatted
    by one ``%`` of its Python numbers: ``blocks(r0, r1)`` gives rows
    ``[r0, r1)`` of each table, so tables that form their rows when asked are
    never held whole. A block holding a non-finite value, which the readers
    would reject, raises :class:`InvalidInputError` naming its file and rows.
    That or any other failure, opening a later file too, removes every file
    this call opened: their rows so far would read back as shorter tables.
    A table with no row or no column, which the readers would reject too, is
    a :class:`ShapeError` naming the paths before any file is opened.
    """
    _check_table(paths, shape)
    rows, width = shape
    step = max(1, _WRITE_ENTRIES // width)
    line = sep.join([cell] * width) + "\n"
    handles = []
    with contextlib.ExitStack() as files:
        try:
            for path in paths:
                handles.append(files.enter_context(open(path, "w", encoding="utf-8", newline="\n")))
            for fh in handles:
                fh.write("" if head is None else head + "\n")
            for r0 in range(0, rows, step):
                for path, fh, block in zip(paths, handles, blocks(r0, min(r0 + step, rows))):
                    block = np.asarray(block)
                    if not np.isfinite(block).all():
                        raise InvalidInputError(f"{path}: non-finite value in rows {r0 + 1}-{r0 + len(block)}")
                    fh.write(line * len(block) % tuple(block.ravel().tolist()))
        except BaseException:
            files.close()
            for path in paths[: len(handles)]:
                Path(path).unlink()
            raise


def _check_table(paths, shape) -> None:
    """The :class:`ShapeError` of :func:`_write_rows` for a table with no row or no column."""
    rows, width = shape
    if rows < 1 or width < 1:
        raise ShapeError(f"{', '.join(map(str, paths))}: a table needs at least one row and one column, "
                         f"got {rows}x{width}")


def _cell(path, text, line, column) -> float:
    """One CSV cell as a finite float; ``ParseError`` names its line and column."""
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"{path}: not a number: {text.strip()!r}", line=line, column=column) from None
    if not math.isfinite(value):
        raise ParseError(f"{path}: non-finite value {text.strip()!r}", line=line, column=column)
    return value


def _not_utf8(path) -> ParseError:
    """The error for a CSV that is not UTF-8, naming the line of its first bad byte.

    The text reader decodes ahead of the line it hands out, so the file is
    read again here, on the error path only.
    """
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = raw[: exc.start]
        # lines end at \n, \r or \r\n, as the text reader splits them
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return ParseError(f"{path}: byte 0x{raw[exc.start]:02x} is not UTF-8", line=line)
    return ParseError(f"{path}: not UTF-8 text")


def _labels(cells):
    """The header labels when ``cells`` are not all numbers, else None."""
    try:
        list(map(float, cells))
    except ValueError:
        return tuple(cell.strip() for cell in cells)
    return None


def _read_csv(path, header):
    """Read a CSV of finite floats into a (rows, width) array and labels (or
    None): :func:`_csv_blocks` in one block."""
    labels, table = _csv_blocks(path, header)
    return table, labels


def _csv_blocks(path, header, block_rows=None):
    """Yield the labels of a CSV of finite floats (None when it has none),
    then its rows as (k, width) arrays: blocks of ``block_rows(width)``
    rows, or one block when ``block_rows`` is None.

    Blank lines are skipped. Only with ``header`` is a non-numeric first
    non-blank line taken as labels, which then fix the width. Each block is
    parsed by numpy's C text reader, from a non-blank line on and at most
    ``block_rows(width)`` rows at a time, so no read is empty (numpy warns on
    one). When it rejects a block, or a block holds a non-finite value or
    does not match the width, the file is read again by
    :func:`_read_csv_lines`, which names the fault or reads the few cells
    ``float`` accepts and numpy does not (``1_0``, non-ASCII digits); its
    rows past those already yielded follow, in the same blocks.
    """
    given, started = 0, False
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = (text for text in fh if text.strip())
            first, labels = next(lines, None), None
            if header and first is not None:
                labels = _labels(first.split(","))
                if labels is not None:
                    first = next(lines, None)
            if first is not None:  # else the line loop names the empty file
                width = len(first.split(",") if labels is None else labels)
                step = block_rows and block_rows(width)
                started = True
                yield labels
                while first is not None:
                    block = np.loadtxt(chain([first], lines), delimiter=",", comments=None, ndmin=2,
                                       max_rows=step)
                    if block.shape[1] != width or not np.isfinite(block).all():
                        break
                    yield block
                    given += len(block)
                    first = next(lines, None)
                else:
                    return
    except ValueError:  # UnicodeDecodeError included
        pass
    table, labels = _read_csv_lines(path, header)
    if not started:
        yield labels
    step = block_rows(table.shape[1]) if block_rows else len(table)
    for r0 in range(given, len(table), step):
        yield table[r0 : r0 + step]


class _Reread:
    """The rows of a signal CSV read a second time, forward, in the blocks of
    :func:`_csv_blocks`: ``self[r0:r1]`` is rows ``[r0, r1)``, for slices
    each starting between the previous slice's start and end, as
    ``signal._band_rows`` asks for the rows of A. Only the rows from the
    previous start on and one block are held; leaving a ``with`` block
    closes the file.

    The table must still have ``shape``, what the first read found: else
    the slice that finds it raises :class:`InvalidInputError`; the slice
    that ends at the last row checks that no row follows.
    """

    def __init__(self, path, shape, block_rows):
        self._path, self._shape = path, shape
        self._blocks = _csv_blocks(path, True, block_rows)
        next(self._blocks)  # the labels, taken from the first read
        self._held, self._start = np.empty((0, shape[1])), 0

    def __enter__(self) -> "_Reread":
        return self

    def __exit__(self, *exc) -> None:
        self._blocks.close()

    def __getitem__(self, span: slice) -> np.ndarray:
        r0, r1 = span.start, span.stop
        held = self._held[r0 - self._start :]
        while len(held) < r1 - r0:
            block = next(self._blocks, None)
            if block is None or block.shape[1] != self._shape[1]:
                raise self._changed()
            held = np.concatenate([held, block]) if len(held) else block
        if r0 + len(held) > self._shape[0] or (r1 == self._shape[0] and next(self._blocks, None) is not None):
            raise self._changed()
        self._held, self._start = held, r0
        return held[: r1 - r0]

    def _changed(self) -> InvalidInputError:
        rows, width = self._shape
        return InvalidInputError(f"{self._path} changed while it was read: "
                                 f"its table is no longer {rows} rows of {width} columns")


def _read_csv_lines(path, header):
    """:func:`_read_csv` one line at a time, raising ``ParseError`` at the first fault.

    Blank lines are skipped but counted, so the error names the file's own
    line and column.
    """
    labels = width = None
    values = array("d")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line, text in enumerate(fh, start=1):
                if not text.strip():
                    continue
                cells = text.split(",")
                if header and width is None:
                    labels = _labels(cells)
                    if labels is not None:
                        width = len(labels)
                        continue
                width = width or len(cells)
                if len(cells) != width:
                    raise ParseError(f"{path}: expected {width} columns, got {len(cells)}", line=line)
                for column, cell in enumerate(cells, start=1):
                    values.append(_cell(path, cell, line, column))
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    if not values:
        raise ParseError(f"{path}: no data rows")
    return np.frombuffer(values, dtype=np.float64).reshape(-1, width), labels


def write_pgm(path, gray_u8, binary: bool = True) -> None:
    """Write a 2-D array of integers in [0, 255] as an 8-bit PGM (P5 binary or P2 ascii)."""
    arr = np.asarray(gray_u8)
    if arr.ndim != 2:
        raise ShapeError(f"{path}: a PGM image must be 2-D, got ndim={arr.ndim}")
    if 0 in arr.shape:  # read_pgm rejects a side of 0
        raise ShapeError(f"{path}: a PGM image needs at least one row and one column, got {arr.shape}")
    if arr.dtype != np.uint8 and not (np.all((arr >= 0) & (arr <= 255))
                                      and np.array_equal(arr.astype(np.uint8), arr)):
        raise InvalidInputError(f"{path}: PGM samples must be integers in [0, 255]")
    arr = np.ascontiguousarray(arr, dtype=np.uint8)
    h, w = arr.shape
    if binary:
        with open(path, "wb") as fh:
            fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
            fh.write(arr.data)  # the array's own buffer, not a bytes copy
    else:
        _write_rows([path], arr.shape, lambda r0, r1: [arr[r0:r1]], "%d", " ", f"P2\n{w} {h}\n255")


# A # comment runs to the end of its line; it starts only where a token could.
_PGM_TOKEN = re.compile(rb"#[^\n]*|\S+")


def _pgm_tokens(data: bytes):
    """Yield each whitespace-separated token of ``data`` and its end offset, skipping # comments."""
    for match in _PGM_TOKEN.finditer(data):
        token = match.group()
        if token[:1] != b"#":
            yield token, match.end()


def read_pgm(path) -> np.ndarray:
    """Read a P2 or P5 PGM with maxval <= 255 into a uint8 array of raw samples."""
    return _read_pgm(path)[0]


def _read_pgm(path) -> tuple[np.ndarray, int]:
    """The raw samples of a P2 or P5 PGM and its maxval."""
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
    size = width * height
    if magic == b"P5":
        start = end + 1  # single whitespace byte after maxval
        if len(raw) - start < size:
            raise ParseError(f"{path}: truncated PGM pixel data")
        pixels = np.frombuffer(raw, dtype=np.uint8, count=size, offset=start)
        if maxval < 255 and pixels.max() > maxval:
            raise ParseError(f"{path}: PGM sample out of range [0, {maxval}]")
        return pixels.reshape(height, width).copy(), maxval
    # P2: each token goes straight into the result; the range is reported
    # after the count, so a file with both faults names the count. A sample
    # takes a digit and a separator after maxval, so no more than that many
    # bytes are allocated, whatever the header claims.
    samples = bytearray(min(size, (len(raw) - end) // 2))
    count = 0
    in_range = True
    for tok, _ in tokens:
        try:
            value = int(tok)
        except ValueError:
            raise ParseError(f"{path}: non-integer PGM sample {tok!r}") from None
        if count < len(samples):
            if 0 <= value <= maxval:
                samples[count] = value
            else:
                in_range = False
        count += 1
    if count != size:
        raise ParseError(f"{path}: expected {size} samples, got {count}")
    if not in_range:
        raise ParseError(f"{path}: PGM sample out of range [0, {maxval}]")
    return np.frombuffer(samples, dtype=np.uint8).reshape(height, width), maxval


_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    return b if pb <= pc else c


def read_png(path) -> np.ndarray:
    """Decode an 8-bit grayscale non-interlaced PNG into a uint8 array."""
    raw = memoryview(Path(path).read_bytes())  # chunks are slices of it, not copies
    if raw[:8] != _PNG_SIGNATURE:
        raise ParseError(f"{path}: not a PNG file")
    pos = 8
    width = height = None
    # Each IDAT chunk goes straight into one decompressor: the compressed
    # stream is never gathered into a buffer of its own. It is inflated to
    # at most one byte past the length IHDR gives, enough to tell it is too long.
    inflate = zlib.decompressobj()
    pieces, corrupt, room = [], None, 0
    while pos + 8 <= len(raw):
        length, ctype = struct.unpack(">I4s", raw[pos : pos + 8])
        if pos + 12 + length > len(raw):
            raise ParseError(f"{path}: PNG chunk {ctype!r} of {length} bytes runs past the end of the file")
        chunk = raw[pos + 8 : pos + 8 + length]
        (crc,) = struct.unpack(">I", raw[pos + 8 + length : pos + 12 + length])
        if zlib.crc32(chunk, zlib.crc32(ctype)) != crc:
            raise ParseError(f"{path}: PNG chunk {ctype!r} fails its CRC check")
        pos += 12 + length
        if ctype == b"IHDR":
            if length != 13:
                raise ParseError(f"{path}: PNG IHDR chunk has {length} bytes, expected 13")
            width, height, depth, color, comp, filt, interlace = struct.unpack(">IIBBBBB", chunk)
            if depth != 8 or color != 0:
                raise ParseError(f"{path}: only 8-bit grayscale PNG is supported "
                                 f"(depth={depth}, color type={color})")
            if comp != 0 or filt != 0 or interlace != 0:
                raise ParseError(f"{path}: unsupported PNG compression/filter/interlace settings")
            room = height * (width + 1) + 1
        elif ctype == b"IDAT" and corrupt is None and room:  # no room: before IHDR, or too long
            try:
                pieces.append(inflate.decompress(chunk, room))
                room -= len(pieces[-1])
            except zlib.error as exc:  # reported after every chunk's own checks
                corrupt = exc
        elif ctype == b"IEND":
            break
    raw = chunk = None  # the file's bytes are freed before the stream is filtered
    if width is None:
        raise ParseError(f"{path}: missing IHDR chunk")
    if corrupt is None and not inflate.eof and room:
        corrupt = "incomplete or truncated stream"
    if corrupt is not None:
        raise ParseError(f"{path}: corrupt PNG stream ({corrupt})")
    # Joining a single piece (one IDAT chunk) returns that piece, not a copy.
    stream = b"".join(pieces)
    del pieces
    if len(stream) != height * (width + 1):
        raise ParseError(f"{path}: PNG stream length {len(stream)} does not match {width}x{height}")

    out = np.empty((height, width), dtype=np.uint8)
    prev = bytes(width)
    for y in range(height):
        row_start = y * (width + 1)
        ftype = stream[row_start]
        line = bytearray(stream[row_start + 1 : row_start + 1 + width])
        if ftype == 1:    # sub: whole-row uint8 sums wrap mod 256, as the format does
            line = np.cumsum(line, dtype=np.uint8)
        elif ftype == 2:  # up
            line = np.add(line, np.frombuffer(prev, dtype=np.uint8), dtype=np.uint8)
        elif ftype == 3:  # average: each byte needs its decoded left neighbour
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
        out[y] = line
        prev = bytes(line)
    return out


def load_gray_image(path) -> GrayImage:
    """Load a PGM or PNG file as a grayscale image, scaled so the format's maxval is 1."""
    with open(path, "rb") as fh:
        head = fh.read(8)
    if head[:8] == _PNG_SIGNATURE:
        return _named(path, GrayImage.from_uint8, read_png(path))
    if head[:2] in (b"P2", b"P5"):
        return _named(path, GrayImage, *_read_pgm(path))
    raise ParseError(f"{path}: unrecognized image format (expected PGM or PNG)")


def render_grid_u8(grid) -> np.ndarray:
    """Min-max normalize a metric grid to 0..255 for a PGM rendering.

    Values are rounded half to even; a flat grid renders black. The grid is
    quantized in row blocks, so beyond the uint8 result only one block-sized
    float64 temporary is allocated.
    """
    arr = np.asarray(grid, dtype=np.float64)
    lo, hi = float(arr.min()), float(arr.max())
    if hi <= lo:
        return np.zeros(arr.shape, dtype=np.uint8)
    return _quantize_u8(arr, lo, hi)
