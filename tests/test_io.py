import contextlib
import gc
import math
import re
import struct
import warnings
import zlib

import numpy as np
import pytest
from conftest import encode_png_gray8, fed_fifo, raise_exactly, short_ihdr_png, traced_peak

from svdsep import io as fio
from svdsep.errors import InvalidInputError, ParseError, ShapeError
from svdsep.image import _QUANTIZE_ENTRIES, GrayImage
from svdsep.io import _WRITE_ENTRIES
from svdsep.signal import ChannelSet


class TestChannelsCsv:
    def test_round_trip_value_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((40, 3))
        data[0, 0] = 1e-300
        data[1, 1] = -1.2345678901234567e18
        data[2, 2] = 0.1
        cs = ChannelSet(data, labels=("left", "right", "ref"))
        path = tmp_path / "sig.csv"
        fio.write_channels_csv(path, cs)
        back = fio.read_channels_csv(path)
        assert np.array_equal(back.data, cs.data)
        assert back.labels == cs.labels

    def test_headerless_round_trip(self, tmp_path):
        cs = ChannelSet(np.arange(8.0).reshape(4, 2))
        path = tmp_path / "sig.csv"
        np.savetxt(path, cs.data, fmt="%.17g", delimiter=",")
        back = fio.read_channels_csv(path)
        assert back.labels is None
        assert np.array_equal(back.data, cs.data)

    def test_bad_cell_names_line_and_column(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(ParseError) as err:
            fio.read_channels_csv(path)
        assert err.value.line == 3
        assert err.value.column == 2
        assert "line 3" in str(err.value)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ParseError) as err:
            fio.read_channels_csv(path)
        assert err.value.line == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            fio.read_channels_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("a,b\n")
        with pytest.raises(ParseError):
            fio.read_channels_csv(path)

    def test_header_width_mismatch_names_line(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("a,b,c\n\n1.0,2.0\n")
        with pytest.raises(ParseError) as err:
            fio.read_channels_csv(path)
        assert err.value.line == 3

    def test_read_peak_stays_near_the_data(self, tmp_path):
        data = np.random.default_rng(6).standard_normal((40_000, 8))
        path = tmp_path / "long.csv"
        fio.write_channels_csv(path, ChannelSet(data))
        back, peak = traced_peak(lambda: fio.read_channels_csv(path))
        assert np.array_equal(back.data, data)
        assert peak <= 2 * data.nbytes


class TestNonUtf8Csv:
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_bad_byte_names_its_line(self, tmp_path, newline):
        # 3000 good rows first, so the bad byte lies past the reader's first decoded chunk
        good = newline.join(["a,b"] + ["1.25,-3.5"] * 3000).encode() + newline.encode()
        path = tmp_path / "bad.csv"
        path.write_bytes(good + b"2.0,\xff4.0" + newline.encode() + b"5.0,6.0" + newline.encode())
        with pytest.raises(ParseError, match=r"0xff is not UTF-8 \(line 3002\)") as info:
            fio.read_channels_csv(path)
        assert info.value.line == 3002 and str(path) in str(info.value)

    def test_grid_reader_too(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xfe1.0,2.0\n")
        with pytest.raises(ParseError) as info:
            fio.read_grid_csv(path)
        assert info.value.line == 1


class TestGridCsv:
    def test_round_trip(self, tmp_path):
        grid = np.random.default_rng(1).uniform(size=(6, 4)) * 1e3
        path = tmp_path / "map.csv"
        fio.write_grid_csv(path, grid)
        assert np.array_equal(fio.read_grid_csv(path), grid)

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "map.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(ParseError) as err:
            fio.read_grid_csv(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("text, line, column", [
        ("1,2\n3,nan\n", 2, 2),
        ("1,2\n-inf,4\n", 2, 1),
        ("1,2\n\n\n3,x\n", 4, 2),
        ("# note\n1,2\n", 1, 1),
    ])
    def test_bad_cell_names_line_and_column(self, tmp_path, text, line, column):
        path = tmp_path / "map.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            fio.read_grid_csv(path)
        assert (err.value.line, err.value.column) == (line, column)

    @pytest.mark.parametrize("grid", [np.zeros((3, 0)), [], np.zeros((0, 3))], ids=["3x0", "empty-list", "0x3"])
    def test_a_table_with_no_cell_raises_before_the_file_is_opened(self, tmp_path, grid):
        # Written, it would read back as a ParseError ("no data rows").
        path = tmp_path / "map.csv"
        raise_exactly(ShapeError, lambda: fio.write_grid_csv(path, grid),
                      match=re.escape(f"{path}: a table needs at least one row and one column"))
        assert not path.exists()


class TestCsvReaderPaths:
    """numpy's C reader parses the rows; the line loop reads what it rejects."""

    @pytest.mark.parametrize("raw, want", [
        (b"a,b\n1_0,2\n3,4_5\n", [[10.0, 2.0], [3.0, 45.0]]),
        (b"a,b\n1,2\n   \n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
        (b"a,b\r1,2\r3,4\r", [[1.0, 2.0], [3.0, 4.0]]),
        ("a,b\n\u0661,2\n3,\u0664\n".encode(), [[1.0, 2.0], [3.0, 4.0]]),
        ("a,b\n\xa01\xa0,2\n3,\xa04\n".encode(), [[1.0, 2.0], [3.0, 4.0]]),
    ], ids=["underscore", "whitespace-line", "cr-only", "arabic-indic-digit", "nbsp"])
    def test_inputs_numpy_reads_differently_keep_the_loop_values(self, tmp_path, raw, want):
        path = tmp_path / "sig.csv"
        path.write_bytes(raw)
        got = fio.read_channels_csv(path)
        with open(path, encoding="utf-8") as fh:
            loop_data = fio._parse_rows(path, 2, list(fio._numbered(fh))[1:])
        assert got.data.tobytes() == loop_data.tobytes() == np.array(want).tobytes()
        assert got.labels == ("a", "b")

    def test_well_formed_file_never_reaches_the_loop(self, tmp_path, monkeypatch):
        data = np.random.default_rng(15).standard_normal((4000, 8))
        path = tmp_path / "sig.csv"
        fio.write_channels_csv(path, ChannelSet(data))

        def loop(path, width, lines):
            raise AssertionError("the line loop ran")

        monkeypatch.setattr(fio, "_parse_rows", loop)
        back = fio.read_channels_csv(path)
        assert back.data.tobytes() == data.tobytes()
        assert back.labels == tuple(f"ch{j}" for j in range(8))

    @pytest.mark.parametrize("late", ["none", "blank-lines", "underscore", "non-utf8"])
    def test_blocks_are_the_whole_read(self, tmp_path, monkeypatch, late):
        # 50 rows of 3 channels in blocks of 7. Blank lines, one at a block's
        # edge, are skipped before numpy reads (it warns at an empty one
        # inside a block, and rejects one of spaces); a cell numpy rejects in
        # the sixth block falls back to the line loop, whose later rows
        # follow in the same blocks.
        data = np.random.default_rng(16).standard_normal((50, 3))
        path = tmp_path / "sig.csv"
        fio.write_channels_csv(path, ChannelSet(data))
        lines = path.read_bytes().splitlines(keepends=True)
        if late in ("none", "blank-lines"):
            monkeypatch.setattr(fio, "_parse_rows", lambda path, width, lines: pytest.fail("the line loop ran"))
        if late == "blank-lines":
            for at, blank in ((51, b"\n"), (30, b"\n"), (20, b"  \n"), (8, b"\n"), (1, b"\n")):
                lines.insert(at, blank)
        elif late == "underscore":
            lines[41] = b"1_0," + lines[41].split(b",", 1)[1]
            data[40, 0] = 10.0
        elif late == "non-utf8":
            lines[41] = b"\xff" + lines[41]
        path.write_bytes(b"".join(lines))
        if late == "non-utf8":
            with pytest.raises(ParseError, match="byte 0xff is not UTF-8") as err:
                list(fio._csv_blocks(path, True, lambda width: 7))
            assert err.value.line == 42
            return
        labels, *blocks = fio._csv_blocks(path, True, lambda width: 7)
        assert labels == ("ch0", "ch1", "ch2")
        assert [len(block) for block in blocks] == [7] * 7 + [1]
        assert np.concatenate(blocks).tobytes() == fio.read_channels_csv(path).data.tobytes() == data.tobytes()

    @pytest.mark.parametrize("block_rows", [lambda width: 7, None], ids=["blocks", "whole"])
    @pytest.mark.parametrize("late", ["none", "underscore", "x", "nan", "narrow", "non-utf8"])
    def test_a_pipe_reads_as_its_file(self, tmp_path, late, block_rows):
        # A pipe cannot be read again: the line loop parses the block numpy
        # rejects from the lines kept while numpy read it. Row 2899 lies in a
        # late block of 7 rows, and in the second block a whole read of a
        # pipe takes (_KEPT_ENTRIES // 3 = 2730 rows).
        data = np.random.default_rng(17).standard_normal((3000, 3))
        path = tmp_path / "sig.csv"
        fio.write_channels_csv(path, ChannelSet(data))
        lines = path.read_bytes().splitlines(keepends=True)
        row = lines[2900].rstrip(b"\n").split(b",")
        if late == "narrow":
            del row[2]
        elif late != "none":
            row[1] = {"underscore": b"1_0", "x": b"x", "nan": b"nan", "non-utf8": b"\xff1"}[late]
        lines[2900] = b",".join(row) + b"\n"
        if late == "underscore":
            data[2899, 1] = 10.0
        raw = b"".join(lines)
        path.write_bytes(raw)

        def outcome(path):
            try:
                if block_rows is None:
                    table, labels = fio._read_csv(path, header=True)
                    return labels, table.tobytes()
                labels, *blocks = fio._csv_blocks(path, True, block_rows)
                return labels, [len(block) for block in blocks], np.concatenate(blocks).tobytes()
            except ParseError as err:
                return str(err).replace(str(path), "<path>"), err.line, err.column

        from_file = outcome(path)
        with fed_fifo(tmp_path / "pipe.csv", raw) as pipe:
            assert outcome(pipe) == from_file
        if late in ("none", "underscore"):
            assert from_file[0] == ("ch0", "ch1", "ch2") and from_file[-1] == data.tobytes()
        else:
            assert from_file[1] == 2901, from_file

    def test_a_regular_file_is_read_again_from_its_handle_and_once(self, tmp_path, monkeypatch):
        # Cells numpy rejects in three late blocks of 7 rows: the first seeks
        # the open handle back to its block, so the rows are those read
        # although the path now names another file; the two after it are
        # parsed from lines kept since. With blank lines before the rows from
        # the tenth on, the seek skips the rows already given by count, and a
        # bad cell in the block after them is named at its line and column.
        numbered = fio._numbered
        for blanks in (0, 2):
            data = np.random.default_rng(18).standard_normal((50, 3))
            path = tmp_path / f"sig{blanks}.csv"
            fio.write_channels_csv(path, ChannelSet(data))
            lines = path.read_bytes().splitlines(keepends=True)
            for row in (19, 29, 40):
                lines[row + 1] = b"1_0," + lines[row + 1].split(b",", 1)[1]
                data[row, 0] = 10.0
            if blanks:
                lines[48] = lines[48].rsplit(b",", 1)[0] + b",x\n"
                lines[11:] = [b" \n" * blanks + text for text in lines[11:]]
            path.write_bytes(b"".join(lines))
            handles = []
            monkeypatch.setattr(fio, "_numbered", lambda fh: handles.append(fh) or numbered(fh))
            blocks = fio._csv_blocks(path, True, lambda width: 7)
            labels, got = next(blocks), [next(blocks)]
            path.unlink()
            fio.write_channels_csv(path, ChannelSet(data[:10, :2]))
            with pytest.raises(ParseError) if blanks else contextlib.nullcontext() as err:
                got.extend(blocks)
            if blanks:  # row 47, after 38 rows with blank lines before them
                assert (err.value.line, err.value.column) == (49 + blanks * 38, 3)
            assert np.concatenate(got).tobytes() == data[: 42 if blanks else 50].tobytes()
            assert labels == ("ch0", "ch1", "ch2")
            assert len(handles) == 2 and handles[0] is handles[1]

    @pytest.mark.parametrize("block_rows", [None, lambda width: 7], ids=["whole", "blocks"])
    def test_a_clean_regular_file_numbers_no_line_past_its_first(self, tmp_path, monkeypatch, block_rows):
        # numpy reads the bare texts: only a rejected block numbers the lines
        data = np.random.default_rng(19).standard_normal((50, 3))
        path = tmp_path / "sig.csv"
        fio.write_channels_csv(path, ChannelSet(data))
        path.write_bytes(b"\n" + path.read_bytes().replace(b"\n", b"\n \n", 20))
        numbered, seen = fio._numbered, []

        def counted(fh, *start):
            for item in numbered(fh, *start):
                seen.append(item[0])
                yield item

        monkeypatch.setattr(fio, "_numbered", counted)
        labels, *blocks = fio._csv_blocks(path, True, block_rows)
        assert np.concatenate(blocks).tobytes() == data.tobytes()
        assert labels == ("ch0", "ch1", "ch2") and seen == [2]

    @pytest.mark.parametrize("text", ["", "a,b\n", "\n  \n\n", "a,b\n\n \n"])
    @pytest.mark.parametrize("read", [fio.read_channels_csv, fio.read_grid_csv])
    def test_no_data_rows_raise_without_a_numpy_warning(self, tmp_path, text, read):
        path = tmp_path / "sig.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="no data rows|not a number"):
                read(path)


class TestCsvRoundTripProperty:
    """Whatever the writers write, the reader returns bit for bit."""

    EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
            -1.7976931348623157e308, 0.1, -1.2345678901234567e18]

    @classmethod
    def tables(cls, min_rows):
        st = pytest.importorskip("hypothesis.strategies")
        hnp = pytest.importorskip("hypothesis.extra.numpy")
        values = st.sampled_from(cls.EDGE) | st.floats(allow_nan=False, allow_infinity=False)
        shapes = st.tuples(st.integers(min_rows, 12), st.integers(1, 9))
        return hnp.arrays(np.float64, shapes, elements=values)

    @staticmethod
    def run(test, **strategies):
        hypothesis = pytest.importorskip("hypothesis")
        settings = hypothesis.settings(derandomize=True, max_examples=120, deadline=None, database=None)
        settings(hypothesis.given(**strategies)(test))()

    @staticmethod
    def words():
        """Any text, plus labels near the reader's header rule: numbers, commas,
        line breaks, outer whitespace and the empty label."""
        st = pytest.importorskip("hypothesis.strategies")
        return st.text(max_size=6) | st.sampled_from(
            ["nan", "-inf", "Infinity", "1", "1e5", "1_0", "x", "a,b", "a\rb", "a\nb", " a", "a\t", ""])

    @staticmethod
    def round_trips_or_raises(tmp_path, channels):
        """The writer raises exactly when the check-free reference writer's file
        does not read back as ``channels``; otherwise its file does."""
        path, plain = tmp_path / "sig.csv", tmp_path / "plain.csv"
        table = channels.data
        _reference_channels_csv(plain, channels)
        try:
            plain_back = fio.read_channels_csv(plain)
        except ParseError:
            plain_back = None
        expected = channels.labels or tuple(f"ch{j}" for j in range(table.shape[1]))
        if plain_back is None or plain_back.labels != expected or plain_back.data.tobytes() != table.tobytes():
            raise_exactly(InvalidInputError, lambda: fio.write_channels_csv(path, channels))
            return
        fio.write_channels_csv(path, channels)
        back = fio.read_channels_csv(path)
        assert back.data.tobytes() == table.tobytes()
        assert back.labels == expected

    def test_channels(self, tmp_path):
        st = pytest.importorskip("hypothesis.strategies")

        def round_trip(table, named, data):
            labels = data.draw(st.tuples(*[self.words()] * table.shape[1])) if named else None
            self.round_trips_or_raises(tmp_path, ChannelSet(table, labels=labels))

        self.run(round_trip, table=self.tables(2), named=st.booleans(), data=st.data())

    def test_labels(self, tmp_path):
        st = pytest.importorskip("hypothesis.strategies")

        def round_trip(labels):
            channels = ChannelSet(np.ones((2, len(labels))), labels=labels)
            self.round_trips_or_raises(tmp_path, channels)

        self.run(round_trip, labels=st.lists(self.words(), min_size=1, max_size=3))

    def test_grid(self, tmp_path):
        path = tmp_path / "map.csv"

        def round_trip(table):
            fio.write_grid_csv(path, table)
            assert fio.read_grid_csv(path).tobytes() == table.tobytes()

        self.run(round_trip, table=self.tables(1))


@pytest.mark.parametrize("labels, message", [
    (("1", "2"), "all parse as numbers"),
    (("nan", "-inf"), "all parse as numbers"),
    (("a,b", "c"), "comma or line break"),
    (("a", "b\nc"), "comma or line break"),
    (("a\rb", "c"), "comma or line break"),
    ((" a", "b"), "outer whitespace"),
    (("a", "b\t"), "outer whitespace"),
    (("",), "blank header line"),
], ids=["numbers", "non-finite", "comma", "lf", "cr", "leading-space", "trailing-tab", "blank"])
def test_labels_the_reader_cannot_give_back_are_rejected(tmp_path, labels, message):
    path = tmp_path / "sig.csv"
    channels = ChannelSet(np.ones((3, len(labels))), labels=labels)
    raise_exactly(InvalidInputError, lambda: fio.write_channels_csv(path, channels), match=message)
    assert not path.exists()


# The per-value writers the row writer replaced, kept as the byte-level reference.
def _reference_channels_csv(path, channels):
    labels = channels.labels or tuple(f"ch{j}" for j in range(channels.n_channels))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(labels) + "\n")
        for row in channels.data:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def _reference_grid_csv(path, grid):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in np.atleast_2d(np.asarray(grid, dtype=np.float64)):
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def _reference_p2(path, arr):
    h, w = arr.shape
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"P2\n{w} {h}\n255\n")
        for row in arr:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


class TestWriterParity:
    EDGE = [5e-324, -0.0, 0.1, 1e-300, 1.7976931348623157e308, -1.2345678901234567e18]

    @pytest.fixture
    def table(self):
        data = np.random.default_rng(7).standard_normal((30, 6))
        data[0] = self.EDGE
        data[:, 0] = np.resize(self.EDGE, 30)
        return data

    def test_signal_csv(self, tmp_path, table):
        for cs in (ChannelSet(table), ChannelSet(table, labels=tuple("abcdef"))):
            fio.write_channels_csv(tmp_path / "new.csv", cs)
            _reference_channels_csv(tmp_path / "ref.csv", cs)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("shape", [(30, 6), (1, 6), (6,)])
    def test_grid_csv(self, tmp_path, table, shape):
        grid = table.reshape(-1)[: math.prod(shape)].reshape(shape)
        fio.write_grid_csv(tmp_path / "new.csv", grid)
        _reference_grid_csv(tmp_path / "ref.csv", grid)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_ascii_pgm(self, tmp_path):
        arr = np.random.default_rng(8).integers(0, 256, size=(9, 13)).astype(np.uint8)
        arr[0, :2] = (0, 255)
        fio.write_pgm(tmp_path / "new.pgm", arr, binary=False)
        _reference_p2(tmp_path / "ref.pgm", arr)
        assert (tmp_path / "new.pgm").read_bytes() == (tmp_path / "ref.pgm").read_bytes()


def _per_row(path, table, cell, sep, head=None):
    """The row writer before blocks, one ``%`` per row: the byte-level reference of blocks."""
    fmt = sep.join([cell] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if head is not None:
            fh.write(head + "\n")
        for row in table:
            fh.write(fmt % tuple(row.tolist()))


# One row, and one row short of, at and past a whole block, at each width.
BLOCK_SHAPES = [(rows, width) for width in (1, 3, 8, 600)
                for rows in sorted({1} | {max(1, _WRITE_ENTRIES // width) + d for d in (-1, 0, 1)} - {0})]


class TestBlockWriter:
    @pytest.mark.parametrize("rows, width", BLOCK_SHAPES)
    def test_blocks_write_the_bytes_of_one_format_per_row(self, tmp_path, rows, width):
        rng = np.random.default_rng(rows * 1000 + width)
        table = rng.choice([-1.0, 1.0], (rows, width)) * 10.0 ** rng.uniform(-300.0, 300.0, (rows, width))
        new, ref = tmp_path / "new", tmp_path / "ref"

        def same(write, cell, sep, head=None, data=table):
            write(new)
            _per_row(ref, data, cell, sep, head)
            assert new.read_bytes() == ref.read_bytes()

        labels = tuple(f"lead{j}" for j in range(width))
        same(lambda p: fio.write_channels_csv(p, table, labels=labels), "%.17g", ",", ",".join(labels))
        same(lambda p: fio.write_grid_csv(p, table), "%.17g", ",")
        pixels = rng.integers(0, 256, (rows, width), dtype=np.uint8)
        same(lambda p: fio.write_pgm(p, pixels, binary=False), "%d", " ", f"P2\n{width} {rows}\n255",
             data=pixels)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_block_is_named_by_its_rows(self, tmp_path, value):
        table = np.ones((300, 8))  # blocks of 128 rows
        table[200, 3] = value
        for write in (fio.write_channels_csv, fio.write_grid_csv):
            raise_exactly(InvalidInputError, lambda: write(tmp_path / "t.csv", table), match="rows 129-256")
            assert not (tmp_path / "t.csv").exists()  # its first block would read back as the table

    @pytest.mark.parametrize("shape", [(3, 0), (0, 3)])
    def test_a_channel_table_with_no_cell_is_a_shape_error(self, tmp_path, shape):
        # A table with no column has no labels: it was refused for them
        path = tmp_path / "t.csv"
        raise_exactly(ShapeError, lambda: fio.write_channels_csv(path, np.zeros(shape)),
                      match=re.escape(f"{path}: a table needs at least one row and one column, "
                                      f"got {shape[0]}x{shape[1]}"))
        assert not path.exists()

    def test_labels_must_match_the_channels(self, tmp_path):
        raise_exactly(ShapeError, lambda: fio.write_channels_csv(tmp_path / "t.csv", np.ones((4, 3)),
                                                                 labels=("a", "b")))
        assert not (tmp_path / "t.csv").exists()


class TestPgm:
    def test_binary_round_trip(self, tmp_path):
        arr = np.random.default_rng(2).integers(0, 256, size=(9, 13)).astype(np.uint8)
        path = tmp_path / "img.pgm"
        fio.write_pgm(path, arr, binary=True)
        assert np.array_equal(fio.read_pgm(path), arr)

    def test_ascii_round_trip(self, tmp_path):
        arr = np.random.default_rng(3).integers(0, 256, size=(5, 7)).astype(np.uint8)
        path = tmp_path / "img.pgm"
        fio.write_pgm(path, arr, binary=False)
        assert np.array_equal(fio.read_pgm(path), arr)

    def test_comments_in_header(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_text("P2\n# a comment\n2 2\n# another\n255\n0 10\n20 255\n")
        assert np.array_equal(fio.read_pgm(path), [[0, 10], [20, 255]])

    def test_small_maxval_accepted(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_text("P2\n2 1\n15\n3 15\n")
        assert np.array_equal(fio.read_pgm(path), [[3, 15]])

    def test_truncated_binary_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(ParseError):
            fio.read_pgm(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(ParseError):
            fio.read_pgm(path)

    def test_sample_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_text("P2\n2 1\n15\n3 99\n")
        with pytest.raises(ParseError):
            fio.read_pgm(path)

    def test_binary_sample_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 1\n15\n\x03\x10")
        with pytest.raises(ParseError, match=r"out of range \[0, 15\]"):
            fio.read_pgm(path)

    @pytest.mark.parametrize("body, message", [
        ("3 x\n", "non-integer PGM sample"),
        ("3 -1\n", r"out of range \[0, 15\]"),
        ("3\n", "expected 2 samples, got 1"),
        ("3 4 5\n", "expected 2 samples, got 3"),
        ("3 99 5\n", "expected 2 samples, got 3"),
    ])
    def test_ascii_body_errors(self, tmp_path, body, message):
        path = tmp_path / "img.pgm"
        path.write_text("P2\n2 1\n15\n" + body)
        with pytest.raises(ParseError, match=message):
            fio.read_pgm(path)

    def test_ascii_comments_in_body(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_text("P2\n2 2\n255\n0 # first row\n10\n# second row\n20 255#\n")
        with pytest.raises(ParseError, match="non-integer"):
            fio.read_pgm(path)  # '255#' is one token: a comment starts only between tokens
        path.write_text("P2\n2 2\n255\n0 # first row\n10\n# second row\n20 255 #\n")
        assert np.array_equal(fio.read_pgm(path), [[0, 10], [20, 255]])

    def test_ascii_read_peak_stays_near_the_file(self, tmp_path):
        arr = np.random.default_rng(9).integers(0, 256, size=(256, 256)).astype(np.uint8)
        path = tmp_path / "img.pgm"
        fio.write_pgm(path, arr, binary=False)
        got, peak = traced_peak(lambda: fio.read_pgm(path))
        assert np.array_equal(got, arr)
        assert peak <= 2 * path.stat().st_size

    def test_a_header_larger_than_the_file_allocates_only_the_file(self, tmp_path):
        # 5000 x 5000 would be a 23.8 MiB sample buffer for a 23-byte file.
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P2\n5000 5000\n255\n1 2 3\n")
        error, peak = traced_peak(lambda: pytest.raises(ParseError, fio.read_pgm, path))
        assert error.match("expected 25000000 samples, got 3$")
        assert peak <= 16 * 1024


class TestPng:
    @pytest.mark.parametrize("filter_type", [0, 1, 2, 3, 4])
    def test_each_filter_type(self, tmp_path, filter_type):
        rng = np.random.default_rng(10 + filter_type)
        pixels = rng.integers(0, 256, size=(11, 17)).astype(np.uint8)
        path = tmp_path / "img.png"
        path.write_bytes(encode_png_gray8(pixels, filter_type))
        assert np.array_equal(fio.read_png(path), pixels)

    def test_filter_types_mixed_row_by_row(self, tmp_path):
        # A filtered row depends only on the pixels, so the rows of five
        # one-filter streams splice into a valid stream of mixed filters.
        pixels = np.random.default_rng(15).integers(0, 256, size=(13, 17)).astype(np.uint8)
        streams = []
        for filter_type in range(5):
            png = encode_png_gray8(pixels, filter_type)
            start = png.index(b"IDAT")
            (length,) = struct.unpack(">I", png[start - 4 : start])
            streams.append(zlib.decompress(png[start + 4 : start + 4 + length]))
        row = 17 + 1
        mixed = b"".join(streams[y % 5][y * row : (y + 1) * row] for y in range(13))
        path = tmp_path / "img.png"
        path.write_bytes(png_of(17, 13, [zlib.compress(mixed)]))
        assert np.array_equal(fio.read_png(path), pixels)

    def test_against_pillow_encoder(self, tmp_path):
        PIL_Image = pytest.importorskip("PIL.Image")
        rng = np.random.default_rng(20)
        for shape in [(8, 8), (23, 5), (64, 64)]:
            pixels = rng.integers(0, 256, size=shape).astype(np.uint8)
            path = tmp_path / "img.png"
            PIL_Image.fromarray(pixels, mode="L").save(path)
            assert np.array_equal(fio.read_png(path), pixels)

    def test_rgb_rejected(self, tmp_path):
        rgb = np.zeros((4, 4, 3), dtype=np.uint8)
        path = tmp_path / "img.png"
        path.write_bytes(encode_png_gray8(rgb, 0, color_type=2))
        with pytest.raises(ParseError):
            fio.read_png(path)

    def test_not_a_png_rejected(self, tmp_path):
        path = tmp_path / "img.png"
        path.write_bytes(b"hello world, definitely not a png")
        with pytest.raises(ParseError):
            fio.read_png(path)

    def test_short_ihdr_rejected(self, tmp_path):
        path = tmp_path / "img.png"
        path.write_bytes(short_ihdr_png())
        with pytest.raises(ParseError, match="IHDR chunk has 9 bytes"):
            fio.read_png(path)

    @pytest.mark.parametrize("chunk", [b"IHDR", b"IDAT", b"IEND"])
    def test_bad_crc_rejected(self, tmp_path, chunk):
        png = bytearray(encode_png_gray8(np.arange(16, dtype=np.uint8).reshape(4, 4), 0))
        start = png.index(chunk) - 4
        (length,) = struct.unpack(">I", png[start : start + 4])
        png[start + 8 + length + 3] ^= 0x01  # the last byte of the chunk's CRC
        path = tmp_path / "img.png"
        path.write_bytes(bytes(png))
        with pytest.raises(ParseError, match=f"chunk {chunk!r} fails its CRC"):
            fio.read_png(path)

    def test_chunk_past_the_end_rejected(self, tmp_path):
        path = tmp_path / "img.png"
        path.write_bytes(encode_png_gray8(np.zeros((4, 4), dtype=np.uint8), 0)[:8 + 8 + 5])
        with pytest.raises(ParseError, match="runs past the end"):
            fio.read_png(path)


def png_of(width, height, idat_payloads, chunks_before=(), settings=(0, 0, 0)):
    """An 8-bit grayscale PNG whose IDAT chunks carry the given payloads.

    ``settings`` are the IHDR compression, filter and interlace bytes.
    """
    def chunk(ctype, payload):
        return (struct.pack(">I", len(payload)) + ctype + payload
                + struct.pack(">I", zlib.crc32(ctype + payload)))

    ihdr = chunk(b"IHDR", struct.pack(">IIBBBBB", width, height, 8, 0, *settings))
    return (b"\x89PNG\r\n\x1a\n" + b"".join(chunks_before) + ihdr
            + b"".join(chunk(b"IDAT", p) for p in idat_payloads) + chunk(b"IEND", b""))


class TestPngStream:
    """The IDAT chunks feed one decompressor; every stream fault is still a ParseError."""

    PIXELS = np.arange(48, dtype=np.uint8).reshape(6, 8)

    @classmethod
    def scanlines(cls, filter_type=0):
        return b"".join(bytes([filter_type]) + row.tobytes() for row in cls.PIXELS)

    def read(self, tmp_path, png):
        path = tmp_path / "img.png"
        path.write_bytes(png)
        return fio.read_png(path)

    @pytest.mark.parametrize("pieces", [1, 2, 5, 40])
    def test_stream_split_over_idat_chunks(self, tmp_path, pieces):
        stream = zlib.compress(self.scanlines())
        cuts = np.linspace(0, len(stream), pieces + 1).astype(int)
        payloads = [stream[a:b] for a, b in zip(cuts[:-1], cuts[1:])]
        assert np.array_equal(self.read(tmp_path, png_of(8, 6, payloads)), self.PIXELS)

    def test_bytes_after_the_stream_are_ignored(self, tmp_path):
        stream = zlib.compress(self.scanlines()) + b"trailing"
        assert np.array_equal(self.read(tmp_path, png_of(8, 6, [stream, b"more"])), self.PIXELS)

    @pytest.mark.parametrize("payloads", [[b"not a zlib stream"], [], [b""]])
    def test_corrupt_or_missing_stream(self, tmp_path, payloads):
        with pytest.raises(ParseError, match="corrupt PNG stream"):
            self.read(tmp_path, png_of(8, 6, payloads))

    def test_truncated_stream(self, tmp_path):
        stream = zlib.compress(self.scanlines())
        with pytest.raises(ParseError, match="corrupt PNG stream .*incomplete or truncated"):
            self.read(tmp_path, png_of(8, 6, [stream[:-5]]))

    def test_wrong_stream_length(self, tmp_path):
        with pytest.raises(ParseError, match="stream length 54 does not match 8x7"):
            self.read(tmp_path, png_of(8, 7, [zlib.compress(self.scanlines())]))

    def test_unknown_filter(self, tmp_path):
        with pytest.raises(ParseError, match="unknown PNG filter type 5"):
            self.read(tmp_path, png_of(8, 6, [zlib.compress(self.scanlines(5))]))

    def test_chunk_faults_outrank_a_corrupt_stream(self, tmp_path):
        # Every chunk passes its own checks before the stream's fault is named.
        png = bytearray(png_of(8, 6, [b"not a zlib stream"]))
        png[-1] ^= 0x01  # the IEND CRC
        with pytest.raises(ParseError, match="b'IEND' fails its CRC"):
            self.read(tmp_path, bytes(png))
        with pytest.raises(ParseError, match="missing IHDR"):
            corrupt = png_of(8, 6, [b"not a zlib stream"])
            self.read(tmp_path, corrupt[:8] + corrupt[8 + 25:])  # IHDR is 25 bytes

    def test_a_stream_longer_than_the_header_is_inflated_one_byte_past_it(self, tmp_path):
        # 30 MiB of zeros deflate to ~30 KB; read whole, the stream of a 4x4 image would be 30 MiB.
        deflate = zlib.compressobj(9)
        stream = b"".join(deflate.compress(bytes(1 << 20)) for _ in range(30)) + deflate.flush()
        path = tmp_path / "img.png"
        path.write_bytes(png_of(4, 4, [stream[:1000], stream[1000:]]))
        error, peak = traced_peak(lambda: pytest.raises(ParseError, fio.read_png, path))
        assert error.match("PNG stream length 21 does not match 4x4$")
        assert peak <= 4 * path.stat().st_size

    def test_an_idat_before_ihdr_is_not_inflated(self, tmp_path):
        idat = png_of(8, 6, [zlib.compress(self.scanlines())])[8 + 25 : -12]
        with pytest.raises(ParseError, match="corrupt PNG stream .*incomplete or truncated"):
            self.read(tmp_path, png_of(8, 6, [], chunks_before=[idat]))

    @pytest.mark.parametrize("filter_type", [0, 4])
    def test_peak_stays_under_four_planes(self, tmp_path, filter_type):
        # The file, the decompressed stream and the output, and no copy of the IDAT data.
        pixels = np.random.default_rng(30 + filter_type).integers(0, 256, size=(512, 512)).astype(np.uint8)
        path = tmp_path / "img.png"
        path.write_bytes(encode_png_gray8(pixels, filter_type))
        got, peak = traced_peak(lambda: fio.read_png(path))
        assert np.array_equal(got, pixels)
        assert peak <= 4 * pixels.nbytes


class TestLoadGrayImage:
    def test_pgm_dispatch(self, tmp_path):
        arr = np.random.default_rng(4).integers(0, 256, size=(6, 6)).astype(np.uint8)
        path = tmp_path / "img.pgm"
        fio.write_pgm(path, arr)
        img = fio.load_gray_image(path)
        assert np.array_equal(img.to_uint8(), arr)

    def test_png_dispatch(self, tmp_path):
        arr = np.random.default_rng(5).integers(0, 256, size=(6, 6)).astype(np.uint8)
        path = tmp_path / "img.png"
        path.write_bytes(encode_png_gray8(arr, 0))
        img = fio.load_gray_image(path)
        assert np.array_equal(img.to_uint8(), arr)

    @pytest.mark.parametrize("magic, body", [("P2", b"0 3\n15 7\n"), ("P5", b"\x00\x03\x0f\x07")])
    def test_pgm_scaled_by_its_maxval(self, tmp_path, magic, body):
        path = tmp_path / "img.pgm"
        path.write_bytes(f"{magic}\n2 2\n15\n".encode() + body)
        img = fio.load_gray_image(path)
        assert img.pixels.tobytes() == (np.array([[0, 3], [15, 7]]) / 15.0).tobytes()

    @pytest.mark.parametrize("binary", [True, False])
    def test_8_bit_samples_kept(self, tmp_path, binary):
        arr = np.arange(256, dtype=np.uint8).reshape(16, 16)
        path = tmp_path / "img.pgm"
        fio.write_pgm(path, arr, binary=binary)
        png = tmp_path / "img.png"
        png.write_bytes(encode_png_gray8(arr, 1))
        for img in (fio.load_gray_image(path), fio.load_gray_image(png)):
            assert img.samples.dtype == np.uint8 and img.maxval == 255
            assert img.pixels.tobytes() == (arr / 255.0).tobytes()
            assert img.to_uint8().tobytes() == arr.tobytes()

    @pytest.mark.parametrize("magic", ["P2", "P5"])
    def test_maxval_15_samples_kept(self, tmp_path, magic):
        arr = np.arange(16, dtype=np.uint8).reshape(4, 4)
        body = arr.tobytes() if magic == "P5" else " ".join(map(str, arr.ravel())).encode()
        path = tmp_path / "img.pgm"
        path.write_bytes(f"{magic}\n4 4\n15\n".encode() + body)
        img = fio.load_gray_image(path)
        assert img.samples.tobytes() == arr.tobytes() and img.maxval == 15
        assert img.pixels.tobytes() == (arr / 15.0).tobytes()
        assert img.to_uint8().tobytes() == (arr * 17).tobytes()

    @pytest.mark.parametrize("binary", [True, False])
    def test_integer_samples_of_any_dtype_are_written(self, tmp_path, binary):
        arr = np.arange(256, dtype=np.uint8).reshape(16, 16)
        fio.write_pgm(tmp_path / "u8.pgm", arr, binary=binary)
        for dtype in (np.int64, np.float64, np.uint16):
            fio.write_pgm(tmp_path / "other.pgm", arr.astype(dtype), binary=binary)
            assert (tmp_path / "other.pgm").read_bytes() == (tmp_path / "u8.pgm").read_bytes()

    @pytest.mark.parametrize("binary", [True, False])
    @pytest.mark.parametrize("value", [300, -1, 0.5, 255.5, np.nan, np.inf])
    def test_samples_that_are_not_bytes_raise(self, tmp_path, binary, value):
        arr = np.zeros((2, 3), dtype=np.asarray(value).dtype)
        arr[1, 2] = value
        raise_exactly(InvalidInputError, lambda: fio.write_pgm(tmp_path / "x.pgm", arr, binary=binary),
                      match=r"must be integers in \[0, 255\]$")
        assert not (tmp_path / "x.pgm").exists()

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2), ()])
    def test_non_2d_raises(self, tmp_path, shape):
        raise_exactly(ShapeError, lambda: fio.write_pgm(tmp_path / "x.pgm", np.zeros(shape, dtype=np.uint8)),
                      match="must be 2-D")
        assert not (tmp_path / "x.pgm").exists()

    @pytest.mark.parametrize("binary", [True, False], ids=["P5", "P2"])
    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)], ids=["0x5", "5x0", "0x0"])
    def test_an_image_with_no_pixel_raises_before_the_file_is_opened(self, tmp_path, binary, shape):
        # Written, read_pgm would reject its dimensions.
        path = tmp_path / "x.pgm"
        raise_exactly(ShapeError, lambda: fio.write_pgm(path, np.zeros(shape, dtype=np.uint8), binary=binary),
                      match=re.escape(f"{path}: a PGM image needs at least one row and one column"))
        assert not path.exists()

    def test_closes_the_file(self, tmp_path):
        path = tmp_path / "img.pgm"
        fio.write_pgm(path, np.zeros((4, 4), dtype=np.uint8))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fio.load_gray_image(path)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "img.bin"
        path.write_bytes(b"\x00\x01\x02\x03\x04\x05\x06\x07")
        with pytest.raises(ParseError):
            fio.load_gray_image(path)


class TestRenderGrid:
    def test_min_max_mapping(self):
        out = fio.render_grid_u8([[0.0, 5.0], [10.0, 2.5]])
        assert out.dtype == np.uint8
        assert out[0, 0] == 0 and out[1, 0] == 255
        assert out[0, 1] == 128  # rounds from 127.5

    def test_flat_grid_is_black(self):
        assert np.all(fio.render_grid_u8(np.full((3, 3), 7.0)) == 0)


def _render_reference(grid):
    """The whole-array rendering that the row-block quantizer must reproduce byte for byte."""
    arr = np.asarray(grid, dtype=np.float64)
    lo, hi = float(arr.min()), float(arr.max())
    if hi <= lo:
        return np.zeros(arr.shape, dtype=np.uint8)
    return np.round((arr - lo) / (hi - lo) * 255.0).astype(np.uint8)


def _to_uint8_reference(pixels):
    return np.round(pixels * 255.0).astype(np.uint8)


def _block_rows(cols):
    """Rows per quantize block at ``cols`` columns."""
    return max(1, _QUANTIZE_ENTRIES // cols)


class TestQuantize:
    # a partial last block, one row, two whole blocks, and rows wider than a block
    @pytest.mark.parametrize("shape", [(2 * _block_rows(37) + 3, 37), (1, 300), (2 * _block_rows(5), 5),
                                       (3, _QUANTIZE_ENTRIES + 1)])
    def test_render_matches_reference(self, shape):
        rng = np.random.default_rng(shape[0])
        for grid in (rng.standard_normal(shape) * 1e3, -rng.random(shape) * 1e-200,
                     np.zeros(shape)):
            assert np.array_equal(fio.render_grid_u8(grid), _render_reference(grid))

    def test_render_matches_reference_when_range_overflows(self):
        rng = np.random.default_rng(11)
        grid = rng.uniform(-1.0, 1.0, (_block_rows(9) + 5, 9)) * 1.7e308
        assert np.isinf(float(grid.max()) - float(grid.min()))
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(fio.render_grid_u8(grid), _render_reference(grid))

    @pytest.mark.parametrize("shape", [(2 * _block_rows(41) + 3, 41), (2, 300)])
    def test_to_uint8_matches_reference(self, shape):
        pixels = np.random.default_rng(shape[1]).random(shape)
        pixels[0, :6] = [0.0, 0.5 / 255, 1.0, 1.5 / 255, 254.5 / 255, 0.5]
        img = GrayImage(pixels)
        assert np.array_equal(img.to_uint8(), _to_uint8_reference(img.pixels))


@pytest.mark.parametrize("body, message", [
    (b"", "empty file"),
    (b"P5\n4\n", "malformed PGM header"),
    (b"P2\n4 x 255\n", "malformed PGM header"),
    (b"P2\n0 2\n255\n", "bad PGM dimensions 0x2"),
    (b"P2\n2 2\n0\n", "unsupported PGM maxval 0"),
    (b"P5\n2 2\n256\n", "unsupported PGM maxval 256"),
])
def test_pgm_header_typed_errors(tmp_path, body, message):
    path = tmp_path / "img.pgm"
    path.write_bytes(body)
    raise_exactly(ParseError, lambda: fio.read_pgm(path), match=message)


@pytest.mark.parametrize("settings", [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                         ids=["compression", "filter", "interlace"])
def test_png_ihdr_settings_typed_errors(tmp_path, settings):
    path = tmp_path / "img.png"
    path.write_bytes(png_of(2, 2, [zlib.compress(b"\x00\x01\x02" * 2)], settings=settings))
    raise_exactly(ParseError, lambda: fio.read_png(path),
                  match="unsupported PNG compression/filter/interlace settings")
