import argparse
import contextlib
import gc
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from conftest import encode_png_gray8, fed_fifo, lapack_fails, raise_exactly, short_ihdr_png, traced_peak

import svdsep
from svdsep import io as fio
from svdsep import cli, linalg, signal
from svdsep.cli import main
from svdsep.errors import InvalidInputError, LayoutError
from svdsep.signal import ChannelSet, EmbedLayout, embed
from svdsep.synth import TAG_ROUGH, MixtureSpec, Region, TextureSpec, gen_mixture, gen_texture


def run(*argv):
    return main([str(a) for a in argv])


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def mixture_csv(tmp_path):
    prefix = tmp_path / "mix"
    assert run("synth", "mixture", "--seed", 1, "--output-prefix", prefix) == 0
    return f"{prefix}_signals.csv"


class TestSeparate:
    def test_recovers_planted_cutoffs(self, tmp_path, mixture_csv):
        prefix = tmp_path / "sep"
        assert run("separate", mixture_csv, "--output-prefix", prefix) == 0
        report = read_json(f"{prefix}_report.json")
        assert report["schema_version"] == 1
        assert report["results"]["cutoff"]["m"] == 2
        assert report["results"]["cutoff"]["f"] == 4
        assert report["results"]["numerical_rank"] == 8
        assert report["work_counters"]["decompositions"] == 1
        assert report["wall_time_ms"] >= 0.0
        # every flag echoed
        assert set(report["parameters"]) == {"method", "layout", "window_length", "output_prefix"}

    def test_component_files_written_and_additive(self, tmp_path, mixture_csv):
        prefix = tmp_path / "sep"
        run("separate", mixture_csv, "--output-prefix", prefix)
        original = fio.read_channels_csv(mixture_csv)
        parts = [fio.read_channels_csv(f"{prefix}_{name}.csv").data
                 for name in ("dominant", "weak", "noise")]
        assert all(p.shape == original.data.shape for p in parts)
        assert np.allclose(sum(parts), original.data, atol=1e-8)

    def test_gsvd_method(self, tmp_path, mixture_csv):
        second_prefix = tmp_path / "mix2"
        run("synth", "mixture", "--seed", 2, "--output-prefix", second_prefix)
        prefix = tmp_path / "gsep"
        code = run("separate", mixture_csv, "--method", "gsvd",
                   "--second", f"{second_prefix}_signals.csv", "--output-prefix", prefix)
        assert code == 0
        report = read_json(f"{prefix}_report.json")
        assert report["results"]["cutoff"]["method"] == "gsvd-egv"
        assert "generalized_values" in report["results"]

    @pytest.mark.parametrize("pairing", ["same", "seven-leads-shared", "tripled"])
    def test_gsvd_of_tied_values(self, tmp_path, mixture_csv, pairing):
        # alpha/beta of these pairs tie, and rounding leaves them out of order unless clamped
        a = fio.read_channels_csv(mixture_csv)
        b = {"same": a.data, "tripled": 3.0 * a.data}.get(pairing)
        if b is None:
            b = a.data.copy()
            b[:, 7] = gen_mixture(MixtureSpec(400, 8, 2, 2, 40, seed=2))[0].data[:, 7]
        fio.write_channels_csv(tmp_path / "b.csv", ChannelSet(b, labels=a.labels))
        assert run("separate", mixture_csv, "--method", "gsvd", "--second", tmp_path / "b.csv",
                   "--output-prefix", tmp_path / "g") == 0
        parts = [fio.read_channels_csv(tmp_path / f"g_{name}.csv").data for name in ("dominant", "weak", "noise")]
        assert np.allclose(sum(parts), a.data, atol=1e-8)

    def test_gsvd_stacked_route_equals_the_public_gsvd(self, tmp_path, mixture_csv, monkeypatch):
        # a reference longer than the 400-sample input, so that no array of A's rows has B's
        run("synth", "mixture", "--samples", 500, "--seed", 2, "--output-prefix", tmp_path / "ref")
        reference = f"{tmp_path / 'ref'}_signals.csv"
        body, got = linalg.gsvd, []
        monkeypatch.setattr(linalg, "gsvd", lambda a, b: got.append(body(a, b)) or got[-1])
        assert run("separate", mixture_csv, "--method", "gsvd", "--second", reference,
                   "--output-prefix", tmp_path / "g") == 0
        monkeypatch.undo()
        a, b = (fio.read_channels_csv(path).data for path in (mixture_csv, reference))
        want = linalg.gsvd(a, b)
        assert len(got) == 1
        for name in ("x_factor", "x_dual", "u_factor", "v_factor", "alpha", "beta", "generalized_values"):
            assert getattr(got[0], name).tobytes() == getattr(want, name).tobytes(), name
        assert got[0].b_shift == want.b_shift
        # The CLI reduced B, then A, to its triangle as it read it: the result holds no recording's rows.
        held = [v for v in vars(got[0]).values() if isinstance(v, np.ndarray)]
        assert got[0].a is None and got[0].b is None and all(v.shape[0] not in (len(a), len(b)) for v in held)
        raise_exactly(LayoutError, lambda: got[0].u_basis,
                      match="^U needs A, and this decomposition was built from A's triangle alone$")

    @pytest.mark.parametrize("reference, error, message", [
        ("narrow", "ShapeError", "A and B must share a column count, got 8 and 6"),
        ("deficient", "DegeneratePencilError", "stacked matrix [A; B] is rank deficient"),
    ])
    def test_gsvd_pair_faults_exit_1(self, tmp_path, mixture_csv, capsys, reference, error, message):
        data = fio.read_channels_csv(mixture_csv).data
        if reference == "narrow":
            fio.write_channels_csv(tmp_path / "a.csv", ChannelSet(data))
            fio.write_channels_csv(tmp_path / "b.csv", ChannelSet(data[:, :6]))
        else:
            data[:, 1] = data[:, 0]  # one column twice in A and in B
            fio.write_channels_csv(tmp_path / "a.csv", ChannelSet(data))
            fio.write_channels_csv(tmp_path / "b.csv", ChannelSet(data[::-1].copy()))
        assert run("separate", tmp_path / "a.csv", "--method", "gsvd", "--second", tmp_path / "b.csv",
                   "--output-prefix", tmp_path / "g") == 1
        assert f"svdsep: error: {error}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "g_report.json").exists()

    def test_a_short_reference_is_named(self, tmp_path, mixture_csv, capsys):
        short = tmp_path / "one.csv"
        short.write_text("1.0,2.0,3.0\n")
        assert run("separate", mixture_csv, "--method", "gsvd", "--second", short,
                   "--output-prefix", tmp_path / "g") == 1
        assert capsys.readouterr().err == \
            f"svdsep: error: ShapeError: {short}: need at least 2 samples and 1 channel, got (1, 3)\n"
        assert not list(tmp_path.glob("g_*"))

    def test_gsvd_reads_the_reference_first(self, tmp_path, capsys):
        # Both files are malformed: the reference is read, and refused, first.
        (tmp_path / "a.csv").write_text("1.0,2.0\n3.0,banana\n")
        (tmp_path / "b.csv").write_text("1.0,2.0\n3.0,4.0\n5.0,nan\n")
        assert run("separate", tmp_path / "a.csv", "--method", "gsvd", "--second", tmp_path / "b.csv",
                   "--output-prefix", tmp_path / "g") == 2
        assert capsys.readouterr().err == \
            f"svdsep: parse error: {tmp_path / 'b.csv'}: non-finite value 'nan' (line 3, column 2)\n"
        assert not list(tmp_path.glob("g_*"))

    @pytest.mark.parametrize("bad", ["input", "reference", "piped input"])
    def test_a_fault_in_a_late_block_names_its_line_and_column(self, tmp_path, capsys, bad):
        # 3000 rows in blocks of 1024: the fault is in the third block, after
        # two were reduced. A pipe, which cannot be read again, names it too.
        paths = {"input": tmp_path / "a.csv", "reference": tmp_path / "b.csv"}
        for seed, path in enumerate(paths.values()):
            fio.write_channels_csv(path, TestStreamedBands.mixture(3000, seed))
        faulty = paths["reference" if bad == "reference" else "input"]
        lines = faulty.read_text().splitlines(keepends=True)
        lines[2500] = ",".join(["x" if j == 5 else cell for j, cell in enumerate(lines[2500].split(","))])
        faulty.write_text("".join(lines))
        with contextlib.ExitStack() as stack:
            if bad == "piped input":
                faulty = stack.enter_context(fed_fifo(tmp_path / "pipe.csv", faulty.read_bytes()))
                paths["input"] = faulty
            code = run("separate", paths["input"], "--method", "gsvd", "--second", paths["reference"],
                       "--output-prefix", tmp_path / "g")
        assert code == 2
        assert capsys.readouterr().err == \
            f"svdsep: parse error: {faulty}: not a number: 'x' (line 2501, column 6)\n"
        assert not list(tmp_path.glob("g_*"))

    def test_an_input_rewritten_after_its_read_gives_the_parts_of_the_rows_read(self, tmp_path, monkeypatch):
        # A is parsed once, into its triangle and the rows its bands read back:
        # a rewrite after that, shorter and narrower, reaches neither.
        data = TestStreamedBands.mixture(3000, 1).data
        path = tmp_path / "a.csv"
        fio.write_channels_csv(path, ChannelSet(data))
        fio.write_channels_csv(tmp_path / "b.csv", TestStreamedBands.mixture(3000, 2))
        body = linalg.gsvd

        def gsvd_then_rewrite(a, b):
            fio.write_channels_csv(path, ChannelSet(data[:-1, :7]))
            return body(a, b)

        monkeypatch.setattr(linalg, "gsvd", gsvd_then_rewrite)
        assert run("separate", path, "--method", "gsvd", "--second", tmp_path / "b.csv",
                   "--output-prefix", tmp_path / "sep") == 0
        monkeypatch.undo()
        TestStreamedBands.assert_parts_of(tmp_path, data, "gsvd")

    @pytest.mark.parametrize("cell", ["clean", "underscore"])
    def test_gsvd_reads_an_input_from_a_pipe(self, tmp_path, cell):
        # A is parsed once, so a pipe gives the parts of the regular file it
        # carries, also when the third of its 1024-row blocks holds a cell
        # numpy rejects and float reads (1_0).
        fio.write_channels_csv(tmp_path / "a.csv", TestStreamedBands.mixture(3000, 1))
        fio.write_channels_csv(tmp_path / "b.csv", TestStreamedBands.mixture(3000, 2))
        if cell == "underscore":
            lines = (tmp_path / "a.csv").read_text().splitlines(keepends=True)
            lines[2500] = "1_0," + lines[2500].split(",", 1)[1]
            (tmp_path / "a.csv").write_text("".join(lines))
        with fed_fifo(tmp_path / "pipe.csv", (tmp_path / "a.csv").read_bytes()) as pipe:
            assert run("separate", pipe, "--method", "gsvd", "--second", tmp_path / "b.csv",
                       "--output-prefix", tmp_path / "piped") == 0
        assert run("separate", tmp_path / "a.csv", "--method", "gsvd", "--second", tmp_path / "b.csv",
                   "--output-prefix", tmp_path / "file") == 0
        for name in TestStreamedBands.PARTS:
            assert (tmp_path / f"piped_{name}.csv").read_bytes() == (tmp_path / f"file_{name}.csv").read_bytes()
        if cell == "underscore":
            assert fio.read_channels_csv(tmp_path / "a.csv").data[2499, 0] == 10.0

    @pytest.mark.parametrize("method", ["svd", "gsvd"])
    def test_a_part_written_over_the_input_keeps_its_rows(self, tmp_path, method):
        # Each route parses A before it opens a part file, so a part path that
        # names A truncates it only once its rows are read.
        fio.write_channels_csv(tmp_path / "a.csv", TestStreamedBands.mixture(3000, 1))
        shutil.copy(tmp_path / "a.csv", tmp_path / "x_noise.csv")
        second = []
        if method == "gsvd":
            second = ["--second", tmp_path / "b.csv"]
            fio.write_channels_csv(second[1], TestStreamedBands.mixture(3000, 2))
        assert run("separate", tmp_path / "x_noise.csv", "--method", method, *second,
                   "--output-prefix", tmp_path / "x") == 0
        assert run("separate", tmp_path / "a.csv", "--method", method, *second,
                   "--output-prefix", tmp_path / "y") == 0
        for name in TestStreamedBands.PARTS:
            assert (tmp_path / f"x_{name}.csv").read_bytes() == (tmp_path / f"y_{name}.csv").read_bytes()

    @pytest.mark.parametrize("case, code, left", [
        ("written", 0, ["g_dominant.csv", "g_noise.csv", "g_report.json", "g_weak.csv"]),
        ("a fault in A's third block", 2, []),
        ("a degenerate pencil", 1, []),
        ("a part path that is a directory", 2, ["g_noise.csv"]),
    ])
    def test_the_spill_leaves_nothing_beside_the_outputs(self, tmp_path, monkeypatch, case, code, left):
        # The spill of A's rows is made in the output directory, with no name there, and closed however the run ends.
        inputs, out = tmp_path / "in", tmp_path / "out"
        inputs.mkdir()
        out.mkdir()
        a, b = (TestStreamedBands.mixture(3000, seed).data for seed in (1, 2))
        if case == "a degenerate pencil":
            a[:, 1], b[:, 1] = a[:, 0], b[:, 0]
        fio.write_channels_csv(inputs / "a.csv", ChannelSet(a))
        fio.write_channels_csv(inputs / "b.csv", ChannelSet(b))
        if case == "a fault in A's third block":  # 3000 rows in blocks of 1024
            lines = (inputs / "a.csv").read_text().splitlines(keepends=True)
            lines[2500] = "x" + lines[2500]
            (inputs / "a.csv").write_text("".join(lines))
        if case == "a part path that is a directory":
            (out / "g_noise.csv").mkdir()
        body, seen, before = tempfile.TemporaryFile, [], sorted(os.listdir(out))

        def spill(**kwargs):
            made = body(**kwargs)
            seen.append((kwargs["dir"], sorted(os.listdir(out))))
            return made

        monkeypatch.setattr(tempfile, "TemporaryFile", spill)
        assert run("separate", inputs / "a.csv", "--method", "gsvd", "--second", inputs / "b.csv",
                   "--output-prefix", out / "g") == code
        monkeypatch.undo()
        assert seen == [(str(out), before)]
        assert sorted(os.listdir(out)) == left
        assert sorted(os.listdir(inputs)) == ["a.csv", "b.csv"]

    def test_gsvd_names_a_missing_output_directory(self, tmp_path, mixture_csv, capsys):
        # The spill is made there first; its fault names the directory, not the spill's random name.
        missing = tmp_path / "nope"
        assert run("separate", mixture_csv, "--method", "gsvd", "--second", mixture_csv,
                   "--output-prefix", missing / "g") == 2
        assert capsys.readouterr().err == f"svdsep: [Errno 2] No such file or directory: '{missing}'\n"
        assert not missing.exists()

    def test_gsvd_names_a_missing_input(self, tmp_path, mixture_csv, capsys):
        missing = tmp_path / "nope.csv"
        assert run("separate", missing, "--method", "gsvd", "--second", mixture_csv,
                   "--output-prefix", tmp_path / "g") == 2
        err = capsys.readouterr().err
        assert err.startswith("svdsep: ") and str(missing) in err
        assert not list(tmp_path.glob("g_*"))

    @pytest.mark.parametrize("method, lapack, call", [("svd", "svd", 1), ("gsvd", "qr", 1),
                                                      ("gsvd", "svd", 2)])
    def test_lapack_failure_exits_1(self, tmp_path, mixture_csv, capsys, method, lapack, call):
        run("synth", "mixture", "--seed", 2, "--output-prefix", tmp_path / "ref")
        route = ["--second", f"{tmp_path / 'ref'}_signals.csv"] if method == "gsvd" else []
        with lapack_fails(lapack, call):
            assert run("separate", mixture_csv, "--method", method, *route,
                       "--output-prefix", tmp_path / "sep") == 1
        assert "svdsep: error: ConvergenceError: " in capsys.readouterr().err
        assert not (tmp_path / "sep_report.json").exists()

    def test_a_part_that_cannot_be_opened_leaves_no_part_behind(self, tmp_path, mixture_csv, capsys):
        # A rerun over a good run's files, whose noise path is now a directory:
        # the two parts opened before it would be left truncated to 0 bytes, and
        # the good run's report would describe parts that are gone.
        prefix = tmp_path / "sep"
        assert run("separate", mixture_csv, "--output-prefix", prefix) == 0
        (tmp_path / "sep_noise.csv").unlink()
        (tmp_path / "sep_noise.csv").mkdir()
        capsys.readouterr()
        assert run("separate", mixture_csv, "--output-prefix", prefix) == 2
        err = capsys.readouterr().err
        assert err.startswith("svdsep: ") and "sep_noise.csv" in err
        assert sorted(p.name for p in tmp_path.glob("sep_*")) == ["sep_noise.csv"]
        assert (tmp_path / "sep_noise.csv").is_dir()

    def test_gsvd_reference_blind_to_a_direction(self, tmp_path, mixture_csv):
        run("synth", "mixture", "--seed", 2, "--output-prefix", tmp_path / "ref")
        ref = fio.read_channels_csv(f"{tmp_path / 'ref'}_signals.csv")
        blind = ref.data.copy()
        blind[:, 0] = 0.0  # the reference never sees channel 0
        fio.write_channels_csv(tmp_path / "blind.csv", ChannelSet(blind, labels=ref.labels))
        prefix = tmp_path / "g"
        with pytest.warns(RuntimeWarning, match="1 infinite generalized value"):
            assert run("separate", mixture_csv, "--method", "gsvd", "--second", tmp_path / "blind.csv",
                       "--output-prefix", prefix) == 0
        results = read_json(f"{prefix}_report.json")["results"]
        assert results["generalized_values"][0] == "inf"
        assert results["infinite_values"] == 1
        # the chain the cutoff read: the 7 finite values, so 6 variations
        assert len(results["egv_profile"]["variations"]) == 6

    def test_hankel_needs_a_window_length(self, tmp_path, mixture_csv, capsys):
        assert run("separate", mixture_csv, "--layout", "hankel", "--output-prefix", tmp_path / "x") == 2
        assert "hankel layout requires --window-length" in capsys.readouterr().err

    @pytest.mark.parametrize("route, flag", [
        ([], ["--second", "ref.csv"]),
        (["--layout", "hankel", "--window-length", "40"], ["--second", "ref.csv"]),
        (["--layout", "channel-columns"], ["--window-length", "40"]),
        ([], ["--window-length", "40"]),
    ])
    def test_flags_the_route_never_reads_are_rejected(self, tmp_path, capsys, route, flag):
        absent = tmp_path / "absent.csv"  # rejected before any input is opened
        assert run("separate", absent, *route, *flag, "--output-prefix", tmp_path / "x") == 2
        assert f"{flag[0]} applies to" in capsys.readouterr().err
        assert not (tmp_path / "x_report.json").exists()

    def test_gsvd_without_second_fails(self, tmp_path, mixture_csv, capsys):
        assert run("separate", mixture_csv, "--method", "gsvd",
                   "--output-prefix", tmp_path / "x") == 2
        assert "requires --second" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["banana", "nan", "-inf"])
    def test_malformed_csv_names_line(self, tmp_path, capsys, cell):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"1.0,2.0\n3.0,{cell}\n")
        assert run("separate", bad, "--output-prefix", tmp_path / "x") == 2
        err = capsys.readouterr().err
        assert "line 2, column 2" in err

    def test_non_utf8_csv_is_a_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"1.0,2.0\n3.0,\xff\n")
        assert run("separate", bad, "--output-prefix", tmp_path / "x") == 2
        err = capsys.readouterr().err
        assert err.startswith("svdsep: parse error: ") and "(line 2)" in err
        assert "Traceback" not in err

    def test_degenerate_input_fails_cleanly(self, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        flat.write_text("\n".join(["1.0"] * 16) + "\n")
        assert run("separate", flat, "--output-prefix", tmp_path / "x") == 1
        assert "degenerate" in capsys.readouterr().err.lower()

    def test_missing_file(self, tmp_path):
        assert run("separate", tmp_path / "nope.csv", "--output-prefix", tmp_path / "x") == 2

    def test_hankel_layout(self, tmp_path):
        sig = tmp_path / "one.csv"
        rng = np.random.default_rng(0)
        t = np.arange(200.0)
        wave = np.sin(2 * np.pi * t / 20) + 0.01 * rng.standard_normal(200)
        sig.write_text("\n".join("%.17g" % v for v in wave) + "\n")
        prefix = tmp_path / "h"
        assert run("separate", sig, "--layout", "hankel", "--window-length", 30,
                   "--output-prefix", prefix) == 0
        assert read_json(f"{prefix}_report.json")["parameters"]["window_length"] == 30
        dom = fio.read_channels_csv(f"{prefix}_dominant.csv")
        assert dom.n_samples == 200 and dom.n_channels == 1

    def test_hankel_layout_keeps_the_input_label(self, tmp_path):
        sig = tmp_path / "ecg.csv"
        wave = np.sin(2 * np.pi * np.arange(200.0) / 20)
        wave += 0.01 * np.random.default_rng(1).standard_normal(200)
        sig.write_text("ecg\n" + "\n".join("%.17g" % v for v in wave) + "\n")
        prefix = tmp_path / "h"
        assert run("separate", sig, "--layout", "hankel", "--window-length", 30,
                   "--output-prefix", prefix) == 0
        for name in ("dominant", "weak", "noise"):
            with open(f"{prefix}_{name}.csv", encoding="utf-8") as fh:
                assert fh.readline() == "ecg\n"

    @staticmethod
    def long_wave(path, samples, noise=0.01):
        t = np.arange(samples)
        wave = np.sin(2 * np.pi * t / 40) + 0.1 * np.sin(2 * np.pi * t / 7)
        wave += noise * np.random.default_rng(9).standard_normal(samples)
        fio.write_channels_csv(path, ChannelSet(wave[:, np.newaxis]))
        return wave

    def test_hankel_peak_stays_far_below_the_trajectory(self, tmp_path):
        # The SVD route streams the trajectory: it never holds it, nor its right basis.
        samples, window = 20_000, 100
        path = tmp_path / "long.csv"
        wave = self.long_wave(path, samples)
        trajectory = window * (samples - window + 1) * 8
        code, peak = traced_peak(lambda: run("separate", path, "--layout", "hankel",
                                             "--window-length", window,
                                             "--output-prefix", tmp_path / "h"))
        assert code == 0
        assert peak <= 0.3 * trajectory
        parts = sum(fio.read_channels_csv(tmp_path / f"h_{name}.csv").data[:, 0]
                    for name in ("dominant", "weak", "noise"))
        assert np.max(np.abs(parts - wave)) <= 1e-13 * np.max(np.abs(wave))

    def test_hankel_peak_is_bounded_by_the_input(self, tmp_path):
        # At 100 000 samples and L = 20 the peak is ~1.38x the input: the
        # parts are formed and written 1024 samples at a time, so the samples
        # are the only N-long array. Whole parts, held with the noise, the
        # window counts and np.convolve's N-long result, made it ~5.3x.
        path = tmp_path / "long.csv"
        self.long_wave(path, 100_000)
        code, peak = traced_peak(lambda: run("separate", path, "--layout", "hankel", "--window-length", 20,
                                             "--output-prefix", tmp_path / "h"))
        assert code == 0
        assert peak <= 1.6 * fio.read_channels_csv(path).data.nbytes

    @pytest.fixture(scope="class")
    def long_mixtures(self, tmp_path_factory):
        """The ``synth mixture`` CSVs of seeds 1 and 2 at 20 000 x 8, 20 blocks of 1024 rows."""
        tmp_path = tmp_path_factory.mktemp("long")
        for seed in (1, 2):
            assert run("synth", "mixture", "--samples", 20_000, "--seed", seed,
                       "--output-prefix", tmp_path / f"mix{seed}") == 0
        return [f"{tmp_path / f'mix{seed}'}_signals.csv" for seed in (1, 2)]

    @pytest.mark.parametrize("method, bound", [("svd", 2.2), ("gsvd", 0.17)])
    def test_channel_columns_peak_is_bounded_by_the_input(self, tmp_path, long_mixtures, method, bound):
        # At 20 000 x 8 the peak is ~2.05x the input (svd) and ~0.149x (gsvd).
        # The svd peak is the factorization: no band is held, as each is
        # written a block of rows at a time; a whole band held beside the left
        # basis made it ~2.6x, and a sign rule that copied a column of |U|
        # ~2.17x. The gsvd route holds neither A nor B: each is parsed once,
        # in blocks of 1024 rows, and reduced to its n x n triangle as it is
        # parsed, B first, and the bands are rows of A, read back from the
        # file A's blocks were spilled to, times n x n matrices. A second
        # parse of A for the bands made it ~0.174x; holding A, which the
        # bands were read from, ~1.22x,
        # a whole QR's copy of A ~2.04x, holding A and B together ~3.04x, and
        # a QR of the stack [A; B], holding the stack, LAPACK's copy of it and
        # Q, ~6.0x. A first run in a process also traces one-time imports
        # (~0.16 MiB), so the traced run follows one untraced.
        inputs = long_mixtures
        second = ["--second", inputs[1]] if method == "gsvd" else []
        argv = ["separate", inputs[0], "--method", method, *second, "--output-prefix", tmp_path / "sep"]
        assert run(*argv) == 0
        code, peak = traced_peak(lambda: run(*argv))
        assert code == 0
        assert peak <= bound * fio.read_channels_csv(inputs[0]).data.nbytes

    def test_gsvd_peak_is_a_few_blocks_whatever_the_length(self, tmp_path, long_mixtures):
        # Each recording is 20 blocks of 1024 rows (64 KiB); the run holds
        # ~2.9 blocks, as at 4000 and 100 000 rows: a block being parsed
        # beside the block before it. The bands read 128 spilled rows at a
        # time; a second parse of A for them made it ~3.4 blocks.
        argv = ["separate", long_mixtures[0], "--method", "gsvd", "--second", long_mixtures[1],
                "--output-prefix", tmp_path / "g"]
        assert run(*argv) == 0
        code, peak = traced_peak(lambda: run(*argv))
        assert code == 0
        assert peak <= 3.25 * linalg._block_rows(8) * 8 * 8

    def test_hankel_needs_a_single_channel(self, tmp_path, mixture_csv, capsys):
        assert run("separate", mixture_csv, "--layout", "hankel", "--window-length", 30,
                   "--output-prefix", tmp_path / "h") == 1
        assert "LayoutError" in capsys.readouterr().err
        assert not (tmp_path / "h_report.json").exists()

    def test_hankel_window_longer_than_the_signal(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        self.long_wave(path, 50)
        assert run("separate", path, "--layout", "hankel", "--window-length", 51,
                   "--output-prefix", tmp_path / "h") == 1
        err = capsys.readouterr().err
        assert "RangeError" in err and "exceeds signal length 50" in err

    @pytest.mark.parametrize("window", [1, 0, -3])
    def test_window_length_below_2_fails_before_the_input_is_read(self, tmp_path, capsys, monkeypatch, window):
        def no_read(path):
            raise AssertionError(f"{path} was opened")

        monkeypatch.setattr(fio, "read_channels_csv", no_read)
        assert run("separate", tmp_path / "absent.csv", "--layout", "hankel", "--window-length", window,
                   "--output-prefix", tmp_path / "h") == 1
        assert capsys.readouterr().err == \
            f"svdsep: error: LayoutError: window_length must be >= 2, got {window}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("method", ["svd", "gsvd", "hankel", "gsvd-blocked"])
    def test_decompositions_counts_the_factorizations_run(self, tmp_path, mixture_csv,
                                                          monkeypatch, method):
        route = []
        if method == "gsvd-blocked":
            run("synth", "mixture", "--samples", 2500, "--seed", 3, "--output-prefix", tmp_path / "long")
            mixture_csv = tmp_path / "long_signals.csv"
        if method.startswith("gsvd"):
            samples = ["--samples", 3000] if method == "gsvd-blocked" else []
            run("synth", "mixture", *samples, "--seed", 2, "--output-prefix", tmp_path / "ref")
            route = ["--method", "gsvd", "--second", tmp_path / "ref_signals.csv"]
        elif method == "hankel":
            channel = tmp_path / "one.csv"
            fio.write_channels_csv(channel, ChannelSet(fio.read_channels_csv(mixture_csv).data[:, :1]))
            mixture_csv = channel
            route = ["--layout", "hankel", "--window-length", 30]
        calls = {"svd": 0, "qr": 0}

        def counted(name):
            fn = getattr(np.linalg, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counted(name))
        prefix = tmp_path / "sep"
        assert run("separate", mixture_csv, *route, "--output-prefix", prefix) == 0
        report = read_json(f"{prefix}_report.json")
        assert report["work_counters"] == {"decompositions": calls["svd"] + calls["qr"]}
        # hankel: one QR per block of 8192 // L = 273 of the 371 windows, one QR
        # merging the second block's triangle into the first's, then one SVD.
        # gsvd-blocked: 2500 and 3000 rows in blocks of 1024, so three blocks
        # of A and of B, each block and each merge one QR.
        assert calls == {"svd": {"svd": 1, "qr": 0}, "gsvd": {"svd": 2, "qr": 2},
                         "hankel": {"svd": 1, "qr": 3}, "gsvd-blocked": {"svd": 2, "qr": 10}}[method]

    @pytest.mark.parametrize("method", ["svd", "gsvd"])
    def test_parts_equal_the_library_separation(self, tmp_path, mixture_csv, method):
        run("synth", "mixture", "--seed", 2, "--output-prefix", tmp_path / "ref")
        reference = f"{tmp_path / 'ref'}_signals.csv"
        route = ["--second", reference] if method == "gsvd" else []
        prefix = tmp_path / "sep"
        assert run("separate", mixture_csv, "--method", method, *route,
                   "--output-prefix", prefix) == 0
        x = fio.read_channels_csv(mixture_csv).data
        f = linalg.gsvd(x, fio.read_channels_csv(reference).data) if method == "gsvd" else linalg.svd(x)
        want = signal.cutoff(f)
        cut = read_json(f"{prefix}_report.json")["results"]["cutoff"]
        assert (cut["m"], cut["f"]) == (want.m, want.f)
        for name, part in zip(("dominant", "weak", "noise"), signal.separate(f, want)):
            # %.17g round-trips every float64, so the files hold the parts exactly
            assert np.array_equal(fio.read_channels_csv(f"{prefix}_{name}.csv").data, part)


class TestPartsSumToTheInput:
    """On every route, the three part files that separate writes add back up
    to the recording it read."""

    @staticmethod
    def assert_parts_sum_to(path, prefix):
        x = fio.read_channels_csv(path).data
        parts = sum(fio.read_channels_csv(f"{prefix}_{name}.csv").data for name in ("dominant", "weak", "noise"))
        assert parts.shape == x.shape
        assert np.max(np.abs(parts - x)) <= 1e-12 * np.max(np.abs(x))

    # the cutoff warns when a chain has no second peak, or a gsvd value is infinite
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("route", ["svd", "gsvd", "hankel"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("samples", [401, 997, 4001])
    def test_parts_sum_to_the_input(self, tmp_path, samples, seed, route):
        recording = TestStreamedBands.mixture(samples, seed)
        path, prefix = tmp_path / "in.csv", tmp_path / "sep"
        if route == "hankel":
            fio.write_channels_csv(path, ChannelSet(recording.data[:, :1], labels=recording.labels[:1]))
            for window in (2, 37, 40, samples // 2, samples - 3):
                assert run("separate", path, "--layout", "hankel", "--window-length", window,
                           "--output-prefix", prefix) == 0
                self.assert_parts_sum_to(path, prefix)
            return
        fio.write_channels_csv(path, recording)
        second = []
        if route == "gsvd":
            second = ["--second", tmp_path / "ref.csv"]
            fio.write_channels_csv(second[1], TestStreamedBands.mixture(samples, seed + 3))
        assert run("separate", path, "--method", route, *second, "--output-prefix", prefix) == 0
        self.assert_parts_sum_to(path, prefix)


@pytest.fixture(scope="module")
def workloads():
    """``perfbench/workloads.py``, loaded as a module; the tests only read it."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", TestEntryPoint.ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def benchmarked_routes(tmp_path_factory, workloads):
    """The argv of each perfbench ``separate`` workload, by its (method, layout,
    window given) route, with the workload's inputs written beside it."""
    routes = {}
    for name in workloads.NAMES:
        workdir = tmp_path_factory.mktemp(name)
        argv = workloads.command(name, workdir)
        if argv[0] == "separate":
            workloads.write_inputs(svdsep, workloads.generate(svdsep, name, 0, workloads.SMOKE), workdir)
            args = cli.build_parser().parse_args(argv)
            routes[args.method, args.layout, args.window_length is not None] = argv
    return routes


@pytest.mark.parametrize("windowed", [False, True], ids=["no-window", "window"])
@pytest.mark.parametrize("layout", ["channel-columns", "hankel"])
@pytest.mark.parametrize("method", ["svd", "gsvd"])
def test_separate_runs_only_the_benchmarked_routes(tmp_path, capsys, monkeypatch, benchmarked_routes,
                                                  method, layout, windowed):
    # A route that no perfbench workload measures is a parse error.
    argv = benchmarked_routes.get((method, layout, windowed))
    if argv is not None:
        assert main(argv) == 0
        return

    def no_read(path):
        raise AssertionError(f"{path} was opened")

    monkeypatch.setattr(fio, "read_channels_csv", no_read)
    route = ["--method", method, "--layout", layout]
    route += ["--second", tmp_path / "b.csv"] if method == "gsvd" else []
    route += ["--window-length", 40] if windowed else []
    assert run("separate", tmp_path / "a.csv", *route, "--output-prefix", tmp_path / "x") == 2
    assert capsys.readouterr().err.startswith("svdsep: parse error: ")
    assert not list(tmp_path.iterdir())


def test_every_separate_option_is_reached_by_a_workload(tmp_path, workloads):
    # An option that no perfbench workload passes is never measured: add its workload with it.
    parser = cli.build_parser()
    (subcommands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {s for a in subcommands.choices["separate"]._actions for s in a.option_strings}
    argvs = [workloads.command(name, tmp_path) for name in workloads.NAMES]
    passed = {arg for argv in argvs if argv[0] == "separate" for arg in argv if arg.startswith("-")}
    assert options - {"-h", "--help", "--json"} - passed == set()


class TestStreamedBands:
    """On channel columns, separate writes each band from its factors a block of
    rows at a time, and never holds the band."""

    PARTS = ("dominant", "weak", "noise")

    @staticmethod
    def mixture(samples, seed, channels=8):
        """The recording ``synth mixture`` writes with its default options, at
        8 channels; fewer channels have fewer dominant and weak directions."""
        rank = min(2, (channels - 1) // 2)
        spec = MixtureSpec(samples=samples, channels=channels, dominant_rank=rank, weak_rank_span=rank,
                           dominant_period=40, seed=seed)
        return gen_mixture(spec)[0]

    @classmethod
    def factors(cls, data, method):
        a = embed(ChannelSet(data), EmbedLayout.channel_columns(len(data)))
        if method == "svd":
            return linalg.svd(a)
        second = cls.mixture(len(data), 2, data.shape[1]).data
        return linalg.gsvd(a, embed(ChannelSet(second), EmbedLayout.channel_columns(len(data))))

    @classmethod
    def assert_parts_are_separates(cls, tmp_path, samples, method, labels=None, channels=8):
        """The CLI's part files hold the bytes of ``separate``'s parts."""
        data = cls.mixture(samples, 1, channels).data
        path = tmp_path / "in.csv"
        if labels is None:
            np.savetxt(path, data, fmt="%.17g", delimiter=",")
        else:
            fio.write_channels_csv(path, ChannelSet(data, labels=labels))
        second = []
        if method == "gsvd":
            second = ["--second", tmp_path / "ref.csv"]
            fio.write_channels_csv(second[1], cls.mixture(samples, 2, channels))
        assert run("separate", path, "--method", method, *second, "--output-prefix", tmp_path / "sep") == 0
        cls.assert_parts_of(tmp_path, data, method, labels)

    @classmethod
    def assert_parts_of(cls, tmp_path, data, method, labels=None):
        """The part files ``sep_*.csv`` hold the bytes of ``separate``'s parts of ``data``."""
        decomp = cls.factors(data, method)
        for name, part in zip(cls.PARTS, signal.separate(decomp, signal.cutoff(decomp))):
            fio.write_channels_csv(tmp_path / "ref_part.csv", ChannelSet(part, labels=labels))
            assert (tmp_path / f"sep_{name}.csv").read_bytes() == (tmp_path / "ref_part.csv").read_bytes()

    @pytest.mark.parametrize("method", ["svd", "gsvd"])
    @pytest.mark.parametrize("labels", [tuple(f"lead{j}" for j in range(8)), None], ids=["labelled", "unlabelled"])
    def test_parts_are_the_written_band_signals(self, tmp_path, method, labels):
        # 1000 rows of 8 channels: seven whole 128-row blocks of the writer and a partial one
        self.assert_parts_are_separates(tmp_path, 1000, method, labels)

    @pytest.mark.parametrize("method", ["svd", "gsvd"])
    @pytest.mark.parametrize("samples", [129, 3969, 4097])
    def test_a_one_row_last_block_is_separates_row(self, tmp_path, method, samples):
        # one past a multiple of the writer's 128-row blocks: the last block is one row
        self.assert_parts_are_separates(tmp_path, samples, method)

    @pytest.mark.parametrize("samples, channels, step", [
        (6000, 3, None),          # read in blocks of 2730 rows, written in blocks of 341: they straddle
        (16 * 341 + 1, 3, None),  # and the last block written is one row
        (1000, 8, 7),             # 7-row blocks read under 128-row blocks written
        (3 * 128 + 1, 8, 128),    # the last block read and the last written are one row
    ])
    def test_gsvd_reads_in_blocks_give_the_whole_reads_parts(self, tmp_path, monkeypatch, samples, channels, step):
        # The CLI parses A and B in TSQR blocks, and reads its bands' rows of A
        # back from A's spilled blocks; the library's gsvd of the whole arrays
        # runs the same TSQR blocks.
        if step is not None:
            monkeypatch.setattr(linalg, "_block_rows", lambda width: step)
        self.assert_parts_are_separates(tmp_path, samples, "gsvd", channels=channels)

    @pytest.mark.parametrize("method", ["svd", "gsvd"])
    def test_band_writes_hold_no_band(self, tmp_path, method):
        # The left basis, as large as the input, is held before the writes;
        # the writes add one block of rows and its text, not a band.
        data = self.mixture(20_000, 1).data
        decomp = self.factors(data, method)
        cut = signal.cutoff(decomp)

        def write():
            blocks = signal._band_blocks(decomp, cut)
            fio._write_channel_tables([tmp_path / f"{name}.csv" for name in self.PARTS], data.shape, blocks)

        _, peak = traced_peak(write)
        assert peak <= 0.25 * data.nbytes

    def test_a_non_finite_block_raises(self, tmp_path):
        # A NaN in a weak direction: the first block of the dominant part is
        # on disk when the weak part's second block fails, and no file is left.
        data = self.mixture(300, 1).data
        spec = self.factors(data, "svd")
        cut = signal.cutoff(spec)
        left = spec.left_basis.copy()
        left[200, cut.m] = np.nan  # row 200 lies in the second 128-row block
        spec = linalg.SpectrumResult(left, spec.right_basis, spec.singular_values, spec.numerical_rank)
        paths = [tmp_path / f"{name}.csv" for name in self.PARTS]
        blocks = signal._band_blocks(spec, cut)
        raise_exactly(InvalidInputError, lambda: fio._write_channel_tables(paths, data.shape, blocks),
                      match=re.escape(f"{paths[1]}: non-finite value in rows 129-256"))
        assert not list(tmp_path.iterdir())


class TestScan:
    @pytest.fixture
    def texture_pgm(self, tmp_path):
        prefix = tmp_path / "tex"
        assert run("synth", "texture", "--seed", 3, "--width", 20, "--height", 20,
                   "--region", "10,0,10,20,rough", "--output-prefix", prefix) == 0
        return f"{prefix}_image.pgm"

    def test_map_outputs(self, tmp_path, texture_pgm):
        prefix = tmp_path / "scan"
        code = run("scan", texture_pgm, "--window-size", 5, "--stride", 5,
                   "--output-prefix", prefix)
        assert code == 0
        grid = fio.read_grid_csv(f"{prefix}_map.csv")
        assert grid.shape == (4, 4)
        rendered = fio.read_pgm(f"{prefix}_map.pgm")
        assert rendered.shape == (4, 4)
        report = read_json(f"{prefix}_report.json")
        assert report["results"]["grid_rows"] == 4
        assert report["work_counters"]["decompositions"] == 16
        # the options not given echo the values the scan ran with
        assert {k: report["parameters"][k] for k in ("order", "polarity")} == {"order": 1, "polarity": "above"}

    @pytest.mark.parametrize("route, flag, scope", [
        pytest.param([], ["--polarity", "below"], "runs with --threshold", id="route5-flag5-runs with --threshold"),
    ])
    def test_flags_the_metric_never_reads_are_rejected(self, tmp_path, capsys, monkeypatch, route, flag, scope):
        def no_load(path):
            raise AssertionError(f"{path} was opened")

        monkeypatch.setattr(fio, "load_gray_image", no_load)
        assert run("scan", tmp_path / "absent.pgm", *route, *flag, "--output-prefix", tmp_path / "x") == 2
        assert capsys.readouterr().err == f"svdsep: parse error: {flag[0]} applies to {scope} only\n"
        assert not list(tmp_path.iterdir())

    def test_threshold_writes_mask(self, tmp_path, texture_pgm):
        prefix = tmp_path / "scan"
        run("scan", texture_pgm, "--window-size", 5, "--stride", 5,
            "--threshold", 100, "--output-prefix", prefix)
        mask = fio.read_pgm(f"{prefix}_mask.pgm")
        assert set(np.unique(mask)) <= {0, 255}
        assert np.all(mask[:, :2] == 255)  # smooth half flagged
        assert np.all(mask[:, 2:] == 0)

    def test_a_failed_rerun_leaves_no_report(self, tmp_path, texture_pgm, capsys):
        # A rerun over a good run's files, whose mask path is now a directory:
        # the good run's report would sit over the new map files.
        argv = ("scan", texture_pgm, "--window-size", 5, "--stride", 5, "--threshold", 100,
                "--output-prefix", tmp_path / "sc")
        assert run(*argv) == 0
        (tmp_path / "sc_mask.pgm").unlink()
        (tmp_path / "sc_mask.pgm").mkdir()
        capsys.readouterr()
        assert run(*argv) == 2
        assert "sc_mask.pgm" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.glob("sc_*")) == ["sc_map.csv", "sc_map.pgm", "sc_mask.pgm"]

    def test_nan_threshold_fails(self, tmp_path, texture_pgm, capsys, monkeypatch):
        def no_scan(*args, **kwargs):
            raise AssertionError("the threshold is checked before the scan")

        monkeypatch.setattr(cli, "sliding_scan", no_scan)
        assert run("scan", texture_pgm, "--window-size", 5, "--threshold", "nan",
                   "--output-prefix", tmp_path / "x") == 1
        assert "ConfigError: threshold must be a number, got nan" in capsys.readouterr().err
        assert not list(tmp_path.glob("x_*"))

    def test_order_too_large_for_the_window_fails_before_the_image_is_read(self, tmp_path, capsys, monkeypatch):
        def no_load(path):
            raise AssertionError(f"{path} was opened")

        monkeypatch.setattr(fio, "load_gray_image", no_load)
        assert run("scan", tmp_path / "absent.pgm", "--window-size", 5, "--order", 5,
                   "--output-prefix", tmp_path / "x") == 1
        assert capsys.readouterr().err == \
            "svdsep: error: OrderError: order 5 needs 6 singular values, window has 5\n"
        assert not list(tmp_path.iterdir())

    def test_an_image_below_2x2_is_named(self, tmp_path, capsys):
        pgm = tmp_path / "row.pgm"
        fio.write_pgm(pgm, np.zeros((1, 5), dtype=np.uint8))
        assert run("scan", pgm, "--window-size", 2, "--output-prefix", tmp_path / "x") == 1
        assert capsys.readouterr().err == \
            f"svdsep: error: ShapeError: {pgm}: image must be at least 2x2, got (1, 5)\n"
        assert not list(tmp_path.glob("x_*"))

    def test_window_larger_than_image_fails(self, tmp_path, texture_pgm):
        assert run("scan", texture_pgm, "--window-size", 50,
                   "--output-prefix", tmp_path / "x") == 1

    def test_order_3_runs_and_is_reported(self, tmp_path, texture_pgm):
        assert run("scan", texture_pgm, "--window-size", 5, "--stride", 5,
                   "--order", 3, "--output-prefix", tmp_path / "o") == 0
        assert read_json(f"{tmp_path / 'o'}_report.json")["parameters"]["order"] == 3

    def test_png_input(self, tmp_path):
        arr = np.random.default_rng(8).integers(0, 256, size=(16, 16)).astype(np.uint8)
        png = tmp_path / "img.png"
        png.write_bytes(encode_png_gray8(arr, 4))
        assert run("scan", png, "--window-size", 4, "--stride", 4,
                   "--output-prefix", tmp_path / "p") == 0
        assert fio.read_grid_csv(f"{tmp_path / 'p'}_map.csv").shape == (4, 4)

    @pytest.mark.parametrize("malformed", ["short IHDR", "chunk past the end"])
    def test_malformed_png_is_a_parse_error(self, tmp_path, capsys, malformed):
        png = tmp_path / "img.png"
        if malformed == "short IHDR":
            png.write_bytes(short_ihdr_png())
        else:
            png.write_bytes(encode_png_gray8(np.zeros((8, 8), dtype=np.uint8), 0)[:8 + 8 + 5])
        capsys.readouterr()
        assert run("scan", png, "--window-size", 4, "--output-prefix", tmp_path / "p") == 2
        err = capsys.readouterr().err
        assert err.startswith("svdsep: parse error: ") and "Traceback" not in err

    def test_peak_stays_near_image_plus_grid(self, tmp_path):
        img, _ = gen_texture(TextureSpec(width=256, height=256, seed=5,
                                         regions=(Region(0, 0, 128, 256, TAG_ROUGH),)))
        path = tmp_path / "img.pgm"
        fio.write_pgm(path, img.to_uint8())
        image_plus_grid = img.pixels.nbytes + (256 - 5 + 1) ** 2 * 8
        code, peak = traced_peak(lambda: run("scan", path, "--window-size", 5, "--stride", 1,
                                             "--threshold", 100, "--output-prefix", tmp_path / "s"))
        assert code == 0
        assert peak / image_plus_grid <= 1.3

    def test_peak_stays_near_8_bit_image_plus_grid(self, tmp_path):
        # the scan keeps the image as its uint8 samples: 1 byte a pixel, not 8
        img, _ = gen_texture(TextureSpec(width=256, height=256, seed=5,
                                         regions=(Region(0, 0, 128, 256, TAG_ROUGH),)))
        path = tmp_path / "img.pgm"
        fio.write_pgm(path, img.to_uint8())
        image_plus_grid = 256 * 256 + (256 - 5 + 1) ** 2 * 8
        code, peak = traced_peak(lambda: run("scan", path, "--window-size", 5, "--stride", 1,
                                             "--threshold", 100, "--output-prefix", tmp_path / "s"))
        assert code == 0
        assert peak / image_plus_grid <= 1.5


class TestSynth:
    def test_mixture_deterministic_per_seed(self, tmp_path):
        p1, p2 = tmp_path / "a", tmp_path / "b"
        run("synth", "mixture", "--seed", 1, "--output-prefix", p1)
        run("synth", "mixture", "--seed", 1, "--output-prefix", p2)
        sig1 = (tmp_path / "a_signals.csv").read_bytes()
        sig2 = (tmp_path / "b_signals.csv").read_bytes()
        assert sig1 == sig2

    def test_texture_deterministic_per_seed(self, tmp_path):
        for name in ("a", "b"):
            run("synth", "texture", "--seed", 7, "--region", "0,0,8,16,rough",
                "--width", 16, "--height", 16, "--output-prefix", tmp_path / name)
        assert (tmp_path / "a_image.pgm").read_bytes() == (tmp_path / "b_image.pgm").read_bytes()
        assert (tmp_path / "a_mask.pgm").read_bytes() == (tmp_path / "b_mask.pgm").read_bytes()

    def test_ground_truth_sidecar(self, tmp_path):
        prefix = tmp_path / "m"
        run("synth", "mixture", "--dominant-rank", 2, "--weak-rank-span", 2,
            "--output-prefix", prefix)
        report = read_json(f"{prefix}_report.json")
        assert report["results"]["k_m"] == 2
        assert report["results"]["k_f"] == 4
        assert report["parameters"]["samples"] == 400

    def test_infeasible_ranks_fail(self, tmp_path):
        assert run("synth", "mixture", "--dominant-rank", 5, "--weak-rank-span", 5,
                   "--channels", "8", "--output-prefix", tmp_path / "x") == 1

    @pytest.mark.parametrize("argv", [
        ["mixture", "--ratio-weak-noise", "nan"],
        ["mixture", "--ratio-dominant-weak", "nan"],
        ["texture", "--noise-smooth", "nan"],
        ["texture", "--noise-rough", "nan"],
        ["texture", "--noise-anomaly", "nan"],
    ])
    def test_nan_spec_fails(self, tmp_path, capsys, argv):
        assert run("synth", *argv, "--output-prefix", tmp_path / "x") == 1
        assert "GeneratorSpecError" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["mixture", "--ratio-dominant-weak", "inf"],
        ["texture", "--region", "0,0,10,10,rough", "--width", "20", "--height", "20", "--noise-rough", "inf"],
    ])
    def test_infinite_spec_fails(self, tmp_path, capsys, argv):
        assert run("synth", *argv, "--output-prefix", tmp_path / "x") == 1
        assert "GeneratorSpecError" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_out_of_memory_is_a_one_line_error(self, tmp_path, capsys, monkeypatch):
        class _ArrayMemoryError(MemoryError):  # as numpy names the one it raises
            pass

        message = "Unable to allocate 74.5 GiB for an array with shape (100000, 100000) and data type float64"

        def gen_texture(spec):
            raise _ArrayMemoryError(message)

        monkeypatch.setattr(cli, "gen_texture", gen_texture)
        assert run("synth", "texture", "--width", 100_000, "--height", 100_000,
                   "--output-prefix", tmp_path / "x") == 1
        assert capsys.readouterr().err == f"svdsep: error: MemoryError: {message}\n"
        assert not list(tmp_path.iterdir())

    def test_default_mixture_feeds_separate(self, tmp_path):
        prefix = tmp_path / "m"
        run("synth", "mixture", "--output-prefix", prefix)
        assert run("separate", f"{prefix}_signals.csv", "--output-prefix", tmp_path / "s") == 0


class TestEntryPoint:
    ROOT = Path(__file__).resolve().parents[1]

    def module(self, tmp_path, *argv):
        env = dict(os.environ, PYTHONPATH=str(self.ROOT / "src"))
        return subprocess.run([sys.executable, "-m", "svdsep.cli", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)

    def test_module_runs_a_command(self, tmp_path):
        done = self.module(tmp_path, "synth", "mixture", "--samples", "40", "--output-prefix", "p")
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "p_signals.csv").is_file()
        assert (tmp_path / "p_report.json").is_file()

    def test_module_exits_2_on_an_unknown_flag(self, tmp_path):
        done = self.module(tmp_path, "synth", "mixture", "--bogus", "--output-prefix", "p")
        assert done.returncode == 2
        assert "unrecognized arguments: --bogus" in done.stderr

    def test_script_target_is_main(self):
        tomllib = pytest.importorskip("tomllib")
        with open(self.ROOT / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["svdsep"]
        module, _, attr = target.partition(":")
        assert getattr(importlib.import_module(module), attr) is main


def command_argv(tmp_path, command):
    """argv, without the output options, of one small run of ``command``."""
    if command == "separate":
        assert run("synth", "mixture", "--output-prefix", tmp_path / "in") == 0
        return [command, tmp_path / "in_signals.csv"]
    if command == "scan":
        assert run("synth", "texture", "--output-prefix", tmp_path / "in") == 0
        return [command, tmp_path / "in_image.pgm"]
    return command.split()


@pytest.mark.parametrize("argv, message", [
    (["scan", "img.pgm", "--order", "x"], "invalid int value: 'x'"),
    (["separate", "a.csv", "--offsets", "0"], "unrecognized arguments: --offsets 0"),
    (["synth", "texture", "--region", "1,2,3"], "region must be x,y,width,height,tag"),
    (["synth", "texture", "--region", "1,2,x,4,rough"], "region coordinates must be integers"),
    (["separate", "a.csv", "--min-separation", "1"], "unrecognized arguments: --min-separation 1"),
    # a stride past 1 left the samples after the last window at zero in every part
    (["separate", "a.csv", "--layout", "hankel", "--window-length", "40", "--stride", "7"],
     "unrecognized arguments: --stride 7"),
    # a rank tolerance could drop the noise band, so the parts missed the input
    (["separate", "a.csv", "--rank-tolerance", "0.05"], "unrecognized arguments: --rank-tolerance 0.05"),
    # the smoothness guard is fixed at 1e-6
    (["scan", "img.pgm", "--epsilon-guard", "1e-3"], "unrecognized arguments: --epsilon-guard 1e-3"),
    # the scan maps smoothness only
    (["scan", "img.pgm", "--metric", "information-density"], "unrecognized arguments: --metric information-density"),
    # the scan scores every window at one fixed integer order
    (["scan", "img.pgm", "--order", "auto"], "invalid int value: 'auto'"),
    (["scan", "img.pgm", "--delta", "0.1"], "unrecognized arguments: --delta 0.1"),
])
def test_malformed_option_value_exits_2(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        run(*argv, "--output-prefix", tmp_path / "x")
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_the_parser_is_freed_before_the_command_runs(tmp_path, mixture_csv, monkeypatch):
    # Each action refers to the group holding it, so the parser's ~58 KiB sit
    # in reference cycles, which would otherwise stay through the command.
    refs, alive = [], []
    build, separate = cli.build_parser, cli.cmd_separate

    def building():
        parser = build()
        refs.extend(weakref.ref(obj) for obj in (parser, *parser._actions))
        return parser

    def separating(args):
        alive.append(sum(ref() is not None for ref in refs))
        return separate(args)

    monkeypatch.setattr(cli, "build_parser", building)
    monkeypatch.setattr(cli, "cmd_separate", separating)
    gc.collect()  # resets the collector's counters: no collection it would start frees the parser
    assert run("separate", mixture_csv, "--output-prefix", tmp_path / "sep") == 0
    assert alive == [0]


class TestRunReport:
    COMMANDS = ["separate", "scan", "synth mixture", "synth texture"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_json_echo_equals_the_written_report(self, tmp_path, capsys, command):
        argv = command_argv(tmp_path, command)
        capsys.readouterr()
        prefix = tmp_path / "out"
        assert run(*argv, "--output-prefix", prefix, "--json") == 0
        with open(f"{prefix}_report.json", "r", encoding="utf-8") as fh:
            written = fh.read()
        assert capsys.readouterr().out == written
        report = json.loads(written)
        assert report["command"] == command
        assert list(report) == ["command", "inputs", "parameters", "results", "work_counters",
                                "wall_time_ms", "schema_version"]
        assert report["wall_time_ms"] > 0.0

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unwritable_report_exits_2_without_traceback(self, tmp_path, capsys, command):
        argv = command_argv(tmp_path, command)
        (tmp_path / "out_report.json").mkdir()
        capsys.readouterr()
        assert run(*argv, "--output-prefix", tmp_path / "out", "--json") == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("svdsep: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""


def blas_threads():
    return linalg._OPENBLAS[0]()


@pytest.fixture
def two_blas_threads():
    """The process runs OpenBLAS on two threads (as many as it grants) during the test."""
    get, put = linalg._OPENBLAS
    before = get()
    put(2)
    try:
        yield
    finally:
        put(before)


@pytest.mark.skipif(linalg._OPENBLAS is None,
                    reason="numpy has no bundled OpenBLAS whose thread count can be set")
class TestOneBlasThread:
    def test_a_command_runs_on_one_thread(self, tmp_path, mixture_csv, monkeypatch, two_blas_threads):
        seen, cutoff = [], signal.cutoff
        monkeypatch.setattr(signal, "cutoff", lambda *a, **k: seen.append(blas_threads()) or cutoff(*a, **k))
        assert run("separate", mixture_csv, "--output-prefix", tmp_path / "sep") == 0
        assert seen == [1]

    @pytest.mark.parametrize("options, fault, status", [
        ([], contextlib.nullcontext(), 0),
        ([], lapack_fails("svd"), 1),  # a ConvergenceError
        (["--method", "gsvd"], contextlib.nullcontext(), 2),  # a ParseError: no --second
    ], ids=["ok", "SvdsepError", "ParseError"])
    def test_count_is_restored_on_every_exit(self, tmp_path, mixture_csv, two_blas_threads,
                                             options, fault, status):
        before = blas_threads()
        with fault:
            assert run("separate", mixture_csv, *options, "--output-prefix", tmp_path / "sep") == status
        assert blas_threads() == before

    def test_count_is_restored_when_a_command_raises(self, tmp_path, mixture_csv, monkeypatch,
                                                     two_blas_threads):
        before = blas_threads()

        def fails(*args, **kwargs):
            raise RuntimeError("not an svdsep fault")

        monkeypatch.setattr(signal, "cutoff", fails)
        with pytest.raises(RuntimeError):
            run("separate", mixture_csv, "--output-prefix", tmp_path / "sep")
        assert blas_threads() == before


def separate_outputs(prefix, *argv):
    """The bytes of the part CSVs and of the report, less its wall time, of one ``separate``."""
    assert run("separate", *argv, "--output-prefix", prefix) == 0
    parts = [Path(f"{prefix}_{name}.csv").read_bytes() for name in ("dominant", "weak", "noise")]
    report = read_json(f"{prefix}_report.json")
    del report["wall_time_ms"]
    return parts, report


@pytest.mark.parametrize("method", ["svd", "gsvd"])
def test_one_blas_thread_keeps_the_bytes_where_openblas_threads(tmp_path, monkeypatch, method):
    # 2048 x 8 is above OpenBLAS's threading size; 400 x 8 never threads.
    for seed in (1, 2):
        run("synth", "mixture", "--samples", 2048, "--seed", seed, "--output-prefix", tmp_path / f"m{seed}")
    argv = [f"{tmp_path / 'm1'}_signals.csv", "--method", method]
    if method == "gsvd":
        argv += ["--second", f"{tmp_path / 'm2'}_signals.csv"]
    one = separate_outputs(tmp_path / "sep", *argv)
    monkeypatch.setattr(linalg, "_one_blas_thread", contextlib.nullcontext)
    assert separate_outputs(tmp_path / "sep", *argv) == one


def test_without_openblas_a_command_writes_the_same_bytes(tmp_path, mixture_csv, monkeypatch):
    one = separate_outputs(tmp_path / "sep", mixture_csv)
    monkeypatch.setattr(linalg, "_OPENBLAS", None)
    assert separate_outputs(tmp_path / "sep", mixture_csv) == one
