import json

import numpy as np
import pytest
from conftest import encode_png_gray8, short_ihdr_png, traced_peak

from svdsep import io as fio
from svdsep import linalg
from svdsep.cli import main
from svdsep.estimators import SubspaceSeparator
from svdsep.signal import ChannelSet, EmbedLayout, embed
from svdsep.synth import TAG_ROUGH, Region, TextureSpec, gen_texture


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
        for key in ("method", "layout", "window_length", "min_separation", "output_prefix"):
            assert key in report["parameters"]

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

    def test_gsvd_rejects_min_separation(self, tmp_path, mixture_csv, capsys):
        second_prefix = tmp_path / "mix2"
        run("synth", "mixture", "--seed", 2, "--output-prefix", second_prefix)
        code = run("separate", mixture_csv, "--method", "gsvd", "--second",
                   f"{second_prefix}_signals.csv", "--min-separation", 1,
                   "--output-prefix", tmp_path / "g")
        assert code == 2
        assert "--min-separation" in capsys.readouterr().err
        assert not (tmp_path / "g_report.json").exists()

    @pytest.mark.parametrize("route, flag", [
        ([], ["--second", "ref.csv"]),
        (["--method", "gsvd", "--second", "ref.csv"], ["--rank-tolerance", "1e-9"]),
        ([], ["--stride", "2"]),
        (["--layout", "hankel", "--window-length", "30"], ["--offsets", "0"]),
    ])
    def test_flags_the_route_never_reads_are_rejected(self, tmp_path, capsys, route, flag):
        absent = tmp_path / "absent.csv"  # rejected before any input is opened
        assert run("separate", absent, *route, *flag, "--output-prefix", tmp_path / "x") == 2
        assert f"{flag[0]} applies to" in capsys.readouterr().err
        assert not (tmp_path / "x_report.json").exists()

    def test_svd_min_separation_defaults_to_one(self, tmp_path, mixture_csv):
        prefix = tmp_path / "sep"
        assert run("separate", mixture_csv, "--output-prefix", prefix) == 0
        assert read_json(f"{prefix}_report.json")["parameters"]["min_separation"] == 1

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
        for name, stride in (("h", ["--stride", 1]), ("unset", [])):
            prefix = tmp_path / name
            code = run("separate", sig, "--layout", "hankel", "--window-length", 30,
                       *stride, "--output-prefix", prefix)
            assert code == 0
            assert read_json(f"{prefix}_report.json")["parameters"]["stride"] == 1
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

    def test_hankel_stride_three(self, tmp_path):
        path = tmp_path / "wave.csv"
        wave = self.long_wave(path, 1000)
        prefix = tmp_path / "h"
        assert run("separate", path, "--layout", "hankel", "--window-length", 40,
                   "--stride", 3, "--output-prefix", prefix) == 0
        report = read_json(f"{prefix}_report.json")
        assert report["parameters"]["stride"] == 3
        assert report["results"]["numerical_rank"] == 40
        parts = sum(fio.read_channels_csv(f"{prefix}_{name}.csv").data[:, 0]
                    for name in ("dominant", "weak", "noise"))
        covered = (1000 - 40) // 3 * 3 + 40  # samples some window reaches
        assert np.max(np.abs(parts[:covered] - wave[:covered])) <= 1e-13
        assert np.all(parts[covered:] == 0.0)

    def test_hankel_rank_tolerance_is_the_trajectory_rule(self, tmp_path):
        path = tmp_path / "wave.csv"
        wave = self.long_wave(path, 600, noise=1e-4)  # two sinusoids: rank 4 at 1e-3
        prefix = tmp_path / "h"
        with pytest.warns(RuntimeWarning, match="no second variation peak"):
            assert run("separate", path, "--layout", "hankel", "--window-length", 30,
                       "--rank-tolerance", 1e-3, "--output-prefix", prefix) == 0
        results = read_json(f"{prefix}_report.json")["results"]
        trajectory = embed(ChannelSet(wave[:, np.newaxis]), EmbedLayout.hankel(30))
        want = linalg.svd(trajectory, rank_tolerance=1e-3)
        assert results["numerical_rank"] == want.numerical_rank == 4
        assert len(results["singular_values"]) == want.numerical_rank

    def test_hankel_gsvd(self, tmp_path, capsys):
        path, reference = tmp_path / "wave.csv", tmp_path / "ref.csv"
        wave = self.long_wave(path, 60)
        self.long_wave(reference, 60, noise=0.5)
        prefix = tmp_path / "g"
        # L = 40: a 40 x 21 trajectory, tall enough for the generalized decomposition
        assert run("separate", path, "--method", "gsvd", "--second", reference, "--layout", "hankel",
                   "--window-length", 40, "--output-prefix", prefix) == 0
        parts = sum(fio.read_channels_csv(f"{prefix}_{name}.csv").data[:, 0]
                    for name in ("dominant", "weak", "noise"))
        assert np.max(np.abs(parts - wave)) <= 1e-12 * np.max(np.abs(wave))
        # L = 20: a wide 20 x 41 trajectory
        assert run("separate", path, "--method", "gsvd", "--second", reference, "--layout", "hankel",
                   "--window-length", 20, "--output-prefix", tmp_path / "w") == 1
        assert "ShapeError" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["svd", "gsvd", "hankel"])
    def test_decompositions_counts_the_factorizations_run(self, tmp_path, mixture_csv,
                                                          monkeypatch, method):
        route = []
        if method == "gsvd":
            run("synth", "mixture", "--seed", 2, "--output-prefix", tmp_path / "ref")
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
        # hankel: one QR per block of 8 L = 240 of the 371 windows, then one SVD
        assert calls == {"svd": {"svd": 1, "qr": 0}, "gsvd": {"svd": 2, "qr": 2},
                         "hankel": {"svd": 1, "qr": 2}}[method]

    @pytest.mark.parametrize("method", ["svd", "gsvd"])
    def test_parts_equal_the_estimator_subspaces(self, tmp_path, mixture_csv, method):
        run("synth", "mixture", "--seed", 2, "--output-prefix", tmp_path / "ref")
        reference = f"{tmp_path / 'ref'}_signals.csv"
        route = ["--second", reference] if method == "gsvd" else []
        prefix = tmp_path / "sep"
        assert run("separate", mixture_csv, "--method", method, *route,
                   "--output-prefix", prefix) == 0
        x = fio.read_channels_csv(mixture_csv).data
        b = fio.read_channels_csv(reference).data if method == "gsvd" else None
        sep = SubspaceSeparator(method=method).fit(x, B=b)
        cut = read_json(f"{prefix}_report.json")["results"]["cutoff"]
        assert (cut["m"], cut["f"]) == sep.cutoffs()
        for name, part in zip(("dominant", "weak", "noise"), sep.subspaces()):
            # %.17g round-trips every float64, so the files hold the parts exactly
            assert np.array_equal(fio.read_channels_csv(f"{prefix}_{name}.csv").data, part)


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

    def test_threshold_writes_mask(self, tmp_path, texture_pgm):
        prefix = tmp_path / "scan"
        run("scan", texture_pgm, "--window-size", 5, "--stride", 5,
            "--threshold", 100, "--output-prefix", prefix)
        mask = fio.read_pgm(f"{prefix}_mask.pgm")
        assert set(np.unique(mask)) <= {0, 255}
        assert np.all(mask[:, :2] == 255)  # smooth half flagged
        assert np.all(mask[:, 2:] == 0)

    def test_window_larger_than_image_fails(self, tmp_path, texture_pgm):
        assert run("scan", texture_pgm, "--window-size", 50,
                   "--output-prefix", tmp_path / "x") == 1

    def test_density_metric_and_auto_order(self, tmp_path, texture_pgm):
        assert run("scan", texture_pgm, "--window-size", 5, "--stride", 5,
                   "--metric", "information-density", "--output-prefix", tmp_path / "d") == 0
        assert run("scan", texture_pgm, "--window-size", 5, "--stride", 5,
                   "--order", "auto", "--delta", "0.05", "--output-prefix", tmp_path / "a") == 0
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

    def test_default_mixture_feeds_separate(self, tmp_path):
        prefix = tmp_path / "m"
        run("synth", "mixture", "--output-prefix", prefix)
        assert run("separate", f"{prefix}_signals.csv", "--output-prefix", tmp_path / "s") == 0


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
    (["scan", "img.pgm", "--order", "x"], "order must be an integer or 'auto', got 'x'"),
    (["separate", "a.csv", "--offsets", "1,x"], "expected a comma-separated integer list, got '1,x'"),
    (["synth", "texture", "--region", "1,2,3"], "region must be x,y,width,height,tag"),
    (["synth", "texture", "--region", "1,2,x,4,rough"], "region coordinates must be integers"),
])
def test_malformed_option_value_exits_2(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        run(*argv, "--output-prefix", tmp_path / "x")
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err


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
