"""Command-line surface: ``separate``, ``scan`` and ``synth``.

Each command returns a :class:`RunReport`; :func:`main` times it, writes it
as a versioned JSON report next to the outputs, exits 0 only when all files
were written, and routes all processing errors to stderr with a nonzero
status (2 for parse/usage problems, 1 for everything else).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import io as fio
from . import linalg, signal
from .errors import ParseError, SvdsepError
from .image import WindowConfig, _check_threshold, sliding_scan, threshold_map
from .synth import TAG_CODES, MixtureSpec, Region, TextureSpec, gen_mixture, gen_texture

SCHEMA_VERSION = 1


@dataclass
class RunReport:
    """Audit record of one command invocation."""

    command: str
    inputs: list
    parameters: dict
    results: dict
    work_counters: dict = field(default_factory=dict)
    wall_time_ms: float = 0.0  # from after argument parsing to before the report write
    schema_version: int = SCHEMA_VERSION

    def to_json(self) -> str:
        return json.dumps(_jsonable(asdict(self)), indent=2)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        if math.isnan(f):
            return "nan"
        return f
    return obj


def _region_arg(text: str) -> Region:
    parts = text.split(",")
    if len(parts) != 5:
        raise argparse.ArgumentTypeError(f"region must be x,y,width,height,tag, got {text!r}")
    try:
        x, y, w, h = (int(p) for p in parts[:4])
    except ValueError:
        raise argparse.ArgumentTypeError(f"region coordinates must be integers: {text!r}")
    return Region(x=x, y=y, width=w, height=h, tag=parts[4].strip())


def _config(cls, args, **fixed):
    """``cls`` from ``fixed`` and the parsed flags named as its other fields:
    a flag not given (None) leaves its field to the dataclass default."""
    given = {f.name: getattr(args, f.name) for f in fields(cls) if f.name not in fixed}
    return cls(**{name: value for name, value in given.items() if value is not None}, **fixed)


def _refuse_unread(rules) -> None:
    """Refuse, before any input is opened, each rule's flag that was ``given``
    but is not ``read``: a flag the run ignores is an error, not a silent no-op."""
    for flag, given, read, scope in rules:
        if given and not read:
            raise ParseError(f"{flag} applies to {scope} only")


def _reference_of(path, name, spill=None):
    """The ``linalg._reference`` of the signal CSV at ``path``, read in TSQR
    blocks and never held whole, and its labels. With ``spill``, a binary
    file, each block is also written to it as the TSQR takes it, 8 bytes per
    entry in row order, for :func:`_spilled_rows` to read back."""

    def spilled(blocks):
        for block in blocks:
            block.tofile(spill)
            yield block

    with contextlib.closing(fio._csv_blocks(path, True, linalg._block_rows)) as blocks:
        labels = next(blocks)
        reduced = linalg._reference(blocks if spill is None else spilled(blocks), name)
    fio._named(path, signal._check_samples, reduced.shape)
    return reduced, labels


def _spill_beside(output_prefix):
    """An unnamed binary file in the directory of ``output_prefix``, for
    :func:`_reference_of` to spill to: beside the outputs, not in a temporary
    directory that may be held in memory. A fault names the directory, not
    the random name the file was tried under."""
    directory = os.path.dirname(output_prefix) or os.curdir
    try:
        return tempfile.TemporaryFile(dir=directory)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, directory) from None


def _spilled_rows(spill, width):
    """``rows(r0, r1)``: rows ``[r0, r1)`` of the table of ``width`` columns
    that :func:`_reference_of` spilled, read back by offset."""

    def rows(r0, r1):
        spill.seek(r0 * width * 8)
        return np.fromfile(spill, np.float64, (r1 - r0) * width).reshape(r1 - r0, width)

    return rows


def cmd_separate(args) -> RunReport:
    # Three routes, chosen here alone: svd or gsvd on channel columns, svd on a hankel layout.
    _refuse_unread((
        ("--second", args.second is not None, args.method == "gsvd", "--method gsvd"),
        ("--method gsvd", args.method == "gsvd", args.layout == "channel-columns",
         "--layout channel-columns"),
        ("--window-length", args.window_length is not None, args.layout == "hankel", "--layout hankel"),
    ))
    if args.method == "gsvd" and args.second is None:
        raise ParseError("--method gsvd requires --second CSV")
    if args.layout == "hankel" and args.window_length is None:
        raise ParseError("hankel layout requires --window-length")
    # A hankel layout checks --window-length before the input is read.
    hankel = signal.EmbedLayout.hankel(args.window_length) if args.layout == "hankel" else None
    with _spill_beside(args.output_prefix) if args.method == "gsvd" else contextlib.nullcontext() as spill:
        if args.method == "gsvd":
            # Neither recording is held. Each enters the GSVD only through its
            # triangle, built as it is parsed in TSQR blocks, the reference
            # first; the bands are then A's spilled rows times n x n matrices.
            reference = _reference_of(args.second, "B")[0]
            triangle, labels = _reference_of(args.input, "A", spill)
            decomp = linalg.gsvd(triangle, reference)
            n_samples, width = decomp.shape
            rows_of_a = _spilled_rows(spill, width)
            values, values_key = decomp.generalized_values, "generalized_values"
            rank_info = {"infinite_values": int(np.sum(np.isinf(decomp.balanced_values)))}
        else:
            channels = fio.read_channels_csv(args.input)
            (n_samples, width), labels = channels.data.shape, channels.labels
            a = signal.embed(channels, hankel or signal.EmbedLayout.channel_columns(n_samples))
            del channels  # leave a, a view, the only holder of the samples
            decomp = linalg.streamed_svd(a.T) if hankel else linalg.svd(a)
            del a
            rows_of_a = None
            values, values_key = decomp.singular_values[: decomp.numerical_rank], "singular_values"
            rank_info = {"numerical_rank": decomp.numerical_rank}
        cut = signal.cutoff(decomp)
        outputs = [f"{args.output_prefix}_{name}.csv" for name in ("dominant", "weak", "noise")]
        blocks = signal._band_blocks(decomp, cut, rows_of_a)  # all three parts, a block of rows at a time
        fio._write_channel_tables(outputs, (n_samples, width), blocks, labels)

    return RunReport(
        command="separate",
        inputs=[args.input] + ([args.second] if args.second else []),
        parameters={
            "method": args.method,
            "layout": args.layout,
            "window_length": hankel.window_length if hankel else n_samples,
            "output_prefix": args.output_prefix,
        },
        results={
            "cutoff": {"m": cut.m, "f": cut.f, "peak_values": list(cut.peak_values),
                       "method": cut.method},
            values_key: values,
            **rank_info,
            "egv_profile": asdict(cut.profile),
            "outputs": outputs,
        },
        work_counters={"decompositions": decomp.factorizations},
    )


def cmd_scan(args) -> RunReport:
    _refuse_unread((
        ("--polarity", args.polarity is not None, args.threshold is not None, "runs with --threshold"),
    ))
    polarity = "above" if args.polarity is None else args.polarity
    if args.threshold is not None:
        _check_threshold(args.threshold, polarity)  # before the scan writes its map files
    # WindowConfig checks the order against the window before the image is read.
    cfg = _config(WindowConfig, args)
    # No local keeps the image: it is freed before the outputs are written.
    smap = sliding_scan(fio.load_gray_image(args.input), cfg)

    fio.write_grid_csv(f"{args.output_prefix}_map.csv", smap.grid)
    fio.write_pgm(f"{args.output_prefix}_map.pgm", fio.render_grid_u8(smap.grid))
    outputs = [f"{args.output_prefix}_map.csv", f"{args.output_prefix}_map.pgm"]

    mask_stats = None
    if args.threshold is not None:
        mask = threshold_map(smap, args.threshold, polarity=polarity)
        mask_stats = {"flagged": int(mask.sum()), "total": int(mask.size)}
        mask *= np.uint8(255)  # in place: no second mask-sized plane
        fio.write_pgm(f"{args.output_prefix}_mask.pgm", mask)
        outputs.append(f"{args.output_prefix}_mask.pgm")

    return RunReport(
        command="scan",
        inputs=[args.input],
        parameters={
            **asdict(cfg),
            "threshold": args.threshold, "polarity": polarity,
            "output_prefix": args.output_prefix,
        },
        results={
            "grid_rows": smap.grid_rows, "grid_cols": smap.grid_cols,
            "min": float(smap.grid.min()), "max": float(smap.grid.max()),
            "mean": float(smap.grid.mean()),
            "mask": mask_stats, "outputs": outputs,
        },
        work_counters={"decompositions": smap.decompositions},
    )


def cmd_synth(args) -> RunReport:
    if args.kind == "mixture":
        spec = _config(MixtureSpec, args)
        channels, (k_m, k_f) = gen_mixture(spec)
        out = f"{args.output_prefix}_signals.csv"
        fio.write_channels_csv(out, channels)
        results = {"k_m": k_m, "k_f": k_f, "outputs": [out]}
    else:
        # TextureSpec gives each tag not given its default amplitude.
        amplitudes = {"smooth": args.noise_smooth, "rough": args.noise_rough, "anomaly-band": args.noise_anomaly}
        spec = _config(TextureSpec, args, noise_amplitude={t: a for t, a in amplitudes.items() if a is not None})
        img, mask = gen_texture(spec)
        img_path = f"{args.output_prefix}_image.pgm"
        mask_path = f"{args.output_prefix}_mask.pgm"
        fio.write_pgm(img_path, img.to_uint8())
        fio.write_pgm(mask_path, mask.astype(np.uint8))
        results = {"tag_codes": TAG_CODES,
                   "outputs": [img_path, mask_path]}

    return RunReport(
        command=f"synth {args.kind}",
        inputs=[],
        parameters=asdict(spec),
        results=results,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svdsep",
        description="Subspace separation of multichannel signals and sliding-window texture maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Options of every command: main writes and echoes the report they name.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output-prefix", required=True)
    common.add_argument("--json", action="store_true", help="echo the report to stdout")

    p_sep = sub.add_parser("separate", parents=[common], help="split a signal CSV into dominant/weak/noise parts")
    p_sep.add_argument("input", help="signal CSV, one column per channel")
    p_sep.add_argument("--method", choices=["svd", "gsvd"], default="svd")
    p_sep.add_argument("--second", help="gsvd method only: reference CSV")
    p_sep.add_argument("--layout", choices=["channel-columns", "hankel"], default="channel-columns")
    p_sep.add_argument("--window-length", type=int, default=None,
                       help="hankel layout only (required there): samples per window")
    p_sep.set_defaults(func=cmd_separate)

    p_scan = sub.add_parser("scan", parents=[common], help="sliding-window smoothness map of a grayscale image")
    p_scan.add_argument("input", help="PGM or 8-bit grayscale PNG image")
    p_scan.add_argument("--window-size", type=int, default=5)
    # None marks an option not given: WindowConfig's default stands in for it,
    # and --polarity is refused where unread.
    p_scan.add_argument("--stride", type=int, default=None)
    p_scan.add_argument("--order", type=int, default=None,
                        help="smoothness order n, 1 <= n < window size (default 1)")
    p_scan.add_argument("--threshold", type=float, default=None)
    p_scan.add_argument("--polarity", choices=["above", "below"], default=None,
                        help="--threshold only (default above)")
    p_scan.set_defaults(func=cmd_scan)

    p_synth = sub.add_parser("synth", help="generate seeded synthetic data with ground truth")
    synth_sub = p_synth.add_subparsers(dest="kind", required=True)

    p_mix = synth_sub.add_parser("mixture", parents=[common], help="dominant+weak+noise channel mixture CSV")
    p_mix.add_argument("--samples", type=int, default=400)
    p_mix.add_argument("--channels", type=int, default=8)
    p_mix.add_argument("--dominant-rank", type=int, default=2)
    p_mix.add_argument("--weak-rank-span", type=int, default=2)
    p_mix.add_argument("--dominant-period", type=int, default=40)
    # A flag without a default here leaves its field to the spec's default.
    p_mix.add_argument("--weak-period", type=int)
    p_mix.add_argument("--ratio-dominant-weak", type=float, dest="energy_ratio_dominant_weak",
                       metavar="RATIO_DOMINANT_WEAK")
    p_mix.add_argument("--ratio-weak-noise", type=float, dest="energy_ratio_weak_noise",
                       metavar="RATIO_WEAK_NOISE")
    p_mix.add_argument("--seed", type=int)
    p_mix.set_defaults(func=cmd_synth)

    p_tex = synth_sub.add_parser("texture", parents=[common], help="smooth/rough/anomaly texture PGM")
    p_tex.add_argument("--width", type=int, default=40)
    p_tex.add_argument("--height", type=int, default=40)
    p_tex.add_argument("--region", action="append", type=_region_arg, dest="regions", metavar="REGION",
                       help="x,y,width,height,tag (repeatable); tags: smooth, rough, anomaly-band")
    p_tex.add_argument("--noise-smooth", type=float)
    p_tex.add_argument("--noise-rough", type=float)
    p_tex.add_argument("--noise-anomaly", type=float)
    p_tex.add_argument("--base-level", type=float)
    p_tex.add_argument("--seed", type=int)
    p_tex.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    """Run one command, then stamp, write and (on ``--json``) echo its report,
    or, if it fails, remove the report an earlier run may have left.

    The command's LAPACK calls run on one OpenBLAS thread; the process's
    thread count is restored however the command ends.
    """
    args = build_parser().parse_args(argv)
    # Free the parser's young reference cycles (~58 KiB) before the command
    # runs; a full collection would walk the whole heap, 40 times as long.
    gc.collect(1)
    report_path = f"{args.output_prefix}_report.json"
    t0 = time.perf_counter()
    try:
        with linalg._one_blas_thread():
            report = args.func(args)
        report.wall_time_ms = (time.perf_counter() - t0) * 1e3
        text = report.to_json()
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        if args.json:
            print(text)
        return 0
    except ParseError as exc:
        message, status = f"parse error: {exc}", 2
    except OSError as exc:
        message, status = str(exc), 2
    except (SvdsepError, MemoryError) as exc:
        # numpy's MemoryError is a subclass with a private name
        kind = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        message, status = f"error: {kind}: {exc}", 1
    with contextlib.suppress(OSError):  # absent, or a directory the write could not replace
        os.remove(report_path)
    print(f"svdsep: {message}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
