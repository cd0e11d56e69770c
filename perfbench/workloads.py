"""Seeded inputs, command lines and output checks of the four workloads.

Inputs are built with ``svdsep.synth`` and written with ``svdsep.io``; the
program then sees only the files.  Checks read the outputs back with plain
numpy, not with the program's own readers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NAMES = ("separate-svd", "separate-gsvd", "separate-hankel", "scan")

CHANNELS = 8
PERIOD = 40            # dominant period of the mixture and the Hankel window length
PLANTED_CUTOFF = (2, 4)
SECOND_SEED_OFFSET = 1_000_003  # seed of the gsvd reference recording, relative to --seed
WINDOW = 5
THRESHOLD = 100.0
SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Scale:
    """Input sizes: ``samples`` rows per recording, ``side`` pixels per image side."""

    samples: int
    side: int

    @property
    def band(self) -> tuple[int, int]:
        """Origin (x = y) and side of the square smooth anomaly band."""
        return 3 * self.side // 8, self.side // 4


FULL = Scale(samples=4000, side=512)
SMOKE = Scale(samples=400, side=48)


def generate(svdsep, name: str, seed: int, scale: Scale) -> dict:
    """Build the workload's inputs in memory: file name -> ChannelSet or uint8 image."""
    synth = svdsep.synth
    if name == "scan":
        origin, side = scale.band
        spec = synth.TextureSpec(
            width=scale.side, height=scale.side, seed=seed,
            regions=(synth.Region(0, 0, scale.side, scale.side, synth.TAG_ROUGH),
                     synth.Region(origin, origin, side, side, synth.TAG_ANOMALY)),
        )
        image, _ = synth.gen_texture(spec)
        return {"image.pgm": image.to_uint8()}

    def mixture(s: int):
        spec = synth.MixtureSpec(samples=scale.samples, channels=CHANNELS,
                                 dominant_rank=PLANTED_CUTOFF[0],
                                 weak_rank_span=PLANTED_CUTOFF[1] - PLANTED_CUTOFF[0],
                                 dominant_period=PERIOD, seed=s)
        return synth.gen_mixture(spec)[0]

    a = mixture(seed)
    if name == "separate-gsvd":
        return {"a.csv": a, "b.csv": mixture(seed + SECOND_SEED_OFFSET)}
    if name == "separate-hankel":
        return {"a.csv": svdsep.signal.ChannelSet(a.data[:, :1], labels=a.labels[:1])}
    return {"a.csv": a}


def write_inputs(svdsep, inputs: dict, workdir: Path) -> None:
    for fname, value in inputs.items():
        if fname.endswith(".pgm"):
            svdsep.io.write_pgm(workdir / fname, value)
        else:
            svdsep.io.write_channels_csv(workdir / fname, value)


def command(name: str, workdir: Path) -> list[str]:
    """The ``svdsep`` argv of one invocation."""
    prefix = str(workdir / "out")
    a = str(workdir / "a.csv")
    if name == "separate-svd":
        return ["separate", a, "--method", "svd", "--output-prefix", prefix]
    if name == "separate-gsvd":
        return ["separate", a, "--method", "gsvd", "--second", str(workdir / "b.csv"),
                "--output-prefix", prefix]
    if name == "separate-hankel":
        return ["separate", a, "--layout", "hankel", "--window-length", str(PERIOD),
                "--output-prefix", prefix]
    return ["scan", str(workdir / "image.pgm"), "--window-size", str(WINDOW), "--stride", "1",
            "--threshold", repr(THRESHOLD), "--output-prefix", prefix]


def _outputs(name: str, workdir: Path) -> list[Path]:
    suffixes = ("map.csv", "map.pgm", "mask.pgm") if name == "scan" else \
        ("dominant.csv", "weak.csv", "noise.csv")
    return [workdir / f"out_{s}" for s in suffixes]


def digest(name: str, workdir: Path) -> dict:
    """SHA-256 of every output file, and of the report without its wall time."""
    out = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in _outputs(name, workdir)}
    report = json.loads((workdir / "out_report.json").read_text())
    report.pop("wall_time_ms")
    out["out_report.json"] = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    return out


def _read_pgm(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    magic, width, height, maxval = raw.split(maxsplit=4)[:4]
    if magic != b"P5" or maxval != b"255":
        raise ValueError(f"{path.name}: not an 8-bit binary PGM")
    w, h = int(width), int(height)
    return np.frombuffer(raw[-w * h:], dtype=np.uint8).reshape(h, w)


def _read_csv(path: Path, header: bool) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=int(header), ndmin=2)


def check(name: str, workdir: Path, scale: Scale) -> list[str]:
    """Problems found in one invocation's outputs; empty when all checks pass."""
    report = json.loads((workdir / "out_report.json").read_text())["results"]
    if name == "scan":
        return _check_scan(report, workdir, scale)
    problems = []
    cut = (report["cutoff"]["m"], report["cutoff"]["f"])
    if name == "separate-svd" and cut != PLANTED_CUTOFF:
        problems.append(f"cutoff (m, f) = {cut}, planted {PLANTED_CUTOFF}")
    given = _read_csv(workdir / "a.csv", header=True)
    if name == "separate-gsvd":
        problems += _check_gsvd(report, given, _read_csv(workdir / "b.csv", header=True))
    parts = sum(_read_csv(p, header=True) for p in _outputs(name, workdir))
    if parts.shape != given.shape:
        return problems + [f"parts have shape {parts.shape}, input {given.shape}"]
    rel = np.linalg.norm(parts - given) / np.linalg.norm(given)
    if not rel <= SUM_TOLERANCE:
        problems.append(f"dominant + weak + noise differ from the input by {rel:.3g} relative")
    return problems


def _variation_argmax(values: np.ndarray) -> int:
    """1-based argmax of the entropy variations of the energy gaps 2 v_{k+1}^2."""
    gaps = 2.0 * np.append(values[1:], 0.0) ** 2
    p = gaps / gaps.sum()
    entropy = -p * np.log(np.where(p > 0, p, 1.0))
    return int(np.argmax(np.diff(entropy, prepend=0.0)[:-1])) + 1


def _check_gsvd(report: dict, a: np.ndarray, b: np.ndarray) -> list[str]:
    """Generalized values and m against an independent route.

    The planted m = 2 of the recording is not always the answer here: the
    reference is a second mixture whose own dominant plane can lean into
    the recording's, and on 6 of the seeds 0-99 the variation chain then
    peaks at 1.  So the values are checked against the eigenvalues of the
    pencil (A^T A, B^T B), and m against the chain recomputed from them.
    """
    got = np.asarray(report["generalized_values"], dtype=float)
    pencil = np.linalg.eigvals(np.linalg.solve(b.T @ b, a.T @ a))
    want = np.sort(np.sqrt(pencil.real))[::-1]
    problems = []
    if got.shape != want.shape or not np.allclose(got, want, rtol=1e-6, atol=0.0):
        problems.append("generalized values differ from the pencil's eigenvalues")
    elif report["cutoff"]["m"] != _variation_argmax(want):
        problems.append(f"cutoff m = {report['cutoff']['m']}, "
                        f"independent chain gives {_variation_argmax(want)}")
    return problems


def _check_scan(report: dict, workdir: Path, scale: Scale) -> list[str]:
    cells = scale.side - WINDOW + 1
    grid = _read_csv(workdir / "out_map.csv", header=False)
    mask = _read_pgm(workdir / "out_mask.pgm") == 255
    if grid.shape != (cells, cells) or mask.shape != (cells, cells):
        return [f"grid {grid.shape} and mask {mask.shape}, expected {(cells, cells)}"]
    problems = []
    if not np.array_equal(mask, grid >= THRESHOLD):
        problems.append("mask disagrees with the grid at the threshold")
    if report["mask"]["flagged"] != int(mask.sum()):
        problems.append("report's flagged count disagrees with the mask")
    origin, side = scale.band
    top = np.arange(cells)
    inside = (top >= origin) & (top + WINDOW <= origin + side)     # window wholly in the band
    touches = (top + WINDOW > origin) & (top < origin + side)      # window meets the band
    in_band = mask[np.ix_(inside, inside)]
    if not in_band.all():
        problems.append(f"{in_band.size - int(in_band.sum())} of {in_band.size} band windows not flagged")
    rough = ~(touches[:, None] & touches[None, :])
    if mask[rough].any():
        problems.append(f"{int(mask[rough].sum())} rough windows flagged")
    return problems
