"""Seeded timing helpers behind the bench-ordering acceptance criterion.

Wall times are machine dependent, so downstream assertions should be
ordinal only (suite A slower than suite B); decomposition counts are exact
and deterministic. One warm-up repetition runs before anything is
recorded. End-to-end benchmarking of the CLI pipelines lives in
``perfbench/``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import linalg, signal
from .errors import InvalidInputError
from .image import WindowConfig, sliding_scan
from .synth import MixtureSpec, TextureSpec, gen_mixture, gen_texture

__all__ = [
    "BenchRecord",
    "run_cutoff_bench",
    "run_scan_bench",
    "SUITE_CUTOFF_SVD",
    "SUITE_CUTOFF_GSVD",
    "SUITE_SCAN",
]

SUITE_CUTOFF_SVD = "cutoff-svd"
SUITE_CUTOFF_GSVD = "cutoff-gsvd"
SUITE_SCAN = "scan"


@dataclass(frozen=True)
class BenchRecord:
    suite: str
    problem_size: int
    repetition: int
    wall_time_ms: float
    decompositions: int


def _mixture_matrix(samples: int, seed: int):
    spec = MixtureSpec(samples=samples, channels=8, dominant_rank=2, weak_rank_span=2,
                       dominant_period=max(8, samples // 10), seed=seed)
    channels, _ = gen_mixture(spec)
    return channels.data


def run_cutoff_bench(sizes, reps: int, seed: int = 0) -> list[BenchRecord]:
    """Time both cutoff routes, as the CLI runs them (``signal.cutoff``), on
    seeded mixtures of each sample count.

    Produces ``2 * len(sizes) * reps`` records, each counting the
    factorizations of the decomposition it timed.
    """
    sizes = [int(s) for s in sizes]
    if any(s < 8 for s in sizes):
        raise InvalidInputError("benchmark sizes must be >= 8")
    if reps < 3:
        raise InvalidInputError(f"need reps >= 3, got {reps}")
    records = []
    for size in sizes:
        a = _mixture_matrix(size, seed)
        b = _mixture_matrix(size, seed + 1)
        routes = ((SUITE_CUTOFF_SVD, linalg.svd, (a,)), (SUITE_CUTOFF_GSVD, linalg.gsvd, (a, b)))
        for _, decompose, args in routes:
            signal.cutoff(decompose(*args))  # warm-up, discarded
        for rep in range(reps):
            for suite, decompose, args in routes:
                t0 = time.perf_counter()
                factors = decompose(*args)
                signal.cutoff(factors)
                records.append(BenchRecord(suite, size, rep, (time.perf_counter() - t0) * 1e3,
                                           factors.factorizations))
    return records


def run_scan_bench(window_sizes, image_side: int, reps: int, seed: int = 0) -> list[BenchRecord]:
    """Time the sliding scanner per window size on one seeded texture.

    Stride equals the window size, so the decomposition count follows the
    closed grid formula ``(floor((side - w) / w) + 1)^2`` and strictly
    decreases as windows grow.
    """
    window_sizes = [int(w) for w in window_sizes]
    if any(w < 2 or w > image_side for w in window_sizes):
        raise InvalidInputError("window sizes must lie in [2, image_side]")
    if reps < 1:
        raise InvalidInputError(f"need reps >= 1, got {reps}")
    img, _ = gen_texture(TextureSpec(width=image_side, height=image_side, seed=seed))
    records = []
    for w in window_sizes:
        cfg = WindowConfig(window_size=w, stride=w)
        sliding_scan(img, cfg)  # warm-up, discarded
        for rep in range(reps):
            t0 = time.perf_counter()
            smap = sliding_scan(img, cfg)
            records.append(BenchRecord(SUITE_SCAN, w, rep,
                                       (time.perf_counter() - t0) * 1e3, smap.decompositions))
    return records
