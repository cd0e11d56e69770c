"""Seeded generators for mixtures and textures with known ground truth.

The mixture generator plants an exact low-rank tier structure: the
dominant and weak components are built from mutually orthonormal column
and row factors, so the clean channel matrix has exactly
``dominant_rank + weak_rank_span`` nonzero singular values, flat within
each tier, with tier energies realizing the requested ratios exactly.
All randomness flows from one ``numpy.random.default_rng(seed)``, making
every output bit-identical per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GeneratorSpecError
from .image import GrayImage
from .signal import ChannelSet

__all__ = [
    "MixtureSpec",
    "TextureSpec",
    "Region",
    "gen_mixture",
    "mixture_components",
    "gen_texture",
    "TAG_SMOOTH",
    "TAG_ROUGH",
    "TAG_ANOMALY",
    "TAG_CODES",
]

TAG_SMOOTH = "smooth"
TAG_ROUGH = "rough"
TAG_ANOMALY = "anomaly-band"
TAG_CODES = {TAG_SMOOTH: 0, TAG_ROUGH: 1, TAG_ANOMALY: 2}

_DEFAULT_AMPLITUDES = {TAG_SMOOTH: 1e-3, TAG_ROUGH: 0.8, TAG_ANOMALY: 1e-3}


@dataclass(frozen=True)
class MixtureSpec:
    """Parameters of a synthetic dominant+weak+noise channel mixture.

    ``weak_period=None`` defaults to half the dominant period (the weak
    source oscillates roughly twice as fast as the dominant one).
    ``energy_ratio_weak_noise=inf`` disables the noise term entirely.
    """

    samples: int
    channels: int
    dominant_rank: int
    weak_rank_span: int
    dominant_period: int
    weak_period: int | None = None
    energy_ratio_dominant_weak: float = 100.0
    energy_ratio_weak_noise: float = 100.0
    seed: int = 0

    def __post_init__(self):
        if self.dominant_rank < 1 or self.weak_rank_span < 1:
            raise GeneratorSpecError("dominant_rank and weak_rank_span must each be >= 1")
        if self.dominant_rank + self.weak_rank_span >= self.channels:
            raise GeneratorSpecError(
                f"dominant_rank + weak_rank_span = {self.dominant_rank + self.weak_rank_span} "
                f"must be < channels = {self.channels}"
            )
        if self.samples < self.channels:
            raise GeneratorSpecError(f"need samples >= channels, got {self.samples} < {self.channels}")
        if self.dominant_period < 2:
            raise GeneratorSpecError(f"dominant_period must be >= 2, got {self.dominant_period}")
        if self.weak_period is not None and self.weak_period < 2:
            raise GeneratorSpecError(f"weak_period must be >= 2, got {self.weak_period}")
        # nan fails both tests; an infinite weak/noise ratio means no noise
        if not (1 <= self.energy_ratio_dominant_weak < math.inf and self.energy_ratio_weak_noise >= 1):
            raise GeneratorSpecError("energy ratios must be >= 1, and the dominant/weak one finite")

    @property
    def weak_rank_end(self) -> int:
        return self.dominant_rank + self.weak_rank_span

    @property
    def effective_weak_period(self) -> int:
        return self.weak_period if self.weak_period is not None else max(2, self.dominant_period // 2)


def _quasi_periodic(samples: int, period: int, harmonic: int, rng, jitter: float = 0.25) -> np.ndarray:
    """Sinusoid at the given harmonic of 1/period with per-cycle phase jitter."""
    t = np.arange(samples, dtype=np.float64)
    cycle = (t // period).astype(np.intp)
    phases = rng.normal(0.0, jitter, size=int(cycle[-1]) + 1)
    return np.sin(2.0 * np.pi * harmonic * t / period + phases[cycle])


def mixture_components(spec: MixtureSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three (samples, channels) addends of a mixture, before summing.

    The dominant and weak terms use mutually orthonormal column and row
    factors scaled so each component's Frobenius energy hits its target
    exactly; the noise term is i.i.d. Gaussian rescaled the same way.
    Useful for validating what the generator planted.
    """
    rng = np.random.default_rng(spec.seed)
    km, kf = spec.dominant_rank, spec.weak_rank_end
    span = spec.weak_rank_span

    base = np.column_stack(
        [_quasi_periodic(spec.samples, spec.dominant_period, h + 1, rng) for h in range(km)]
        + [_quasi_periodic(spec.samples, spec.effective_weak_period, h + 1, rng) for h in range(span)]
    )
    q, _ = np.linalg.qr(base)                                  # (samples, kf) orthonormal
    mix, _ = np.linalg.qr(rng.standard_normal((spec.channels, kf)))  # (channels, kf) orthonormal

    e_weak = 1.0
    e_dom = spec.energy_ratio_dominant_weak * e_weak
    e_noise = 0.0 if math.isinf(spec.energy_ratio_weak_noise) else e_weak / spec.energy_ratio_weak_noise

    dominant = math.sqrt(e_dom / km) * (q[:, :km] @ mix[:, :km].T)
    weak = math.sqrt(e_weak / span) * (q[:, km:] @ mix[:, km:].T)
    if e_noise > 0.0:
        noise = rng.standard_normal((spec.samples, spec.channels))
        noise *= math.sqrt(e_noise) / np.linalg.norm(noise)
    else:
        noise = np.zeros((spec.samples, spec.channels))
    return dominant, weak, noise


def gen_mixture(spec: MixtureSpec) -> tuple[ChannelSet, tuple[int, int]]:
    """Generate a channel mixture and its ground-truth boundaries (k_m, k_f).

    The channel matrix is the sum of the :func:`mixture_components`
    addends: the dominant and weak parts span exactly ``dominant_rank``
    and ``weak_rank_span`` dimensions of quasi-periodic waveforms with the
    requested energy ratios, plus i.i.d. Gaussian noise.
    """
    dominant, weak, noise = mixture_components(spec)
    labels = tuple(f"ch{j}" for j in range(spec.channels))
    return ChannelSet(dominant + weak + noise, labels=labels), (spec.dominant_rank, spec.weak_rank_end)


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangle tagged smooth / rough / anomaly-band."""

    x: int
    y: int
    width: int
    height: int
    tag: str

    def __post_init__(self):
        if self.tag not in TAG_CODES:
            raise GeneratorSpecError(f"unknown region tag {self.tag!r}")
        if self.width < 1 or self.height < 1:
            raise GeneratorSpecError(f"region sides must be >= 1, got {self.width}x{self.height}")
        if self.x < 0 or self.y < 0:
            raise GeneratorSpecError("region origin must be nonnegative")


@dataclass(frozen=True)
class TextureSpec:
    """Layout of a synthetic textured image.

    Pixels default to smooth; rectangles override. Anomaly bands may sit
    inside rough regions (they win), but a smooth and a rough rectangle
    claiming the same pixel are contradictory.

    ``base_level`` 0.5 puts smooth and anomaly-band pixels on the 8-bit
    rounding tie (0.5 * 255 = 127.5): once quantized by ``to_uint8``, any
    amplitude below about 1/255 reads as the same half-127, half-128
    pattern, so the 8-bit step, not the amplitude, sets their noise.
    """

    width: int
    height: int
    regions: tuple[Region, ...] = ()
    noise_amplitude: dict[str, float] = field(default_factory=lambda: dict(_DEFAULT_AMPLITUDES))
    base_level: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.width < 2 or self.height < 2:
            raise GeneratorSpecError(f"image must be at least 2x2, got {self.width}x{self.height}")
        if not 0.0 < self.base_level < 1.0:
            raise GeneratorSpecError(f"base_level must lie in (0, 1), got {self.base_level}")
        amps = dict(_DEFAULT_AMPLITUDES)
        amps.update(self.noise_amplitude)
        for tag, amp in amps.items():
            if tag not in TAG_CODES:
                raise GeneratorSpecError(f"unknown amplitude tag {tag!r}")
            if not 0 <= amp < math.inf:  # nan too
                raise GeneratorSpecError(f"noise amplitude for {tag!r} must be finite and nonnegative")
        object.__setattr__(self, "noise_amplitude", amps)
        object.__setattr__(self, "regions", tuple(self.regions))
        for reg in self.regions:
            if reg.x + reg.width > self.width or reg.y + reg.height > self.height:
                raise GeneratorSpecError(
                    f"region {reg.tag!r} at ({reg.x}, {reg.y}) size {reg.width}x{reg.height} "
                    f"exceeds image {self.width}x{self.height}"
                )


def gen_texture(spec: TextureSpec) -> tuple[GrayImage, np.ndarray]:
    """Generate a textured image and its per-pixel ground-truth tag mask.

    Smooth pixels are base_level plus small uniform noise, rough pixels
    high-amplitude uniform noise, anomaly bands smooth strips (same model
    as smooth, distinct tag). Mask codes: 0 smooth, 1 rough, 2 anomaly.
    """
    tags = np.zeros((spec.height, spec.width), dtype=np.int8)
    claimed = np.full((spec.height, spec.width), -1, dtype=np.int8)
    for reg in spec.regions:
        if reg.tag == TAG_ANOMALY:
            continue
        code = TAG_CODES[reg.tag]
        patch = claimed[reg.y : reg.y + reg.height, reg.x : reg.x + reg.width]
        if np.any((patch != -1) & (patch != code)):
            raise GeneratorSpecError(f"region {reg.tag!r} at ({reg.x}, {reg.y}) overlaps a contradictory region")
        patch[...] = code
        tags[reg.y : reg.y + reg.height, reg.x : reg.x + reg.width] = code
    for reg in spec.regions:
        if reg.tag == TAG_ANOMALY:
            tags[reg.y : reg.y + reg.height, reg.x : reg.x + reg.width] = TAG_CODES[TAG_ANOMALY]

    rng = np.random.default_rng(spec.seed)
    u = rng.uniform(-0.5, 0.5, size=(spec.height, spec.width))
    amp = np.empty((spec.height, spec.width))
    for tag, code in TAG_CODES.items():
        amp[tags == code] = spec.noise_amplitude[tag]
    pixels = np.clip(spec.base_level + amp * u, 0.0, 1.0)
    return GrayImage(pixels), tags
