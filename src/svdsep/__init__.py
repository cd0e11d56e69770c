"""svdsep: subspace separation of multichannel signals and sliding-window
texture analysis built on SVD/GSVD energy-gap variation.

The package splits a mixed signal matrix into dominant, weak and noise
subspaces by locating peaks in the entropy variation of its singular-value
energy gaps, and maps texture anomalies in grayscale images through a
scale-invariant per-window smoothness metric.
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    DegeneratePencilError,
    DegenerateSpectrumError,
    GeneratorSpecError,
    InsufficientRankError,
    InvalidInputError,
    LayoutError,
    OrderError,
    ParseError,
    RangeError,
    ShapeError,
    SvdsepError,
)
from .linalg import (
    GsvdResult,
    SpectrumResult,
    frobenius_energy,
    gsvd,
    svd,
    truncated_sum,
)
from .signal import (
    ChannelSet,
    CutoffResult,
    EgvProfile,
    EmbedLayout,
    band_signals,
    cutoff,
    cutoff_from_gsvd,
    cutoff_from_values,
    egv,
    egv_profile,
    embed,
    energy_gap,
    find_cutoff,
    find_two_cutoffs,
    separate,
    singular_energies,
    unembed,
)
from .image import (
    GrayImage,
    SmoothnessMap,
    WindowConfig,
    information_density,
    select_order,
    singular_smoothness,
    sliding_scan,
    threshold_map,
)
from .synth import MixtureSpec, Region, TextureSpec, gen_mixture, gen_texture, mixture_components
from .bench import BenchRecord, run_cutoff_bench, run_scan_bench

__version__ = "0.1.0"

__all__ = [
    "SvdsepError", "InvalidInputError", "ShapeError", "DegeneratePencilError",
    "RangeError", "InsufficientRankError",
    "DegenerateSpectrumError", "OrderError", "ConfigError", "LayoutError",
    "GeneratorSpecError", "ParseError", "ConvergenceError",
    "SpectrumResult", "GsvdResult", "svd", "gsvd", "frobenius_energy",
    "truncated_sum",
    "ChannelSet", "EmbedLayout", "EgvProfile", "CutoffResult", "embed",
    "unembed", "energy_gap", "singular_energies", "egv", "egv_profile",
    "cutoff_from_values", "find_cutoff", "find_two_cutoffs",
    "cutoff_from_gsvd", "cutoff", "separate", "band_signals",
    "GrayImage", "WindowConfig", "SmoothnessMap", "information_density",
    "singular_smoothness", "select_order", "sliding_scan", "threshold_map",
    "MixtureSpec", "TextureSpec", "Region", "gen_mixture", "gen_texture",
    "mixture_components",
    "BenchRecord", "run_cutoff_bench", "run_scan_bench",
    "__version__",
]
