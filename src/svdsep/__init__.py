"""svdsep: subspace separation of multichannel signals and sliding-window
texture analysis built on SVD/GSVD energy-gap variation.

The package splits a mixed signal matrix into dominant, weak and noise
subspaces by locating peaks in the entropy variation of its singular-value
energy gaps, and maps texture anomalies in grayscale images through a
scale-invariant per-window smoothness metric.

The top level re-exports every module ``__all__`` but ``io``'s (``cli``
and ``validation`` have none): each module's ``__all__`` is the one list of
its public names.
"""

from . import errors, linalg, signal, image, synth, bench
from .errors import *
from .linalg import *
from .signal import *
from .image import *
from .synth import *
from .bench import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__, *linalg.__all__, *signal.__all__, *image.__all__, *synth.__all__, *bench.__all__,
    "__version__",
]
