"""Input validation helpers shared by all modules.

These mirror the conventions of scikit-learn's ``check_array``: accept
anything array-like, hand back a float64 ndarray, and fail loudly with a
specific exception instead of letting NaNs propagate.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError, RangeError, ShapeError


def check_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate a real 2-D array: at least 1x1, all entries finite.

    Returns a float64 array (a view when the input already qualifies).
    """
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeError(f"{name} must have at least one row and one column, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def check_index_range(first: int, last: int, upper: int, name: str = "index range") -> None:
    """Validate a 1-based inclusive index range against an upper bound."""
    if not (1 <= first <= last <= upper):
        raise RangeError(f"{name} [{first}, {last}] must satisfy 1 <= first <= last <= {upper}")
