"""Estimator-style wrappers so the algorithms compose with the wider
scikit-learn ecosystem (pipelines, clone, grid search).

The base class re-implements the ``get_params`` / ``set_params`` protocol
instead of importing scikit-learn, keeping numpy the only runtime
dependency; ``sklearn.base.clone`` and ``Pipeline`` work with these
classes through duck typing.
"""

from __future__ import annotations

import inspect

import numpy as np

from . import linalg, signal
from .errors import ConfigError
from .image import METRIC_SMOOTHNESS, GrayImage, WindowConfig, _check_threshold, sliding_scan, threshold_map
from .validation import check_matrix

__all__ = ["BaseEstimator", "SubspaceSeparator", "SmoothnessScanner"]


class BaseEstimator:
    """Parameter handling following the scikit-learn convention:
    ``__init__`` stores constructor arguments verbatim under the same
    names, and fitted state uses trailing-underscore attributes."""

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return sorted(p.name for p in sig.parameters.values() if p.name != "self")

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ConfigError(f"invalid parameter {key!r} for {type(self).__name__}")
            setattr(self, key, value)
        return self

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


class SubspaceSeparator(BaseEstimator):
    """Learn a dominant/weak/noise split of a channel matrix.

    Parameters
    ----------
    method : {"svd", "gsvd"}
        "svd" fits the spectrum of X alone; "gsvd" compares X against a
        reference matrix passed to ``fit``. The boundaries follow
        :func:`svdsep.signal.cutoff`: two when the spectrum has rank >= 3,
        otherwise one. The svd rank is :func:`svdsep.linalg.svd`'s,
        ``max(m, n) * eps * sigma_1``.

    After ``fit``, ``transform(X)`` maps any matrix with the fitted column
    count onto the learned weak band: the coefficients of X on the band's
    column directions, times those directions. For svd the directions are
    the right singular vectors V_b, so the result is ``X V_b V_b^T``. For
    gsvd, A = U C X^T gives U_b C_b X_b^T = A X^{-T}[:, b] X[:, b]^T, so
    the result is ``X X^{-T}[:, b] X[:, b]^T`` with X the fitted factor.
    Either way, transform of the fitted matrix is its weak band.
    """

    def __init__(self, method="svd"):
        self.method = method

    def fit(self, X, B=None):
        if self.method not in ("svd", "gsvd"):
            raise ConfigError(f"method must be 'svd' or 'gsvd', got {self.method!r}")
        X = check_matrix(X, "X")
        self.n_features_in_ = X.shape[1]
        if self.method == "svd":
            self.spectrum_ = factors = linalg.svd(X)
        else:
            if B is None:
                raise ConfigError("gsvd method requires the reference matrix B")
            self.gsvd_ = factors = linalg.gsvd(X, B)
        self.cutoff_ = signal.cutoff(factors)
        return self

    def _check_fitted(self):
        if not hasattr(self, "cutoff_"):
            raise ConfigError("separator is not fitted yet; call fit first")

    def subspaces(self):
        """The (dominant, weak, noise) reconstructions of the fitted matrix."""
        self._check_fitted()
        factors = self.spectrum_ if self.method == "svd" else self.gsvd_
        return signal.separate(factors, self.cutoff_)

    def cutoffs(self):
        """The fitted boundary indices ``(m, f)``; f may be None."""
        self._check_fitted()
        return self.cutoff_.m, self.cutoff_.f

    def transform(self, X):
        """Map X onto the weak band learned during ``fit``."""
        self._check_fitted()
        X = check_matrix(X, "X")
        if X.shape[1] != self.n_features_in_:
            raise ConfigError(f"X has {X.shape[1]} columns, fitted with {self.n_features_in_}")
        factors = self.spectrum_ if self.method == "svd" else self.gsvd_
        # the weak band, as separate() takes it
        lo, hi = signal._band_ranges(factors, self.cutoff_)[1]
        if self.method == "gsvd":
            return X @ factors.band_matrix(lo, hi)
        directions = factors.right_basis[:, lo:hi]
        return (X @ directions) @ directions.T

    def fit_transform(self, X, B=None):
        return self.fit(X, B=B).transform(X)


class SmoothnessScanner(BaseEstimator):
    """Sliding-window texture metric as a transformer.

    ``transform`` maps a grayscale image (array in [0, 1] or
    :class:`GrayImage`) to the per-window metric grid; ``predict``
    thresholds the grid into a binary anomaly mask. ``order`` and ``delta``
    left as None take :class:`WindowConfig`'s defaults. A knob the scan
    would not read is a :class:`ConfigError`, as in CLI ``scan``: ``order``
    applies to ``metric="smoothness"`` only, ``delta`` to ``order="auto"``
    only. ``fit`` raises whatever ``predict`` would for the parameters.
    """

    def __init__(self, window_size=5, stride=1, metric="smoothness", order=None,
                 delta=None, threshold=None, polarity="above"):
        self.window_size = window_size
        self.stride = stride
        self.metric = metric
        self.order = order
        self.delta = delta
        self.threshold = threshold
        self.polarity = polarity

    def _config(self) -> WindowConfig:
        for name, read, scope in (("order", self.metric == METRIC_SMOOTHNESS, f"metric={METRIC_SMOOTHNESS!r}"),
                                  ("delta", self.order == "auto", "order='auto'")):
            if getattr(self, name) is not None and not read:
                raise ConfigError(f"{name} applies to {scope} only")
        if self.threshold is not None:
            _check_threshold(self.threshold, self.polarity)
        knobs = {name: getattr(self, name) for name in ("order", "delta") if getattr(self, name) is not None}
        return WindowConfig(window_size=self.window_size, stride=self.stride, **knobs)

    def fit(self, X=None, y=None):
        self._config()  # validate parameters; the scanner itself is stateless
        self.fitted_ = True
        return self

    @staticmethod
    def _as_image(X) -> GrayImage:
        return X if isinstance(X, GrayImage) else GrayImage(np.asarray(X, dtype=np.float64))

    def transform(self, X):
        return sliding_scan(self._as_image(X), self._config(), metric=self.metric).grid

    def fit_transform(self, X, y=None):
        return self.fit(X).transform(X)

    def predict(self, X):
        if self.threshold is None:
            raise ConfigError("predict requires the threshold parameter")
        smap = sliding_scan(self._as_image(X), self._config(), metric=self.metric)
        return threshold_map(smap, self.threshold, self.polarity)
