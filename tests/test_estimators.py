import math

import numpy as np
import pytest

from svdsep import estimators, image, linalg
from svdsep.errors import ConfigError, OrderError
from svdsep.estimators import SmoothnessScanner, SubspaceSeparator
from svdsep.image import GrayImage, WindowConfig
from svdsep.synth import MixtureSpec, Region, TextureSpec, gen_mixture, gen_texture


def mixture_matrix(seed=0):
    spec = MixtureSpec(samples=400, channels=8, dominant_rank=2, weak_rank_span=2,
                       dominant_period=40, seed=seed)
    channels, truth = gen_mixture(spec)
    return channels.data, truth


class TestParamProtocol:
    def test_get_params_round_trip(self):
        sep = SubspaceSeparator(method="gsvd")
        params = sep.get_params()
        assert params == {"method": "gsvd"}
        clone = SubspaceSeparator(**params)
        assert clone.get_params() == params

    def test_set_params(self):
        scan = SmoothnessScanner()
        scan.set_params(window_size=7, metric="information-density")
        assert scan.window_size == 7
        assert scan.metric == "information-density"

    def test_invalid_param_rejected(self):
        with pytest.raises(ConfigError):
            SmoothnessScanner().set_params(telescope=1)

    def test_repr_shows_params(self):
        assert "window_size=5" in repr(SmoothnessScanner())

    def test_sklearn_clone_compatible(self):
        base = pytest.importorskip("sklearn.base")
        sep = SubspaceSeparator(method="gsvd")
        cloned = base.clone(sep)
        assert cloned.method == "gsvd"
        scan = base.clone(SmoothnessScanner(window_size=9))
        assert scan.window_size == 9

    def test_sklearn_pipeline_compatible(self):
        pipeline_mod = pytest.importorskip("sklearn.pipeline")
        x, _ = mixture_matrix()
        pipe = pipeline_mod.Pipeline([("separate", SubspaceSeparator())])
        weak = pipe.fit_transform(x)
        assert weak.shape == x.shape


class TestSubspaceSeparator:
    def test_recovers_planted_cutoffs(self):
        x, truth = mixture_matrix(seed=5)
        sep = SubspaceSeparator().fit(x)
        assert sep.cutoffs() == truth

    def test_subspaces_sum_to_reconstruction(self):
        x, _ = mixture_matrix(seed=6)
        sep = SubspaceSeparator().fit(x)
        total = sum(sep.subspaces())
        rec = linalg.truncated_sum(sep.spectrum_, 1, sep.spectrum_.numerical_rank)
        assert np.allclose(total, rec, atol=1e-9)

    def test_transform_projects_onto_weak_band(self):
        x, _ = mixture_matrix(seed=7)
        sep = SubspaceSeparator().fit(x)
        weak_direct = sep.subspaces()[1]
        assert np.allclose(sep.transform(x), weak_direct, atol=1e-9)
        # No second boundary: the weak band runs to the numerical rank. A
        # geometric spectrum's |V| has one peak, so f is absent.
        u, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((400, 3)))
        x = u * [2.0**-1, 2.0**-2, 2.0**-3]
        with pytest.warns(RuntimeWarning, match="no second variation peak"):
            sep = SubspaceSeparator().fit(x)
        assert sep.cutoffs()[1] is None
        assert np.allclose(sep.transform(x), sep.subspaces()[1], atol=1e-9)

    def test_gsvd_method(self):
        x, _ = mixture_matrix(seed=9)
        b, _ = mixture_matrix(seed=10)
        sep = SubspaceSeparator(method="gsvd").fit(x, B=b)
        m, f = sep.cutoffs()
        assert m >= 1 and f is None
        dom, weak, noise = sep.subspaces()
        assert np.linalg.norm(dom + weak + noise - x) <= 1e-8 * np.linalg.norm(x)
        # A X^{-T}[:, b] X[:, b]^T is U_b C_b X_b^T, the fitted matrix's weak band
        assert np.allclose(sep.transform(x), weak, rtol=0.0, atol=1e-12 * np.abs(weak).max())

    def test_gsvd_transform_maps_new_rows(self):
        x, _ = mixture_matrix(seed=9)
        b, _ = mixture_matrix(seed=10)
        sep = SubspaceSeparator(method="gsvd").fit(x, B=b)
        new = np.random.default_rng(11).standard_normal((100, 8))
        got = sep.transform(new)
        assert got.shape == (100, 8)
        # rows are mapped one by one: a row of the fitted matrix maps to its weak band's row
        weak = sep.subspaces()[1]
        stacked = sep.transform(np.vstack([new, x[:5]]))
        assert np.allclose(stacked[:100], got, rtol=0.0, atol=1e-12 * np.abs(got).max())
        assert np.allclose(stacked[100:], weak[:5], rtol=0.0, atol=1e-12 * np.abs(weak).max())
        # the map is a projection: mapping its result again changes nothing
        assert np.allclose(sep.transform(got), got, rtol=0.0, atol=1e-10 * np.abs(got).max())

    def test_gsvd_requires_reference(self):
        x, _ = mixture_matrix()
        with pytest.raises(ConfigError):
            SubspaceSeparator(method="gsvd").fit(x)

    def test_unfitted_rejected(self):
        with pytest.raises(ConfigError):
            SubspaceSeparator().subspaces()

    def test_column_mismatch_on_transform(self):
        x, _ = mixture_matrix()
        sep = SubspaceSeparator().fit(x)
        with pytest.raises(ConfigError):
            sep.transform(x[:, :4])

    def test_bad_method(self):
        with pytest.raises(ConfigError):
            SubspaceSeparator(method="pca").fit(np.eye(4))


class TestSmoothnessScanner:
    def test_transform_matches_sliding_scan(self):
        img, _ = gen_texture(TextureSpec(width=20, height=20, seed=0,
                                         regions=(Region(10, 0, 10, 20, "rough"),)))
        scanner = SmoothnessScanner(window_size=5, stride=5)
        grid = scanner.fit_transform(img)
        direct = image.sliding_scan(img, WindowConfig(window_size=5, stride=5))
        assert np.array_equal(grid, direct.grid)

    def test_accepts_plain_arrays(self):
        arr = np.random.default_rng(1).uniform(size=(12, 12))
        grid = SmoothnessScanner(window_size=4, stride=4).fit_transform(arr)
        assert grid.shape == (3, 3)

    def test_predict_masks_smooth_windows(self):
        img, _ = gen_texture(TextureSpec(width=20, height=20, seed=2,
                                         regions=(Region(10, 0, 10, 20, "rough"),)))
        scanner = SmoothnessScanner(window_size=5, stride=5, threshold=100.0)
        mask = scanner.fit(img).predict(img)
        assert np.all(mask[:, :2] == 1)
        assert np.all(mask[:, 2:] == 0)

    def test_predict_without_threshold_rejected(self):
        img = GrayImage(np.full((8, 8), 0.5))
        with pytest.raises(ConfigError):
            SmoothnessScanner().fit(img).predict(img)

    # parameters that ``predict`` refuses; ``fit`` refuses them first
    BAD_PARAMS = [
        ({"window_size": 1}, ConfigError),
        ({"window_size": 5, "order": 5}, OrderError),
        ({"threshold": math.nan}, ConfigError),
        ({"threshold": 0.5, "polarity": "sideways"}, ConfigError),
    ]

    def test_fit_validates_params(self):
        for params, error in self.BAD_PARAMS:
            with pytest.raises(error):
                SmoothnessScanner(**params).fit()

    @pytest.mark.parametrize("params, error", BAD_PARAMS)
    def test_predict_raises_before_any_scan(self, monkeypatch, params, error):
        def no_scan(*args, **kwargs):
            raise AssertionError("the parameters are checked before the scan")

        monkeypatch.setattr(estimators, "sliding_scan", no_scan)
        scanner = SmoothnessScanner(**{"threshold": 1.0, **params})
        with pytest.raises(error):
            scanner.predict(np.full((8, 8), 0.5))

    def test_default_knobs_are_the_window_config_s(self):
        img = np.random.default_rng(3).uniform(size=(20, 20))
        got = SmoothnessScanner().fit_transform(img)
        want = image.sliding_scan(GrayImage(img), WindowConfig(window_size=5)).grid
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("params, message", [
        ({"metric": "information-density", "order": 3}, "order applies to metric='smoothness' only"),
        ({"metric": "information-density", "order": "auto"}, "order applies to metric='smoothness' only"),
        ({"metric": "information-density", "order": 3, "delta": 0.5},
         "order applies to metric='smoothness' only"),
        ({"delta": 0.5}, "delta applies to order='auto' only"),
        ({"order": 2, "delta": 0.7}, "delta applies to order='auto' only"),
    ])
    def test_refuses_knobs_the_scan_does_not_read(self, params, message):
        # Ignoring any of these would give the grid of the scanner without it.
        img = np.random.default_rng(4).uniform(size=(20, 20))
        for call in (lambda: SmoothnessScanner(**params).fit(), lambda: SmoothnessScanner(**params).transform(img)):
            with pytest.raises(ConfigError, match=f"^{message}$"):
                call()

    def test_reads_the_knobs_of_its_metric_and_order(self):
        img = np.random.default_rng(5).uniform(size=(20, 20))
        for params in ({"order": "auto", "delta": 0.5}, {"order": 2},
                       {"metric": "information-density"}):
            got = SmoothnessScanner(**params).fit_transform(img)
            metric = params.pop("metric", image.METRIC_SMOOTHNESS)
            want = image.sliding_scan(GrayImage(img), WindowConfig(window_size=5, **params), metric=metric)
            assert got.tobytes() == want.grid.tobytes()
