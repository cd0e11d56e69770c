import math

import numpy as np
import pytest
from conftest import raise_exactly

from svdsep import image, linalg, signal
from svdsep.errors import GeneratorSpecError
from svdsep.image import WindowConfig
from svdsep.synth import TAG_CODES, MixtureSpec, Region, TextureSpec, gen_mixture, gen_texture, mixture_components


def base_spec(**overrides):
    kw = dict(samples=400, channels=8, dominant_rank=2, weak_rank_span=2,
              dominant_period=40, seed=0)
    kw.update(overrides)
    return MixtureSpec(**kw)


class TestGenMixture:
    def test_ground_truth_indices(self):
        _, (k_m, k_f) = gen_mixture(base_spec())
        assert (k_m, k_f) == (2, 4)

    def test_three_plateaus_with_clear_drops(self):
        channels, (k_m, k_f) = gen_mixture(base_spec(energy_ratio_dominant_weak=100.0,
                                                     energy_ratio_weak_noise=100.0))
        s = np.linalg.svd(channels.data, compute_uv=False)
        assert s[k_m - 1] / s[k_m] >= np.sqrt(10.0)
        assert s[k_f - 1] / s[k_f] >= np.sqrt(10.0)

    def test_noiseless_has_exact_rank(self):
        channels, (_, k_f) = gen_mixture(base_spec(energy_ratio_weak_noise=np.inf))
        spec = linalg.svd(channels.data)
        assert spec.numerical_rank == k_f

    def test_seed_determinism(self):
        a, _ = gen_mixture(base_spec(seed=123))
        b, _ = gen_mixture(base_spec(seed=123))
        assert a.data.tobytes() == b.data.tobytes()
        c, _ = gen_mixture(base_spec(seed=124))
        assert not np.array_equal(a.data, c.data)

    def test_energy_ratios_exact_when_noiseless(self):
        spec = base_spec(energy_ratio_dominant_weak=37.0, energy_ratio_weak_noise=np.inf)
        channels, (k_m, k_f) = gen_mixture(spec)
        s2 = np.linalg.svd(channels.data, compute_uv=False) ** 2
        e_dom, e_weak = float(np.sum(s2[:k_m])), float(np.sum(s2[k_m:k_f]))
        assert e_dom / e_weak == pytest.approx(37.0, rel=1e-9)

    def test_component_energy_ratios_within_one_percent(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            r_dw = float(rng.uniform(2.0, 500.0))
            r_wn = float(rng.uniform(2.0, 500.0))
            spec = base_spec(seed=int(rng.integers(1 << 30)),
                             energy_ratio_dominant_weak=r_dw,
                             energy_ratio_weak_noise=r_wn)
            dom, weak, noise = mixture_components(spec)
            e = lambda x: float(np.sum(x * x))
            assert e(dom) / e(weak) == pytest.approx(r_dw, rel=0.01)
            assert e(weak) / e(noise) == pytest.approx(r_wn, rel=0.01)
            total, _ = gen_mixture(spec)
            assert np.array_equal(total.data, dom + weak + noise)

    def test_dominant_weak_tiers_visible_in_spectrum(self):
        channels, (k_m, k_f) = gen_mixture(base_spec(seed=3))
        s2 = np.linalg.svd(channels.data, compute_uv=False) ** 2
        # tier subspaces are exactly orthogonal, so the spectrum carries the
        # dominant/weak ratio up to the small noise contamination
        assert float(np.sum(s2[:k_m]) / np.sum(s2[k_m:k_f])) == pytest.approx(100.0, rel=0.01)

    def test_weak_period_defaults_to_half(self):
        assert base_spec().effective_weak_period == 20
        assert base_spec(weak_period=7).effective_weak_period == 7

    def test_cutoff_recovery_single_draw(self):
        channels, truth = gen_mixture(base_spec(seed=42))
        cut = signal.find_two_cutoffs(linalg.svd(channels.data))
        assert (cut.m, cut.f) == truth

    def test_infeasible_ranks_rejected(self):
        with pytest.raises(GeneratorSpecError):
            base_spec(dominant_rank=4, weak_rank_span=4)  # 4 + 4 >= 8

    def test_bad_period_rejected(self):
        with pytest.raises(GeneratorSpecError):
            base_spec(dominant_period=1)

    def test_bad_ratio_rejected(self):
        with pytest.raises(GeneratorSpecError):
            base_spec(energy_ratio_dominant_weak=0.5)

    def test_too_few_samples_rejected(self):
        with pytest.raises(GeneratorSpecError):
            base_spec(samples=4)


class TestGenTexture:
    def test_smooth_map_values_dominate_rough(self):
        smooth_img, _ = gen_texture(TextureSpec(width=20, height=20, seed=1))
        rough_img, _ = gen_texture(TextureSpec(
            width=20, height=20, seed=1,
            regions=(Region(0, 0, 20, 20, "rough"),)))
        cfg = WindowConfig(window_size=5, stride=5)
        smooth_map = image.sliding_scan(smooth_img, cfg)
        rough_map = image.sliding_scan(rough_img, cfg)
        assert smooth_map.grid.min() > rough_map.grid.max()

    def test_zero_noise_constant_image(self):
        spec = TextureSpec(width=10, height=10, seed=2,
                           noise_amplitude={"smooth": 0.0, "rough": 0.0, "anomaly-band": 0.0})
        img, _ = gen_texture(spec)
        assert np.all(img.pixels == 0.5)

    def test_seed_determinism(self):
        spec = TextureSpec(width=16, height=16, seed=9,
                           regions=(Region(8, 0, 8, 16, "rough"),))
        a, mask_a = gen_texture(spec)
        b, mask_b = gen_texture(spec)
        assert a.pixels.tobytes() == b.pixels.tobytes()
        assert np.array_equal(mask_a, mask_b)

    def test_mask_tags_match_layout(self):
        spec = TextureSpec(width=12, height=12,
                           regions=(Region(6, 0, 6, 12, "rough"),
                                    Region(8, 4, 2, 4, "anomaly-band")))
        _, mask = gen_texture(spec)
        assert np.all(mask[:, :6] == 0)
        assert mask[5, 9] == 2
        assert mask[0, 7] == 1

    def test_contradictory_overlap_rejected(self):
        spec_args = dict(width=12, height=12,
                         regions=(Region(0, 0, 8, 12, "rough"),
                                  Region(4, 0, 8, 12, "smooth")))
        with pytest.raises(GeneratorSpecError):
            gen_texture(TextureSpec(**spec_args))

    def test_same_tag_overlap_allowed(self):
        spec = TextureSpec(width=12, height=12,
                           regions=(Region(0, 0, 8, 12, "rough"),
                                    Region(4, 0, 8, 12, "rough")))
        _, mask = gen_texture(spec)
        assert np.all(mask == 1)

    def test_out_of_bounds_region_rejected(self):
        with pytest.raises(GeneratorSpecError):
            TextureSpec(width=10, height=10, regions=(Region(8, 0, 4, 4, "rough"),))

    def test_unknown_tag_rejected(self):
        with pytest.raises(GeneratorSpecError):
            Region(0, 0, 2, 2, "bumpy")

    def test_pixels_stay_in_range(self):
        spec = TextureSpec(width=16, height=16, seed=5,
                           regions=(Region(0, 0, 16, 16, "rough"),),
                           noise_amplitude={"rough": 1.0})
        img, _ = gen_texture(spec)
        assert img.pixels.min() >= 0.0 and img.pixels.max() <= 1.0


@pytest.mark.parametrize("call", [
    pytest.param(lambda: base_spec(dominant_rank=0), id="dominant-rank"),
    pytest.param(lambda: base_spec(weak_period=1), id="weak-period"),
    pytest.param(lambda: Region(0, 0, 0, 2, "rough"), id="region-side"),
    pytest.param(lambda: Region(-1, 0, 2, 2, "rough"), id="region-origin"),
    pytest.param(lambda: TextureSpec(width=1, height=4), id="texture-side"),
    pytest.param(lambda: TextureSpec(width=4, height=4, base_level=1.0), id="base-level"),
    pytest.param(lambda: TextureSpec(width=4, height=4, noise_amplitude={"bumpy": 0.1}), id="amplitude-tag"),
    pytest.param(lambda: TextureSpec(width=4, height=4, noise_amplitude={"rough": -0.1}),
                 id="negative-amplitude"),
    pytest.param(lambda: base_spec(energy_ratio_dominant_weak=math.nan), id="nan-dominant-weak"),
    pytest.param(lambda: base_spec(energy_ratio_weak_noise=math.nan), id="nan-weak-noise"),
    *[pytest.param(lambda tag=tag: TextureSpec(width=4, height=4, noise_amplitude={tag: math.nan}),
                   id=f"nan-{tag}-amplitude") for tag in TAG_CODES],
    pytest.param(lambda: base_spec(energy_ratio_dominant_weak=math.inf), id="inf-dominant-weak"),
    *[pytest.param(lambda tag=tag: TextureSpec(width=4, height=4, noise_amplitude={tag: math.inf}),
                   id=f"inf-{tag}-amplitude") for tag in TAG_CODES],
])
def test_typed_errors(call):
    raise_exactly(GeneratorSpecError, call)
