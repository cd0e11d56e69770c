import functools
import math
import warnings

import numpy as np
import pytest
from conftest import (
    argmax_oracle,
    chain_oracle,
    holds_at_every_scale,
    raise_exactly,
    traced_peak,
    with_failing_lapack,
)

from svdsep import linalg, signal, synth
from svdsep.errors import (
    ConvergenceError,
    DegenerateSpectrumError,
    InsufficientRankError,
    InvalidInputError,
    LayoutError,
    RangeError,
    ShapeError,
)
from svdsep.signal import ChannelSet, EmbedLayout


def spectrum_of(diag_values):
    return linalg.svd(np.diag(diag_values))


class TestChannelSet:
    def test_from_channels(self):
        cs = ChannelSet.from_channels([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], labels=("a", "b"))
        assert cs.n_samples == 3 and cs.n_channels == 2
        assert np.array_equal(cs.channel(1), [4.0, 5.0, 6.0])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ShapeError):
            ChannelSet.from_channels([[1.0, 2.0], [1.0, 2.0, 3.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            ChannelSet(np.array([[1.0], [np.inf]]))

    def test_too_short_rejected(self):
        with pytest.raises(ShapeError):
            ChannelSet(np.ones((1, 3)))

    def test_label_count_checked(self):
        with pytest.raises(ShapeError):
            ChannelSet(np.ones((4, 2)), labels=("only-one",))


class TestEmbed:
    def test_hankel_stride_two(self):
        cs = ChannelSet.from_channels([[1.0, 2.0, 3.0, 4.0]])
        a = signal.embed(cs, EmbedLayout.hankel(2, stride=2))
        assert np.array_equal(a, [[1.0, 3.0], [2.0, 4.0]])

    def test_hankel_stride_one(self):
        cs = ChannelSet.from_channels([[1.0, 2.0, 3.0]])
        a = signal.embed(cs, EmbedLayout.hankel(2, stride=1))
        assert np.array_equal(a, [[1.0, 2.0], [2.0, 3.0]])

    def test_channel_columns(self):
        cs = ChannelSet.from_channels([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        a = signal.embed(cs, EmbedLayout.channel_columns(3))
        assert np.array_equal(a, [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])
        short = signal.embed(cs, EmbedLayout.channel_columns(2))
        assert np.array_equal(short, [[1.0, 4.0], [2.0, 5.0]])
        for view in (a, short):  # a read-only view, as on the hankel layout
            assert np.shares_memory(view, cs.data) and not view.flags.writeable
        assert cs.data.flags.writeable

    def test_numpy_integer_geometry(self):
        cs = ChannelSet.from_channels([[1.0, 2.0, 3.0, 4.0]])
        a = signal.embed(cs, EmbedLayout.hankel(np.int64(2), stride=np.int32(2)))
        assert np.array_equal(a, [[1.0, 3.0], [2.0, 4.0]])
        assert np.array_equal(signal.embed(cs, EmbedLayout.channel_columns(np.int64(3))), [[1.0], [2.0], [3.0]])

    def test_out_of_bounds_window(self):
        cs = ChannelSet.from_channels([[1.0, 2.0, 3.0]])
        with pytest.raises(RangeError):
            signal.embed(cs, EmbedLayout.channel_columns(4))

    def test_hankel_needs_single_channel(self):
        cs = ChannelSet(np.ones((4, 2)))
        with pytest.raises(LayoutError):
            signal.embed(cs, EmbedLayout.hankel(2))

    def test_bad_mode_rejected(self):
        with pytest.raises(LayoutError):
            EmbedLayout("diagonal", 2)


class TestUnembed:
    def test_hankel_diagonal_averaging(self):
        layout = EmbedLayout.hankel(2, stride=1)
        out = signal.unembed(np.array([[1.0, 2.0], [2.0, 3.0]]), layout, 3)
        assert np.array_equal(out.data[:, 0], [1.0, 2.0, 3.0])

    def test_non_overlapping_round_trip_exact(self):
        rng = np.random.default_rng(0)
        cs = ChannelSet(rng.standard_normal((12, 1)))
        layout = EmbedLayout.hankel(3, stride=3)
        back = signal.unembed(signal.embed(cs, layout), layout, 12)
        assert np.array_equal(back.data, cs.data)

    def test_channel_columns_round_trip_exact(self):
        rng = np.random.default_rng(1)
        cs = ChannelSet(rng.standard_normal((10, 3)))
        layout = EmbedLayout.channel_columns(10)
        back = signal.unembed(signal.embed(cs, layout), layout, 10)
        assert np.array_equal(back.data, cs.data)

    def test_overlapping_round_trip_tight(self):
        rng = np.random.default_rng(2)
        cs = ChannelSet(rng.standard_normal((50, 1)))
        layout = EmbedLayout.hankel(7, stride=1)
        back = signal.unembed(signal.embed(cs, layout), layout, 50)
        assert np.max(np.abs(back.data[:, 0] - cs.data[:, 0])) <= 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(LayoutError):
            signal.unembed(np.ones((3, 2)), EmbedLayout.hankel(2), 5)

    def test_gap_positions_are_zero(self):
        layout = EmbedLayout.hankel(2, stride=3)
        cs = ChannelSet.from_channels([[1.0, 2.0, 3.0, 4.0, 5.0]])
        a = signal.embed(cs, layout)  # windows [0,2) and [3,5)
        back = signal.unembed(a, layout, 5)
        assert np.array_equal(back.data[:, 0], [1.0, 2.0, 0.0, 4.0, 5.0])

    @pytest.mark.parametrize("layout, target_length", [
        pytest.param(EmbedLayout.channel_columns(10), 10, id="identity"),
        pytest.param(EmbedLayout.channel_columns(10), 15, id="offsets"),
        pytest.param(EmbedLayout.hankel(10, stride=10), 30, id="hankel"),
    ])
    def test_never_shares_memory_with_its_argument(self, layout, target_length):
        # The identity layout returns its block as the result: here that
        # block is the caller's matrix, or a view of it.
        big = np.random.default_rng(3).standard_normal((10, 5))
        for a in (big[:, :3].copy(), big[:, 1:4], np.asfortranarray(big[:, :3])):
            want = signal.unembed(a.copy(), layout, target_length).data.copy()
            back = signal.unembed(a, layout, target_length)
            assert not np.shares_memory(back.data, a)
            a[:] = 0.0
            assert back.data.tobytes() == want.tobytes()


def hankel_reference(x, layout):
    """Trajectory matrix and inverse built from an explicit (window_length, windows) index."""
    n, stride = layout.window_length, layout.stride
    idx = np.arange(0, x.size - n + 1, stride)[np.newaxis, :] + np.arange(n)[:, np.newaxis]

    def unembed(m, target_length):
        acc = np.bincount(idx.ravel(), weights=m.ravel(), minlength=target_length)
        cnt = np.bincount(idx.ravel(), minlength=target_length)
        acc[cnt > 0] /= cnt[cnt > 0]
        return acc

    return x[idx], unembed


class TestHankelStrided:
    @pytest.mark.parametrize("samples, window, stride", [
        (4000, 40, 1), (4000, 40, 3), (1001, 17, 7), (1003, 17, 7), (50, 50, 1)])
    def test_bit_identical_to_index_reference(self, samples, window, stride):
        x = np.random.default_rng(samples + stride).standard_normal(samples)
        layout = EmbedLayout.hankel(window, stride=stride)
        want, unembed_ref = hankel_reference(x, layout)
        got = signal.embed(ChannelSet(x[:, np.newaxis]), layout)
        # a read-only view of the signal, not a copy of the trajectory
        assert np.shares_memory(got, x) and not got.flags.writeable
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        part = got * 1.5 - 0.25
        back = signal.unembed(part, layout, samples).data[:, 0]
        assert back.tobytes() == unembed_ref(part, samples).tobytes()

    @pytest.mark.parametrize("window", [2, 3, 5, 17])
    @pytest.mark.parametrize("stride", [1, 2, 3, 7, 20])
    @pytest.mark.parametrize("columns", [1, 2, 6, 13])
    def test_coverage_matches_a_pass_per_window_row(self, window, stride, columns):
        span = (columns - 1) * stride + 1
        want = np.zeros(span - 1 + window)
        for i in range(window):
            want[i : i + span : stride] += 1
        got = signal._hankel_counts(np.arange(want.size), window, columns, stride)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("window, stride, columns", [(17, 3, 13), (40, 1, 3961), (5, 7, 1)])
    def test_an_undersized_target_raises_before_any_block_is_formed(self, window, stride, columns):
        class Unsliceable:
            shape = (window, columns)

            def __getitem__(self, index):
                raise AssertionError(f"block {index} formed before the target length was checked")

        end = (columns - 1) * stride + window
        raise_exactly(LayoutError, lambda: signal._unembed(Unsliceable(), EmbedLayout.hankel(window, stride),
                                                           end - 1),
                      match=f"windows extend to {end} but target_length is {end - 1}$")

    def test_peaks_stay_near_the_trajectory_matrix(self):
        # 40 000 samples, L = 200: the trajectory matrix is 60.7 MiB, and embed copies none of it.
        x = np.random.default_rng(3).standard_normal(40_000)
        layout = EmbedLayout.hankel(200)
        signals = ChannelSet(x[:, np.newaxis])
        matrix, embed_peak = traced_peak(lambda: signal.embed(signals, layout))
        back, unembed_peak = traced_peak(lambda: signal.unembed(matrix, layout, x.size))
        assert embed_peak <= 4 * 1024
        assert unembed_peak <= 0.25 * matrix.nbytes
        assert np.allclose(back.data[:, 0], x, rtol=1e-12, atol=0.0)


class TestBandSignals:
    """band_signals yields separate's parts of an SVD or GSVD one band at a
    time, and refuses a streamed spectrum it cannot read as a window view
    before any band is formed."""

    @staticmethod
    def cut_for(rank):
        if rank < 3:
            return signal.CutoffResult(m=1, f=None, peak_values=(0.0,), method="svd-egv")
        return signal.CutoffResult(m=rank // 3, f=2 * rank // 3, peak_values=(0.0, 0.0),
                                   method="svd-egv")

    @staticmethod
    def refuse_before_any_band(monkeypatch, call, match):
        def unformable(*args):
            raise AssertionError("a band was formed before the layout was checked")

        monkeypatch.setattr(signal, "_band_rows", unformable)
        monkeypatch.setattr(np, "correlate", unformable)
        raise_exactly(LayoutError, call, match=match)

    @pytest.mark.parametrize("samples, window, stride", [
        (4000, 40, 1), (4000, 40, 3), (50, 50, 1), (1003, 17, 7), (60, 45, 1), (100, 80, 2)])
    def test_hankel_svd_factors(self, samples, window, stride):
        # Their signals are unembed of separate's parts, which is zero past
        # the last window; band_signals yields the parts themselves.
        x = np.random.default_rng(samples + window + stride).standard_normal(samples)
        layout = EmbedLayout.hankel(window, stride=stride)
        spec = linalg.svd(signal.embed(ChannelSet(x[:, np.newaxis]), layout))
        cut = self.cut_for(spec.numerical_rank)
        parts = signal.separate(spec, cut)
        covered_to = (samples - window) // stride * stride + window
        for part, band in zip(parts, signal.band_signals(spec, cut), strict=True):
            assert np.all(signal.unembed(part, layout, samples).data[covered_to:] == 0.0)
            assert band.data.tobytes() == part.tobytes()

    def test_hankel_gsvd_factors(self):
        rng = np.random.default_rng(21)
        x, z = rng.standard_normal(60), rng.standard_normal(60)
        layout = EmbedLayout.hankel(40)  # 40 x 21: gsvd needs at least as many rows as columns
        a = signal.embed(ChannelSet(x[:, np.newaxis]), layout)
        g = linalg.gsvd(a, signal.embed(ChannelSet(z[:, np.newaxis]), layout))
        cut = signal.CutoffResult(m=3, f=10, peak_values=(0.0, 0.0), method="gsvd-egv")
        parts = signal.separate(g, cut)
        total = sum(signal.unembed(part, layout, 60).data for part in parts)
        assert np.max(np.abs(total[:, 0] - x)) <= 1e-12 * np.max(np.abs(x))
        for part, band in zip(parts, signal.band_signals(g, cut), strict=True):
            assert band.data.tobytes() == part.tobytes()

    def test_channel_columns_bands_are_the_matrix_route(self):
        a = np.random.default_rng(22).standard_normal((30, 6))
        layout = EmbedLayout.channel_columns(30)
        spec = linalg.svd(a)
        cut = self.cut_for(spec.numerical_rank)
        for part, band in zip(signal.separate(spec, cut),
                              signal.band_signals(spec, cut)):
            assert band.data.tobytes() == signal.unembed(part, layout, 30).data.tobytes()

    def test_channel_columns_with_offsets_are_the_matrix_route(self):
        # The signals of a 200-sample window of a 300-sample recording are
        # unembed of separate's parts, whose rows past it are zero.
        data = np.random.default_rng(24).standard_normal((300, 6))
        layout = EmbedLayout.channel_columns(200)
        spec = linalg.svd(signal.embed(ChannelSet(data), layout))
        cut = self.cut_for(spec.numerical_rank)
        for part in signal.separate(spec, cut):
            band = signal.unembed(part, layout, 300)
            assert np.array_equal(band.data[:200], part) and not np.any(band.data[200:])

    def test_offset_that_does_not_fit_is_a_layout_error(self):
        # A window longer than the target is rejected before any block of the matrix is read.
        class Unsliceable:
            shape = (200, 3)

            def __getitem__(self, index):
                raise AssertionError(f"block {index} formed before the target length was checked")

        raise_exactly(LayoutError, lambda: signal._unembed(Unsliceable(), EmbedLayout.channel_columns(200), 150),
                      match="windows extend to 200 but target_length is 150$")

    def test_rejects_mismatched_layout_and_cut(self):
        spec = linalg.svd(np.random.default_rng(23).standard_normal((30, 6)))
        with pytest.raises(RangeError):
            bad = signal.CutoffResult(m=7, f=None, peak_values=(0.0,), method="svd-egv")
            next(signal.band_signals(spec, bad))

    @staticmethod
    def spectra():
        rng = np.random.default_rng(28)
        x = ChannelSet(rng.standard_normal((100, 1)))
        data = ChannelSet(rng.standard_normal((300, 4)))
        return {
            "streamed-channel-columns": linalg.streamed_svd(
                signal.embed(data, EmbedLayout.channel_columns(300)).T),
            "streamed-stride-2": linalg.streamed_svd(signal.embed(x, EmbedLayout.hankel(10, stride=2)).T),
        }

    @pytest.mark.parametrize("route", ["streamed-channel-columns", "streamed-stride-2", "separate-streamed"])
    def test_routes_the_cli_does_not_run_are_refused(self, monkeypatch, route):
        if route == "separate-streamed":
            factors = self.spectra()["streamed-stride-2"]
            cut = self.cut_for(factors.numerical_rank)
            self.refuse_before_any_band(monkeypatch, lambda: signal.separate(factors, cut),
                                        match="band_signals")
            return
        factors = self.spectra()[route]
        cut = signal.CutoffResult(m=1, f=2, peak_values=(0.0, 0.0), method="svd-egv")
        self.refuse_before_any_band(monkeypatch, lambda: next(signal.band_signals(factors, cut)),
                                    match="stride-1 hankel layout")


class TestHankelStreamed:
    """band_signals of a streamed hankel spectrum against the definitional
    route: unembed(separate(linalg.svd(embed(...)))). The spectrum serves
    every stride; its bands are formed at stride 1 only."""

    SHAPES = [(4000, 40, 1), (4000, 40, 3), (50, 50, 1), (1003, 17, 7), (60, 45, 1),
              (100, 80, 2), (300, 20, 3), (1000, 30, 7)]

    @staticmethod
    def band_bound(values, lo, hi, scale):
        """Davis-Kahan: a band's subspace moves by eps sigma_1 / delta, where
        delta is the smallest singular gap at the band's boundaries."""
        gaps = [values[b - 1] - values[b] for b in (lo, hi) if 0 < b < values.size and hi > lo]
        delta = min(gaps, default=np.inf)
        return max(1e-13, 4 * np.finfo(float).eps * values[0] / delta) * scale

    def assert_matches_trajectory_route(self, samples, window, stride):
        x = np.random.default_rng(samples + window + stride).standard_normal(samples)
        signals = ChannelSet(x[:, np.newaxis])
        layout = EmbedLayout.hankel(window, stride=stride)
        want = linalg.svd(signal.embed(signals, layout))
        got = linalg.streamed_svd(signal.embed(signals, layout).T)
        s = want.singular_values
        assert got.singular_values.shape == s.shape
        assert np.max(np.abs(got.singular_values - s)) <= 1e-14 * s[0]
        assert got.numerical_rank == want.numerical_rank
        cut = TestBandSignals.cut_for(want.numerical_rank)
        if stride > 1:
            with pytest.raises(LayoutError, match="stride-1 hankel layout"):
                next(signal.band_signals(got, cut))
            return got
        bands = list(signal.band_signals(got, cut))
        assert len(bands) == 3
        for (lo, hi), band, ref in zip(signal._band_ranges(want, cut), bands, signal.separate(want, cut)):
            ref = signal.unembed(ref, layout, samples)
            assert band.data.shape == ref.data.shape == (samples, 1)
            assert np.max(np.abs(band.data - ref.data)) <= self.band_bound(s, lo, hi, np.max(np.abs(x)))
        return got

    @pytest.mark.parametrize("samples, window, stride", SHAPES)
    def test_matches_the_trajectory_route(self, samples, window, stride):
        got = self.assert_matches_trajectory_route(samples, window, stride)
        windows = (samples - window) // stride + 1
        step = max(8 * window, 8192 // window)
        assert got.shape == (window, windows)
        assert got.factorizations == 2 * -(-windows // step)

    @pytest.mark.parametrize("samples, window, stride", SHAPES)
    def test_many_blocks_match_the_trajectory_route(self, monkeypatch, samples, window, stride):
        # A tenth of a window length per block: every shape with more than a
        # few windows, K < L among them, builds R over several blocks.
        step = max(1, int(0.1 * window))
        monkeypatch.setattr(linalg, "_block_rows", lambda x: step)
        got = self.assert_matches_trajectory_route(samples, window, stride)
        assert got.factorizations == 2 * -(-got.shape[1] // step)

    def test_bands_sum_to_the_input(self):
        for samples, window, _ in (shape for shape in self.SHAPES if shape[2] == 1):
            x = np.random.default_rng(samples + window).standard_normal(samples)
            layout = EmbedLayout.hankel(window)
            spec = linalg.streamed_svd(signal.embed(ChannelSet(x[:, np.newaxis]), layout).T)
            cut = signal.CutoffResult(m=max(1, spec.numerical_rank // 3), f=None,
                                      peak_values=(0.0,), method="svd-egv")
            total = sum(band.data[:, 0] for band in signal.band_signals(spec, cut))
            assert np.max(np.abs(total - x)) <= 4 * np.finfo(float).eps * np.max(np.abs(x))

    def test_band_signals_hold_the_signal_not_the_trajectory(self):
        # N = 20 000, L = 200: the three signals and the temporaries of one
        # rank are O(N); a block of 8 L windows alone would be 2.4 MiB.
        samples = 20_000
        x = np.random.default_rng(13).standard_normal(samples)
        layout = EmbedLayout.hankel(200)
        spec = linalg.streamed_svd(signal.embed(ChannelSet(x[:, np.newaxis]), layout).T)
        cut = TestBandSignals.cut_for(spec.numerical_rank)
        bands, peak = traced_peak(lambda: list(signal.band_signals(spec, cut)))
        assert len(bands) == 3
        assert peak <= 8 * samples * 8

    def test_rejects_a_copy_of_the_windows(self):
        # A copy of the trajectory is not read as a window view of one signal.
        x = np.random.default_rng(14).standard_normal(100)
        layout = EmbedLayout.hankel(10)
        spec = linalg.streamed_svd(np.array(signal.embed(ChannelSet(x[:, np.newaxis]), layout).T))
        with pytest.raises(LayoutError, match="window view"):
            next(signal.band_signals(spec, TestBandSignals.cut_for(spec.numerical_rank)))

    def test_layout_errors_are_embed_s(self):
        with pytest.raises(LayoutError, match="single channel"):
            signal.embed(ChannelSet(np.ones((40, 2))), EmbedLayout.hankel(5))
        with pytest.raises(RangeError, match="exceeds signal length"):
            signal.embed(ChannelSet(np.ones((40, 1))), EmbedLayout.hankel(41))

    @pytest.mark.parametrize("rows", [8, 12])
    def test_rejects_a_basis_of_another_window_length(self, rows):
        # 100 samples at L = 10: an 8-row basis gave three 98-sample signals,
        # and a 12-row one a bare numpy ValueError
        x = np.random.default_rng(24).standard_normal((100, 1))
        xt = signal.embed(ChannelSet(x), EmbedLayout.hankel(10)).T
        basis = np.linalg.qr(np.random.default_rng(rows).standard_normal((rows, 6)))[0]
        raise_exactly(ShapeError, lambda: linalg.StreamedSpectrum(basis, np.arange(6.0, 0.0, -1.0), 6, xt, 0),
                      match=f"^left_basis has {rows} rows, but X\\^T has 10 columns$")

    def test_rejects_a_spectrum_of_another_layout(self):
        x = np.random.default_rng(23).standard_normal((100, 1))
        spec = linalg.streamed_svd(signal.embed(ChannelSet(x), EmbedLayout.hankel(10)).T)
        with pytest.raises(RangeError):
            bad = signal.CutoffResult(m=11, f=None, peak_values=(0.0,), method="svd-egv")
            next(signal.band_signals(spec, bad))


class TestHankelBlocks:
    """The CLI's hankel parts, formed a block of samples at a time, hold the
    bytes of the parts formed over the whole signal at once."""

    @staticmethod
    def whole_signal(spec, cut, x, layout):
        """The parts by correlate and convolve over all of x, divided by the window counts,
        which are counted by a pass per window row."""
        counts = np.zeros(x.size)
        for i in range(layout.window_length):
            counts[i : i + spec.shape[1]] += 1
        noise = x.copy()
        parts = []
        for lo, hi in signal._band_ranges(spec, cut)[:2]:
            acc = np.zeros(x.size)
            for u in spec.left_basis[:, lo:hi].T:
                acc += np.convolve(u, np.correlate(x, u, "valid"))
            acc /= counts
            noise -= acc
            parts.append(acc)
        return parts + [noise]

    @pytest.mark.parametrize("samples, window, noise_band", [
        (9973, 37, True),
        (3 * 1024 + 1, 40, True),  # the last block is one sample
        (2 * 1024 + 5, 37, True),  # the last block is shorter than a window
        (37, 37, True),            # N = L: one window
        (70, 40, True),            # N < 2L: fewer windows than L
        (3000, 2, True),
        (4000, 40, False),         # the weak band runs to the end: no noise band
        (2100, 1030, True),        # the first block is shorter than a window
    ])
    def test_blocks_are_the_whole_signal_parts(self, samples, window, noise_band):
        rng = np.random.default_rng(samples + window)
        x = np.sin(2 * np.pi * np.arange(samples) / 40) + 0.1 * rng.standard_normal(samples)
        layout = EmbedLayout.hankel(window)
        xt = signal.embed(ChannelSet(x[:, np.newaxis]), layout).T
        if window > 1024:  # six orthonormal directions stand in for the SVD of a 1030-row X
            basis = np.linalg.qr(rng.standard_normal((window, 6)))[0]
            spec = linalg.StreamedSpectrum(basis, np.arange(6.0, 0.0, -1.0), 6, xt, 0)
        else:
            spec = linalg.streamed_svd(xt)
        cut = TestBandSignals.cut_for(spec.numerical_rank)
        if not noise_band:
            cut = signal.CutoffResult(m=cut.m, f=None, peak_values=(0.0,), method="svd-egv")
        blocks = signal._band_blocks(spec, cut)
        got = [np.concatenate(parts)[:, 0] for parts in
               zip(*(blocks(r0, min(r0 + 1024, samples)) for r0 in range(0, samples, 1024)))]
        for part, want in zip(got, self.whole_signal(spec, cut, x, layout)):
            assert part.tobytes() == want.tobytes()


class TestEnergyGap:
    def test_small_spectrum(self):
        spec = spectrum_of([2.0, 1.0])
        assert signal.energy_gap(spec, 1) == pytest.approx(2.0)
        assert signal.energy_gap(spec, 2) == 0.0

    def test_three_values(self):
        spec = spectrum_of([5.0, 3.0, 1.0])
        assert signal.energy_gap(spec, 1) == pytest.approx(18.0)

    def test_brute_force_identity(self):
        # gap_k must equal the difference of leading/trailing energy gaps
        # computed from actual truncated reconstructions
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.standard_normal((12, 6))
            spec = linalg.svd(a)
            r = spec.numerical_rank

            def gap_between(k):
                head = linalg.frobenius_energy(linalg.truncated_sum(spec, 1, k))
                tail = linalg.frobenius_energy(linalg.truncated_sum(spec, k + 1, r)) if k < r else 0.0
                return head - tail

            for k in range(1, r):
                brute = gap_between(k + 1) - gap_between(k)
                assert abs(brute - signal.energy_gap(spec, k)) <= 1e-8 * signal.energy_gap(spec, k)

    @pytest.mark.parametrize("c, want", [(1e160, [math.inf, math.inf, 0.0]), (1e-170, [0.0, 0.0, 0.0])])
    def test_saturates_where_the_square_is_not_representable(self, c, want):
        # 2 (2e160)^2 exceeds the largest float; 2 (2e-170)^2 = 8e-340 is below the least subnormal
        spec = linalg.svd(np.diag([3.0, 2.0, 1.0]) * c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [signal.energy_gap(spec, k) for k in (1, 2, 3)]
        assert got == want

    def test_equals_the_gaps_of_the_profile_at_every_scale(self):
        def check(c, seed):
            spec = linalg.svd(c * np.random.default_rng(seed).standard_normal((9, 5)))
            r = spec.numerical_rank
            gaps = signal.egv_profile(spec.singular_values[:r]).gaps
            assert [signal.energy_gap(spec, k) for k in range(1, r + 1)] == gaps.tolist()

        holds_at_every_scale(check, seeds=10)

    def test_out_of_range(self):
        spec = spectrum_of([2.0, 1.0])
        with pytest.raises(RangeError):
            signal.energy_gap(spec, 0)
        with pytest.raises(RangeError):
            signal.energy_gap(spec, 3)


class TestSingularEnergies:
    def test_uniform_gaps(self):
        se, gamma = signal.singular_energies([2.5, 2.5, 2.5])
        assert gamma == 7.5
        expected = math.log(3.0) / 3.0
        assert np.allclose(se, expected, atol=1e-12)

    def test_degenerate_ratio_conventions(self):
        # ratio 1 gives -1 ln 1 = 0, ratio 0 gives 0 by the 0 ln 0 convention
        se, _ = signal.singular_energies([1.0, 0.0])
        assert se[0] == 0.0 and se[1] == 0.0

    def test_three_to_one_gaps(self):
        se, gamma = signal.singular_energies([3.0, 1.0])
        assert gamma == 4.0
        assert se[0] == pytest.approx(-0.75 * math.log(0.75), abs=1e-12)
        assert se[1] == pytest.approx(-0.25 * math.log(0.25), abs=1e-12)

    def test_entropy_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            gaps = rng.uniform(0, 5, size=int(rng.integers(1, 12)))
            gaps[int(rng.integers(gaps.size))] = 1.0  # keep gamma positive
            se, _ = signal.singular_energies(gaps)
            assert np.all(se >= 0.0)
            assert np.all(se <= 1.0 / math.e + 1e-12)

    def test_all_zero_gaps_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            signal.singular_energies([0.0, 0.0])


class TestEgv:
    def test_direct_differences(self):
        assert np.allclose(signal.egv([0.2, 0.5, 0.1]), [0.2, 0.3])
        for short in ([], [0.4]):  # no variation before the second value
            got = signal.egv(short)
            assert got.shape == (0,) and got.dtype == np.float64

    def test_uniform_energies(self):
        assert np.allclose(signal.egv([0.3, 0.3, 0.3, 0.3]), [0.3, 0.0, 0.0])

    def test_all_zero(self):
        assert np.allclose(signal.egv([0.0, 0.0, 0.0]), [0.0, 0.0])

    def test_profile_matches_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            values = np.sort(rng.uniform(0.01, 10, size=int(rng.integers(2, 10))))[::-1]
            profile = signal.egv_profile(values)
            gaps, gamma, energies, variations = chain_oracle(values)
            assert np.allclose(profile.gaps, gaps, rtol=1e-12)
            assert profile.gamma == pytest.approx(gamma, rel=1e-12)
            assert np.allclose(profile.singular_energies, energies, rtol=1e-10, atol=1e-15)
            assert np.allclose(profile.variations, variations, rtol=1e-10, atol=1e-15)

    def test_gamma_identity(self):
        values = np.array([4.0, 3.0, 2.0, 1.0])
        profile = signal.egv_profile(values)
        assert profile.gamma == pytest.approx(2.0 * np.sum(values[1:] ** 2), rel=1e-8)

    def test_gaps_non_increasing(self):
        profile = signal.egv_profile([9.0, 5.0, 2.0, 0.5])
        assert np.all(np.diff(profile.gaps) <= 0)


class TestFindCutoff:
    def test_two_tier_spectrum(self):
        cut = signal.find_cutoff(spectrum_of([10.0, 9.0, 0.5, 0.4]))
        assert cut.m == 2
        assert cut.f is None
        assert cut.method == "svd-egv"

    def test_single_interior_gap(self):
        cut = signal.find_cutoff(spectrum_of([1.0, 1e-6]))
        assert cut.m == 1

    def test_argmax_matches_oracle_on_random_spectra(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            a = rng.standard_normal((int(rng.integers(6, 16)), int(rng.integers(3, 8))))
            spec = linalg.svd(a)
            cut = signal.find_cutoff(spec)
            _, _, _, variations = chain_oracle(spec.singular_values[: spec.numerical_rank])
            assert cut.m == argmax_oracle(variations)

    def test_tie_breaks_to_smallest_index(self):
        cut = signal.cutoff_from_values([2.0, 1.0, 1.0, 1.0, 1.0])
        _, _, _, variations = chain_oracle([2.0, 1.0, 1.0, 1.0, 1.0])
        assert cut.m == argmax_oracle(variations)

    def test_rank_one_rejected(self):
        with pytest.raises(InsufficientRankError):
            signal.find_cutoff(linalg.svd(np.ones((5, 3))))

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((10, 6))
        base = signal.find_cutoff(linalg.svd(a)).m
        for c in (0.01, 3.0, 1000.0):
            assert signal.find_cutoff(linalg.svd(c * a)).m == base

    def test_simplified_chain_same_argmax(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = rng.standard_normal((12, 6))
            spec = linalg.svd(a)
            values = spec.singular_values[: spec.numerical_rank]
            v_doubled = signal.egv_profile(values).variations
            v_simple = signal.egv_profile(values, simplified=True).variations
            assert np.argmax(v_doubled) == np.argmax(v_simple)
            # the chains agree entirely, not only at the peak: the entropy
            # terms see only the scale-free gap ratios
            assert np.allclose(v_doubled, v_simple, atol=1e-12)


class TestFindTwoCutoffs:
    def test_two_drop_spectrum(self):
        cut = signal.find_two_cutoffs(spectrum_of([10.0, 9.0, 1.0, 0.9, 0.01]))
        assert (cut.m, cut.f) == (2, 4)
        assert len(cut.peak_values) == 2

    def test_monotone_geometric_has_single_peak(self):
        spec = spectrum_of([2.0**-1, 2.0**-2, 2.0**-3])
        with pytest.warns(RuntimeWarning):
            cut = signal.find_two_cutoffs(spec)
        assert cut.m == 1
        assert cut.f is None

    def test_m_agrees_with_single_cutoff(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.standard_normal((14, 7))
            spec = linalg.svd(a)
            assert signal.find_two_cutoffs(spec).m == signal.find_cutoff(spec).m

    def test_rank_two_rejected(self):
        with pytest.raises(InsufficientRankError):
            signal.find_two_cutoffs(spectrum_of([2.0, 1.0]))


class TestGsvdCutoff:
    def test_identity_reference_matches_svd_route(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((12, 6))
        cut_gsvd = signal.cutoff_from_gsvd(linalg.gsvd(a, np.eye(6)))
        cut_svd = signal.find_cutoff(linalg.svd(a))
        assert cut_gsvd.m == cut_svd.m
        assert cut_gsvd.method == "gsvd-egv"

    def test_injected_values(self):
        cut = signal.cutoff_from_values([10.0, 9.0, 0.5, 0.4], method="gsvd-egv")
        assert cut.m == 2

    def test_infinite_values_counted_as_dominant(self):
        a = np.diag([5.0, 4.0, 0.5, 0.4])
        b = np.zeros((4, 4))
        b[1, 1], b[2, 2], b[3, 3] = 1.0, 1.0, 1.0  # first direction unseen by B
        with pytest.warns(RuntimeWarning):
            cut = signal.cutoff_from_gsvd(linalg.gsvd(a, b))
        g = linalg.gsvd(a, b)
        n_inf = int(np.sum(np.isinf(g.generalized_values)))
        assert n_inf == 1
        finite = g.generalized_values[np.isfinite(g.generalized_values)]
        assert cut.m == n_inf + signal.cutoff_from_values(finite).m

    def test_all_infinite_rejected(self):
        with pytest.warns(RuntimeWarning):
            with pytest.raises(InsufficientRankError):
                signal.cutoff_from_gsvd(linalg.gsvd(np.eye(2), np.zeros((2, 2))))


class TestCutoff:
    def test_rank_two_takes_one_boundary(self):
        spec = spectrum_of([3.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cut = signal.cutoff(spec)
        assert cut == signal.find_cutoff(spec)
        assert cut.f is None

    def test_rank_three_takes_two_boundaries(self):
        spec = spectrum_of([3.0, 2.0, 1.0])
        with pytest.warns(RuntimeWarning, match="no second variation peak"):
            cut = signal.cutoff(spec)
        with pytest.warns(RuntimeWarning):
            assert cut == signal.find_two_cutoffs(spec)

    def test_two_drop_spectrum(self):
        spec = spectrum_of([10.0, 9.0, 1.0, 0.9, 0.01])
        cut = signal.cutoff(spec)
        assert (cut.m, cut.f) == (2, 4)

    def test_gsvd_with_an_infinite_value(self):
        a = np.diag([5.0, 4.0, 0.5, 0.4])
        b = np.diag([0.0, 1.0, 1.0, 1.0])  # first direction unseen by B
        g = linalg.gsvd(a, b)
        with pytest.warns(RuntimeWarning, match="infinite"):
            cut = signal.cutoff(g)
        with pytest.warns(RuntimeWarning):
            assert cut == signal.cutoff_from_gsvd(g)
        assert cut.method == "gsvd-egv" and cut.f is None
        finite = g.generalized_values[1:]
        assert cut.m == 1 + signal.cutoff_from_values(finite).m

    @pytest.mark.parametrize("pairing", ["same", "seven-leads-shared", "tripled"])
    def test_gsvd_of_tied_values_has_a_cutoff(self, pairing):
        """Tied alpha/beta round out of order; the balanced values are clamped
        non-increasing by at most rounding, so the cutoff can read them."""

        def mixture(seed):
            spec = synth.MixtureSpec(samples=400, channels=8, dominant_rank=2, weak_rank_span=2,
                                     dominant_period=40, seed=seed)
            return synth.gen_mixture(spec)[0].data

        for seed in (1, 2, 3):
            a = mixture(seed)
            b = {"same": a, "tripled": 3.0 * a}.get(pairing)
            if b is None:
                b = a.copy()
                b[:, 7] = mixture(seed + 1)[:, 7]
            g = linalg.gsvd(a, b)
            assert np.all(np.diff(g.balanced_values) <= 0.0)
            np.testing.assert_allclose(g.balanced_values, (g.alpha / g.beta)[::-1], rtol=1e-15, atol=0.0)
            assert 1 <= signal.cutoff(g).m < 8

    def test_boundaries_hold_at_every_scale(self):
        """(m, f) of c * A equal those of A for every c in [1e-300, 1e300],
        without a warning, although the squares of c * sigma under- or overflow."""

        @functools.cache
        def mixture(seed):
            spec = synth.MixtureSpec(samples=400, channels=8, dominant_rank=2, weak_rank_span=2,
                                     dominant_period=40, seed=seed)
            a = synth.gen_mixture(spec)[0].data
            cut = signal.cutoff(linalg.svd(a))
            return a, (cut.m, cut.f)

        def check(c, seed):
            a, expected = mixture(seed)
            cut = signal.cutoff(linalg.svd(c * a))
            assert (cut.m, cut.f) == expected

        holds_at_every_scale(check, seeds=10)

    def test_gsvd_cutoff_holds_at_every_scale_of_either_matrix(self):
        """m of (a A, b B) equals that of (A, B) for every a, b in [1e-300, 1e300],
        without a warning. Unbalanced, the stacked QR lost B once it was ~1e-160
        of A, and every beta fell under the infinity tolerance."""
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        a_mat, b_mat = (synth.gen_mixture(synth.MixtureSpec(
            samples=400, channels=8, dominant_rank=2, weak_rank_span=2, dominant_period=40,
            seed=seed))[0].data for seed in (0, 1_000_003))
        expected = signal.cutoff(linalg.gsvd(a_mat, b_mat)).m
        scale = st.floats(-300.0, 300.0).map(lambda x: 10.0**x)

        @hypothesis.example(a=1e160, b=1.0)
        @hypothesis.example(a=1.0, b=1e-170)
        @hypothesis.example(a=1e300, b=1e-300)
        @hypothesis.example(a=1e-300, b=1e300)
        @hypothesis.given(a=scale, b=scale)
        @hypothesis.settings(derandomize=True, max_examples=60, deadline=None, database=None)
        def check(a, b):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert signal.cutoff(linalg.gsvd(a * a_mat, b * b_mat)).m == expected

        check()

    def test_profile_reads_inf_only_where_the_true_value_overflows(self):
        values = np.array([1e150, 1e140, 1e20])
        profile = signal.egv_profile(values)
        assert profile.gaps.tolist() == [2.0 * 1e140**2, 2.0 * 1e20**2, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = signal.egv_profile(2.0**70 * values)  # 2 * (2^70 * 1e140)^2 > max float
        assert scaled.gaps[0] == math.inf and scaled.gaps[1] == 2.0 * (2.0**70 * 1e20) ** 2
        assert scaled.gamma == math.inf
        assert np.array_equal(scaled.singular_energies, profile.singular_energies)
        assert np.array_equal(scaled.variations, profile.variations)


class TestArgmaxOperatingRange:
    """Where the variation argmax finds a planted dominant tier today.

    This pins the rule's present answers, not the answers it should give:
    a near-equal pair of dominant values is split (m = 1) unless the
    dominant tier is far stronger than the weak one. A change to the rule
    shows up as a change to this table.
    """

    @staticmethod
    def mixture(samples, seed, ratio=100.0):
        spec = synth.MixtureSpec(samples=samples, channels=8, dominant_rank=2, weak_rank_span=2,
                                 dominant_period=40, energy_ratio_dominant_weak=ratio, seed=seed)
        return synth.gen_mixture(spec)[0].data

    def test_two_flat_tiers_split_below_the_analytic_threshold(self):
        # Values [sqrt(R), sqrt(R), 1, 1]: the gaps 2R, 2, 2, 0 give
        # V_1 = SE_1, V_2 = SE_2 - SE_1 and V_3 = 0, so m = 2 needs SE_2 > 2 SE_1,
        # that is ln(R + 2) > 2 R ln(1 + 2 / R).
        def excess(ratio):
            return math.log(ratio + 2.0) - 2.0 * ratio * math.log1p(2.0 / ratio)

        lo, hi = 2.0, 1000.0
        for _ in range(60):
            mid = (lo + hi) / 2.0
            lo, hi = (lo, mid) if excess(mid) > 0.0 else (mid, hi)
        assert round(lo, 2) == 48.38
        for ratio, m in ((48.0, 1), (lo - 0.01, 1), (lo + 0.01, 2), (49.0, 2)):
            assert signal.cutoff_from_values([math.sqrt(ratio)] * 2 + [1.0, 1.0]).m == m, ratio

    @pytest.mark.parametrize("ratio, want", [(100.0, (2, 4)), (30.0, (1, 4)), (10.0, (1, 4)),
                                             (3.0, (1, 4))])
    def test_channel_column_mixtures(self, ratio, want):
        # 4000 x 8 mixtures with a planted (2, 4): found only at the default ratio of 100
        for seed in range(20):
            cut = signal.cutoff(linalg.svd(self.mixture(4000, seed, ratio)))
            assert (cut.m, cut.f) == want, seed

    def test_hankel_channel_splits_its_dominant_pair(self):
        # channel 0 of the mixture, L = 40, as separate --layout hankel factors it
        for seed in (*range(10), 11):
            channel = ChannelSet(self.mixture(4000, seed)[:, :1])
            trajectory = signal.embed(channel, EmbedLayout.hankel(40))
            cut = signal.cutoff(linalg.streamed_svd(trajectory.T))
            assert (cut.m, cut.f) == (1, 4), seed


class TestSeparate:
    def test_bands_are_the_truncated_sums(self):
        spec = linalg.svd(np.random.default_rng(14).standard_normal((9, 6)))
        for m, f in ((1, 2), (2, 6), (3, 3), (6, 6)):
            cut = signal.CutoffResult(m=m, f=f, peak_values=(0.0, 0.0), method="svd-egv")
            dom, weak, noise = signal.separate(spec, cut)
            assert dom.tobytes() == linalg.truncated_sum(spec, 1, m).tobytes()
            for part, first, last in ((weak, m + 1, f), (noise, f + 1, 6)):
                want = linalg.truncated_sum(spec, first, last) if first <= last else np.zeros((9, 6))
                assert part.tobytes() == want.tobytes()

    def test_diagonal_three_way(self):
        spec = spectrum_of([3.0, 2.0, 1.0])
        cut = signal.CutoffResult(m=1, f=2, peak_values=(0.0, 0.0), method="svd-egv")
        dom, weak, noise = signal.separate(spec, cut)
        assert np.allclose(dom, np.diag([3.0, 0.0, 0.0]), atol=1e-12)
        assert np.allclose(weak, np.diag([0.0, 2.0, 0.0]), atol=1e-12)
        assert np.allclose(noise, np.diag([0.0, 0.0, 1.0]), atol=1e-12)

    def test_full_truncation_degenerate(self):
        a = np.diag([3.0, 2.0])
        spec = linalg.svd(a)
        cut = signal.CutoffResult(m=2, f=None, peak_values=(0.0,), method="svd-egv")
        dom, weak, noise = signal.separate(spec, cut)
        assert np.allclose(dom, a, atol=1e-12)
        assert np.all(weak == 0.0) and np.all(noise == 0.0)

    def test_parts_sum_to_input(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((8, 5))
        spec = linalg.svd(a)
        r = spec.numerical_rank
        for m in range(1, r):
            for f in range(m + 1, r + 1):
                cut = signal.CutoffResult(m=m, f=f, peak_values=(0.0, 0.0), method="svd-egv")
                total = sum(signal.separate(spec, cut))
                assert np.linalg.norm(total - a) <= 1e-9 * np.linalg.norm(a)

    def test_absent_f_means_empty_noise(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((6, 4))
        spec = linalg.svd(a)
        cut = signal.CutoffResult(m=2, f=None, peak_values=(0.0,), method="svd-egv")
        dom, weak, noise = signal.separate(spec, cut)
        assert np.all(noise == 0.0)
        assert np.linalg.norm(dom + weak - a) <= 1e-9 * np.linalg.norm(a)

    def test_out_of_range_cut(self):
        spec = spectrum_of([3.0, 2.0])
        cut = signal.CutoffResult(m=3, f=None, peak_values=(0.0,), method="svd-egv")
        with pytest.raises(RangeError):
            signal.separate(spec, cut)


class TestGsvdSeparate:
    def test_parts_sum_to_reconstruction(self):
        rng = np.random.default_rng(13)
        a, b = rng.standard_normal((10, 5)), rng.standard_normal((7, 5))
        g = linalg.gsvd(a, b)
        cut = signal.CutoffResult(m=2, f=4, peak_values=(0.0, 0.0), method="gsvd-egv")
        for split in (signal.separate, signal.gsvd_separate):
            total = sum(split(g, cut))
            assert np.linalg.norm(total - a) <= 1e-9 * np.linalg.norm(a)

    def test_dominant_band_carries_top_values(self):
        a = np.diag([5.0, 0.1])
        g = linalg.gsvd(a, np.eye(2))
        cut = signal.CutoffResult(m=1, f=None, peak_values=(0.0,), method="gsvd-egv")
        for split in (signal.separate, signal.gsvd_separate):
            dom, weak, noise = split(g, cut)
            # the strongest generalized direction is the first diagonal entry
            assert abs(dom[0, 0] - 5.0) < 1e-9
            assert abs(weak[1, 1] - 0.1) < 1e-9
            assert np.all(noise == 0.0)

    def test_out_of_range_cut(self):
        g = linalg.gsvd(np.diag([5.0, 0.1]), np.eye(2))
        for m, f in ((0, None), (3, None), (2, 1), (1, 3)):
            cut = signal.CutoffResult(m=m, f=f, peak_values=(0.0,), method="gsvd-egv")
            with pytest.raises(RangeError):
                signal.separate(g, cut)


class TestBand:
    """_band_rows's row blocks are the matching slices of separate's parts."""

    @staticmethod
    def factors(kind):
        rng = np.random.default_rng(31)
        if kind == "svd-tall":
            return linalg.svd(rng.standard_normal((300, 12)))
        if kind == "svd-wide":
            return linalg.svd(rng.standard_normal((12, 300)))
        return linalg.gsvd(rng.standard_normal((300, 12)), rng.standard_normal((40, 12)))

    @pytest.mark.parametrize("kind", ["svd-tall", "svd-wide", "gsvd"])
    def test_blocks_are_slices_of_the_part(self, kind):
        factors = self.factors(kind)
        cut = signal.CutoffResult(m=3, f=7, peak_values=(0.0, 0.0), method="svd-egv")
        # A tall band's row blocks are its part's bytes, so its row-block
        # writes are too: a one-row block is taken from a two-row product. A
        # wide band's blocks take other gemm paths: those round on their own,
        # by at most a few ulps of the part.
        exact = kind in ("svd-tall", "gsvd")
        ranges, parts = signal._band_ranges(factors, cut), signal.separate(factors, cut)
        rows = factors.shape[0]
        for part in parts:
            assert part.shape == factors.shape
        for r0, r1 in ((0, 1), (0, rows), (5, 6), (2, 9), (rows - 1, rows), (rows - 3, rows + 5)):
            for got, part in zip(signal._band_rows(factors, ranges, r0, r1), parts, strict=True):
                want = part[r0:r1]
                assert got.shape == want.shape
                if exact:
                    assert got.tobytes() == want.tobytes()
                else:
                    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(part))


class TestLongRecordingMemory:
    """A 40 000 x 8 recording separates with memory a small multiple of the input."""

    @staticmethod
    def mixture(seed):
        spec = synth.MixtureSpec(samples=40_000, channels=8, dominant_rank=2,
                                 weak_rank_span=2, dominant_period=40, seed=seed)
        channels, planted = synth.gen_mixture(spec)
        return channels.data, planted

    def test_svd_route(self):
        a, planted = self.mixture(7)

        def run():
            spec = linalg.svd(a)
            cut = signal.find_two_cutoffs(spec)
            return cut, signal.separate(spec, cut)

        (cut, parts), peak = traced_peak(run)
        assert (cut.m, cut.f) == planted
        assert np.linalg.norm(sum(parts) - a) <= 1e-9 * np.linalg.norm(a)
        assert peak <= 8 * a.nbytes

    def test_gsvd_route(self):
        a, _ = self.mixture(7)
        b, _ = self.mixture(8)

        def run():
            g = linalg.gsvd(a, b)
            return signal.gsvd_separate(g, signal.cutoff_from_gsvd(g))

        parts, peak = traced_peak(run)
        assert np.linalg.norm(sum(parts) - a) <= 1e-9 * np.linalg.norm(a)
        assert peak <= 8 * (a.nbytes + b.nbytes)


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: ChannelSet(np.zeros(4)), ShapeError, id="channels-1d"),
    pytest.param(lambda: ChannelSet.from_channels([]), ShapeError, id="no-channels"),
    pytest.param(lambda: EmbedLayout.hankel(1), LayoutError, id="window"),
    pytest.param(lambda: EmbedLayout.hankel(4, stride=0), LayoutError, id="stride"),
    pytest.param(lambda: EmbedLayout.hankel(5, stride=2.5), LayoutError, id="stride-float"),
    pytest.param(lambda: EmbedLayout.hankel(5.0), LayoutError, id="window-float"),
    pytest.param(lambda: EmbedLayout.channel_columns(5.0), LayoutError, id="columns-window-float"),
    pytest.param(lambda: signal.unembed(np.zeros((4, 3)), EmbedLayout.hankel(4), 5),
                 LayoutError, id="hankel-coverage"),
    pytest.param(lambda: signal.singular_energies([]), InvalidInputError, id="no-gaps"),
    pytest.param(lambda: signal.egv_profile([]), InvalidInputError, id="no-values"),
    pytest.param(lambda: signal.cutoff_from_values([1.0]), InsufficientRankError, id="one-value"),
    pytest.param(lambda: signal.cutoff_from_values([1.0, 2.0]), InvalidInputError, id="increasing"),
    pytest.param(lambda: signal.cutoff_from_values([3.0, np.nan, 1.0, 0.5]), InvalidInputError, id="nan-value"),
    pytest.param(lambda: signal.cutoff_from_values([np.inf, 2.0, 1.0]), InvalidInputError, id="inf-value"),
    pytest.param(lambda: signal.cutoff_from_values([np.inf, np.inf, 1.0]), InvalidInputError, id="inf-values"),
    pytest.param(lambda: signal.singular_energies([1.0, np.nan]), InvalidInputError, id="nan-gap"),
    pytest.param(lambda: signal.singular_energies([1.0, np.inf]), InvalidInputError, id="inf-gap"),
    pytest.param(lambda: signal.egv_profile([2.0, np.nan, 1.0]), InvalidInputError, id="profile-nan"),
    pytest.param(lambda: signal.egv_profile([np.inf, 1.0]), InvalidInputError, id="profile-inf"),
    pytest.param(lambda: with_failing_lapack("qr", lambda: linalg.streamed_svd(signal.embed(
        ChannelSet(np.arange(50.0)[:, None]), EmbedLayout.hankel(4)).T)), ConvergenceError, id="hankel-qr"),
])
def test_typed_errors(call, error):
    raise_exactly(error, call)
