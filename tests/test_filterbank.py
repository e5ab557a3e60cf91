import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drowsemon import filterbank
from drowsemon.filterbank import (
    ChannelMeta,
    FilteredStack,
    FilterKernel,
    HyperFilterConfig,
    PatternSignal,
    SignalTooShortError,
    apply_filter,
    build_dataset,
    design_bandpass,
    hyper_filter,
    pattern_rows,
    pattern_signals,
    subband_edges,
)
from drowsemon.pipeline import default_config, generate_signals
from drowsemon.signal_gen import Label, PpgSignal


def sine(freq, fs=100.0, seconds=40.0, amplitude=1.0):
    t = np.arange(int(seconds * fs)) / fs
    return PpgSignal(amplitude * np.sin(2 * math.pi * freq * t), fs=fs)


def steady_state_amplitude(kernel, signal):
    """Post-transient amplitude via RMS over the core region (oracle)."""
    filtered = apply_filter(kernel, signal).samples
    margin = (kernel.taps.size - 1) // 2 + 50
    core = filtered[margin:-margin]
    return math.sqrt(2.0 * float(np.mean(core**2)))


class TestDesignBandpass:
    def test_default_tap_count_is_661(self):
        k = design_bandpass(1.0, 10.0, 100.0, 0.5)
        assert k.taps.size == 661

    def test_tap_count_is_smallest_odd_above_formula(self):
        k = design_bandpass(2.0, 4.0, 100.0, 0.7)
        raw = 3.3 * 100.0 / 0.7
        n = k.taps.size
        assert n % 2 == 1 and n >= raw and (n - 2) < raw

    def test_passband_amplitude(self):
        k = design_bandpass(1.0, 10.0, 100.0, 0.5)
        assert 0.95 <= steady_state_amplitude(k, sine(5.0)) <= 1.05

    def test_stopband_attenuation_low_side(self):
        k = design_bandpass(1.0, 10.0, 100.0, 0.5)
        assert steady_state_amplitude(k, sine(0.2)) <= 0.1

    def test_stopband_attenuation_high_side(self):
        k = design_bandpass(1.0, 10.0, 100.0, 0.5)
        assert steady_state_amplitude(k, sine(15.0)) <= 0.1

    def test_dc_gain_is_zero(self):
        k = design_bandpass(1.0, 10.0, 100.0, 0.5)
        assert abs(float(k.taps.sum())) < 1e-12

    @pytest.mark.parametrize(
        "f_lo,f_hi,fs,tw",
        [(0.0, 10.0, 100.0, 0.5), (10.0, 1.0, 100.0, 0.5), (1.0, 60.0, 100.0, 0.5), (1.0, 10.0, 100.0, 0.0)],
    )
    def test_invalid_arguments_rejected(self, f_lo, f_hi, fs, tw):
        with pytest.raises(ValueError):
            design_bandpass(f_lo, f_hi, fs, tw)


class TestApplyFilter:
    def test_zero_signal_stays_zero(self):
        k = design_bandpass(1.0, 10.0, 100.0, 0.5)
        out = apply_filter(k, PpgSignal(np.zeros(1000), fs=100.0))
        assert np.all(out.samples == 0.0)

    def test_linearity_in_amplitude(self):
        k = design_bandpass(1.0, 10.0, 100.0, 0.5)
        rng = np.random.default_rng(0)
        x = rng.normal(size=1200)
        y1 = apply_filter(k, PpgSignal(x, fs=100.0)).samples
        y2 = apply_filter(k, PpgSignal(2.5 * x, fs=100.0)).samples
        assert np.max(np.abs(y2 - 2.5 * y1)) < 1e-12

    def test_impulse_reproduces_centered_taps(self):
        k = design_bandpass(1.0, 10.0, 100.0, 0.5)
        mid = (k.taps.size - 1) // 2
        x = np.zeros(2001)
        pos = 1000
        x[pos] = 1.0
        y = apply_filter(k, PpgSignal(x, fs=100.0)).samples
        assert np.array_equal(y[pos - mid : pos + mid + 1], k.taps)

    def test_zero_phase_shift_consistency(self):
        k = design_bandpass(1.0, 10.0, 100.0, 0.5)
        base = steady_state_amplitude(k, sine(4.0))
        t = np.arange(4000) / 100.0
        shifted = PpgSignal(np.sin(2 * math.pi * 4.0 * t + 1.234), fs=100.0)
        assert abs(steady_state_amplitude(k, shifted) - base) < 1e-3

    def test_output_length_equals_input_length(self):
        k = design_bandpass(1.0, 10.0, 100.0, 0.5)
        for n in (1, 10, 661, 999):
            out = apply_filter(k, PpgSignal(np.ones(n), fs=100.0))
            assert out.samples.size == n

    @pytest.mark.parametrize("taps", [3, 661, 1615])
    def test_bitwise_equal_to_the_sliced_full_convolution(self, taps):
        rng = np.random.default_rng(taps)
        kernel = FilterKernel(rng.normal(size=taps))
        mid = (taps - 1) // 2
        for n in [*range(1, 41), taps - 1, taps, taps + 1, 2400]:
            x = rng.normal(size=n)
            out = apply_filter(kernel, PpgSignal(x, fs=100.0)).samples
            expected = np.convolve(x, kernel.taps)[mid : mid + n]
            assert out.shape == expected.shape and out.tobytes() == expected.tobytes(), n


class TestSubbandEdges:
    def test_single_band_is_whole_layer(self):
        assert subband_edges((1.0, 10.0), 1) == [(1.0, 10.0)]

    def test_eleven_bands_over_default_range(self):
        bands = subband_edges((1.0, 10.0), 11)
        assert len(bands) == 11
        assert bands[0][0] == 1.0
        assert bands[-1][1] == 10.0
        assert bands[0][1] == 1.0 + 9.0 / 11.0
        width = 9.0 / 11.0
        for lo, hi in bands:
            assert abs((hi - lo) - width) < 1e-12

    def test_adjacent_bands_share_exact_edges(self):
        bands = subband_edges((1.0, 10.0), 11)
        for (_, hi), (lo, _) in zip(bands[:-1], bands[1:]):
            assert hi == lo

    @given(
        lo=st.floats(1.0, 8.0),
        width=st.floats(0.5, 2.0),
        n=st.integers(1, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_tiling_property(self, lo, width, n):
        hi = lo + width
        bands = subband_edges((lo, hi), n)
        assert len(bands) == n
        assert bands[0][0] == lo and bands[-1][1] == hi
        for (_, a), (b, _) in zip(bands[:-1], bands[1:]):
            assert a == b

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            subband_edges((5.0, 5.0), 3)
        with pytest.raises(ValueError):
            subband_edges((1.0, 10.0), 0)


class TestHyperFilter:
    def test_single_band_matches_apply_filter(self):
        sig = sine(3.0, seconds=12.0)
        config = HyperFilterConfig(((1.0, 10.0),), bands_per_layer=1)
        stack = hyper_filter(sig, config)
        kernel = design_bandpass(1.0, 10.0, 100.0, min(0.5, 9.0 / 2))
        direct = apply_filter(kernel, sig).samples
        assert stack.n_channels == 1
        assert np.array_equal(stack.channels[0], direct)

    def test_default_three_by_eleven_shape(self):
        sig = sine(3.0, seconds=20.0)
        config = HyperFilterConfig(((1.0, 10.0), (1.0, 5.5), (5.5, 10.0)))
        stack = hyper_filter(sig, config)
        assert stack.n_channels == 33
        assert stack.channels.shape == (33, sig.samples.size)
        assert [m.layer for m in stack.channel_meta] == [0] * 11 + [1] * 11 + [2] * 11
        for meta in stack.channel_meta[:11]:
            assert meta.f_lo < meta.f_hi

    def test_pure_tone_lands_in_its_band(self):
        sig = sine(1.4, seconds=30.0)
        config = HyperFilterConfig(((1.0, 10.0),), bands_per_layer=11)
        stack = hyper_filter(sig, config)
        margin = stack.default_margin
        rms = np.sqrt(np.mean(stack.channels[:, margin:-margin] ** 2, axis=1))
        assert int(np.argmax(rms)) == 0  # band (1.0, 1.8182) holds 1.4 Hz

    def test_label_propagates(self):
        sig = PpgSignal(sine(2.0, seconds=10.0).samples, fs=100.0, label=Label.DROWSY)
        stack = hyper_filter(sig, HyperFilterConfig(((1.0, 10.0),), bands_per_layer=1))
        assert stack.label is Label.DROWSY

    def test_short_signal_error_names_required_length(self):
        sig = sine(2.0, seconds=3.0)
        config = HyperFilterConfig(((1.0, 10.0),), bands_per_layer=11)
        with pytest.raises(SignalTooShortError, match=r"at least \d+ samples"):
            hyper_filter(sig, config)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HyperFilterConfig(())
        with pytest.raises(ValueError):
            HyperFilterConfig(((0.5, 10.0),))
        with pytest.raises(ValueError):
            HyperFilterConfig(((1.0, 11.0),))
        with pytest.raises(ValueError):
            HyperFilterConfig(((1.0, 10.0),), bands_per_layer=0)


class TestKernelBank:
    def test_build_dataset_designs_each_kernel_once(self, monkeypatch):
        config = default_config()
        signals = generate_signals(replace(config, generation=replace(config.generation, n_per_class=2)))
        calls = []
        design = filterbank.design_bandpass

        def counted(*args):
            calls.append(args)
            return design(*args)

        monkeypatch.setattr(filterbank, "design_bandpass", counted)
        filterbank._kernel_bank.cache_clear()
        try:
            build_dataset(signals, config.bands, 1)
        finally:
            filterbank._kernel_bank.cache_clear()
        assert len(signals) == 4 and len(calls) == 33

    def test_cached_taps_are_read_only(self):
        bank = filterbank._kernel_bank(default_config().bands, 100.0)
        with pytest.raises(ValueError, match="read-only"):
            bank[0][1].taps[0] = 1.0

    def test_channels_equal_fresh_kernels_bitwise(self):
        config = HyperFilterConfig(((1.0, 10.0), (2.0, 6.0)), bands_per_layer=4)
        signal = PpgSignal(np.random.default_rng(6).normal(size=1500), 100.0)
        for stack in (hyper_filter(signal, config), hyper_filter(signal, config)):
            for channel, m in zip(stack.channels, stack.channel_meta):
                kernel = design_bandpass(m.f_lo, m.f_hi, 100.0, min(0.5, (m.f_hi - m.f_lo) / 2))
                assert channel.tobytes() == apply_filter(kernel, signal).samples.tobytes()


class TestPatternSignal:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PatternSignal(np.array([0.5, bad, 1.0]))

    def test_two_dimensional_values_refused(self):
        with pytest.raises(ValueError, match="1-D"):
            PatternSignal(np.zeros((2, 3)))

    def test_empty_vector_accepted(self):
        assert PatternSignal(np.array([])).values.shape == (0,)


def synthetic_stack(n_channels=33, n_samples=1000, seed=0, taps=101):
    rng = np.random.default_rng(seed)
    meta = [ChannelMeta(0, i, 1.0 + i * 0.1, 1.1 + i * 0.1, taps) for i in range(n_channels)]
    return FilteredStack(rng.normal(size=(n_channels, n_samples)), meta, fs=100.0, label=Label.WAKEFUL)


def stacked_pattern_signals(stack):
    return np.stack([p.values for p in pattern_signals(stack)])


class PatternExtractionCases:
    """Count, indexing and margin cases, run once per extraction path:
    ``extract`` returns the retained patterns as a (rows, channels) matrix.
    A stack's margin is set through its longest kernel's tap count."""

    extract = None

    def test_count_and_length(self):
        stack = synthetic_stack(n_channels=33, n_samples=1000, taps=701)
        patterns = self.extract(stack)
        assert patterns.shape == (300, 33)

    def test_indexing_identity(self):
        stack = synthetic_stack(n_channels=7, n_samples=200, seed=3, taps=81)
        margin = 40
        patterns = self.extract(stack)
        rng = np.random.default_rng(1)
        for _ in range(20):
            j = int(rng.integers(len(patterns)))
            c = int(rng.integers(7))
            assert patterns[j][c] == stack.channels[c][margin + j]

    def test_default_margin_is_half_kernel(self):
        stack = synthetic_stack(n_samples=400, taps=101)
        patterns = self.extract(stack)
        assert len(patterns) == 400 - 2 * 50

    def test_margin_too_large_rejected(self):
        stack = synthetic_stack(n_samples=100, taps=101)
        with pytest.raises(ValueError, match="margin"):
            self.extract(stack)


class TestPatternSignals(PatternExtractionCases):
    extract = staticmethod(stacked_pattern_signals)

    def test_constant_channels_give_constant_patterns(self):
        meta = [ChannelMeta(0, i, 1.0, 2.0, 11) for i in range(4)]
        channels = np.tile(np.arange(4, dtype=float)[:, None], (1, 50))
        stack = FilteredStack(channels, meta, fs=100.0)
        for p in pattern_signals(stack):
            assert np.array_equal(p.values, np.arange(4, dtype=float))

    def test_label_propagates(self):
        stack = synthetic_stack(n_samples=120)
        assert all(p.label is Label.WAKEFUL for p in pattern_signals(stack))


class TestPatternRows(PatternExtractionCases):
    extract = staticmethod(pattern_rows)

    def test_c_contiguous_and_bitwise_equal_to_pattern_signals(self):
        signal = PpgSignal(np.random.default_rng(4).normal(size=1500), 100.0, Label.DROWSY)
        stack = hyper_filter(signal, HyperFilterConfig(((1.0, 10.0), (2.0, 6.0)), bands_per_layer=4))
        rows = pattern_rows(stack)
        assert rows.flags.c_contiguous
        expected = np.stack([p.values for p in pattern_signals(stack)])
        assert rows.shape == expected.shape
        assert rows.tobytes() == expected.tobytes()


class TestBuildDataset:
    def test_no_signals_rejected(self):
        with pytest.raises(ValueError, match="no signals"):
            build_dataset([], HyperFilterConfig(((1.0, 10.0),), bands_per_layer=3), 1)

    def test_unlabeled_signal_rejected(self):
        samples = np.random.default_rng(5).normal(size=800)
        signals = [PpgSignal(samples, 100.0, Label.DROWSY), PpgSignal(samples, 100.0, None)]
        with pytest.raises(ValueError, match="class label"):
            build_dataset(signals, HyperFilterConfig(((1.0, 10.0),), bands_per_layer=3), 1)
