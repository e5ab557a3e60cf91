import hashlib
import math
import os
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import Future, ThreadPoolExecutor
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


# the default layout (807- and 1,615-tap kernels) and one with a 3.5 Hz-wide
# layer, the narrowest a 24 s signal fits (up to 2,075 taps)
HELPER_LAYOUTS = [
    default_config().bands,
    HyperFilterConfig(((1.0, 4.5), (1.0, 10.0), (5.5, 10.0))),
]


def default_signals(n_per_class):
    config = default_config()
    return generate_signals(replace(config, generation=replace(config.generation, n_per_class=n_per_class)))


def serial_stack(monkeypatch, signal, layout) -> bytes:
    with monkeypatch.context() as m:
        m.setattr(filterbank, "_helper_pool", lambda: (None, 0))
        return hyper_filter(signal, layout).channels.tobytes()


class InlineExecutor:
    """Runs each submitted call at once on the caller's thread, and counts them."""

    def __init__(self):
        self.calls = 0

    def submit(self, fn, *args):
        self.calls += 1
        future = Future()
        future.set_result(fn(*args))
        return future


class TestHelperThreads:
    @pytest.mark.parametrize("layout", HELPER_LAYOUTS)
    def test_stack_bytes_equal_with_and_without_helpers(self, monkeypatch, layout):
        signals = default_signals(1)
        serial = [serial_stack(monkeypatch, s, layout) for s in signals]
        assert [hyper_filter(s, layout).channels.tobytes() for s in signals] == serial
        # three helpers, whatever this machine's CPU count
        with ThreadPoolExecutor(3) as pool:
            monkeypatch.setattr(filterbank, "_helper_pool", lambda: (pool, 3))
            assert [hyper_filter(s, layout).channels.tobytes() for s in signals] == serial

    def test_helpers_are_one_fewer_than_the_usable_cpus(self, monkeypatch):
        for cpus, helpers in [(8, 7), (2, 1), (1, 0)]:
            monkeypatch.setattr(filterbank, "_pool", None)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            pool, n = filterbank._helper_pool()
            assert n == helpers and (pool is None) == (helpers == 0)
            if pool is not None:
                pool.shutdown()

    @pytest.mark.parametrize("bands_per_layer, submitted", [(3, 2), (11, 7)])
    def test_at_most_one_helper_fewer_than_the_channels(self, monkeypatch, bands_per_layer, submitted):
        layout = HyperFilterConfig(((1.0, 10.0),), bands_per_layer=bands_per_layer)
        signal = default_signals(1)[0]
        serial = serial_stack(monkeypatch, signal, layout)
        pool = InlineExecutor()
        monkeypatch.setattr(filterbank, "_helper_pool", lambda: (pool, 7))
        assert hyper_filter(signal, layout).channels.tobytes() == serial
        assert pool.calls == submitted

    @pytest.mark.parametrize("layout", HELPER_LAYOUTS)
    @pytest.mark.parametrize("n_shares", [2, 3, 4])
    def test_shares_are_balanced_by_multiply_adds(self, layout, n_shares):
        # greedy costliest-first assignment: no share exceeds another by more
        # than one channel's cost, whereas splitting the channel list in halves
        # would give one share the cheap 807-tap layer
        macs = [filterbank._macs(2400, k.taps.size) for _, k in filterbank._kernel_bank(layout, 100.0)]
        shares = filterbank._shares(macs, n_shares)
        assert sorted(c for share in shares for c in share) == list(range(len(macs)))
        loads = [sum(macs[c] for c in share) for share in shares]
        assert max(loads) - min(loads) <= max(macs)

    @pytest.mark.parametrize("n, taps", [(1, 1), (9, 5), (9, 9), (2400, 807), (2400, 2075)])
    def test_macs_count_each_output_samples_overlap(self, n, taps):
        # "same" output k overlaps the input on min(k + 1, taps, n + taps - 1 - k) taps
        mid = (taps - 1) // 2
        overlaps = [min(k + 1, taps, n + taps - 1 - k) for k in range(mid, mid + n)]
        assert filterbank._macs(n, taps) == sum(overlaps)

    def test_concurrent_callers_get_the_serial_bytes(self, monkeypatch):
        signal = default_signals(1)[0]
        serial = [serial_stack(monkeypatch, signal, layout) for layout in HELPER_LAYOUTS]
        results, errors = [], []

        def call(k):
            try:
                for i in range(3):
                    layout = (k + i) % 2
                    results.append((layout, hyper_filter(signal, HELPER_LAYOUTS[layout]).channels.tobytes()))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            # more calling threads than CPUs, each switching layouts, so the
            # one-entry kernel bank changes under the others' feet
            threads = [threading.Thread(target=call, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and len(results) == 12
        assert all(stack == serial[layout] for layout, stack in results)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs POSIX fork")
    def test_forked_child_filters_with_its_own_helpers(self, monkeypatch):
        from signal import SIGKILL  # POSIX only, like fork

        sig = default_signals(1)[0]
        layout = HELPER_LAYOUTS[0]
        expected = hashlib.sha256(serial_stack(monkeypatch, sig, layout)).hexdigest()
        # once the parent's helpers have run, a child that used them would wait forever
        pool = ThreadPoolExecutor(2)
        monkeypatch.setattr(filterbank, "_pool", (pool, 2))
        try:
            hyper_filter(sig, layout)
            read_end, write_end = os.pipe()
            with warnings.catch_warnings():
                # forking a process that runs threads is what this test checks
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:  # the child: report the digest, never return into pytest
                try:
                    os.close(read_end)
                    digest = hashlib.sha256(hyper_filter(sig, layout).channels.tobytes()).hexdigest()
                    os.write(write_end, digest.encode())
                finally:
                    os._exit(0)
            os.close(write_end)
            deadline = time.monotonic() + 60
            while os.waitpid(pid, os.WNOHANG) == (0, 0):
                if time.monotonic() > deadline:
                    os.kill(pid, SIGKILL)
                    os.waitpid(pid, 0)
                    pytest.fail("the forked child's hyper_filter did not return within 60 s")
                time.sleep(0.05)
            with os.fdopen(read_end, "rb") as child_out:
                assert child_out.read().decode() == expected
        finally:
            pool.shutdown()


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

    def test_keeps_only_the_rows_it_returns(self):
        # each signal's 786 x 33 pattern matrix is freed once its every 8th row
        # is copied out; a strided view would hold all eight until the end
        signals = default_signals(4)
        bands = default_config().bands
        build_dataset(signals[:1], bands, 8)  # designs and caches the kernels
        tracemalloc.start()
        try:
            dataset = build_dataset(signals, bands, 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(signals) == 8 and len(dataset) == 8 * 99
        assert peak < 8 * 786 * 33 * 8

    def test_unlabeled_signal_rejected(self):
        samples = np.random.default_rng(5).normal(size=800)
        signals = [PpgSignal(samples, 100.0, Label.DROWSY), PpgSignal(samples, 100.0, None)]
        with pytest.raises(ValueError, match="class label"):
            build_dataset(signals, HyperFilterConfig(((1.0, 10.0),), bands_per_layer=3), 1)
