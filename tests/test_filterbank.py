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
from drowsemon.signal_gen import LABEL_INDEX, Label, PpgSignal


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

    def test_stack_holds_its_signal_bank_and_rows(self):
        signal = PpgSignal(sine(2.0, seconds=24.0).samples, fs=100.0, label=Label.WAKEFUL)
        layout = HyperFilterConfig(((1.0, 10.0), (2.0, 6.0)), bands_per_layer=4)
        stack = hyper_filter(signal, layout)
        assert isinstance(stack, FilteredStack) and set(vars(stack)) == {"signal", "bank", "rows"}
        assert stack.signal is signal and stack.bank is filterbank._kernel_bank(layout, 100.0)
        assert pattern_rows(stack) is stack.rows
        assert stack.channel_meta == [m for m, _ in stack.bank]
        assert (stack.fs, stack.label, stack.n_channels, stack.n_samples) == (100.0, Label.WAKEFUL, 8, 2400)

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
        for stride in (1, 8):
            calls.clear()
            filterbank._kernel_bank.cache_clear()
            try:
                build_dataset(signals, config.bands, stride)
            finally:
                filterbank._kernel_bank.cache_clear()
            assert len(signals) == 4 and len(calls) == 33

    def test_longest_kernel_is_derived_once_per_layout(self):
        signals = default_signals(2)
        filterbank._max_taps.cache_clear()
        for stride in (1, 8):
            build_dataset(signals, default_config().bands, stride)
        assert filterbank._max_taps.cache_info().misses == 1

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


def serial_rows(monkeypatch, signal, layout) -> bytes:
    with monkeypatch.context() as m:
        m.setattr(filterbank, "_helper_pool", lambda pid: (None, 0))
        return pattern_rows(hyper_filter(signal, layout)).tobytes()


class InlineExecutor:
    """Runs each submitted call at once on the caller's thread, counts them
    and records each one's channel share (its last argument)."""

    def __init__(self):
        self.calls = 0
        self.shares = []

    def submit(self, fn, *args):
        self.calls += 1
        self.shares.append(list(args[-1]))
        future = Future()
        future.set_result(fn(*args))
        return future


class TestHelperThreads:
    @pytest.mark.parametrize("layout", HELPER_LAYOUTS)
    def test_stack_bytes_equal_with_and_without_helpers(self, monkeypatch, layout):
        signals = default_signals(1)
        serial = [serial_rows(monkeypatch, s, layout) for s in signals]
        assert [pattern_rows(hyper_filter(s, layout)).tobytes() for s in signals] == serial
        # three helpers, whatever this machine's CPU count
        with ThreadPoolExecutor(3) as pool:
            monkeypatch.setattr(filterbank, "_helper_pool", lambda pid: (pool, 3))
            assert [pattern_rows(hyper_filter(s, layout)).tobytes() for s in signals] == serial

    def test_helpers_are_one_fewer_than_the_usable_cpus(self, monkeypatch):
        for cpus, helpers in [(8, 7), (2, 1), (1, 0)]:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            pool, n = filterbank._helper_pool.__wrapped__(os.getpid())
            assert n == helpers and (pool is None) == (helpers == 0)
            if pool is not None:
                pool.shutdown()
        # made once per process, not once per call
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        filterbank._helper_pool.cache_clear()
        try:
            pool, n = filterbank._helper_pool(os.getpid())
            assert n == 3 and filterbank._helper_pool(os.getpid())[0] is pool
            other, _ = filterbank._helper_pool(os.getpid() + 1)  # as a forked child asks
            assert other is not pool
            pool.shutdown()
            other.shutdown()
        finally:
            # the next caller makes helpers for this machine's CPU count
            filterbank._helper_pool.cache_clear()

    @pytest.mark.parametrize("bands_per_layer, submitted", [(3, 2), (11, 7)])
    def test_at_most_one_helper_fewer_than_the_channels(self, monkeypatch, bands_per_layer, submitted):
        layout = HyperFilterConfig(((1.0, 10.0),), bands_per_layer=bands_per_layer)
        signal = default_signals(1)[0]
        serial = serial_rows(monkeypatch, signal, layout)
        pool = InlineExecutor()
        monkeypatch.setattr(filterbank, "_helper_pool", lambda pid: (pool, 7))
        assert pattern_rows(hyper_filter(signal, layout)).tobytes() == serial
        assert pool.calls == submitted

    # one band per layer, 1.0, 0.6 and 0.8 Hz wide: 661, 1,101 and 827 taps,
    # with the longest kernel in the middle of the channel order
    @pytest.mark.parametrize(
        "layout", [*HELPER_LAYOUTS, HyperFilterConfig(((3.0, 4.0), (1.0, 1.6), (2.0, 2.8)), bands_per_layer=1)]
    )
    @pytest.mark.parametrize("n_helpers", [1, 2, 3])
    def test_shares_are_dealt_longest_kernel_first(self, monkeypatch, layout, n_helpers):
        signal = default_signals(1)[0]
        serial = serial_rows(monkeypatch, signal, layout)
        bank = filterbank._kernel_bank(layout, signal.fs)
        channel_of = {id(kernel.taps): c for c, (_, kernel) in enumerate(bank)}
        convolved = []  # the channel of each convolution, in call order
        kept_samples = filterbank._kept_samples

        def counted(x, taps, margin):
            convolved.append(channel_of[id(taps)])
            return kept_samples(x, taps, margin)

        pool = InlineExecutor()
        monkeypatch.setattr(filterbank, "_kept_samples", counted)
        monkeypatch.setattr(filterbank, "_helper_pool", lambda pid: (pool, n_helpers))
        stack = hyper_filter(signal, layout)
        taps = [m.taps for m in stack.channel_meta]
        # the helpers' shares run at submission, before the caller's own
        submitted = [c for share in pool.shares for c in share]
        assert convolved[: len(submitted)] == submitted
        shares = [convolved[len(submitted) :], *pool.shares]
        assert len(shares) == 1 + min(n_helpers, len(taps) - 1)
        assert sorted(convolved) == list(range(len(taps)))
        assert max(taps[c] for c in shares[0]) == max(taps)
        loads = [sum(taps[c] for c in share) for share in shares]
        assert max(loads) - min(loads) <= max(taps)
        assert pattern_rows(stack).tobytes() == serial

    def test_a_helper_share_error_is_raised_to_the_caller(self, monkeypatch):
        signal = default_signals(1)[0]
        layout = HELPER_LAYOUTS[0]
        bank = filterbank._kernel_bank(layout, signal.fs)
        # with one helper, the channels are dealt in turn: the second-longest goes to the helper
        order = sorted(range(len(bank)), key=lambda c: -bank[c][0].taps)
        failing = bank[order[1]][1].taps
        raised_on = []
        kept_samples = filterbank._kept_samples

        def failing_kept_samples(x, taps, margin):
            if taps is failing:
                raised_on.append(threading.current_thread())
                raise FloatingPointError("helper share failed")
            return kept_samples(x, taps, margin)

        monkeypatch.setattr(filterbank, "_kept_samples", failing_kept_samples)
        with ThreadPoolExecutor(1) as pool:
            monkeypatch.setattr(filterbank, "_helper_pool", lambda pid: (pool, 1))
            with pytest.raises(FloatingPointError, match="helper share failed"):
                hyper_filter(signal, layout)
        assert len(raised_on) == 1 and raised_on[0] is not threading.current_thread()

    def test_concurrent_callers_get_the_serial_bytes(self, monkeypatch):
        signal = default_signals(1)[0]
        serial = [serial_rows(monkeypatch, signal, layout) for layout in HELPER_LAYOUTS]
        results, errors = [], []

        def call(k):
            try:
                for i in range(3):
                    layout = (k + i) % 2
                    results.append((layout, pattern_rows(hyper_filter(signal, HELPER_LAYOUTS[layout])).tobytes()))
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        # no helpers yet, so the calling threads race to make them
        filterbank._helper_pool.cache_clear()
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
        expected = hashlib.sha256(serial_rows(monkeypatch, sig, layout)).hexdigest()
        # once the parent's helpers have run, a child that used them would wait forever
        pool = ThreadPoolExecutor(2)
        parent, helper_pool = os.getpid(), filterbank._helper_pool
        monkeypatch.setattr(filterbank, "_helper_pool", lambda pid: (pool, 2) if pid == parent else helper_pool(pid))
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
                    digest = hashlib.sha256(pattern_rows(hyper_filter(sig, layout)).tobytes()).hexdigest()
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


# the layouts above and one of three overlapping layers (1,815, 1,817 and 1,039 taps)
KEPT_LAYOUTS = [*HELPER_LAYOUTS, HyperFilterConfig(((1.0, 5.0), (4.5, 8.5), (2.0, 9.0)))]


def full_path_rows(signal, layout) -> np.ndarray:
    """The kept rows sliced out of the full-length, zero-padded channels."""
    bank = filterbank._kernel_bank(layout, signal.fs)
    channels = np.array([apply_filter(kernel, signal).samples for _, kernel in bank])
    margin, n = (max(m.taps for m, _ in bank) - 1) // 2, signal.samples.size
    return np.ascontiguousarray(channels[:, margin : n - margin].T)


def truncated(signal, n_samples):
    return PpgSignal(signal.samples[:n_samples], signal.fs, signal.label)


# each layout on 2,400- and 2,000-sample signals, where they fit, and on the
# shortest it accepts, which keeps one row
KEPT_CASES = [
    pytest.param(layout, n, id=f"layout{k}-{n}")
    for k, layout in enumerate(KEPT_LAYOUTS)
    for n in sorted({2400, 2000, filterbank._max_taps(layout, 100.0)}, reverse=True)
    if n >= filterbank._max_taps(layout, 100.0)
]


class TestKeptRows:
    @pytest.mark.parametrize("layout, n_samples", KEPT_CASES)
    @pytest.mark.parametrize("n_helpers", [0, 1, 3])
    def test_bitwise_kept_rows_equal_the_full_path(self, monkeypatch, layout, n_samples, n_helpers):
        signal = truncated(default_signals(1)[1], n_samples)
        expected = full_path_rows(signal, layout)
        with ThreadPoolExecutor(max(n_helpers, 1)) as pool:
            monkeypatch.setattr(filterbank, "_helper_pool", lambda pid: (pool if n_helpers else None, n_helpers))
            rows = pattern_rows(hyper_filter(signal, layout))
        assert rows.flags.c_contiguous and rows.dtype == np.float64
        assert rows.shape == expected.shape and rows.shape[0] >= 1
        assert rows.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("stride", [1, 3, 8])
    def test_bitwise_build_dataset_equals_the_full_path(self, stride):
        long = default_signals(1)
        signals = [long[0], truncated(long[1], 2000), truncated(long[0], 2000), long[1]]
        bands = default_config().bands
        rows = [full_path_rows(s, bands)[::stride] for s in signals]
        dataset = build_dataset(signals, bands, stride)
        assert dataset.values.tobytes() == np.concatenate(rows).tobytes()
        labels = [np.full(r.shape[0], LABEL_INDEX[s.label]) for r, s in zip(rows, signals)]
        assert np.array_equal(dataset.labels, np.concatenate(labels))

    @pytest.mark.parametrize("layout, n_samples", KEPT_CASES)
    @pytest.mark.parametrize("stride", [2, 3, 8, 1000])
    @pytest.mark.parametrize("n_helpers", [0, 1])
    def test_bitwise_strided_build_dataset_equals_the_kept_rows(
        self, monkeypatch, layout, n_samples, stride, n_helpers
    ):
        # a stride of 1,000 keeps only the first of at most 786 rows
        long = default_signals(1)
        signals = [truncated(long[1], n_samples), long[0], truncated(long[0], n_samples)]
        with ThreadPoolExecutor(1) as pool:
            monkeypatch.setattr(filterbank, "_helper_pool", lambda pid: (pool if n_helpers else None, n_helpers))
            rows = [pattern_rows(hyper_filter(s, layout))[::stride] for s in signals]
            dataset = build_dataset(signals, layout, stride)
        assert stride < 1000 or [r.shape[0] for r in rows] == [1, 1, 1]
        assert dataset.values.tobytes() == np.concatenate(rows).tobytes()
        labels = [np.full(r.shape[0], LABEL_INDEX[s.label]) for r, s in zip(rows, signals)]
        assert np.array_equal(dataset.labels, np.concatenate(labels))

    def test_only_stride_one_filters_every_kept_row_on_the_helpers(self, monkeypatch):
        signals = default_signals(1)
        bands = default_config().bands
        calls = []
        kept_samples = filterbank._kept_samples

        def counted(x, taps, margin):
            calls.append(taps.size)
            return kept_samples(x, taps, margin)

        pool = InlineExecutor()
        monkeypatch.setattr(filterbank, "_kept_samples", counted)
        monkeypatch.setattr(filterbank, "_helper_pool", lambda pid: (pool, 1))
        build_dataset(signals, bands, 8)
        assert calls == [] and pool.calls == 0
        build_dataset(signals, bands, 1)
        assert len(calls) == 33 * len(signals) and pool.calls == len(signals)

    def test_bitwise_full_length_channels_are_computed_only_when_read(self, monkeypatch):
        signal = default_signals(1)[0]
        layout = default_config().bands
        bank = filterbank._kernel_bank(layout, signal.fs)
        full = np.array([apply_filter(kernel, signal).samples for _, kernel in bank])
        calls = []
        convolve = filterbank._convolve

        def counted(x, taps):
            calls.append(taps.size)
            return convolve(x, taps)

        monkeypatch.setattr(filterbank, "_convolve", counted)
        stack = hyper_filter(signal, layout)
        rows = pattern_rows(stack)
        assert (stack.n_samples, stack.n_channels, stack.default_margin) == (2400, 33, 807)
        assert calls == []
        assert stack.channels.tobytes() == full.tobytes()
        assert len(calls) == 33
        # computed once, and the rows are still the full path's
        assert stack.channels is stack.channels and len(calls) == 33
        assert pattern_rows(stack).tobytes() == rows.tobytes() == full_path_rows(signal, layout).tobytes()


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


def stacked_pattern_signals(stack):
    return np.stack([p.values for p in pattern_signals(stack)])


class PatternExtractionCases:
    """Count, indexing and margin cases, run once per extraction path on
    ``hyper_filter`` stacks of real layouts: ``extract`` returns the retained
    patterns as a (rows, channels) matrix."""

    extract = None

    @pytest.mark.parametrize("n_samples, n_rows", [(2400, 786), (2000, 386), (1615, 1)])
    def test_count_and_length(self, n_samples, n_rows):
        # the default layout's longest kernel has 1,615 taps: a margin of 807
        stack = hyper_filter(truncated(default_signals(1)[0], n_samples), default_config().bands)
        assert self.extract(stack).shape == (n_rows, 33)

    @pytest.mark.parametrize("layout, n_samples", KEPT_CASES)
    def test_bitwise_indexing_identity(self, layout, n_samples):
        stack = hyper_filter(truncated(default_signals(1)[1], n_samples), layout)
        # row k reads channel c at channels[c][margin + k]
        margin = stack.default_margin
        kept = np.ascontiguousarray(stack.channels[:, margin : n_samples - margin].T)
        patterns = self.extract(stack)
        assert patterns.shape == kept.shape and patterns.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("layout", KEPT_LAYOUTS)
    def test_default_margin_is_half_kernel(self, layout):
        stack = hyper_filter(default_signals(1)[0], layout)
        longest = max(
            design_bandpass(m.f_lo, m.f_hi, 100.0, min(0.5, (m.f_hi - m.f_lo) / 2)).taps.size
            for m in stack.channel_meta
        )
        assert stack.default_margin == (longest - 1) // 2
        assert len(self.extract(stack)) == 2400 - 2 * stack.default_margin


class TestPatternSignals(PatternExtractionCases):
    extract = staticmethod(stacked_pattern_signals)

    def test_label_propagates(self):
        for signal in default_signals(1):
            patterns = pattern_signals(hyper_filter(signal, default_config().bands))
            assert len(patterns) == 786 and signal.label is not None
            assert all(p.label is signal.label for p in patterns)

    def test_non_finite_rows_refused(self):
        # finite samples whose filtered sums overflow to both infinities
        t = np.arange(2400) / 100.0
        signal = PpgSignal(np.finfo(float).max * np.sign(np.sin(2 * math.pi * 3 * t)), 100.0)
        stack = hyper_filter(signal, HyperFilterConfig(((1.0, 10.0),), bands_per_layer=1))
        rows = pattern_rows(stack)
        assert np.isposinf(rows).any() and np.isneginf(rows).any()
        with pytest.raises(ValueError, match="^pattern values must be finite$"):
            pattern_signals(stack)


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

    def test_holds_one_signal_beside_its_output(self):
        # each signal's rows go straight into the output: no per-signal list
        # and no concatenated copy of it
        signals = default_signals(16)
        bands = default_config().bands
        build_dataset(signals[:1], bands, 1)  # designs and caches the kernels
        tracemalloc.start()
        try:
            dataset = build_dataset(signals, bands, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert dataset.values.shape == (32 * 786, 33)
        assert peak < 1.3 * dataset.values.nbytes

    def test_stride_one_holds_no_rows_beside_its_output(self, monkeypatch):
        # one signal's 786 x 33 rows held beside the output break the bound; three
        # helpers, whatever this machine's CPU count, fix the convolution temporaries
        signals = default_signals(16)
        bands = default_config().bands
        with ThreadPoolExecutor(3) as pool:
            monkeypatch.setattr(filterbank, "_helper_pool", lambda pid: (pool, 3))
            build_dataset(signals[:1], bands, 1)  # designs the kernels, starts the helpers
            tracemalloc.start()
            try:
                dataset = build_dataset(signals, bands, 1)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert dataset.values.shape == (32 * 786, 33)
        assert peak < dataset.values.nbytes + dataset.labels.nbytes + 786 * 33 * 8

    @pytest.mark.parametrize("stride", [1, 3, 8])
    def test_bitwise_strided_and_reversed_views_give_the_contiguous_rows(self, stride):
        signals = default_signals(2)
        bands = default_config().bands
        expected = build_dataset(signals, bands, stride).values.tobytes()
        strided = [PpgSignal(np.repeat(s.samples, 2)[::2], s.fs, s.label) for s in signals]
        reversed_ = [PpgSignal(s.samples[::-1].copy()[::-1], s.fs, s.label) for s in signals]
        for views in (strided, reversed_):
            assert not any(v.samples.flags.c_contiguous for v in views)
            assert build_dataset(views, bands, stride).values.tobytes() == expected

    @pytest.mark.parametrize("stride", [1, 3, 8])
    def test_bitwise_the_concatenated_rows_of_each_signal(self, stride):
        # signals of 2,400 and 2,000 samples keep 786 and 386 rows each
        long = default_signals(1)
        short = [PpgSignal(s.samples[:2000], s.fs, s.label) for s in long]
        signals = [long[0], short[1], short[0], long[1]]
        bands = default_config().bands
        rows = [pattern_rows(hyper_filter(s, bands))[::stride] for s in signals]
        dataset = build_dataset(signals, bands, stride)
        assert dataset.values.shape == (sum(r.shape[0] for r in rows), 33)
        assert dataset.values.tobytes() == np.concatenate(rows).tobytes()
        labels = [np.full(r.shape[0], LABEL_INDEX[s.label]) for r, s in zip(rows, signals)]
        assert np.array_equal(dataset.labels, np.concatenate(labels))

    def test_signals_are_refused_in_signal_order(self):
        bands = HyperFilterConfig(((1.0, 10.0),), bands_per_layer=3)  # 661 taps at 100 Hz
        too_short = PpgSignal(np.ones(600), 100.0, Label.DROWSY)
        unlabeled = PpgSignal(np.ones(800), 100.0, None)
        with pytest.raises(SignalTooShortError) as refused:
            hyper_filter(too_short, bands)
        for stride in (1, 8):
            with pytest.raises(SignalTooShortError) as info:
                build_dataset([too_short, unlabeled], bands, stride)
            assert str(info.value) == str(refused.value)
            with pytest.raises(ValueError) as info:
                build_dataset([unlabeled, too_short], bands, stride)
            assert str(info.value) == "signal 0 is unlabeled: every signal needs a class label"

    @pytest.mark.parametrize("stride", [-1, 0])
    def test_stride_below_one_refused_before_filtering(self, stride):
        # the signal is too short for the layout, so filtering would refuse it
        signals = [PpgSignal(np.ones(600), 100.0, Label.DROWSY)]
        with pytest.raises(ValueError) as info:
            build_dataset(signals, HyperFilterConfig(((1.0, 10.0),), bands_per_layer=3), stride)
        assert str(info.value) == f"stride must be >= 1, got {stride}"
