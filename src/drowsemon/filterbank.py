"""Sub-band FIR filtering of PPG signals and pattern extraction.

The 1-10 Hz band of interest is carved into layered stacks of contiguous
sub-bands ("hyper-filtering"). Each (layer, band) pair yields one filtered
channel; a pattern is the cross-channel vector of one time sample. Only
samples outside the longest kernel's edge margin become patterns, and one
routine, ``_kept_rows``, computes them: every stride-th pattern row of one
signal, and only those, into its caller's matrix. ``hyper_filter`` calls it
at stride 1; ``build_dataset`` at its stride for each labeled signal, into
one matrix for the classifiers and the band-search reward. The stride picks
the kernel: at stride 1, each channel's kept samples are one "valid"
``np.convolve`` on the helper threads below; above it, each kept sample is
one serial ``np.vecdot`` of a signal window with the reversed taps. Both
give bitwise the samples of the full-length convolution, and each is the
faster on its side (2 vCPUs, 40 layouts): at stride 1 a per-layout reward
took a median 17% longer with ``np.vecdot`` on the helpers, and 57-72%
longer with either kernel serially while the second CPU was idle; at stride
8, ``np.convolve``, which cannot skip outputs, filtered the 32 default
signals in 0.13 s against 0.018 s. ``hyper_filter``'s ``FilteredStack``
holds the signal, its kernel bank and its kept rows; ``pattern_rows``
returns those rows as one (rows, channels) matrix, and ``pattern_signals``
as patterns. A stack's full-length, zero-padded channels are computed only
when ``FilteredStack.channels`` is first read, as ``filter``'s
``stack.csv`` does. ``_kernel_bank`` designs the latest (layout, fs) pair's
kernels once, with read-only taps shared by every signal.

The helpers are one fewer than the CPUs the process may run on, and never
more than the channels less one; the calling thread filters its own share,
and the channels are dealt to the shares in turn, longest kernel first, so
no share's taps exceed another's by more than one kernel. ``np.convolve``
releases the interpreter lock, so the helpers run in parallel. Each channel
is still one ``np.convolve`` of the same operands into its own column, so
the rows are bitwise the same on any CPU count; on one CPU no helper
exists. The helpers are made once per process and keyed by pid: a forked
child makes its own, as its parent's threads do not survive a fork.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .signal_gen import INDEX_LABEL, LABEL_INDEX, Label, PpgSignal

__all__ = [
    "PPG_BAND",
    "DEFAULT_BANDS_PER_LAYER",
    "FilterKernel",
    "HyperFilterConfig",
    "ChannelMeta",
    "FilteredStack",
    "PatternSignal",
    "PatternDataset",
    "SignalTooShortError",
    "design_bandpass",
    "apply_filter",
    "subband_edges",
    "hyper_filter",
    "pattern_rows",
    "pattern_signals",
    "build_dataset",
]

PPG_BAND = (1.0, 10.0)
DEFAULT_BANDS_PER_LAYER = 11

# Hamming-window FIR transition width rule: taps ~ 3.3 * fs / transition.
_HAMMING_TAP_FACTOR = 3.3
_MAX_TRANSITION_HZ = 0.5


class SignalTooShortError(ValueError):
    """Signal shorter than the longest filter kernel it must absorb."""


@dataclass(eq=False)
class FilterKernel:
    """Linear-phase FIR kernel: an odd number of taps centred on the middle one."""

    taps: np.ndarray

    def __post_init__(self) -> None:
        self.taps = np.asarray(self.taps, dtype=np.float64)
        if self.taps.ndim != 1 or self.taps.size % 2 != 1:
            raise ValueError("kernel must be a 1-D array with an odd tap count")


@dataclass(frozen=True)
class HyperFilterConfig:
    """Layered band layout: each layer is a (f_lo, f_hi) range split into
    ``bands_per_layer`` equal-width contiguous sub-bands."""

    layers: tuple[tuple[float, float], ...]
    bands_per_layer: int = DEFAULT_BANDS_PER_LAYER

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "layers", tuple((float(lo), float(hi)) for lo, hi in self.layers)
        )
        if len(self.layers) < 1:
            raise ValueError("config needs at least one layer")
        if self.bands_per_layer < 1:
            raise ValueError("bands_per_layer must be >= 1")
        for lo, hi in self.layers:
            if not (PPG_BAND[0] <= lo < hi <= PPG_BAND[1]):
                raise ValueError(
                    f"layer ({lo}, {hi}) must satisfy {PPG_BAND[0]} <= f_lo < f_hi <= {PPG_BAND[1]}"
                )


@dataclass(frozen=True)
class ChannelMeta:
    layer: int
    band: int
    f_lo: float
    f_hi: float
    taps: int


@dataclass(eq=False)
class FilteredStack:
    """What ``hyper_filter`` computed for one signal: the signal, its
    (metadata, kernel) bank and the kept pattern ``rows``.

    Channel order is layer index then ascending band frequency, in the bank,
    in ``channel_meta`` and in the columns of ``rows``. The full-length,
    zero-padded ``channels``, shape (n_channels, n_samples), are computed
    from the samples and kernels when first read, and kept; no other
    attribute computes them.
    """

    signal: PpgSignal
    bank: tuple[tuple[ChannelMeta, FilterKernel], ...]
    rows: np.ndarray

    @functools.cached_property
    def channels(self) -> np.ndarray:
        return np.array([_convolve(self.signal.samples, k.taps) for _, k in self.bank])

    @property
    def channel_meta(self) -> list[ChannelMeta]:
        return [m for m, _ in self.bank]

    @property
    def fs(self) -> float:
        return self.signal.fs

    @property
    def label(self) -> Label | None:
        return self.signal.label

    @property
    def n_channels(self) -> int:
        return len(self.bank)

    @property
    def n_samples(self) -> int:
        return self.signal.samples.size

    @property
    def default_margin(self) -> int:
        """Edge samples corrupted by the longest kernel's group delay."""
        return (max(m.taps for m, _ in self.bank) - 1) // 2


@dataclass(eq=False)
class PatternSignal:
    """Cross-channel intensity vector of one time sample."""

    values: np.ndarray
    label: Label | None = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError("pattern values must be 1-D")
        if not np.isfinite(self.values).all():
            raise ValueError("pattern values must be finite")

    @classmethod
    def _of_checked_row(cls, values: np.ndarray, label: Label | None) -> "PatternSignal":
        """A pattern of a float64 row the caller has already checked 1-D and finite."""
        pattern = cls.__new__(cls)
        pattern.values, pattern.label = values, label
        return pattern


@dataclass(eq=False)
class PatternDataset:
    """Row-per-pattern matrix with integer class labels (see LABEL_INDEX)."""

    values: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-D (rows, channels) array")
        if self.labels.shape != (self.values.shape[0],):
            raise ValueError("labels must be one integer per row")

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    @classmethod
    def from_patterns(cls, patterns: Iterable[PatternSignal]) -> "PatternDataset":
        pats = list(patterns)
        if not pats:
            raise ValueError("cannot build a dataset from zero patterns")
        if any(p.label is None for p in pats):
            raise ValueError("every pattern needs a class label")
        values = np.stack([p.values for p in pats])
        labels = np.array([LABEL_INDEX[p.label] for p in pats], dtype=np.int64)
        return cls(values, labels)

    def require_both_classes(self) -> None:
        """Refuse a dataset with no row of some class."""
        counts = {lab.value: int(np.sum(self.labels == i)) for i, lab in enumerate(INDEX_LABEL)}
        if 0 in counts.values():
            raise ValueError(f"the dataset needs both classes, got row counts {counts}")


def _tap_count(fs: float, transition_hz: float) -> int:
    """Smallest odd integer >= 3.3 * fs / transition_hz."""
    n = math.ceil(_HAMMING_TAP_FACTOR * fs / transition_hz)
    return n if n % 2 == 1 else n + 1


def design_bandpass(
    f_lo: float, f_hi: float, fs: float, transition_hz: float = _MAX_TRANSITION_HZ
) -> FilterKernel:
    """Design a windowed-sinc band-pass FIR (Hamming window).

    Built as the difference of two unit-DC-gain low-pass kernels, so the DC
    gain is exactly zero and the passband gain sits within a few tenths of a
    percent of one.
    """
    if not 0 < f_lo < f_hi < fs / 2:
        raise ValueError(f"need 0 < f_lo < f_hi < fs/2, got ({f_lo}, {f_hi}) at fs={fs}")
    if not transition_hz > 0:
        raise ValueError(f"transition_hz must be > 0, got {transition_hz}")

    n = _tap_count(fs, transition_hz)
    mid = (n - 1) // 2
    k = np.arange(n) - mid
    window = np.hamming(n)

    def lowpass(fc: float) -> np.ndarray:
        h = np.where(
            k == 0,
            2.0 * fc / fs,
            np.sin(2 * math.pi * fc * k / fs) / (math.pi * np.where(k == 0, 1, k)),
        )
        h = h * window
        return h / h.sum()

    taps = lowpass(f_hi) - lowpass(f_lo)
    return FilterKernel(taps)


def _convolve(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """The input-length, group-delay-compensated convolution of ``x``."""
    mid = (taps.size - 1) // 2
    # "same" starts at full index (min(taps, n) - 1) // 2: shift it to ``mid``
    return np.convolve(x, taps, "same")[max(0, mid - (x.size - 1) // 2) :][: x.size]


def apply_filter(kernel: FilterKernel, signal: PpgSignal) -> PpgSignal:
    """Convolve and compensate the group delay (zero-phase, zero-padded edges).

    Output length equals input length; the first and last (taps-1)/2 samples
    are edge-transient territory.
    """
    if signal.samples.size < 1:
        raise ValueError("signal must contain at least one sample")
    return PpgSignal(_convolve(signal.samples, kernel.taps), fs=signal.fs, label=signal.label)


def subband_edges(layer: tuple[float, float], n_bands: int) -> list[tuple[float, float]]:
    """Split a layer band into contiguous equal-width sub-bands.

    Adjacent bands share the exact same edge value; the first and last edges
    are exactly the layer bounds.
    """
    lo, hi = layer
    if not lo < hi:
        raise ValueError(f"need f_lo < f_hi, got ({lo}, {hi})")
    if n_bands < 1:
        raise ValueError(f"n_bands must be >= 1, got {n_bands}")
    span = hi - lo
    edges = [lo + span * i / n_bands for i in range(n_bands + 1)]
    edges[-1] = hi
    return list(zip(edges[:-1], edges[1:]))


def _sub_bands(config: HyperFilterConfig):
    """(layer, band, f_lo, f_hi, transition) of every channel, in channel order."""
    for layer_idx, layer in enumerate(config.layers):
        for band_idx, (lo, hi) in enumerate(subband_edges(layer, config.bands_per_layer)):
            yield layer_idx, band_idx, lo, hi, min(_MAX_TRANSITION_HZ, (hi - lo) / 2)


@functools.lru_cache(maxsize=1)
def _max_taps(config: HyperFilterConfig, fs: float) -> int:
    """Tap count of the layout's longest kernel at ``fs``, by the tap rule
    alone: no kernel is designed."""
    return max(_tap_count(fs, transition) for *_, transition in _sub_bands(config))


@functools.lru_cache(maxsize=1)
def _kernel_bank(config: HyperFilterConfig, fs: float) -> tuple[tuple[ChannelMeta, FilterKernel], ...]:
    """Every channel's metadata and kernel, in channel order, with read-only taps."""
    bank = []
    for *sub, lo, hi, transition in _sub_bands(config):
        kernel = design_bandpass(lo, hi, fs, transition)
        kernel.taps.flags.writeable = False
        bank.append((ChannelMeta(*sub, lo, hi, kernel.taps.size), kernel))
    return tuple(bank)


@functools.lru_cache(maxsize=1)
def _helper_pool(pid: int):
    """The convolution helpers of process ``pid`` as ``(executor, count)``:
    one thread fewer than the CPUs this process may run on, or ``(None, 0)``
    on one CPU. Made once per process (first callers that race may each make
    one; the cache keeps one), and a forked child asks with its own pid."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n = (cpus or 1) - 1
    if n < 1:
        return None, 0
    # imported here: at module level it raised search's peak_rss_mb by about 3 MB
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(n, thread_name_prefix="drowsemon-convolve"), n


def _margin(signal: PpgSignal, config: HyperFilterConfig) -> int:
    """The layout's edge margin at the signal's rate, which every row of
    ``_kept_rows`` clears. Raises SignalTooShortError when the signal cannot
    absorb the longest kernel; no kernel is designed."""
    max_taps = _max_taps(config, signal.fs)
    if signal.samples.size < max_taps:
        raise SignalTooShortError(
            f"hyper-filtering this band layout needs at least {max_taps} samples, "
            f"got {signal.samples.size}"
        )
    return (max_taps - 1) // 2


def _kept_samples(x: np.ndarray, taps: np.ndarray, margin: int) -> np.ndarray:
    """Samples ``margin`` to ``x.size - margin - 1`` of ``_convolve(x, taps)``,
    bitwise, from only the part of ``x`` they read."""
    mid = (taps.size - 1) // 2
    return np.convolve(x[margin - mid : x.size - margin + mid], taps, "valid")


def _filter_share(rows: np.ndarray, x: np.ndarray, bank, margin: int, share: list[int]) -> None:
    for c in share:
        rows[:, c] = _kept_samples(x, bank[c][1].taps, margin)


def _kept_rows(out: np.ndarray, signal: PpgSignal, config: HyperFilterConfig, stride: int) -> None:
    """Write every ``stride``-th row of ``pattern_rows(hyper_filter(signal,
    config))`` into ``out``, bitwise, computing only those rows with the
    stride's kernel. ``np.vecdot`` reads one ``stride``-stepped window view
    per distinct tap count, and rounds differently on a strided or
    negative-stride operand: hence the contiguous samples and copied taps."""
    margin = _margin(signal, config)
    bank = _kernel_bank(config, signal.fs)
    x = np.ascontiguousarray(signal.samples)
    if stride == 1:
        pool, n_helpers = _helper_pool(os.getpid())
        n_shares = 1 + min(n_helpers, len(bank) - 1)
        order = sorted(range(len(bank)), key=lambda c: -bank[c][0].taps)
        mine, *theirs = (order[i::n_shares] for i in range(n_shares))
        futures = [pool.submit(_filter_share, out, x, bank, margin, share) for share in theirs]
        _filter_share(out, x, bank, margin, mine)
        for f in futures:
            f.result()
        return
    windows = {}
    for c, (meta, kernel) in enumerate(bank):
        if meta.taps not in windows:
            mid = (meta.taps - 1) // 2
            windows[meta.taps] = sliding_window_view(x, meta.taps)[margin - mid : x.size - margin - mid : stride]
        np.vecdot(windows[meta.taps], kernel.taps[::-1].copy(), out=out[:, c])


def hyper_filter(signal: PpgSignal, config: HyperFilterConfig) -> FilteredStack:
    """Filter one signal through every (layer, sub-band) kernel.

    Only the rows ``pattern_rows`` keeps are computed, by ``_kept_rows``;
    the full-length ``channels`` are computed when first read. Channels are
    ordered by layer index then ascending band frequency; the label is
    propagated. Raises SignalTooShortError as ``_margin`` does.
    """
    margin = _margin(signal, config)
    bank = _kernel_bank(config, signal.fs)
    rows = np.empty((signal.samples.size - 2 * margin, len(bank)))
    _kept_rows(rows, signal, config, 1)
    return FilteredStack(signal, bank, rows)


def pattern_rows(stack: FilteredStack) -> np.ndarray:
    """Cross-channel patterns of the retained samples as a (rows, channels) matrix.

    The stack's ``default_margin`` samples are dropped from each end; row k
    reads channel c at ``stack.channels[c][default_margin + k]``. The matrix
    is the one the stack holds, not a copy, and is C-contiguous: a reduction
    over its rows, such as the Fisher score's class means, rounds differently
    on a transposed view of the channels. The full-length channels are never
    computed.
    """
    return stack.rows


def pattern_signals(stack: FilteredStack) -> list[PatternSignal]:
    """The rows of ``pattern_rows`` as patterns carrying the stack's label.

    The rows are checked finite once, as one matrix, with
    ``PatternSignal``'s message."""
    rows = pattern_rows(stack)
    if not np.isfinite(rows).all():
        raise ValueError("pattern values must be finite")
    return [PatternSignal._of_checked_row(row, stack.label) for row in rows]


def build_dataset(
    signals: list[PpgSignal], bands: HyperFilterConfig, stride: int
) -> PatternDataset:
    """Hyper-filter every labeled signal and keep every ``stride``-th pattern row.

    Each signal's kept rows are counted before any filtering, by the margin
    rule of ``FilteredStack.default_margin``, and ``_kept_rows`` writes them
    straight into one matrix allocated up front: no other signal-sized
    matrix is held. No full-length channel is computed.
    """
    if not signals:
        raise ValueError("no signals to build a dataset from (is n_per_class zero?)")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    # the samples pattern_rows keeps; a signal too short for the layout keeps
    # none here, and _margin refuses it below, in signal order
    counts = []
    for sig in signals:
        margin = (_max_taps(bands, sig.fs) - 1) // 2
        counts.append(len(range(margin, sig.samples.size - margin, stride)))
    values = np.empty((sum(counts), len(bands.layers) * bands.bands_per_layer))
    labels = np.empty(values.shape[0], dtype=np.int64)
    start = 0
    for i, (sig, count) in enumerate(zip(signals, counts)):
        if sig.label is None:
            raise ValueError(f"signal {i} is unlabeled: every signal needs a class label")
        _kept_rows(values[start : start + count], sig, bands, stride)
        labels[start : start + count] = LABEL_INDEX[sig.label]
        start += count
    return PatternDataset(values, labels)
