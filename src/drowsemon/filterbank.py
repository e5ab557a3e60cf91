"""Sub-band FIR filtering of PPG signals and pattern extraction.

The 1-10 Hz band of interest is carved into layered stacks of contiguous
sub-bands ("hyper-filtering"). Each (layer, band) pair yields one filtered
channel; a pattern is the cross-channel vector of one time sample. Only
samples outside the longest kernel's edge margin become patterns.
``pattern_rows`` returns a signal's patterns as one (rows, channels)
matrix; ``build_dataset`` stacks those of many labeled signals for the
classifiers and the band-search reward. ``pattern_signals`` gives the
rows of one signal as ``PatternSignal`` objects carrying its label.
``_kernel_bank`` designs the latest (layout, fs) pair's kernels once, with
read-only taps shared by every signal; ``apply_filter`` computes only the
input-length part of each convolution, bitwise equal to the full one sliced.

``hyper_filter`` spreads a signal's channels over helper threads, one fewer
than the CPUs the process may run on and never more than the channels less
one; the calling thread convolves its own share. The shares are balanced
by multiply-adds, since the kernels' lengths differ. ``np.convolve``
releases the interpreter lock, so the helpers run in parallel. Each channel
is still one ``np.convolve`` of the same operands, stacked in channel order,
so the stack is bitwise the same on any CPU count; on one CPU no helper
exists. The helpers are started on first use, and a forked child drops its
parent's (their threads do not survive a fork) and starts its own.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import Iterable

import numpy as np

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
    """All hyper-filtered channels of one signal, channel-major.

    ``channels`` has shape (n_channels, n_samples); channel order is layer
    index then ascending band frequency, matching ``channel_meta``.
    """

    channels: np.ndarray
    channel_meta: list[ChannelMeta]
    fs: float
    label: Label | None = None

    def __post_init__(self) -> None:
        self.channels = np.asarray(self.channels, dtype=np.float64)
        if self.channels.ndim != 2:
            raise ValueError("channels must be a 2-D (n_channels, n_samples) array")
        if self.channels.shape[0] != len(self.channel_meta):
            raise ValueError("channel_meta must describe every channel")

    @property
    def n_channels(self) -> int:
        return self.channels.shape[0]

    @property
    def n_samples(self) -> int:
        return self.channels.shape[1]

    @property
    def default_margin(self) -> int:
        """Edge samples corrupted by the longest kernel's group delay."""
        return (max(m.taps for m in self.channel_meta) - 1) // 2


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


_pool = None  # (executor or None, helper count), made by the first ``_helper_pool`` call
_pool_lock = threading.Lock()


def _helper_pool():
    """The convolution helpers as ``(executor, count)``: one thread fewer
    than the CPUs this process may run on, or ``(None, 0)`` on one CPU.
    Made on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
            n = (cpus or 1) - 1
            if n < 1:
                _pool = (None, 0)
            else:
                from concurrent.futures import ThreadPoolExecutor

                _pool = (ThreadPoolExecutor(n, thread_name_prefix="drowsemon-convolve"), n)
        return _pool


def _forget_pool() -> None:
    """Drop the parent's helpers in a forked child, whose copy has no threads."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _macs(n: int, taps: int) -> int:
    """Multiply-adds of an n-sample "same" convolution with a ``taps``-tap
    kernel (odd, at most n): the outputs within (taps - 1) / 2 of an edge
    overlap the input less."""
    mid = (taps - 1) // 2
    return n * taps - mid * (mid + 1)


def _shares(macs: list[int], n_shares: int) -> list[list[int]]:
    """Channel indices split into ``n_shares`` lists of near-equal multiply-add
    totals: each channel, costliest first, joins the lightest list so far."""
    shares = [[] for _ in range(n_shares)]
    loads = [0] * n_shares
    for c in sorted(range(len(macs)), key=lambda c: -macs[c]):
        i = loads.index(min(loads))
        shares[i].append(c)
        loads[i] += macs[c]
    return shares


def _convolve_share(out: np.ndarray, x: np.ndarray, bank, share: list[int]) -> None:
    for c in share:
        out[c] = _convolve(x, bank[c][1].taps)


def hyper_filter(signal: PpgSignal, config: HyperFilterConfig) -> FilteredStack:
    """Filter one signal through every (layer, sub-band) kernel.

    Channels are ordered by layer index then ascending band frequency; the
    label is propagated. Raises SignalTooShortError when the signal cannot
    absorb the longest kernel.
    """
    x = signal.samples
    max_taps = _max_taps(config, signal.fs)
    if x.size < max_taps:
        raise SignalTooShortError(
            f"hyper-filtering this band layout needs at least {max_taps} samples, "
            f"got {x.size}"
        )
    bank = _kernel_bank(config, signal.fs)
    pool, n_helpers = _helper_pool()
    macs = [_macs(x.size, k.taps.size) for _, k in bank]
    mine, *theirs = _shares(macs, 1 + min(n_helpers, len(bank) - 1))
    channels = np.empty((len(bank), x.size))
    futures = [pool.submit(_convolve_share, channels, x, bank, share) for share in theirs]
    _convolve_share(channels, x, bank, mine)
    for f in futures:
        f.result()
    return FilteredStack(channels, [m for m, _ in bank], fs=signal.fs, label=signal.label)


def pattern_rows(stack: FilteredStack) -> np.ndarray:
    """Cross-channel patterns of the retained samples as a (rows, channels) matrix.

    The stack's ``default_margin`` samples are dropped from each end; row k
    reads channel c at ``stack.channels[c][default_margin + k]``. The matrix
    is C-contiguous: a reduction over its rows, such as the Fisher score's
    class means, rounds differently on a transposed view of the channels.
    """
    margin = stack.default_margin
    n = stack.n_samples
    if n <= 2 * margin:
        raise ValueError(
            f"stack length {n} leaves no samples inside a margin of {margin}"
        )
    return np.ascontiguousarray(stack.channels[:, margin : n - margin].T)


def pattern_signals(stack: FilteredStack) -> list[PatternSignal]:
    """The rows of ``pattern_rows`` as patterns carrying the stack's label."""
    return [PatternSignal(row, label=stack.label) for row in pattern_rows(stack)]


def build_dataset(
    signals: list[PpgSignal], bands: HyperFilterConfig, stride: int
) -> PatternDataset:
    """Hyper-filter every labeled signal and keep every ``stride``-th pattern row."""
    if not signals:
        raise ValueError("no signals to build a dataset from (is n_per_class zero?)")
    values, labels = [], []
    for i, sig in enumerate(signals):
        if sig.label is None:
            raise ValueError(f"signal {i} is unlabeled: every signal needs a class label")
        # a copy, so each signal's whole pattern matrix is freed before the next
        rows = np.ascontiguousarray(pattern_rows(hyper_filter(sig, bands))[::stride])
        values.append(rows)
        labels.append(np.full(rows.shape[0], LABEL_INDEX[sig.label]))
    return PatternDataset(np.concatenate(values), np.concatenate(labels))
