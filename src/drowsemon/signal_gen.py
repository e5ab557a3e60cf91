"""Synthetic photoplethysmogram generation with labeled attentional states.

Produces PPG-like waveforms whose beat timing statistics depend on an
autonomic-state descriptor, plus a configurable noise model (baseline
wander, motion bursts, white noise at a target SNR). Everything is a pure
function of its arguments including the seed, so generated datasets are
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "Label",
    "LABEL_INDEX",
    "INDEX_LABEL",
    "AnsState",
    "PpgSignal",
    "NoiseSpec",
    "DROWSY_PRESET",
    "WAKEFUL_PRESET",
    "generate_ppg",
    "add_noise",
]


class Label(str, Enum):
    """Binary attentional state of the monitored driver."""

    DROWSY = "Drowsy"
    WAKEFUL = "Wakeful"


LABEL_INDEX = {Label.DROWSY: 0, Label.WAKEFUL: 1}
INDEX_LABEL = (Label.DROWSY, Label.WAKEFUL)


@dataclass(frozen=True)
class AnsState:
    """Autonomic state that drives the cardiac dynamics of a generated signal.

    Attributes:
        label: class the generated signals will carry.
        mean_hr: mean heart rate in beats per minute, within [40, 180].
        hr_sdnn: standard deviation of inter-beat intervals in milliseconds.
        lf_hf_ratio: sympathovagal balance proxy (> 0). Lower values mean
            vagal dominance and deepen the respiratory amplitude modulation
            of the beats.
    """

    label: Label
    mean_hr: float
    hr_sdnn: float
    lf_hf_ratio: float

    def __post_init__(self) -> None:
        for name in ("mean_hr", "hr_sdnn", "lf_hf_ratio"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"AnsState.{name} must be finite")
        if not 40.0 <= self.mean_hr <= 180.0:
            raise ValueError(f"mean_hr must be in [40, 180], got {self.mean_hr}")
        if self.hr_sdnn < 0:
            raise ValueError(f"hr_sdnn must be >= 0, got {self.hr_sdnn}")
        if self.lf_hf_ratio <= 0:
            raise ValueError(f"lf_hf_ratio must be > 0, got {self.lf_hf_ratio}")


# Stand-in presets: vagal dominance in drowsiness lowers heart rate and
# raises inter-beat variability. Configurable, not ground truth.
DROWSY_PRESET = AnsState(Label.DROWSY, mean_hr=58.0, hr_sdnn=55.0, lf_hf_ratio=0.8)
WAKEFUL_PRESET = AnsState(Label.WAKEFUL, mean_hr=76.0, hr_sdnn=22.0, lf_hf_ratio=2.5)


@dataclass(eq=False)
class PpgSignal:
    """Uniformly sampled waveform with its sampling rate and optional label."""

    samples: np.ndarray
    fs: float
    label: Label | None = None

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("samples must be a 1-D sequence")
        if not (math.isfinite(self.fs) and self.fs > 0):
            raise ValueError(f"fs must be a positive finite number, got {self.fs}")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite (no NaN/Inf)")


@dataclass(frozen=True)
class NoiseSpec:
    """Driving-noise model: baseline wander, motion bursts, white noise.

    Amplitudes are fractions of the clean signal's AC amplitude (half the
    peak-to-peak excursion). ``white_noise_snr_db=math.inf`` disables the
    white-noise term.
    """

    baseline_wander_amp: float = 0.2
    baseline_wander_freq: float = 0.3
    motion_burst_rate: float = 0.05
    motion_burst_amp: float = 0.8
    white_noise_snr_db: float = 25.0

    def __post_init__(self) -> None:
        for name in ("baseline_wander_amp", "motion_burst_rate", "motion_burst_amp"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise ValueError(f"NoiseSpec.{name} must be finite and >= 0")
        if not (math.isfinite(self.baseline_wander_freq) and self.baseline_wander_freq >= 0):
            raise ValueError("NoiseSpec.baseline_wander_freq must be finite and >= 0")
        if math.isnan(self.white_noise_snr_db) or self.white_noise_snr_db == -math.inf:
            raise ValueError("NoiseSpec.white_noise_snr_db must be finite or +inf")


# Two-lobe beat template: systolic peak plus dicrotic bump, positions and
# widths as fractions of the beat length.
_SYSTOLIC_POS = 0.30
_SYSTOLIC_WIDTH = 0.12
_DICROTIC_POS = 0.65
_DICROTIC_WIDTH = 0.18
_DICROTIC_AMP = 0.35

_RESP_FREQ_HZ = 0.25
_RESP_MOD_BASE = 0.15

_MIN_FS_HZ = 25.0
_IBI_TRUNC_SIGMA = 3.0

_MOTION_BURST_WIDTH_S = 0.4


def _truncated_normal(rng: np.random.Generator) -> float:
    """Standard normal draw rejected outside +/- 3 sigma."""
    while True:
        z = float(rng.standard_normal())
        if abs(z) <= _IBI_TRUNC_SIGMA:
            return z


def _beat_shape(n: int) -> np.ndarray:
    """Two-lobe pulse evaluated on an n-sample beat (phase in [0, 1))."""
    phase = np.arange(n) / n
    systolic = np.exp(-((phase - _SYSTOLIC_POS) ** 2) / (2 * _SYSTOLIC_WIDTH**2))
    dicrotic = _DICROTIC_AMP * np.exp(-((phase - _DICROTIC_POS) ** 2) / (2 * _DICROTIC_WIDTH**2))
    return systolic + dicrotic


def generate_ppg(state: AnsState, duration_s: float, fs: float, seed: int) -> PpgSignal:
    """Generate a clean synthetic PPG waveform for a given autonomic state.

    Beats are two-lobe pulses placed at inter-beat intervals drawn from a
    truncated normal with mean ``60000 / mean_hr`` ms and std ``hr_sdnn`` ms.
    Each interval is quantized to whole samples, so with ``hr_sdnn=0`` the
    realized spacing is exactly ``round(fs * 60 / mean_hr)`` samples. Beat
    amplitudes carry a respiratory modulation whose depth shrinks as
    ``lf_hf_ratio`` grows.

    Deterministic given ``(state, duration_s, fs, seed)``.
    """
    if not isinstance(state, AnsState):
        raise ValueError("state must be an AnsState")
    if not (math.isfinite(duration_s) and duration_s >= 0):
        raise ValueError(f"duration_s must be finite and >= 0, got {duration_s}")
    if not (math.isfinite(fs) and fs >= _MIN_FS_HZ):
        raise ValueError(f"fs must be >= {_MIN_FS_HZ} Hz, got {fs}")

    if not math.isfinite(duration_s * fs):
        raise ValueError(f"duration_s * fs must be finite, got {duration_s} * {fs}")
    n = math.floor(duration_s * fs)
    samples = np.zeros(n)
    if n > 0:
        rng = np.random.default_rng(seed)
        mean_ibi_s = 60.0 / state.mean_hr
        sd_s = state.hr_sdnn / 1000.0
        mod_depth = _RESP_MOD_BASE / (1.0 + state.lf_hf_ratio)

        pos = 0
        while pos < n:
            ibi_s = mean_ibi_s
            if sd_s > 0:
                ibi_s = mean_ibi_s + sd_s * _truncated_normal(rng)
            beat_len = max(1, round(ibi_s * fs))
            amp = 1.0 + mod_depth * math.sin(2 * math.pi * _RESP_FREQ_HZ * (pos / fs))
            shape = amp * _beat_shape(beat_len)
            end = min(pos + beat_len, n)
            samples[pos:end] += shape[: end - pos]
            pos += beat_len

    return PpgSignal(samples, fs=float(fs), label=state.label)


def add_noise(signal: PpgSignal, spec: NoiseSpec, seed: int) -> PpgSignal:
    """Corrupt a signal with baseline wander, motion bursts and white noise.

    The wander is a sinusoid, bursts are Poisson-timed raised-cosine
    transients with random sign, and the white-noise variance is chosen so
    that signal power over noise power matches ``white_noise_snr_db``.
    Length, sampling rate and label are preserved; deterministic given seed.
    """
    x = signal.samples
    if x.size == 0:
        raise ValueError("cannot add noise to an empty signal")

    rng = np.random.default_rng(seed)
    n = x.size
    out = x.copy()
    ac_amp = float(x.max() - x.min()) / 2.0

    if spec.baseline_wander_amp > 0:
        t = np.arange(n) / signal.fs
        out += spec.baseline_wander_amp * ac_amp * np.sin(
            2 * math.pi * spec.baseline_wander_freq * t
        )

    if spec.motion_burst_rate > 0:
        n_bursts = int(rng.poisson(spec.motion_burst_rate * n / signal.fs))
        starts = rng.uniform(0.0, n / signal.fs, size=n_bursts)
        signs = rng.choice([-1.0, 1.0], size=n_bursts)
        width = max(2, round(_MOTION_BURST_WIDTH_S * signal.fs))
        bump = np.hanning(width)
        for start_s, sign in zip(starts, signs):
            i0 = int(start_s * signal.fs)
            i1 = min(i0 + width, n)
            out[i0:i1] += sign * spec.motion_burst_amp * ac_amp * bump[: i1 - i0]

    if math.isfinite(spec.white_noise_snr_db):
        p_signal = float(np.mean(x**2))
        sigma = math.sqrt(p_signal / 10 ** (spec.white_noise_snr_db / 10.0))
        out += rng.normal(0.0, sigma, size=n)

    return PpgSignal(out, fs=signal.fs, label=signal.label)
