import math

import numpy as np
import pytest

from drowsemon.signal_gen import (
    DROWSY_PRESET,
    WAKEFUL_PRESET,
    AnsState,
    Label,
    NoiseSpec,
    PpgSignal,
    add_noise,
    generate_ppg,
)


def count_peaks(samples: np.ndarray, min_frac: float = 0.5) -> list[int]:
    """Independent local-maximum peak counter used as the oracle."""
    threshold = min_frac * samples.max()
    peaks = []
    for i in range(1, samples.size - 1):
        if samples[i] > samples[i - 1] and samples[i] >= samples[i + 1] and samples[i] > threshold:
            peaks.append(i)
    return peaks


class TestGeneratePpg:
    def test_zero_duration_gives_empty_signal(self):
        sig = generate_ppg(WAKEFUL_PRESET, duration_s=0.0, fs=100, seed=0)
        assert sig.samples.size == 0
        assert sig.label is Label.WAKEFUL

    def test_sample_count_is_floor_of_duration_times_fs(self):
        sig = generate_ppg(WAKEFUL_PRESET, duration_s=3.57, fs=100, seed=0)
        assert sig.samples.size == 357

    def test_peak_count_matches_heart_rate(self):
        state = AnsState(Label.WAKEFUL, mean_hr=75.0, hr_sdnn=20.0, lf_hf_ratio=2.0)
        sig = generate_ppg(state, duration_s=60.0, fs=100, seed=11)
        n_peaks = len(count_peaks(sig.samples))
        assert 70 <= n_peaks <= 80

    def test_deterministic_given_seed(self):
        a = generate_ppg(DROWSY_PRESET, 30.0, 100, seed=5)
        b = generate_ppg(DROWSY_PRESET, 30.0, 100, seed=5)
        assert np.array_equal(a.samples, b.samples)
        c = generate_ppg(DROWSY_PRESET, 30.0, 100, seed=6)
        assert not np.array_equal(a.samples, c.samples)

    def test_zero_sdnn_gives_exact_beat_spacing(self):
        state = AnsState(Label.WAKEFUL, mean_hr=72.0, hr_sdnn=0.0, lf_hf_ratio=2.0)
        sig = generate_ppg(state, duration_s=40.0, fs=100, seed=0)
        peaks = count_peaks(sig.samples)
        expected = round(100 * 60.0 / 72.0)
        assert len(peaks) > 10
        assert all(d == expected for d in np.diff(peaks))

    def test_label_copied_from_state(self):
        assert generate_ppg(DROWSY_PRESET, 1.0, 100, 0).label is Label.DROWSY
        assert generate_ppg(WAKEFUL_PRESET, 1.0, 100, 0).label is Label.WAKEFUL

    def test_low_fs_rejected(self):
        with pytest.raises(ValueError, match="fs"):
            generate_ppg(WAKEFUL_PRESET, 1.0, fs=10, seed=0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            generate_ppg(WAKEFUL_PRESET, -1.0, fs=100, seed=0)

    def test_overflowing_sample_count_rejected(self):
        with pytest.raises(ValueError, match=r"duration_s \* fs must be finite, got 1e\+307 \* 100"):
            generate_ppg(WAKEFUL_PRESET, 1e307, fs=100, seed=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mean_hr=30.0, hr_sdnn=10.0, lf_hf_ratio=1.0),
            dict(mean_hr=200.0, hr_sdnn=10.0, lf_hf_ratio=1.0),
            dict(mean_hr=70.0, hr_sdnn=-1.0, lf_hf_ratio=1.0),
            dict(mean_hr=70.0, hr_sdnn=10.0, lf_hf_ratio=0.0),
            dict(mean_hr=math.nan, hr_sdnn=10.0, lf_hf_ratio=1.0),
        ],
    )
    def test_out_of_range_state_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AnsState(Label.DROWSY, **kwargs)

    def test_presets_separate_mean_interbeat_interval(self):
        """Distributions of per-window mean IBI differ by >= 3 standard errors."""

        def window_mean_ibis(state, n_windows):
            means = []
            for seed in range(n_windows):
                sig = generate_ppg(state, duration_s=20.0, fs=100, seed=seed)
                peaks = count_peaks(sig.samples)
                means.append(float(np.mean(np.diff(peaks))) / 100.0)
            return np.array(means)

        drowsy = window_mean_ibis(DROWSY_PRESET, 50)
        wakeful = window_mean_ibis(WAKEFUL_PRESET, 50)
        stderr = math.sqrt(drowsy.var(ddof=1) / drowsy.size + wakeful.var(ddof=1) / wakeful.size)
        assert abs(drowsy.mean() - wakeful.mean()) >= 3 * stderr


class TestAddNoise:
    def make_signal(self, seconds=20.0):
        return generate_ppg(WAKEFUL_PRESET, seconds, 100, seed=3)

    def test_identity_when_disabled(self):
        spec = NoiseSpec(
            baseline_wander_amp=0.0,
            motion_burst_rate=0.0,
            motion_burst_amp=0.0,
            white_noise_snr_db=math.inf,
        )
        sig = self.make_signal()
        out = add_noise(sig, spec, seed=0)
        assert np.array_equal(out.samples, sig.samples)
        assert out.fs == sig.fs and out.label is sig.label

    def test_white_noise_hits_target_snr(self):
        t = np.arange(6000) / 100.0
        sig = PpgSignal(math.sqrt(2) * np.sin(2 * math.pi * 1.3 * t), fs=100.0)
        assert abs(np.mean(sig.samples**2) - 1.0) < 1e-3  # unit power
        spec = NoiseSpec(
            baseline_wander_amp=0.0,
            motion_burst_rate=0.0,
            motion_burst_amp=0.0,
            white_noise_snr_db=20.0,
        )
        out = add_noise(sig, spec, seed=9)
        noise = out.samples - sig.samples
        snr_db = 10 * math.log10(np.mean(sig.samples**2) / np.mean(noise**2))
        assert 19.0 <= snr_db <= 21.0

    def test_deterministic_given_seed(self):
        sig = self.make_signal()
        a = add_noise(sig, NoiseSpec(), seed=4)
        b = add_noise(sig, NoiseSpec(), seed=4)
        assert np.array_equal(a.samples, b.samples)

    def test_preserves_length_fs_label(self):
        sig = self.make_signal()
        out = add_noise(sig, NoiseSpec(), seed=1)
        assert out.samples.size == sig.samples.size
        assert out.fs == sig.fs
        assert out.label is sig.label

    def test_empty_signal_rejected(self):
        empty = PpgSignal(np.array([]), fs=100.0)
        with pytest.raises(ValueError, match="empty"):
            add_noise(empty, NoiseSpec(), seed=0)

    def test_negative_amplitudes_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(baseline_wander_amp=-0.1)
        with pytest.raises(ValueError):
            NoiseSpec(white_noise_snr_db=math.nan)


class TestPpgSignal:
    def test_rejects_nan_samples(self):
        with pytest.raises(ValueError, match="finite"):
            PpgSignal(np.array([1.0, math.nan]), fs=100.0)

    def test_rejects_bad_fs(self):
        with pytest.raises(ValueError, match="fs"):
            PpgSignal(np.zeros(4), fs=0.0)
