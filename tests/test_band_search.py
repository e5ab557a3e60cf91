import math

import numpy as np
import pytest

from drowsemon.band_search import (
    RlParams,
    SearchSpace,
    SpaceTooLargeError,
    _fitted,
    enumerate_best,
    fisher_score,
    neighbors,
    q_learn,
    reward,
)
from drowsemon.filterbank import HyperFilterConfig, hyper_filter, pattern_signals
from drowsemon.signal_gen import Label, PpgSignal


def tone_signals(freq_drowsy=2.0, freq_wakeful=8.0, n_per_class=2, seconds=10.0, fs=100.0):
    """Two classes concentrated at different frequencies (plus mild noise)."""
    rng = np.random.default_rng(42)
    t = np.arange(int(seconds * fs)) / fs
    signals = []
    for _ in range(n_per_class):
        phase = rng.uniform(0, 2 * math.pi, size=2)
        drowsy = np.sin(2 * math.pi * freq_drowsy * t + phase[0]) + 0.1 * rng.normal(size=t.size)
        wakeful = np.sin(2 * math.pi * freq_wakeful * t + phase[1]) + 0.1 * rng.normal(size=t.size)
        signals.append(PpgSignal(drowsy, fs, Label.DROWSY))
        signals.append(PpgSignal(wakeful, fs, Label.WAKEFUL))
    return signals


@pytest.fixture(scope="module")
def tones():
    return tone_signals()


THREE_CONFIG_SPACE = SearchSpace(grid_hz=3.0, min_width_hz=6.0, n_layers=1, bands_per_layer=3)


class TestFisherScore:
    def test_unit_separation_single_dimension(self):
        s = math.sqrt(0.5)
        class_a = np.array([[-s], [s]])  # mean 0, population variance 0.5
        class_b = np.array([[1 - s], [1 + s]])  # mean 1, population variance 0.5
        assert abs(fisher_score(class_a, class_b) - 1.0) <= 1e-6

    def test_zero_for_identical_distributions(self):
        rows = np.random.default_rng(0).normal(size=(50, 4))
        assert fisher_score(rows, rows) <= 1e-6

    def test_mean_over_dimensions(self):
        s = math.sqrt(0.5)
        a = np.array([[-s, 0.0], [s, 0.0]])
        b = np.array([[1 - s, 0.0], [1 + s, 0.0]])
        assert abs(fisher_score(a, b) - 0.5) <= 1e-6


class TestReward:
    def test_identical_sample_sets_score_zero(self, tones):
        config = HyperFilterConfig(((1.0, 10.0),), bands_per_layer=3)
        base = tones[0].samples
        pair = [
            PpgSignal(base.copy(), 100.0, Label.DROWSY),
            PpgSignal(base.copy(), 100.0, Label.WAKEFUL),
        ]
        assert reward(config, pair) <= 1e-6

    def test_scale_invariance(self, tones):
        config = HyperFilterConfig(((1.0, 10.0),), bands_per_layer=3)
        scaled = [PpgSignal(10.0 * s.samples, s.fs, s.label) for s in tones]
        assert abs(reward(config, tones) - reward(config, scaled)) <= 1e-9
        assert (
            enumerate_best(THREE_CONFIG_SPACE, tones).layers
            == enumerate_best(THREE_CONFIG_SPACE, scaled).layers
        )

    def test_single_class_rejected(self, tones):
        config = HyperFilterConfig(((1.0, 10.0),), bands_per_layer=3)
        drowsy_only = [s for s in tones if s.label is Label.DROWSY]
        with pytest.raises(ValueError, match="both classes"):
            reward(config, drowsy_only)

    def test_is_fisher_score_of_the_class_pattern_rows(self, tones):
        config = HyperFilterConfig(((1.0, 10.0), (2.0, 8.0)), bands_per_layer=3)
        by_class = {
            label: np.stack([
                p.values for s in tones if s.label is label
                for p in pattern_signals(hyper_filter(s, config))
            ])
            for label in (Label.DROWSY, Label.WAKEFUL)
        }
        # bitwise: a reward over differently laid-out rows rounds differently
        assert reward(config, tones) == fisher_score(by_class[Label.DROWSY], by_class[Label.WAKEFUL])

    def test_unlabeled_signal_rejected(self, tones):
        config = HyperFilterConfig(((1.0, 10.0),), bands_per_layer=3)
        unlabeled = [PpgSignal(tones[0].samples, 100.0, None), tones[1]]
        with pytest.raises(ValueError, match="labeled"):
            reward(config, unlabeled)


class TestNeighbors:
    SPACE = SearchSpace(grid_hz=0.5, min_width_hz=1.0, n_layers=1, bands_per_layer=11)

    def layers(self, configs):
        return [c.layers[0] for c in configs]

    def test_full_width_layer_has_two_neighbors(self):
        config = HyperFilterConfig(((1.0, 10.0),), bands_per_layer=11)
        got = self.layers(neighbors(config, self.SPACE))
        assert got == [(1.5, 10.0), (1.0, 9.5)]

    def test_interior_layer_has_four_neighbors(self):
        config = HyperFilterConfig(((4.0, 6.0),), bands_per_layer=11)
        got = self.layers(neighbors(config, self.SPACE))
        assert got == [(3.5, 6.0), (4.5, 6.0), (4.0, 5.5), (4.0, 6.5)]

    def test_min_width_blocks_shrinking(self):
        config = HyperFilterConfig(((4.0, 5.0),), bands_per_layer=11)
        got = self.layers(neighbors(config, self.SPACE))
        assert got == [(3.5, 5.0), (4.0, 5.5)]

    def test_off_grid_config_rejected(self):
        config = HyperFilterConfig(((4.26, 6.0),), bands_per_layer=11)
        with pytest.raises(ValueError, match="grid"):
            neighbors(config, self.SPACE)

    def test_excludes_input_config(self):
        config = HyperFilterConfig(((4.0, 6.0),), bands_per_layer=11)
        assert config.layers not in [c.layers for c in neighbors(config, self.SPACE)]

    def test_multi_layer_moves_one_edge_at_a_time(self):
        space = SearchSpace(grid_hz=0.5, min_width_hz=1.0, n_layers=2, bands_per_layer=11)
        config = HyperFilterConfig(((4.0, 6.0), (2.0, 8.0)), bands_per_layer=11)
        for n in neighbors(config, space):
            flat_in = [e for layer in config.layers for e in layer]
            flat_out = [e for layer in n.layers for e in layer]
            moved = [abs(a - b) for a, b in zip(flat_in, flat_out)]
            assert sum(1 for d in moved if d > 0) == 1
            assert max(moved) == 0.5


class TestEnumerateBest:
    def test_single_config_space(self, tones):
        space = SearchSpace(grid_hz=9.0, min_width_hz=9.0, n_layers=1, bands_per_layer=3)
        assert space.size() == 1
        assert enumerate_best(space, tones).layers == ((1.0, 10.0),)

    def test_matches_manual_argmax(self, tones):
        space = THREE_CONFIG_SPACE
        configs = [space.config_from_indices(idx) for idx in space.all_indices()]
        rewards = [reward(c, tones) for c in configs]
        best = configs[int(np.argmax(rewards))]
        assert enumerate_best(space, tones).layers == best.layers

    def test_ties_break_to_lexicographically_smallest(self):
        base = np.sin(2 * math.pi * 5.0 * np.arange(1200) / 100.0)
        pair = [
            PpgSignal(base.copy(), 100.0, Label.DROWSY),
            PpgSignal(base.copy(), 100.0, Label.WAKEFUL),
        ]
        # identical classes: every config scores ~0, so the first config wins
        space = THREE_CONFIG_SPACE
        expected = space.config_from_indices(next(iter(space.all_indices())))
        assert enumerate_best(space, pair).layers == expected.layers

    def test_guard_refuses_huge_spaces(self, tones):
        space = SearchSpace(grid_hz=0.05, min_width_hz=0.05, n_layers=2, bands_per_layer=3)
        with pytest.raises(SpaceTooLargeError, match="guard"):
            enumerate_best(space, tones)


class TestQLearn:
    def test_degenerate_space_returns_only_config(self, tones):
        space = SearchSpace(grid_hz=9.0, min_width_hz=9.0, n_layers=1, bands_per_layer=3)
        best, history = q_learn(space, tones, RlParams(episodes=1, seed=0))
        assert best.layers == ((1.0, 10.0),)
        assert len(history) == 1

    def test_matches_oracle_on_toy_space(self, tones):
        oracle = enumerate_best(THREE_CONFIG_SPACE, tones)
        for seed in range(3):
            got, _ = q_learn(
                THREE_CONFIG_SPACE, tones, RlParams(episodes=40, steps_per_episode=4, seed=seed)
            )
            assert got.layers == oracle.layers

    def test_zero_episodes_returns_seeded_initial_config(self, tones):
        space = THREE_CONFIG_SPACE
        best1, hist1 = q_learn(space, tones, RlParams(episodes=0, seed=5))
        best2, hist2 = q_learn(space, tones, RlParams(episodes=0, seed=5))
        assert best1.layers == best2.layers
        assert hist1 == [] and hist2 == []
        space.indices_from_config(best1)  # representable

    def test_history_monotone_nondecreasing(self, tones):
        _, history = q_learn(
            THREE_CONFIG_SPACE, tones, RlParams(episodes=25, steps_per_episode=4, seed=1)
        )
        values = [r for _, r in history]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert [e for e, _ in history] == list(range(25))

    def test_deterministic_given_seed(self, tones):
        params = RlParams(episodes=15, steps_per_episode=4, seed=9)
        a = q_learn(THREE_CONFIG_SPACE, tones, params)
        b = q_learn(THREE_CONFIG_SPACE, tones, params)
        assert a[0].layers == b[0].layers
        assert a[1] == b[1]

    def test_single_class_rejected(self, tones):
        drowsy_only = [s for s in tones if s.label is Label.DROWSY]
        with pytest.raises(ValueError, match="both classes"):
            q_learn(THREE_CONFIG_SPACE, drowsy_only, RlParams(episodes=1, seed=0))


class TestFittedSpace:
    def pair(self, n_samples):
        return [PpgSignal(np.zeros(n_samples), 100.0, label) for label in (Label.DROWSY, Label.WAKEFUL)]

    def test_default_space_on_24s_signals_starts_at_35_hz(self):
        space = SearchSpace()
        fitted = _fitted(space, self.pair(2400))
        assert len(space.layer_pairs()) == 153
        assert fitted.min_width_hz == 3.5
        assert len(fitted.layer_pairs()) == 78
        assert set(fitted.layer_pairs()) <= set(space.layer_pairs())

    def test_space_that_fits_keeps_its_pairs(self, tones):
        assert _fitted(THREE_CONFIG_SPACE, tones).layer_pairs() == THREE_CONFIG_SPACE.layer_pairs()

    def test_no_fitting_layout_names_the_sample_count(self):
        with pytest.raises(ValueError, match="500 samples"):
            q_learn(SearchSpace(), self.pair(500), RlParams(episodes=1, seed=0))
        with pytest.raises(ValueError, match="500 samples"):
            enumerate_best(SearchSpace(), self.pair(500))

    def test_q_learn_visits_only_fitting_layouts(self):
        space = SearchSpace(grid_hz=1.0, min_width_hz=1.0, bands_per_layer=3)
        best, _ = q_learn(space, self.pair(1000), RlParams(episodes=2, steps_per_episode=2, seed=0))
        ((lo, hi),) = best.layers
        assert hi - lo >= 2.0


class TestValidation:
    def test_search_space_invariants(self):
        with pytest.raises(ValueError):
            SearchSpace(grid_hz=0.0)
        with pytest.raises(ValueError):
            SearchSpace(grid_hz=1.0, min_width_hz=0.5)
        with pytest.raises(ValueError):
            SearchSpace(n_layers=0)

    def test_rl_params_invariants(self):
        with pytest.raises(ValueError):
            RlParams(epsilon=1.5)
        with pytest.raises(ValueError):
            RlParams(alpha=0.0)
        with pytest.raises(ValueError):
            RlParams(gamma=1.0)
        with pytest.raises(ValueError):
            RlParams(episodes=-1)

    def test_three_config_space_size(self):
        assert THREE_CONFIG_SPACE.size() == 3
        triples = [THREE_CONFIG_SPACE.config_from_indices(i).layers[0] for i in THREE_CONFIG_SPACE.all_indices()]
        assert triples == [(1.0, 7.0), (1.0, 10.0), (4.0, 10.0)]
