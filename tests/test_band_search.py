import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from drowsemon.band_search import (
    RlParams,
    SearchSpace,
    SpaceTooLargeError,
    _fitted,
    _moments,
    enumerate_best,
    fisher_score,
    q_learn,
    reward,
)
from drowsemon.filterbank import HyperFilterConfig, build_dataset, hyper_filter, pattern_signals
from drowsemon.persist import FormatError
from drowsemon.pipeline import config_from_dict, default_config, generate_signals
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


def formula_fisher_score(a, b):
    """The Fisher score written out with numpy's own mean and variance."""
    num = (a.mean(axis=0) - b.mean(axis=0)) ** 2
    den = a.var(axis=0) + b.var(axis=0) + 1e-9
    return float(np.mean(num / den))


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

    @pytest.mark.parametrize("n_rows", [1, 2, 7, 786, 22_912])
    def test_moments_are_bitwise_the_numpy_mean_and_variance(self, n_rows):
        rng = np.random.default_rng(n_rows)
        scale = 10.0 ** rng.uniform(-6, 3, size=33)
        rows = scale * (rng.normal(size=(n_rows, 33)) + rng.normal(size=33))
        mean, var = rows.mean(axis=0), rows.var(axis=0)
        got_mean, got_var = _moments(rows)
        assert got_mean.tobytes() == mean.tobytes()
        assert got_var.tobytes() == var.tobytes()

    @pytest.mark.parametrize("layout", ["C", "Fortran", "strided view"])
    def test_bitwise_the_formula_and_leaves_its_inputs(self, layout):
        rng = np.random.default_rng(11)
        a = 1e-3 * rng.normal(size=(301, 12)) + 0.5
        b = 2e-3 * rng.normal(size=(257, 12)) - 0.25
        if layout == "Fortran":
            a, b = np.asfortranarray(a), np.asfortranarray(b)
        elif layout == "strided view":
            a, b = a[::3, ::2], b[1::2, 1::2]
        before = a.tobytes(), b.tobytes()
        assert fisher_score(a, b) == formula_fisher_score(a, b)
        assert (a.tobytes(), b.tobytes()) == before

    def test_a_class_with_no_rows_is_refused(self):
        with pytest.raises(ValueError) as info:
            fisher_score(np.empty((0, 3)), np.ones((4, 3)))
        assert str(info.value) == "each class needs at least one row, got 0 and 4"

    @pytest.mark.parametrize("a, b", [(np.array([]), np.array([])), (np.empty((3, 0)), np.empty((4, 0)))])
    def test_classes_with_no_feature_column_are_refused(self, a, b):
        with pytest.raises(ValueError) as info:
            fisher_score(a, b)
        assert str(info.value) == "class matrices need at least one feature column, got 0"


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

    def test_is_the_dataset_reward_of_every_row(self, tones):
        # the tones alternate classes, so each class's rows are spread over the dataset
        config = HyperFilterConfig(((1.0, 10.0), (2.0, 8.0)), bands_per_layer=3)
        dataset = build_dataset(tones, config, 1)
        values, labels = dataset.values, dataset.labels
        assert reward(config, tones) == fisher_score(values[labels == 0], values[labels == 1])

    def test_never_holds_the_whole_dataset_beside_its_class_rows(self):
        # 8 default signals keep 786 rows of 33 channels each: building every
        # row and then copying out each class's rows would hold twice that
        config = default_config()
        signals = generate_signals(replace(config, generation=replace(config.generation, n_per_class=4)))
        reward(config.bands, [signals[0], signals[-1]])  # designs and caches the kernels
        tracemalloc.start()
        try:
            reward(config.bands, signals)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * 786 * 33 * 8

    def test_holds_one_class_matrix_at_a_time(self):
        # each class of the 32 default signals keeps 16 x 786 rows of 33
        # channels; its moments are taken before the other class is built
        config = default_config()
        signals = generate_signals(config)
        reward(config.bands, [signals[0], signals[-1]])  # designs and caches the kernels
        tracemalloc.start()
        try:
            reward(config.bands, signals)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [s.label for s in signals].count(Label.DROWSY) == 16 and len(signals) == 32
        assert peak < 1.5 * 16 * 786 * 33 * 8


class TestNeighbors:
    SPACE = SearchSpace(grid_hz=0.5, min_width_hz=1.0, n_layers=1, bands_per_layer=11)

    def layers(self, idx):
        return [self.SPACE.config_from_indices(m).layers[0] for m in self.SPACE.neighbor_indices(idx)]

    def test_full_width_layer_has_two_neighbors(self):
        assert self.SPACE.config_from_indices(((0, 18),)).layers == ((1.0, 10.0),)
        assert self.layers(((0, 18),)) == [(1.5, 10.0), (1.0, 9.5)]

    def test_interior_layer_has_four_neighbors(self):
        assert self.layers(((6, 10),)) == [(3.5, 6.0), (4.5, 6.0), (4.0, 5.5), (4.0, 6.5)]

    def test_min_width_blocks_shrinking(self):
        assert self.layers(((6, 8),)) == [(3.5, 5.0), (4.0, 5.5)]

    def test_excludes_input_config(self):
        idx = ((6, 10),)
        assert idx not in self.SPACE.neighbor_indices(idx)

    def test_multi_layer_moves_one_edge_at_a_time(self):
        space = SearchSpace(grid_hz=0.5, min_width_hz=1.0, n_layers=2, bands_per_layer=11)
        idx = ((6, 10), (2, 14))
        config = space.config_from_indices(idx)
        assert config.layers == ((4.0, 6.0), (2.0, 8.0))
        moves = space.neighbor_indices(idx)
        assert len(moves) == 8
        for m in moves:
            flat_in = [e for layer in config.layers for e in layer]
            flat_out = [e for layer in space.config_from_indices(m).layers for e in layer]
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
        # representable: one of the space's layouts
        assert best1.layers in [space.config_from_indices(i).layers for i in space.all_indices()]

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

    @pytest.mark.parametrize("seed", range(6))
    def test_ties_go_to_the_first_layout_visited(self, seed):
        base = np.sin(2 * math.pi * 5.0 * np.arange(1200) / 100.0)
        pair = [PpgSignal(base.copy(), 100.0, label) for label in (Label.DROWSY, Label.WAKEFUL)]
        # identical classes: every layout scores exactly 0.0, so the seeded start wins
        space = SearchSpace(grid_hz=3.0, min_width_hz=6.0, n_layers=2, bands_per_layer=3)
        best, history = q_learn(space, pair, RlParams(episodes=4, steps_per_episode=3, seed=seed))
        first = space.random_indices(np.random.default_rng(seed))
        assert best.layers == space.config_from_indices(first).layers
        assert history == [(e, 0.0) for e in range(4)]


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
        for grid_hz, min_width_hz in ((math.inf, math.inf), (0.5, math.inf), (0.5, math.nan)):
            with pytest.raises(ValueError, match="must be finite"):
                SearchSpace(grid_hz=grid_hz, min_width_hz=min_width_hz)
        band = r"1\.0-10\.0 Hz band on a 0\.5 Hz grid"
        with pytest.raises(ValueError, match=rf"min_width_hz=9\.5 .* {band}"):
            SearchSpace(grid_hz=0.5, min_width_hz=9.5)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"grid_hz": 5e-324},
             "grid_hz=5e-324 is too fine: the 1.0-10.0 Hz band has more steps than a float can hold"),
            ({"grid_hz": 1e-320},
             "grid_hz=1e-320 is too fine: the 1.0-10.0 Hz band has more steps than a float can hold"),
            ({"min_width_hz": 1e308},
             "no layer of min_width_hz=1e+308 fits the 1.0-10.0 Hz band on a 0.5 Hz grid"),
            ({"grid_hz": 1e-300, "min_width_hz": 1e10},
             "no layer of min_width_hz=10000000000.0 fits the 1.0-10.0 Hz band on a 1e-300 Hz grid"),
        ],
        ids=["grid-subnormal", "grid-tiny", "width-huge", "width-over-grid-overflows"],
    )
    def test_step_counts_past_float_range_name_the_field(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            SearchSpace(**kwargs)
        assert str(info.value) == message

    def test_pair_count_past_the_guard_is_refused_before_any_pair_is_built(self):
        started = time.perf_counter()
        with pytest.raises(FormatError) as info:
            config_from_dict({"schema_version": 1, "search": {"grid_hz": 1e-6}})
        assert time.perf_counter() - started < 1.0
        assert str(info.value) == (
            "config: search: grid_hz=1e-06 with min_width_hz=1.0 gives 32000012000001 layer pairs, "
            "more than 100000"
        )
        assert config_from_dict({"schema_version": 1, "search": {"grid_hz": 0.05}}).search.grid_hz == 0.05

    @pytest.mark.parametrize(
        "grid_hz, min_width_hz, n_layers",
        [(3.0, 6.0, 1), (3.0, 6.0, 2), (0.5, 1.0, 1), (0.5, 1.0, 2), (9.0, 9.0, 1), (0.05, 0.05, 2),
         (1.0, 1.0, 1), (1.0, 4.0, 1)],
    )
    def test_size_is_the_pair_count_to_the_layer_count(self, grid_hz, min_width_hz, n_layers):
        space = SearchSpace(grid_hz, min_width_hz, n_layers, bands_per_layer=3)
        assert space.size() == len(space.layer_pairs()) ** n_layers

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
