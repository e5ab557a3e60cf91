import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from drowsemon import tdcnn
from drowsemon.filterbank import PatternDataset, PatternSignal
from drowsemon.persist import load_model, save_model
from drowsemon.signal_gen import LABEL_INDEX, Label
from drowsemon.tdcnn import (
    _ADAM_EPS,
    _INFER_COLUMNS,
    _INFER_ROWS,
    _adam_step,
    ArchSpec,
    Assessment,
    MlpModel,
    TrainParams,
    assess,
    assess_window,
    block_activations,
    forward,
    init_model,
    loss_and_grad,
    model_arrays,
    predict_wakeful_scores,
    receptive_field,
    split_indices,
    train,
    train_baseline_mlp,
)

TINY_ARCH = ArchSpec(n_blocks=2, kernel_size=3, channels=4, dilation_schedule=(2, 4), dropout_rate=0.25)
# The default pipeline's channel count and two of its dilations on its
# 33-long patterns: the oldest tap of the dilation-16 block looks back 32
# steps and reaches a single input sample, and the first block carries the
# 1 -> 16 residual projection.
BENCH_SHAPE_ARCH = ArchSpec(
    n_blocks=2, kernel_size=3, channels=16, dilation_schedule=(8, 16), dropout_rate=0.25
)


def tiny_batch(seed=0, batch=3, length=12):
    rng = np.random.default_rng(seed)
    labels = [Label.DROWSY, Label.WAKEFUL]
    return [
        (PatternSignal(rng.normal(size=length)), labels[i % 2]) for i in range(batch)
    ]


def finite_difference_grads(model, batch, train_mode, seed, step=1e-5):
    """Central-difference gradient oracle; touches only the loss value path."""
    out = []
    for arr in model_arrays(model):
        garr = np.zeros_like(arr)
        flat, gflat = arr.ravel(), garr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            lp, _ = loss_and_grad(model, batch, train_mode=train_mode, seed=seed)
            flat[i] = orig - step
            lm, _ = loss_and_grad(model, batch, train_mode=train_mode, seed=seed)
            flat[i] = orig
            gflat[i] = (lp - lm) / (2 * step)
        out.append(garr)
    return out


def max_relative_error(analytic, numeric, floor=1e-5):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def separable_dataset(n_rows=400, length=33, sigma=0.1, seed=0):
    rng = np.random.default_rng(seed)
    half = n_rows // 2
    drowsy = -1.0 + sigma * rng.normal(size=(half, length))
    wakeful = 1.0 + sigma * rng.normal(size=(n_rows - half, length))
    values = np.concatenate([drowsy, wakeful])
    labels = np.array([0] * half + [1] * (n_rows - half))
    return PatternDataset(values, labels)


def val_accuracy(model, dataset, seed):
    """Accuracy on the validation rows of the seeded 80/20 split."""
    _, val_idx = split_indices(len(dataset), seed)
    scores = predict_wakeful_scores(model, dataset.values[val_idx])
    return float(np.mean((scores > 0.5) == dataset.labels[val_idx]))


def scored_model(score):
    """Tiny model rigged to output an exact wakefulness probability."""
    arch = ArchSpec(n_blocks=2, kernel_size=3, channels=4, dilation_schedule=(2, 4), dropout_rate=0.0)
    model = init_model(arch, seed=0)
    model.head_w[...] = 0.0
    model.head_b[...] = 0.0
    if score != 0.5:
        model.head_b[1] = math.log(score / (1.0 - score))
    return model


class TestInitModel:
    def test_deterministic(self):
        a = init_model(TINY_ARCH, seed=7)
        b = init_model(TINY_ARCH, seed=7)
        for x, y in zip(model_arrays(a), model_arrays(b)):
            assert np.array_equal(x, y)

    def test_gamma_one_beta_zero_biases_zero(self):
        model = init_model(TINY_ARCH, seed=0)
        for blk in model.blocks:
            assert np.all(blk.gamma == 1.0)
            assert np.all(blk.beta == 0.0)
            assert np.all(blk.conv_b == 0.0)
        assert np.all(model.head_b == 0.0)

    def test_default_parameter_count_pinned(self):
        model = init_model(ArchSpec(), seed=0)
        arch = ArchSpec()
        k, c = arch.kernel_size, arch.channels
        expected = (c * 1 * k + 3 * c + c * 1) + 11 * (c * c * k + 3 * c)
        expected += arch.n_classes * c + arch.n_classes
        assert model.params.size == expected == 9122

    def test_projection_only_on_channel_change(self):
        model = init_model(ArchSpec(), seed=0)
        assert model.blocks[0].proj_w is not None
        assert all(b.proj_w is None for b in model.blocks[1:])

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(n_blocks=3, dilation_schedule=(2, 4)), "dilation schedule"),
            (dict(n_blocks=2, dilation_schedule=(2, 3)), "dilations"),
            (dict(n_blocks=2, dilation_schedule=(2, 4), kernel_size=4), "kernel_size"),
            (dict(n_blocks=2, dilation_schedule=(2, 4), dropout_rate=1.0), "dropout_rate"),
            (dict(n_blocks=2, dilation_schedule=(2, 4), channels=0), "channels"),
            (
                dict(n_blocks=2, dilation_schedule=(2, 4), n_classes=3),
                r"n_classes must be 2 \(Drowsy and Wakeful\), got 3",
            ),
        ],
    )
    def test_invalid_arch_names_violation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ArchSpec(**kwargs)


class TestStorage:
    @staticmethod
    def model_from(source, tmp_path):
        model = init_model(TINY_ARCH, seed=1)
        if source == "load_model":
            save_model(tmp_path / "model.json", model)
            return load_model(tmp_path / "model.json")
        if source == "train":
            return train(model, separable_dataset(n_rows=20, length=12), TrainParams(epochs=1))[0]
        if source == "loss_and_grad":
            return loss_and_grad(model, tiny_batch(), train_mode=True, seed=3)[1]
        return model

    @pytest.mark.parametrize("source", ["init_model", "load_model", "train", "loss_and_grad"])
    def test_every_weight_array_is_a_view_of_params(self, source, tmp_path):
        model = self.model_from(source, tmp_path)
        arrays = model_arrays(model)
        assert model.params.shape == (sum(a.size for a in arrays),)
        assert model.params.dtype == np.float64
        assert all(np.shares_memory(a, model.params) for a in arrays)
        # laid end to end in model_arrays order
        nbytes = [a.nbytes for a in arrays]
        starts = [a.ctypes.data - model.params.ctypes.data for a in arrays]
        assert starts == [sum(nbytes[:i]) for i in range(len(arrays))]
        assert all(a.flags.c_contiguous for a in arrays)

    def test_train_result_shares_no_memory_with_its_input(self):
        model = init_model(TINY_ARCH, seed=1)
        out, _ = train(model, separable_dataset(n_rows=20, length=12), TrainParams(epochs=0))
        assert out.arch == model.arch and np.array_equal(out.params, model.params)
        assert not any(np.shares_memory(a, model.params) for a in [out.params, *model_arrays(out)])


class TestForward:
    def test_probability_simplex(self):
        model = init_model(TINY_ARCH, seed=1)
        rng = np.random.default_rng(0)
        for _ in range(20):
            probs = forward(model, PatternSignal(rng.normal(size=15)))
            assert np.all(probs >= 0.0) and np.all(probs <= 1.0)
            assert abs(float(probs.sum()) - 1.0) <= 1e-9

    @given(hnp.arrays(np.float64, st.integers(1, 40), elements=st.floats(-50, 50)))
    @settings(max_examples=30, deadline=None)
    def test_simplex_property(self, values):
        model = init_model(TINY_ARCH, seed=2)
        probs = forward(model, PatternSignal(values))
        assert np.all(probs >= 0.0)
        assert abs(float(probs.sum()) - 1.0) <= 1e-9

    def test_zero_head_gives_uniform(self):
        model = scored_model(0.5)
        probs = forward(model, PatternSignal(np.random.default_rng(3).normal(size=20)))
        assert probs[0] == 0.5 and probs[1] == 0.5

    def test_eval_mode_deterministic(self):
        model = init_model(TINY_ARCH, seed=1)
        pattern = PatternSignal(np.random.default_rng(0).normal(size=16))
        assert np.array_equal(forward(model, pattern), forward(model, pattern))

    def test_train_mode_deterministic_given_seed(self):
        model = init_model(TINY_ARCH, seed=1)
        pattern = PatternSignal(np.random.default_rng(0).normal(size=16))
        a = forward(model, pattern, train_mode=True, seed=11)
        b = forward(model, pattern, train_mode=True, seed=11)
        assert np.array_equal(a, b)
        c = forward(model, pattern, train_mode=True, seed=12)
        assert not np.array_equal(a, c)

    def test_empty_pattern_rejected(self):
        model = init_model(TINY_ARCH, seed=1)
        with pytest.raises(ValueError, match="at least one"):
            forward(model, PatternSignal(np.array([])))


class TestLossAndGrad:
    def test_uniform_prediction_loss_is_ln2(self):
        model = scored_model(0.5)
        loss, _ = loss_and_grad(model, tiny_batch())
        assert abs(loss - math.log(2.0)) <= 1e-12

    def test_confident_correct_prediction_loss_near_zero(self):
        model = scored_model(0.5)
        model.head_b[1] = 50.0  # wakeful logit saturated
        batch = [(p, Label.WAKEFUL) for p, _ in tiny_batch()]
        loss, _ = loss_and_grad(model, batch)
        assert loss <= 1e-6

    @staticmethod
    def assert_gradients_match(arch, length):
        model = init_model(arch, seed=4)
        batch = tiny_batch(seed=1, length=length)
        for train_mode in (False, True):
            _, grads = loss_and_grad(model, batch, train_mode=train_mode, seed=3)
            numeric = finite_difference_grads(model, batch, train_mode, seed=3)
            assert max_relative_error(model_arrays(grads), numeric) <= 1e-4

    def test_gradients_match_finite_differences(self):
        self.assert_gradients_match(TINY_ARCH, length=12)

    def test_gradients_match_finite_differences_at_benchmark_shape(self):
        self.assert_gradients_match(BENCH_SHAPE_ARCH, length=33)

    def test_gradient_shapes_mirror_model(self):
        model = init_model(TINY_ARCH, seed=4)
        _, grads = loss_and_grad(model, tiny_batch())
        for a, g in zip(model_arrays(model), model_arrays(grads)):
            assert a.shape == g.shape

    def test_gradients_share_no_memory_with_model(self):
        model = init_model(TINY_ARCH, seed=4)
        _, grads = loss_and_grad(model, tiny_batch(), train_mode=True, seed=3)
        originals = model_arrays(model)
        assert not any(np.shares_memory(g, a) for g in model_arrays(grads) for a in originals)

    @pytest.mark.parametrize("train_mode", [False, True], ids=["eval", "train"])
    def test_public_gradients_wrap_the_gradient_vector_bitwise(self, train_mode):
        model = init_model(TINY_ARCH, seed=4)
        batch = tiny_batch(seed=1)
        x = np.stack([p.values for p, _ in batch])
        y = np.array([LABEL_INDEX[label] for _, label in batch])
        loss, grad = tdcnn._loss_and_grad_arrays(model, x, y, train_mode=train_mode, seed=3)
        assert type(loss) is float and type(grad) is np.ndarray
        assert grad.shape == (model.params.size,) and grad.dtype == np.float64
        public_loss, grads = loss_and_grad(model, batch, train_mode=train_mode, seed=3)
        assert public_loss == loss
        assert grads.arch == model.arch and grads.params.tobytes() == grad.tobytes()

    def test_empty_batch_rejected(self):
        model = init_model(TINY_ARCH, seed=4)
        with pytest.raises(ValueError, match="empty"):
            loss_and_grad(model, [])

    def test_bad_label_rejected(self):
        model = init_model(TINY_ARCH, seed=4)
        batch = [(PatternSignal(np.ones(8)), "Sleepy")]
        with pytest.raises(ValueError, match="label"):
            loss_and_grad(model, batch)

    def test_mixed_lengths_rejected(self):
        model = init_model(TINY_ARCH, seed=4)
        batch = [
            (PatternSignal(np.ones(8)), Label.DROWSY),
            (PatternSignal(np.ones(9)), Label.WAKEFUL),
        ]
        with pytest.raises(ValueError, match="length"):
            loss_and_grad(model, batch)

    def test_batch_is_the_mean_of_its_rows_at_default_depth(self):
        # eval mode normalizes each time step of each row on its own, so a
        # batch's loss and gradients are exactly the mean of its rows' results;
        # a mix-up of batch and time columns anywhere in the stack breaks this
        model = init_model(ArchSpec(), seed=2)
        batch = tiny_batch(seed=9, batch=32, length=33)
        loss, grads = loss_and_grad(model, batch)
        per_row = [loss_and_grad(model, [item]) for item in batch]
        assert abs(loss - np.mean([l for l, _ in per_row])) <= 1e-12 * abs(loss)
        for k, grad in enumerate(model_arrays(grads)):
            mean = np.mean([model_arrays(g)[k] for _, g in per_row], axis=0)
            assert np.max(np.abs(grad - mean)) <= 1e-12 * np.max(np.abs(mean))


class TestCausality:
    def test_upstream_activations_untouched(self):
        arch = ArchSpec(n_blocks=2, kernel_size=3, channels=4, dilation_schedule=(2, 4), dropout_rate=0.0)
        model = init_model(arch, seed=3)
        rng = np.random.default_rng(7)
        x = rng.normal(size=24)
        base = block_activations(model, PatternSignal(x))
        for k in range(1, 24):
            bumped = x.copy()
            bumped[k] += 0.5
            acts = block_activations(model, PatternSignal(bumped))
            for b, a in zip(base, acts):
                assert np.array_equal(a[:, :k], b[:, :k])

    def test_receptive_field_is_181_for_default_schedule(self):
        assert receptive_field(ArchSpec()) == 181

    def test_far_perturbation_leaves_last_step_unchanged(self):
        model = init_model(ArchSpec(), seed=0)
        rng = np.random.default_rng(7)
        x = rng.normal(size=220)
        last = x.size - 1
        base = block_activations(model, PatternSignal(x))[-1][:, -1]
        bumped = x.copy()
        bumped[last - 182] += 1.0
        far = block_activations(model, PatternSignal(bumped))[-1][:, -1]
        assert np.array_equal(far, base)
        # a near (even-offset) perturbation does reach the last step
        bumped = x.copy()
        bumped[last - 4] += 1.0
        near = block_activations(model, PatternSignal(bumped))[-1][:, -1]
        assert np.max(np.abs(near - base)) > 1e-6


def _reference_causal_conv(x, w, b, dilation, rows):
    """The causal convolution as it was before its taps were added
    contiguously: each tap's product over every column of ``x``, added into
    a column slice of the output."""
    n = x.shape[1]
    (j0, _), *taps = tdcnn._tap_lags(w.shape[2], dilation, n // rows)
    wt = w.transpose(2, 1, 0).copy()
    y = wt[j0].T @ x
    y += b[:, None]
    tap = np.empty_like(y)
    for j, lag in taps:
        y[:, lag * rows :] += np.matmul(wt[j].T, x, out=tap)[:, : n - lag * rows]
    return y


def _reference_causal_conv_backward(dy, x, w, dilation, rows):
    """Its backward as it was: each tap's ``dx`` added into a column slice."""
    n = dy.shape[1]
    (j0, _), *taps = tdcnn._tap_lags(w.shape[2], dilation, n // rows)
    dw = np.zeros_like(w)
    dx = w[:, :, j0].T @ dy
    dw[:, :, j0] = dy @ x.T
    for j, lag in taps:
        shift = lag * rows
        dx[:, : n - shift] += w[:, :, j].T @ dy[:, shift:]
        dw[:, :, j] = dy[:, shift:] @ x[:, : n - shift].T
    return dx, dw, dy.sum(axis=1)


class TestCausalConvKernels:
    @pytest.mark.parametrize("in_ch", [1, 16])
    @pytest.mark.parametrize("rows", [1, 7, 32])
    @pytest.mark.parametrize("kernel_size, length", [(3, 33), (2, 12)])
    def test_bitwise_equal_to_the_column_slice_formulas(self, in_ch, rows, kernel_size, length):
        # in_ch 1 is block 0, whose products are broadcast multiplies
        rng = np.random.default_rng(in_ch * 100 + rows)
        x = rng.normal(size=(in_ch, length * rows))
        w = rng.normal(size=(16, in_ch, kernel_size))
        b = rng.normal(size=16)
        dy = rng.normal(size=(16, length * rows))
        for dilation in (1, 2, 4, 8, 16):
            y = tdcnn._causal_conv(x, w, b, dilation, rows)
            assert y.tobytes() == _reference_causal_conv(x, w, b, dilation, rows).tobytes()
            grads = tdcnn._causal_conv_backward(dy, x, w, dilation, rows)
            expected = _reference_causal_conv_backward(dy, x, w, dilation, rows)
            for got, want in zip(grads, expected):
                assert got.tobytes() == want.tobytes()


class TestTrain:
    def test_zero_epochs_returns_identical_copy(self):
        dataset = separable_dataset(n_rows=40)
        model = init_model(TINY_ARCH, seed=5)
        out, history = train(model, dataset, TrainParams(epochs=0, seed=0))
        assert history == []
        assert out is not model
        for a, b in zip(model_arrays(model), model_arrays(out)):
            assert np.array_equal(a, b)

    def test_learns_separable_dataset(self):
        dataset = separable_dataset()
        model = init_model(ArchSpec(), seed=0)
        trained, history = train(model, dataset, TrainParams(epochs=8, seed=1))
        assert len(history) == 8
        assert max(acc for _, _, acc in history) >= 0.95
        first_loss = history[0][1]
        last_loss = history[-1][1]
        assert last_loss <= 0.5 * first_loss

    def test_deterministic_given_seed(self):
        dataset = separable_dataset(n_rows=60, length=12)
        model = init_model(TINY_ARCH, seed=2)
        out1, hist1 = train(model, dataset, TrainParams(epochs=3, seed=4))
        out2, hist2 = train(model, dataset, TrainParams(epochs=3, seed=4))
        assert hist1 == hist2
        for a, b in zip(model_arrays(out1), model_arrays(out2)):
            assert np.array_equal(a, b)

    def test_input_model_not_mutated(self):
        dataset = separable_dataset(n_rows=60, length=12)
        model = init_model(TINY_ARCH, seed=2)
        before = [a.copy() for a in model_arrays(model)]
        train(model, dataset, TrainParams(epochs=2, seed=4))
        for a, b in zip(model_arrays(model), before):
            assert np.array_equal(a, b)

    def test_builds_one_model_however_many_batches(self, monkeypatch):
        built = []

        class CountedModel(tdcnn.TdcnnModel):
            def __post_init__(self) -> None:
                built.append(self)
                super().__post_init__()

        model = init_model(TINY_ARCH, seed=2)
        monkeypatch.setattr(tdcnn, "TdcnnModel", CountedModel)
        # 60 rows leave 48 training rows: three batches of 16 in each epoch
        out, history = train(model, separable_dataset(n_rows=60, length=12),
                             TrainParams(epochs=2, batch_size=16, seed=4))
        assert len(history) == 2
        assert len(built) == 1 and built[0] is out

    def test_single_class_rejected(self):
        values = np.random.default_rng(0).normal(size=(20, 8))
        dataset = PatternDataset(values, np.zeros(20, dtype=int))
        model = init_model(TINY_ARCH, seed=2)
        with pytest.raises(ValueError, match="both classes"):
            train(model, dataset, TrainParams(epochs=1, seed=0))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(lr=math.inf), "lr must be finite, got inf"),
            (dict(weight_decay=math.nan), "weight_decay must be finite, got nan"),
            (dict(weight_decay=math.inf), "weight_decay must be finite, got inf"),
        ],
    )
    def test_non_finite_params_rejected(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            TrainParams(**kwargs)
        assert str(info.value) == message

    def test_returns_the_best_epoch(self):
        # random labels and a large step: validation accuracy falls after epoch 0
        rng = np.random.default_rng(3)
        dataset = PatternDataset(rng.normal(size=(60, 12)), np.arange(60) % 2)
        model = init_model(TINY_ARCH, seed=2)
        out, history = train(model, dataset, TrainParams(epochs=3, seed=3, lr=0.03))
        best = max(acc for _, _, acc in history)
        assert history[-1][2] < best
        assert val_accuracy(out, dataset, 3) == best


class TestAdamStep:
    def test_decayed_step_matches_hand_computation(self):
        hp = TrainParams(lr=0.1, beta1=0.9, beta2=0.999, weight_decay=0.01)
        p, g = [1.0, -2.0, 0.0], [0.5, 0.25, -0.125]
        m, v, t = [0.1, -0.2, 0.0], [0.01, 0.04, 0.0], 3
        expected_p, expected_m, expected_v = [], [], []
        for pi, gi, mi, vi in zip(p, g, m, v):
            gi = gi + 0.01 * pi  # decay folded into the gradient
            mi = 0.9 * mi + (1 - 0.9) * gi
            vi = 0.999 * vi + (1 - 0.999) * gi * gi
            m_hat, v_hat = mi / (1 - 0.9**t), vi / (1 - 0.999**t)
            expected_p.append(pi - 0.1 * m_hat / (math.sqrt(v_hat) + _ADAM_EPS))
            expected_m.append(mi)
            expected_v.append(vi)
        params, grads = np.array(p), np.array(g)
        ms, vs = np.array(m), np.array(v)
        _adam_step(params, grads, ms, vs, t, hp)
        np.testing.assert_allclose(params, expected_p, rtol=1e-12, atol=0)
        np.testing.assert_allclose(ms, expected_m, rtol=1e-12, atol=0)
        np.testing.assert_allclose(vs, expected_v, rtol=1e-12, atol=0)
        assert np.array_equal(grads, g)  # the decay term is not added in place


class TestAssess:
    def test_score_030_is_drowsy(self):
        verdict = assess(scored_model(0.3), PatternSignal(np.zeros(10)))
        assert abs(verdict.score - 0.3) <= 1e-12
        assert verdict.label is Label.DROWSY

    def test_score_070_is_wakeful(self):
        verdict = assess(scored_model(0.7), PatternSignal(np.zeros(10)))
        assert abs(verdict.score - 0.7) <= 1e-12
        assert verdict.label is Label.WAKEFUL

    def test_boundary_050_is_drowsy(self):
        verdict = assess(scored_model(0.5), PatternSignal(np.zeros(10)))
        assert verdict.score == 0.5
        assert verdict.label is Label.DROWSY

    def test_assessment_invariant_enforced(self):
        with pytest.raises(ValueError, match="score"):
            Assessment(score=1.5)


def passthrough_model():
    """One-channel block whose output equals its input, so the head sees the
    pattern mean and the score is sigmoid(mean)."""
    arch = ArchSpec(n_blocks=1, kernel_size=3, channels=1, dilation_schedule=(2,), dropout_rate=0.0)
    model = init_model(arch, seed=0)
    model.blocks[0].conv_w[...] = 0.0
    model.head_w[...] = 0.0
    model.head_w[1, 0] = 1.0
    return model


def pattern_scoring(p, length=6):
    return PatternSignal(np.full(length, math.log(p / (1.0 - p))))


class TestAssessWindow:
    def test_drowsy_scores_average_to_drowsy(self):
        model = passthrough_model()
        verdict = assess_window(model, [pattern_scoring(0.1), pattern_scoring(0.2)])
        assert abs(verdict.score - 0.15) <= 1e-12
        assert verdict.label is Label.DROWSY

    def test_mixed_scores_average_to_wakeful(self):
        model = passthrough_model()
        verdict = assess_window(model, [pattern_scoring(0.4), pattern_scoring(0.8)])
        assert abs(verdict.score - 0.6) <= 1e-12
        assert verdict.label is Label.WAKEFUL

    def test_single_pattern_equals_assess(self):
        model = init_model(TINY_ARCH, seed=6)
        pattern = PatternSignal(np.random.default_rng(1).normal(size=14))
        assert assess_window(model, [pattern]) == assess(model, pattern)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            assess_window(init_model(TINY_ARCH, seed=0), [])

    def test_mixed_lengths_rejected(self):
        patterns = [PatternSignal(np.ones(8)), PatternSignal(np.ones(9))]
        with pytest.raises(ValueError, match="length"):
            assess_window(init_model(TINY_ARCH, seed=0), patterns)

    def test_matrix_rows_score_as_pattern_signals(self):
        model = init_model(TINY_ARCH, seed=6)
        values = np.random.default_rng(4).normal(size=(5, 14))
        assert assess_window(model, values) == assess_window(model, [PatternSignal(v) for v in values])

    def test_flat_vector_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            assess_window(init_model(TINY_ARCH, seed=0), np.ones(8))

    def test_window_score_is_mean_of_predicted_scores(self):
        model = init_model(ArchSpec(), seed=5)
        values = np.random.default_rng(2).normal(size=(_INFER_ROWS + 9, 33))
        verdict = assess_window(model, [PatternSignal(v) for v in values])
        assert abs(verdict.score - float(np.mean(predict_wakeful_scores(model, values)))) <= 1e-12
        assert verdict.label is (Label.DROWSY if verdict.score <= 0.5 else Label.WAKEFUL)


class TestRowBlockedInference:
    # one row, and two full blocks plus a partial one
    @pytest.mark.parametrize("rows", [1, 2 * _INFER_ROWS + 5])
    def test_scores_equal_per_row_forward_bitwise(self, rows):
        model = init_model(ArchSpec(), seed=3)
        values = np.random.default_rng(rows).normal(size=(rows, 33))
        per_row = [forward(model, PatternSignal(v))[LABEL_INDEX[Label.WAKEFUL]] for v in values]
        assert np.array_equal(predict_wakeful_scores(model, values), per_row)

    # every block is one (channels, time·rows) matrix, so the batch width
    # changes each BLAS product's width: a row's score must not follow it
    @pytest.mark.parametrize("length", [1, 20, 220])
    @pytest.mark.parametrize("rows", [2, 3, 8, 31, 33])
    def test_scores_do_not_depend_on_the_batch_width(self, rows, length):
        model = init_model(ArchSpec(), seed=3)
        values = np.random.default_rng([rows, length]).normal(size=(rows, length))
        per_row = [forward(model, PatternSignal(v))[LABEL_INDEX[Label.WAKEFUL]] for v in values]
        assert np.array_equal(predict_wakeful_scores(model, values), per_row)

    # row counts that leave a partial last block (at 2,100 every block is one row)
    @pytest.mark.parametrize("length, rows", [(1, 33), (33, 70), (220, 20), (2100, 3)])
    def test_passes_stay_within_the_column_bound(self, monkeypatch, length, rows):
        model = init_model(ArchSpec(), seed=3)
        values = np.random.default_rng([rows, length]).normal(size=(rows, length))
        per_row = [forward(model, PatternSignal(v))[LABEL_INDEX[Label.WAKEFUL]] for v in values]
        shapes = []
        inner = tdcnn._forward_batch

        def spy(model, x, *args, **kwargs):
            shapes.append(x.shape)
            return inner(model, x, *args, **kwargs)

        monkeypatch.setattr(tdcnn, "_forward_batch", spy)
        scores = predict_wakeful_scores(model, values)
        # a row longer than the bound goes alone; more rows stay within it (a
        # lone one-sample row's own pass beside its copy is a pass too)
        assert shapes
        assert all(1 <= n <= _INFER_ROWS and (n == 1 or n * t <= _INFER_COLUMNS) for n, t in shapes)
        assert np.array_equal(scores, per_row)


class TestMlpBaseline:
    def test_learns_separable_dataset(self):
        dataset = separable_dataset()
        _, acc = train_baseline_mlp(dataset, TrainParams(epochs=10, seed=0))
        assert acc >= 0.9

    def test_zero_epochs_is_chance_level(self):
        dataset = separable_dataset(seed=3)
        _, acc = train_baseline_mlp(dataset, TrainParams(epochs=0, seed=0))
        assert 0.4 <= acc <= 0.6

    def test_deterministic_given_seed(self):
        dataset = separable_dataset(n_rows=80, length=12)
        m1, a1 = train_baseline_mlp(dataset, TrainParams(epochs=3, seed=5))
        m2, a2 = train_baseline_mlp(dataset, TrainParams(epochs=3, seed=5))
        assert a1 == a2
        for x, y in zip((m1.w1, m1.b1, m1.w2, m1.b2), (m2.w1, m2.b1, m2.w2, m2.b2)):
            assert np.array_equal(x, y)

    def test_single_class_rejected(self):
        values = np.random.default_rng(0).normal(size=(20, 8))
        dataset = PatternDataset(values, np.zeros(20, dtype=int))
        with pytest.raises(ValueError, match="both classes"):
            train_baseline_mlp(dataset, TrainParams(epochs=1, seed=0))

    def test_zero_rows_refused_before_scoring(self):
        dataset = PatternDataset(np.zeros((0, 8)), np.zeros(0, dtype=int))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="both classes"):
                train_baseline_mlp(dataset, TrainParams(epochs=1, seed=0))

    def test_accuracy_is_the_returned_models(self):
        # random labels and a large step: the last epoch is not the best one
        rng = np.random.default_rng(0)
        dataset = PatternDataset(rng.normal(size=(80, 12)), np.arange(80) % 2)
        mlp, acc = train_baseline_mlp(dataset, TrainParams(epochs=3, seed=0, lr=0.03))
        assert val_accuracy(mlp, dataset, 0) == acc

    def test_predict_scores_dispatch(self):
        dataset = separable_dataset(n_rows=40, length=12)
        mlp, _ = train_baseline_mlp(dataset, TrainParams(epochs=1, seed=0))
        cnn = init_model(TINY_ARCH, seed=0)
        for model in (mlp, cnn):
            scores = predict_wakeful_scores(model, dataset.values)
            assert scores.shape == (40,)
            assert np.all((scores >= 0) & (scores <= 1))
        with pytest.raises(TypeError, match="unsupported"):
            predict_wakeful_scores(object(), dataset.values)
