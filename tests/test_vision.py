import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from drowsemon.vision import (
    BoundingBox,
    RccaWeights,
    cc_attention,
    filter_salient,
    init_rcca_weights,
    iou_per_class,
    miou,
    rcca,
    salient_thresholds_for_frame,
)


def influence_map(x, weights, steps, ph, pw, delta=1e-3):
    """Finite-difference influence of pixel (ph, pw) on every output pixel."""
    base = rcca(x, weights, steps=steps)
    bumped = x.copy()
    bumped[ph, pw, 0] += delta
    return np.abs(rcca(bumped, weights, steps=steps) - base).max(axis=2)


class TestCcAttention:
    def test_single_pixel_closed_form(self):
        x = np.array([[[0.7, -1.2]]])
        w_q = np.array([[0.3, -0.5]])
        w_k = np.array([[0.1, 0.9]])
        w_v = np.array([[0.4, 0.2], [-0.3, 0.6]])
        weights = RccaWeights(w_q, w_k, w_v, gamma=1.3)
        # one position: attention weight is 1, so out = gamma * (W_v x) + x
        value = w_v @ x[0, 0]
        expected = 1.3 * value + x[0, 0]
        out = cc_attention(x, weights)
        assert np.allclose(out[0, 0], expected, atol=1e-12)

    def test_zero_input_zero_output(self):
        weights = init_rcca_weights(4, seed=0)
        out = cc_attention(np.zeros((3, 5, 4)), weights)
        assert np.all(out == 0.0)

    def test_attention_weights_form_simplex(self):
        # with an identity value projection and gamma 1, out - x is the
        # attention-weighted sum of the pixel's row and column values: weights
        # that are non-negative and sum to one keep it within those values'
        # range, and give back a map that is constant per channel
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 5, 8))
        init = init_rcca_weights(8, seed=2)
        weights = RccaWeights(init.w_query, init.w_key, np.eye(8), gamma=1.0)
        context = cc_attention(x, weights) - x
        for i in range(4):
            for j in range(5):
                seen = np.concatenate([x[i], x[:, j]])
                assert np.all(context[i, j] >= seen.min(axis=0) - 1e-12)
                assert np.all(context[i, j] <= seen.max(axis=0) + 1e-12)
        constant = np.broadcast_to(rng.normal(size=8), (4, 5, 8)).copy()
        assert np.max(np.abs(cc_attention(constant, weights) - 2 * constant)) <= 1e-9

    def test_channel_permutation_symmetry(self):
        rng = np.random.default_rng(3)
        c = 6
        x = rng.normal(size=(3, 4, c))
        weights = init_rcca_weights(c, seed=4)
        perm = rng.permutation(c)
        permuted = RccaWeights(
            w_query=weights.w_query[:, perm],
            w_key=weights.w_key[:, perm],
            w_value=weights.w_value[np.ix_(perm, perm)],
            gamma=weights.gamma,
        )
        out = cc_attention(x, weights)
        out_perm = cc_attention(x[:, :, perm], permuted)
        assert np.allclose(out_perm, out[:, :, perm], atol=1e-12)

    def test_shape_mismatch_rejected(self):
        weights = init_rcca_weights(4, seed=0)
        with pytest.raises(ValueError, match="channels"):
            cc_attention(np.zeros((2, 2, 5)), weights)

    def test_reduced_dimension_rule(self):
        assert init_rcca_weights(16, seed=0).w_query.shape == (2, 16)
        assert init_rcca_weights(4, seed=0).w_query.shape == (1, 4)


class TestRcca:
    def test_one_step_equals_single_pass(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 4, 4))
        weights = init_rcca_weights(4, seed=6)
        assert np.array_equal(rcca(x, weights, steps=1), cc_attention(x, weights))

    def test_single_pass_influence_is_exactly_the_cross(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 5, 4))
        weights = init_rcca_weights(4, seed=8)
        for ph in range(4):
            for pw in range(5):
                inf = influence_map(x, weights, steps=1, ph=ph, pw=pw)
                cross = np.zeros((4, 5), dtype=bool)
                cross[ph, :] = True
                cross[:, pw] = True
                assert np.all(inf[~cross] <= 1e-9)
                assert np.all(inf[cross] > 0.0)

    def test_two_passes_reach_every_pixel(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 5, 4))
        weights = init_rcca_weights(4, seed=10)
        for ph, pw in [(0, 0), (2, 3), (3, 4)]:
            inf = influence_map(x, weights, steps=2, ph=ph, pw=pw)
            assert np.all(inf > 0.0)

    def test_invalid_steps_rejected(self):
        weights = init_rcca_weights(4, seed=0)
        with pytest.raises(ValueError, match="steps"):
            rcca(np.zeros((2, 2, 4)), weights, steps=0)


class TestFilterSalient:
    def test_tall_box_kept_by_height(self):
        box = BoundingBox(x=0, y=0, w=5, h=10)
        assert filter_salient([box], min_height=8, min_width=8) == [box]

    def test_small_box_dropped(self):
        box = BoundingBox(x=0, y=0, w=3, h=3)
        assert filter_salient([box], min_height=8, min_width=8) == []

    def test_empty_list(self):
        assert filter_salient([], min_height=8, min_width=8) == []

    def test_either_dimension_suffices(self):
        wide = BoundingBox(x=0, y=0, w=9, h=1)
        assert filter_salient([wide], min_height=8, min_width=8) == [wide]

    def test_threshold_is_strict(self):
        edge = BoundingBox(x=0, y=0, w=8, h=8)
        assert filter_salient([edge], min_height=8, min_width=8) == []

    def test_idempotent_order_preserving_subset(self):
        rng = np.random.default_rng(11)
        boxes = [
            BoundingBox(x=0, y=0, w=float(rng.uniform(1, 20)), h=float(rng.uniform(1, 20)))
            for _ in range(30)
        ]
        once = filter_salient(boxes, 10, 10)
        twice = filter_salient(once, 10, 10)
        assert once == twice
        assert all(b in boxes for b in once)
        positions = [boxes.index(b) for b in once]
        assert positions == sorted(positions)

    def test_default_frame_thresholds(self):
        assert salient_thresholds_for_frame(480, 640) == (72.0, 32.0)

    def test_box_validation(self):
        with pytest.raises(ValueError, match="w > 0"):
            BoundingBox(x=0, y=0, w=0, h=5)


class TestMiou:
    def test_identical_masks_score_one(self):
        mask = np.array([[0, 1, 1], [2, 2, 0]])
        assert miou(mask, mask.copy(), n_classes=3) == 1.0

    def test_disjoint_foregrounds(self):
        pred = np.zeros((4, 4), dtype=int)
        gt = np.zeros((4, 4), dtype=int)
        pred[0, :2] = 1
        gt[3, 2:] = 1
        per_class = iou_per_class(pred, gt, n_classes=2)
        assert per_class[1] == 0.0
        assert per_class[1] < per_class[0] < 1.0
        assert miou(pred, gt, 2) == pytest.approx((per_class[0] + per_class[1]) / 2)

    def test_half_overlap_case_is_exactly_half(self):
        # 10x15 grid: gt foreground fills the left 10x10 half-plane (100 px),
        # prediction covers exactly 50 of them and nothing else.
        gt = np.zeros((10, 15), dtype=int)
        gt[:, :10] = 1
        pred = np.zeros((10, 15), dtype=int)
        pred[:5, :10] = 1
        per_class = iou_per_class(pred, gt, n_classes=2)
        assert per_class[1] == 0.5  # fg: 50 / 100
        assert per_class[0] == 0.5  # bg: 50 / 100
        assert miou(pred, gt, 2) == 0.5

    def test_symmetry(self):
        rng = np.random.default_rng(12)
        a = rng.integers(0, 3, size=(6, 7))
        b = rng.integers(0, 3, size=(6, 7))
        assert miou(a, b, 3) == miou(b, a, 3)

    @given(
        masks=hnp.arrays(np.int64, (4, 5), elements=st.integers(0, 2)),
        other=hnp.arrays(np.int64, (4, 5), elements=st.integers(0, 2)),
    )
    @settings(max_examples=40, deadline=None)
    def test_relabel_invariance(self, masks, other):
        perm = np.array([2, 0, 1])
        assert miou(masks, other, 3) == pytest.approx(miou(perm[masks], perm[other], 3))

    def test_absent_classes_excluded(self):
        pred = np.zeros((3, 3), dtype=int)
        gt = np.zeros((3, 3), dtype=int)
        assert miou(pred, gt, n_classes=5) == 1.0
        assert list(iou_per_class(pred, gt, 5)) == [0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            miou(np.zeros((2, 2), dtype=int), np.zeros((3, 2), dtype=int), 2)

    def test_out_of_range_labels_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            miou(np.full((2, 2), 5), np.zeros((2, 2), dtype=int), n_classes=2)
