"""Driving-scene utilities: criss-cross attention, box saliency, mIoU.

The attention operator aggregates, for every pixel, the positions sharing
its row or column (the center counted once); applying it twice propagates
context across the whole frame. Bounding-box filtering and the mean
intersection-over-union metric support the pedestrian-relevance rule and
segmentation scoring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RccaWeights",
    "BoundingBox",
    "init_rcca_weights",
    "cc_attention",
    "rcca",
    "filter_salient",
    "salient_thresholds_for_frame",
    "iou_per_class",
    "miou",
]


@dataclass(eq=False)
class RccaWeights:
    """Bias-free projections shared across recurrence steps.

    ``w_query`` and ``w_key`` map channels to a reduced dimension
    (max(1, C // 8)); ``w_value`` maps channels to channels. ``gamma``
    scales the attention output before the residual add.
    """

    w_query: np.ndarray  # (reduced, channels)
    w_key: np.ndarray  # (reduced, channels)
    w_value: np.ndarray  # (channels, channels)
    gamma: float = 1.0

    def __post_init__(self) -> None:
        self.w_query = np.asarray(self.w_query, dtype=np.float64)
        self.w_key = np.asarray(self.w_key, dtype=np.float64)
        self.w_value = np.asarray(self.w_value, dtype=np.float64)
        if self.w_query.shape != self.w_key.shape:
            raise ValueError("query and key projections must share a shape")
        c = self.w_value.shape[0]
        if self.w_value.shape != (c, c) or self.w_query.shape[1] != c:
            raise ValueError("value projection must be square and match the channel count")
        for arr in (self.w_query, self.w_key, self.w_value):
            if not np.all(np.isfinite(arr)):
                raise ValueError("projection weights must be finite")
        if not math.isfinite(self.gamma):
            raise ValueError("gamma must be finite")


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box: top-left corner plus positive width and height."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if not (self.w > 0 and self.h > 0):
            raise ValueError(f"box needs w > 0 and h > 0, got w={self.w}, h={self.h}")


def init_rcca_weights(channels: int, seed: int) -> RccaWeights:
    """Random projections at 1/sqrt(C) scale; reduced dim is max(1, C // 8)."""
    if channels < 1:
        raise ValueError(f"channels must be >= 1, got {channels}")
    reduced = max(1, channels // 8)
    rng = np.random.default_rng(seed)
    scale = channels**-0.5
    return RccaWeights(
        w_query=rng.normal(0.0, scale, size=(reduced, channels)),
        w_key=rng.normal(0.0, scale, size=(reduced, channels)),
        w_value=rng.normal(0.0, scale, size=(channels, channels)),
    )


def _check_feature_map(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or min(x.shape) < 1:
        raise ValueError(f"feature map must be (H, W, C) with all dims >= 1, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("feature map must be finite")
    return x


def cc_attention(x: np.ndarray, weights: RccaWeights) -> np.ndarray:
    """One criss-cross attention pass over an (H, W, C) feature map.

    Each pixel attends to the H + W - 1 positions in its row and column
    (itself counted once); softmax-weighted value vectors are scaled by
    gamma and added back onto the input.
    """
    x = _check_feature_map(x)
    h, w, c = x.shape
    if weights.w_value.shape[0] != c:
        raise ValueError(
            f"weights built for {weights.w_value.shape[0]} channels, map has {c}"
        )

    q = x @ weights.w_query.T
    k = x @ weights.w_key.T
    v = x @ weights.w_value.T

    energy_row = np.einsum("hwr,hjr->hwj", q, k)  # keys along the row
    energy_col = np.einsum("hwr,iwr->hwi", q, k)  # keys along the column
    energy = np.concatenate([energy_row, energy_col], axis=2)
    rows = np.arange(h)
    energy[rows, :, w + rows] = -np.inf  # center already present in the row part

    energy -= energy.max(axis=2, keepdims=True)
    attn = np.exp(energy)
    attn /= attn.sum(axis=2, keepdims=True)

    context = np.einsum("hwj,hjc->hwc", attn[:, :, :w], v)
    context += np.einsum("hwi,iwc->hwc", attn[:, :, w:], v)
    return weights.gamma * context + x


def rcca(x: np.ndarray, weights: RccaWeights, steps: int = 2) -> np.ndarray:
    """Recurrent criss-cross attention: ``steps`` passes with shared weights."""
    if not isinstance(steps, int) or steps < 1:
        raise ValueError(f"steps must be an integer >= 1, got {steps}")
    out = _check_feature_map(x)
    for _ in range(steps):
        out = cc_attention(out, weights)
    return out


def filter_salient(
    boxes: list[BoundingBox], min_height: float, min_width: float
) -> list[BoundingBox]:
    """Keep boxes whose height exceeds ``min_height`` or width exceeds
    ``min_width`` (either suffices); order preserved."""
    if min_height < 0 or min_width < 0:
        raise ValueError("thresholds must be >= 0")
    return [b for b in boxes if b.h > min_height or b.w > min_width]


def salient_thresholds_for_frame(frame_height: int, frame_width: int) -> tuple[float, float]:
    """Default size thresholds: 15% of frame height, 5% of frame width."""
    if frame_height < 1 or frame_width < 1:
        raise ValueError("frame dimensions must be >= 1")
    return 0.15 * frame_height, 0.05 * frame_width


def _check_masks(pred: np.ndarray, gt: np.ndarray, n_classes: int) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"mask shapes differ: {pred.shape} vs {gt.shape}")
    if pred.ndim != 2:
        raise ValueError("masks must be 2-D label grids")
    if n_classes < 1:
        raise ValueError(f"n_classes must be >= 1, got {n_classes}")
    for name, m in (("pred", pred), ("gt", gt)):
        if m.size and (m.min() < 0 or m.max() >= n_classes):
            raise ValueError(f"{name} labels must lie in [0, {n_classes - 1}]")
    return pred, gt


def iou_per_class(pred: np.ndarray, gt: np.ndarray, n_classes: int) -> dict[int, float]:
    """IoU for every class present in either mask (absent classes excluded)."""
    pred, gt = _check_masks(pred, gt, n_classes)
    out: dict[int, float] = {}
    for cls in range(n_classes):
        p = pred == cls
        g = gt == cls
        union = int(np.logical_or(p, g).sum())
        if union == 0:
            continue
        inter = int(np.logical_and(p, g).sum())
        out[cls] = inter / union
    return out


def miou(pred: np.ndarray, gt: np.ndarray, n_classes: int) -> float:
    """Mean IoU over the classes present in either mask."""
    per_class = iou_per_class(pred, gt, n_classes)
    if not per_class:
        raise ValueError("masks contain no class to score")
    return float(np.mean(list(per_class.values())))
