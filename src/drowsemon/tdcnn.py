"""Dilated temporal residual CNN for binary drowsiness assessment.

Twelve residual blocks of causal dilated convolutions (dilations cycling
2, 4, 8, 16), each followed by normalization, ReLU and spatial dropout,
then a global-average-pool softmax head. Forward, backward and the Adam
training loop are implemented from scratch on numpy arrays; gradients are
validated against central finite differences in the test suite.

Normalization standardizes each time step across channels (learned
per-channel scale and shift), which keeps every activation at time t a
function of inputs at times <= t, so the stack stays causal end to end.

Each block holds its activations as one (channels, time·rows) matrix whose
column ``t·rows + b`` is row b at time t. A causal tap that looks back l
steps is then one BLAS product over the input shifted l·rows columns to
the right (a broadcast multiply on block 0's single input channel), added
contiguously; its weight gradient is one product of contiguous column
slices; and the normalization reduces over the contiguous channel axis.
Training, ``forward`` and inference (``predict_wakeful_scores``, ``assess``,
``assess_window``) share that one forward pass. Inference runs it over
blocks of rows (``_INFER_ROWS``, ``_INFER_COLUMNS``), which bounds the
activations held at once whatever the number of rows scored, and a row's
score is bitwise the same whatever block it falls in (``_forward_batch``).

A model's weights are one float64 vector, ``TdcnnModel.params``, in
``model_arrays`` order; every per-layer array is a view into it, and so is
every field of the MLP baseline that Adam trains. Adam, the best-epoch
snapshot, the copy ``train`` works on and the checkpoint each handle that
one vector.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .filterbank import PatternDataset, PatternSignal
from .signal_gen import INDEX_LABEL, LABEL_INDEX, Label

__all__ = [
    "ArchSpec",
    "BlockWeights",
    "TdcnnModel",
    "TrainParams",
    "Assessment",
    "MlpModel",
    "init_model",
    "forward",
    "block_activations",
    "loss_and_grad",
    "train",
    "assess",
    "assess_window",
    "train_baseline_mlp",
    "predict_wakeful_scores",
    "receptive_field",
    "model_arrays",
    "split_indices",
]

IN_CHANNELS = 1
_NORM_EPS = 1e-5
_ADAM_EPS = 1e-8
_LOG_FLOOR = 1e-300
_ALLOWED_DILATIONS = (2, 4, 8, 16)
_DEFAULT_SCHEDULE = (2, 4, 8, 16) * 3
# Rows per inference forward pass: at the default architecture a block of 32
# 33-long rows holds under 4 MB of activations and block records, and a whole
# validation set in one pass would hold them for every row at once. Longer rows
# go fewer to a pass, so no product is over _INFER_COLUMNS (time·rows) wide:
# OpenBLAS rounds all columns of a (16, 16) @ (16, n) product alike up to n ≈
# 3,900, and the last columns of a wider one otherwise.
_INFER_ROWS = 32
_INFER_COLUMNS = 2048


@dataclass(frozen=True)
class ArchSpec:
    """Architecture descriptor for the dilated residual stack."""

    n_blocks: int = 12
    kernel_size: int = 3
    channels: int = 16
    dilation_schedule: tuple[int, ...] = _DEFAULT_SCHEDULE
    dropout_rate: float = 0.1
    n_classes: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "dilation_schedule", tuple(self.dilation_schedule))
        if self.n_blocks != len(self.dilation_schedule):
            raise ValueError(
                f"n_blocks ({self.n_blocks}) must equal the dilation schedule "
                f"length ({len(self.dilation_schedule)})"
            )
        bad = [d for d in self.dilation_schedule if d not in _ALLOWED_DILATIONS]
        if bad:
            raise ValueError(f"dilations must be in {_ALLOWED_DILATIONS}, got {bad}")
        if self.kernel_size % 2 != 1 or self.kernel_size < 1:
            raise ValueError(f"kernel_size must be odd and >= 1, got {self.kernel_size}")
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.n_classes != len(INDEX_LABEL):
            names = " and ".join(label.value for label in INDEX_LABEL)
            raise ValueError(f"n_classes must be {len(INDEX_LABEL)} ({names}), got {self.n_classes}")


@dataclass(eq=False)
class BlockWeights:
    conv_w: np.ndarray  # (out_ch, in_ch, kernel)
    conv_b: np.ndarray  # (out_ch,)
    gamma: np.ndarray  # (out_ch,)
    beta: np.ndarray  # (out_ch,)
    proj_w: np.ndarray | None = None  # (out_ch, in_ch) when channel counts differ


def _views(flat: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Consecutive views of the 1-D ``flat``, one per shape, covering all of it."""
    sizes = [math.prod(shape) for shape in shapes]
    if flat.shape != (sum(sizes),):
        raise ValueError(f"expected {sum(sizes)} weights, got {flat.size}")
    ends = itertools.accumulate(sizes)
    return [flat[end - size : end].reshape(shape) for shape, size, end in zip(shapes, sizes, ends)]


def _weight_shapes(arch: ArchSpec) -> list[list[tuple[int, ...]]]:
    """Weight shapes of each block in ``BlockWeights`` field order (``proj_w``
    only where the channel count changes), then the head's."""
    c, k = arch.channels, arch.kernel_size
    ins = [IN_CHANNELS] + [c] * (arch.n_blocks - 1)
    blocks = [[(c, c_in, k), (c,), (c,), (c,)] + ([(c, c_in)] if c_in != c else []) for c_in in ins]
    return blocks + [[(arch.n_classes, c), (arch.n_classes,)]]


@dataclass(eq=False)
class TdcnnModel:
    """An architecture and its weights as one 1-D float64 vector, ``params``,
    in ``model_arrays`` order. ``blocks``, ``head_w`` (n_classes, channels)
    and ``head_b`` (n_classes,) are views into ``params``, so writing either
    writes both; a ``params`` of the wrong size is refused."""

    arch: ArchSpec
    params: np.ndarray
    blocks: list[BlockWeights] = field(init=False, repr=False)
    head_w: np.ndarray = field(init=False, repr=False)
    head_b: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        *blocks, head = _weight_shapes(self.arch)
        views = iter(_views(self.params, [shape for group in (*blocks, head) for shape in group]))
        self.blocks = [BlockWeights(*itertools.islice(views, len(group))) for group in blocks]
        self.head_w, self.head_b = views


@dataclass(frozen=True)
class TrainParams:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    batch_size: int = 32
    epochs: int = 30
    seed: int = 0
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must be in [0, 1)")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        for name in ("lr", "weight_decay"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class Assessment:
    """A wakefulness score and the binary decision it reads as: scores at
    or below 0.5 are Drowsy."""

    score: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")

    @property
    def label(self) -> Label:
        return INDEX_LABEL[_verdict(self.score)]


def _verdict(scores):
    """The decision rule as label indices: a wakefulness score at or below
    0.5 reads as Drowsy, above it as Wakeful. Takes a score or an array."""
    return np.where(np.asarray(scores) > 0.5, LABEL_INDEX[Label.WAKEFUL], LABEL_INDEX[Label.DROWSY])


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_model(arch: ArchSpec, seed: int) -> TdcnnModel:
    """Glorot-uniform weights, zero biases/shifts, unit scales; seeded."""
    rng = np.random.default_rng(seed)
    k = arch.kernel_size
    model = TdcnnModel(arch, np.zeros(sum(math.prod(s) for g in _weight_shapes(arch) for s in g)))
    for blk in model.blocks:
        c_out, c_in, _ = blk.conv_w.shape
        blk.conv_w[...] = _glorot(rng, blk.conv_w.shape, fan_in=c_in * k, fan_out=c_out * k)
        blk.gamma[...] = 1.0
        if blk.proj_w is not None:
            blk.proj_w[...] = _glorot(rng, blk.proj_w.shape, fan_in=c_in, fan_out=c_out)
    model.head_w[...] = _glorot(rng, model.head_w.shape, fan_in=arch.channels, fan_out=arch.n_classes)
    return model


def model_arrays(model: TdcnnModel) -> list[np.ndarray]:
    """Parameter arrays in ``params`` order: for each block conv_w, conv_b,
    gamma, beta, then proj_w where present; finally head_w, head_b. Each is
    a view into ``model.params``."""
    arrays = [a for blk in model.blocks for a in vars(blk).values() if a is not None]
    return arrays + [model.head_w, model.head_b]


def receptive_field(arch: ArchSpec) -> int:
    """Leftward extent (in samples, current included) seen by the last block."""
    return 1 + sum((arch.kernel_size - 1) * d for d in arch.dilation_schedule)


def _tap_lags(kernel_size: int, dilation: int, t: int) -> list[tuple[int, int]]:
    """(tap, lag) pairs of the taps that reach the input, lag-0 tap first.

    Tap j looks ``(kernel_size - 1 - j) * dilation`` steps back; a tap that
    looks back ``t`` or more steps reads only the zeros before time 0.
    """
    lags = [(j, (kernel_size - 1 - j) * dilation) for j in reversed(range(kernel_size))]
    return [(j, lag) for j, lag in lags if lag < t]


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b``. With one inner dimension (block 0's single input channel)
    each element is one product, so a broadcast multiply gives the same bits
    without BLAS's per-call cost."""
    if a.shape[1] == 1:
        return np.multiply(a, b, out=out)
    return np.matmul(a, b, out=out)


def _causal_conv(x: np.ndarray, w: np.ndarray, b: np.ndarray, dilation: int, rows: int) -> np.ndarray:
    """Causal dilated convolution of (in, time·rows) input.

    Output column ``t·rows + r`` is ``b + sum_j w[:, :, j] @ x[:, (t - lag_j)·rows
    + r]`` with ``lag_j = (k - 1 - j) * dilation`` and x read as zero before
    time 0 (the left zero padding of a causal convolution). Each lagged tap
    copies ``x`` ``lag_j·rows`` columns to the right into one reused buffer
    whose leading columns are zero, and adds its product over every column
    contiguously. (A product on the column slice of ``x`` alone is one
    column wide for a tap that reaches only time 0, and a one-column product
    takes BLAS's matrix-vector kernel, which rounds differently.)
    """
    n = x.shape[1]
    (j0, _), *taps = _tap_lags(w.shape[2], dilation, n // rows)
    # (k, in, out): each ``wt[j].T`` is a Fortran-ordered (out, in) operand
    wt = w.transpose(2, 1, 0).copy()
    y = _matmul(wt[j0].T, x)
    y += b[:, None]
    shifted, tap = np.zeros_like(x), np.empty_like(y)
    for j, lag in taps:
        shifted[:, : lag * rows] = 0.0
        shifted[:, lag * rows :] = x[:, : n - lag * rows]
        y += _matmul(wt[j].T, shifted, out=tap)
    return y


def _causal_conv_backward(
    dy: np.ndarray, x: np.ndarray, w: np.ndarray, dilation: int, rows: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dx, dw, db) of the causal dilated convolution. Each lagged
    tap's ``dx`` is one product on the column slice of ``dy`` it reads,
    written into a reused buffer whose ``lag·rows`` trailing columns are
    zero and added contiguously; its ``dw`` is one product of column slices.
    (A full-width product over a shifted ``dy`` rounds some columns
    differently: with this operand a column's bits depend on the product's
    width.)"""
    n = dy.shape[1]
    (j0, _), *taps = _tap_lags(w.shape[2], dilation, n // rows)
    dw = np.zeros_like(w)
    dx = w[:, :, j0].T @ dy
    dw[:, :, j0] = dy @ x.T
    tap = np.empty_like(dx)
    for j, lag in taps:
        shift = lag * rows
        np.matmul(w[:, :, j].T, dy[:, shift:], out=tap[:, : n - shift])
        tap[:, n - shift :] = 0.0
        dx += tap
        dw[:, :, j] = dy[:, shift:] @ x[:, : n - shift].T
    return dx, dw, dy.sum(axis=1)


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _cross_entropy(probs: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of softmax rows ``probs`` at the true classes ``y``,
    and its gradient with respect to the logits."""
    rows = np.arange(y.size)
    loss = float(-np.mean(np.log(np.maximum(probs[rows, y], _LOG_FLOOR))))
    dlogits = probs.copy()
    dlogits[rows, y] -= 1.0
    return loss, dlogits / y.size


def _forward_batch(model: TdcnnModel, x: np.ndarray, train_mode: bool = False, seed: int = 0):
    """Run the stack on (rows, time) input; return ``(probs, pooled, caches, out)``.

    With ``train_mode`` on, spatial dropout masks are drawn from ``seed``.
    Each block's cache is ``(inp, gate, xhat, s)`` in the (channels,
    time·rows) layout: the block's input, the derivative of its ReLU·dropout
    (the dropout scale where the normalized value is positive, else zero) and
    the normalization's ``xhat`` and ``s``. ``out`` is the last block's
    output as a (rows, channels, time) copy.

    In eval mode a row's scores are bitwise the same whatever rows share its
    pass. Three rules keep them so: each tap weight is a Fortran-ordered
    operand (with a C-ordered one a column's bits depend on the product's
    width modulo 8); each tap's product spans every column, since a
    one-column product takes BLAS's matrix-vector kernel; and pooling
    averages over contiguous time in ``out``, since a strided mean adds in
    another order than a one-row pairwise sum.
    """
    if x.size == 1 and not train_mode:
        # one column would take BLAS's matrix-vector kernel and numpy's pairwise
        # channel sums, so a lone one-sample row runs beside a copy of itself
        probs, pooled, caches, out = _forward_batch(model, np.repeat(x, 2, axis=0))
        return probs[:1], pooled[:1], [tuple(a[..., :1] for a in c) for c in caches], out[:1]
    arch = model.arch
    p = arch.dropout_rate
    rng = np.random.default_rng(seed) if train_mode else None
    rows, t = x.shape
    h = x.T.reshape(1, -1)
    caches = []
    for blk, dilation in zip(model.blocks, arch.dilation_schedule):
        inp = h
        # standardize each column across channels, then scale and shift per channel
        xhat = _causal_conv(inp, blk.conv_w, blk.conv_b, dilation, rows)
        xhat -= xhat.mean(axis=0)
        s = np.sqrt(np.einsum("cn,cn->n", xhat, xhat) / arch.channels + _NORM_EPS)
        xhat /= s
        h = xhat * blk.gamma[:, None]
        h += blk.beta[:, None]
        gate = h > 0
        np.maximum(h, 0.0, out=h)
        if train_mode and p > 0.0:
            # one draw per (row, channel), broadcast over the row's time steps
            mask = ((rng.random((rows, arch.channels)) >= p) / (1.0 - p)).T[:, None, :]
            h_rows = h.reshape(-1, t, rows)
            h_rows *= mask
            gate = (gate.reshape(-1, t, rows) * mask).reshape(h.shape)
        h += inp if blk.proj_w is None else _matmul(blk.proj_w, inp)
        caches.append((inp, gate, xhat, s))
    out = h.reshape(-1, t, rows).transpose(2, 0, 1).copy()
    pooled = out.mean(axis=2)
    # one (1, channels) @ (channels, classes) product per row: ``pooled @
    # head_w.T`` lets BLAS pick its kernel by batch size, and a row's scores
    # would then depend on how many rows share its forward pass
    logits = np.matmul(pooled[:, None, :], model.head_w.T)[:, 0, :] + model.head_b
    return _softmax_rows(logits), pooled, caches, out


def _pattern_rows(patterns) -> np.ndarray:
    """Stack 1-D pattern vectors into a (rows, time) array: ``PatternSignal``s
    or a stack's ``rows``."""
    rows = [np.asarray(p.values if isinstance(p, PatternSignal) else p, dtype=np.float64)
            for p in patterns]
    shapes = {r.shape for r in rows}
    if len(shapes) != 1:
        raise ValueError("all patterns in a batch must share one length")
    (shape,) = shapes
    if len(shape) != 1 or shape[0] == 0:
        raise ValueError("each pattern must be a 1-D vector of at least one value")
    return np.stack(rows)


def forward(
    model: TdcnnModel, pattern: PatternSignal, train_mode: bool = False, seed: int = 0
) -> np.ndarray:
    """Class-probability vector for a single pattern (sums to one).

    With ``train_mode`` on, spatial dropout masks are drawn from ``seed``,
    so repeated calls with the same seed agree bitwise.
    """
    return _forward_batch(model, _pattern_rows([pattern]), train_mode, seed)[0][0]


def block_activations(model: TdcnnModel, pattern: PatternSignal) -> list[np.ndarray]:
    """Pre-pooling output of every block (eval mode), each (channels, time)."""
    _, _, caches, out = _forward_batch(model, _pattern_rows([pattern]))
    # a block's output is the next block's input, and one row's matrix is (channels, time)
    return [cache[0] for cache in caches[1:]] + [out[0]]


def _loss_and_grad_arrays(
    model: TdcnnModel, x: np.ndarray, y: np.ndarray, train_mode: bool = False, seed: int = 0
) -> tuple[float, np.ndarray]:
    """Batch loss of (rows, time) ``x`` at classes ``y``, and its gradient vector (not a model)."""
    probs, pooled, caches, out = _forward_batch(model, x, train_mode, seed)
    loss, dlogits = _cross_entropy(probs, y)
    dpooled = dlogits @ model.head_w
    rows, _, t_len = out.shape
    # column t·rows + b of every time step t gets row b's pooling gradient
    dh = np.tile(dpooled.T / t_len, t_len)

    # each block's gradients in ``model_arrays`` order, last block first
    grad_blocks = []
    for blk, dilation, (inp, gate, xhat, s) in zip(
        reversed(model.blocks), reversed(model.arch.dilation_schedule), reversed(caches)
    ):
        dproj = [] if blk.proj_w is None else [dh @ inp.T]
        d_inp_res = dh if blk.proj_w is None else blk.proj_w.T @ dh
        dy = dh * gate
        dyx = dy * xhat
        # the channel means of dxhat = gamma·dy are products with gamma
        d_conv = dy * blk.gamma[:, None]
        d_conv -= xhat * ((blk.gamma @ dyx) / blk.gamma.size)
        d_conv -= (blk.gamma @ dy) / blk.gamma.size
        d_conv *= 1.0 / s
        dh, dw, db = _causal_conv_backward(d_conv, inp, blk.conv_w, dilation, rows)
        dh += d_inp_res
        grad_blocks.append([dw, db, dyx.sum(axis=1), dy.sum(axis=1), *dproj])

    grads = [g for blk in grad_blocks[::-1] for g in blk] + [dlogits.T @ pooled, dlogits.sum(axis=0)]
    return loss, np.concatenate([g.ravel() for g in grads])


def loss_and_grad(
    model: TdcnnModel,
    batch: list[tuple[PatternSignal, Label]],
    train_mode: bool = False,
    seed: int = 0,
) -> tuple[float, TdcnnModel]:
    """Mean cross-entropy over the batch plus gradients for every parameter.

    The gradients come back as a ``TdcnnModel`` around the vector that
    ``_loss_and_grad_arrays`` returns, the gradient of the loss in ``params``
    order. Backprop runs through the softmax head, pooling, residual adds,
    dropout masks, ReLU, normalization (including its mean/variance
    dependence) and the dilated convolutions.
    """
    if not batch:
        raise ValueError("batch must not be empty")
    try:
        y = np.array([LABEL_INDEX[label] for _, label in batch], dtype=np.int64)
    except KeyError as exc:
        raise ValueError(f"unknown class label: {exc.args[0]!r}") from exc
    loss, grad = _loss_and_grad_arrays(model, _pattern_rows([p for p, _ in batch]), y, train_mode, seed)
    return loss, TdcnnModel(model.arch, grad)


def split_indices(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded 80/20 shuffle split shared by the CNN and the MLP baseline."""
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(n * 0.8)
    return perm[:n_train], perm[n_train:]


def _adam_step(
    p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, t: int, hp: TrainParams
) -> None:
    """Adam step ``t`` on the weight vector ``p`` and its moments ``m`` and
    ``v``, in place, for the gradient ``g``."""
    if hp.weight_decay:
        g = g + hp.weight_decay * p
    m *= hp.beta1
    m += (1 - hp.beta1) * g
    v *= hp.beta2
    v += (1 - hp.beta2) * g * g
    m_hat = m / (1 - hp.beta1**t)
    v_hat = v / (1 - hp.beta2**t)
    p -= hp.lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


def _adam_train(
    model,
    weights: np.ndarray,
    loss_grad,
    dataset: PatternDataset,
    params: TrainParams,
    rng: np.random.Generator,
    best_acc: float | None,
) -> tuple[float, list[tuple[int, float, float]]]:
    """Seeded Adam on the training rows of the 80/20 split, for both classifiers.

    Each epoch shuffles the rows with ``rng``, steps ``weights`` (the vector
    that ``model``'s weights are views into) in place on ``loss_grad(x, y)``
    (the batch loss and its gradient vector), then scores ``model`` on the
    validation rows. A snapshot is kept whenever it beats ``best_acc``
    (``None``: the untrained model's accuracy) and is written back into
    ``weights`` at the end. Returns no model: only its accuracy and the
    history rows (epoch, mean train loss, validation accuracy).
    """
    dataset.require_both_classes()
    # both classes present means n >= 2, which leaves at least one row on
    # each side of the split
    train_idx, val_idx = split_indices(len(dataset), params.seed)
    x_val, y_val = dataset.values[val_idx], dataset.labels[val_idx]

    def val_accuracy() -> float:
        return float(np.mean(_verdict(predict_wakeful_scores(model, x_val)) == y_val))

    # scored only now: a dataset without both classes is refused before any scoring
    if best_acc is None:
        best_acc = val_accuracy()
    m, v, best = np.zeros_like(weights), np.zeros_like(weights), weights.copy()
    history: list[tuple[int, float, float]] = []
    t_step = 0
    for epoch in range(params.epochs):
        order = rng.permutation(train_idx.size)
        losses = []
        for start in range(0, train_idx.size, params.batch_size):
            rows = train_idx[order[start : start + params.batch_size]]
            loss, grads = loss_grad(dataset.values[rows], dataset.labels[rows])
            t_step += 1
            _adam_step(weights, grads, m, v, t_step, params)
            losses.append(loss)
        val_acc = val_accuracy()
        history.append((epoch, float(np.mean(losses)), val_acc))
        if val_acc > best_acc:
            best_acc = val_acc
            best = weights.copy()
    weights[...] = best
    return best_acc, history


def train(
    model: TdcnnModel, dataset: PatternDataset, params: TrainParams
) -> tuple[TdcnnModel, list[tuple[int, float, float]]]:
    """Adam-train on an 80/20 seeded split; return the best-validation snapshot.

    History rows are (epoch, mean train loss, validation accuracy). Each step
    takes the gradient vector of ``_loss_and_grad_arrays``; the returned model
    is the one model built, and the input model is never mutated. With
    ``epochs=0`` it is an identical copy. Fully deterministic given ``params.seed``.
    """
    rng = np.random.default_rng([params.seed, 3])
    work = TdcnnModel(model.arch, model.params.copy())

    def loss_grad(x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        # drawn after the epoch's permutation, from the same generator
        return _loss_and_grad_arrays(work, x, y, train_mode=True, seed=int(rng.integers(0, 2**62)))

    # -1 makes the first epoch's model the first snapshot
    _, history = _adam_train(work, work.params, loss_grad, dataset, params, rng, -1.0)
    return work, history


def assess(model: TdcnnModel, pattern: PatternSignal) -> Assessment:
    """Map the wakefulness probability onto the binary decision rule."""
    return assess_window(model, [pattern])


def assess_window(model: TdcnnModel, patterns) -> Assessment:
    """Average the per-pattern scores of a window, then apply the same rule.

    ``patterns`` are ``PatternSignal``s or a stack's ``rows``; all of them
    go through one row-blocked inference call.
    """
    if len(patterns) == 0:
        raise ValueError("assess_window needs at least one pattern")
    score = float(np.mean(predict_wakeful_scores(model, _pattern_rows(patterns))))
    return Assessment(score)


# ---------------------------------------------------------------------------
# MLP baseline (qualitative reference point below the CNN)
# ---------------------------------------------------------------------------

_MLP_HIDDEN = 32


@dataclass(eq=False)
class MlpModel:
    w1: np.ndarray  # (hidden, in_dim)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (n_classes, hidden)
    b2: np.ndarray  # (n_classes,)


def _mlp_forward(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations and class probabilities of (rows, in_dim) input."""
    hidden = np.maximum(x @ model.w1.T + model.b1[None, :], 0.0)
    return hidden, _softmax_rows(hidden @ model.w2.T + model.b2[None, :])


def _mlp_loss_grad(model: MlpModel, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch loss and its gradient vector, in ``MlpModel`` field order."""
    hidden, probs = _mlp_forward(model, x)
    loss, dlogits = _cross_entropy(probs, y)
    dhidden = (dlogits @ model.w2) * (hidden > 0)
    grads = [dhidden.T @ x, dhidden.sum(axis=0), dlogits.T @ hidden, dlogits.sum(axis=0)]
    return loss, np.concatenate([g.ravel() for g in grads])


def train_baseline_mlp(dataset: PatternDataset, params: TrainParams) -> tuple[MlpModel, float]:
    """Single-hidden-layer softmax baseline on the same split and optimizer.

    Returns the best-validation snapshot and its validation accuracy; with
    ``epochs=0`` that is simply the untrained model's accuracy.
    """
    in_dim = dataset.n_channels
    n_classes = len(INDEX_LABEL)
    init_rng = np.random.default_rng([params.seed, 1])
    shapes = [(_MLP_HIDDEN, in_dim), (_MLP_HIDDEN,), (n_classes, _MLP_HIDDEN), (n_classes,)]
    weights = np.zeros(sum(map(math.prod, shapes)))
    model = MlpModel(*_views(weights, shapes))
    model.w1[...] = _glorot(init_rng, model.w1.shape, in_dim, _MLP_HIDDEN)
    model.w2[...] = _glorot(init_rng, model.w2.shape, _MLP_HIDDEN, n_classes)

    rng = np.random.default_rng([params.seed, 2])
    loss_grad = functools.partial(_mlp_loss_grad, model)
    best_acc, _ = _adam_train(model, weights, loss_grad, dataset, params, rng, None)
    return model, best_acc


def predict_wakeful_scores(model, values: np.ndarray) -> np.ndarray:
    """Wakefulness probability per row for either classifier kind.

    The TDCNN scores rows in blocks (``_INFER_ROWS``, ``_INFER_COLUMNS``); a
    row's score is bitwise the same whatever block it falls in.
    """
    values = np.asarray(values, dtype=np.float64)
    wakeful = LABEL_INDEX[Label.WAKEFUL]
    if isinstance(model, MlpModel):
        return _mlp_forward(model, values)[1][:, wakeful]
    if isinstance(model, TdcnnModel):
        scores = np.empty(values.shape[0])
        step = max(1, min(_INFER_ROWS, _INFER_COLUMNS // max(1, values.shape[1])))
        for i in range(0, len(values), step):
            scores[i : i + step] = _forward_batch(model, values[i : i + step])[0][:, wakeful]
        return scores
    raise TypeError(f"unsupported model type: {type(model).__name__}")
