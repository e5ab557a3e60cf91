"""Dilated temporal residual CNN for binary drowsiness assessment.

Twelve residual blocks of causal dilated convolutions (dilations cycling
2, 4, 8, 16), each followed by normalization, ReLU and spatial dropout,
then a global-average-pool softmax head. Forward, backward and the Adam
training loop are implemented from scratch on numpy arrays; gradients are
validated against central finite differences in the test suite.

Normalization standardizes each time step across channels (learned
per-channel scale and shift), which keeps every activation at time t a
function of inputs at times <= t, so the stack stays causal end to end.

Every channel contraction (the convolution taps, the 1->channels residual
projection and their gradients) is a BLAS product through ``np.matmul`` or
``np.tensordot``. In the forward pass each product runs once per batch row
on that row alone, so a row's output does not depend on the rows batched
with it. Inference (``predict_wakeful_scores``, ``assess``,
``assess_window``) runs that one forward pass over blocks of at most
``_INFER_ROWS`` rows, which bounds the activations held at once whatever the
number of rows scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "parameter_count",
    "model_arrays",
    "clone_model",
    "zeros_like_model",
    "split_indices",
]

IN_CHANNELS = 1
_NORM_EPS = 1e-5
_ADAM_EPS = 1e-8
_LOG_FLOOR = 1e-300
_ALLOWED_DILATIONS = (2, 4, 8, 16)
_DEFAULT_SCHEDULE = (2, 4, 8, 16) * 3
# Rows per inference forward pass: at the default architecture a block of 32
# 33-long rows holds under 2 MB of activations, and a whole validation set in
# one pass would hold them for every row at once.
_INFER_ROWS = 32


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
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {self.n_classes}")


@dataclass
class BlockWeights:
    conv_w: np.ndarray  # (out_ch, in_ch, kernel)
    conv_b: np.ndarray  # (out_ch,)
    gamma: np.ndarray  # (out_ch,)
    beta: np.ndarray  # (out_ch,)
    proj_w: np.ndarray | None = None  # (out_ch, in_ch) when channel counts differ


@dataclass
class TdcnnModel:
    arch: ArchSpec
    blocks: list[BlockWeights]
    head_w: np.ndarray  # (n_classes, channels)
    head_b: np.ndarray  # (n_classes,)


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


@dataclass(frozen=True)
class Assessment:
    """Binary decision: scores at or below 0.5 read as Drowsy."""

    score: float
    label: Label

    def __post_init__(self) -> None:
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")
        if self.label is not INDEX_LABEL[_verdict(self.score)]:
            raise ValueError(f"label {self.label} inconsistent with score {self.score}")


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
    blocks: list[BlockWeights] = []
    c_in = IN_CHANNELS
    for _ in arch.dilation_schedule:
        c_out = arch.channels
        conv_w = _glorot(rng, (c_out, c_in, k), fan_in=c_in * k, fan_out=c_out * k)
        proj_w = None
        if c_in != c_out:
            proj_w = _glorot(rng, (c_out, c_in), fan_in=c_in, fan_out=c_out)
        blocks.append(
            BlockWeights(
                conv_w=conv_w,
                conv_b=np.zeros(c_out),
                gamma=np.ones(c_out),
                beta=np.zeros(c_out),
                proj_w=proj_w,
            )
        )
        c_in = c_out
    head_w = _glorot(rng, (arch.n_classes, arch.channels), fan_in=arch.channels, fan_out=arch.n_classes)
    head_b = np.zeros(arch.n_classes)
    return TdcnnModel(arch=arch, blocks=blocks, head_w=head_w, head_b=head_b)


def model_arrays(model: TdcnnModel) -> list[np.ndarray]:
    """Parameter arrays in the canonical flat order: for each block conv_w,
    conv_b, gamma, beta, then proj_w where present; finally head_w, head_b.
    This order is shared by the optimizer and the checkpoint format."""
    out: list[np.ndarray] = []
    for blk in model.blocks:
        out.extend([blk.conv_w, blk.conv_b, blk.gamma, blk.beta])
        if blk.proj_w is not None:
            out.append(blk.proj_w)
    out.extend([model.head_w, model.head_b])
    return out


def parameter_count(model: TdcnnModel) -> int:
    return sum(a.size for a in model_arrays(model))


def _map_model(model: TdcnnModel, fn) -> TdcnnModel:
    blocks = [
        BlockWeights(
            conv_w=fn(b.conv_w),
            conv_b=fn(b.conv_b),
            gamma=fn(b.gamma),
            beta=fn(b.beta),
            proj_w=None if b.proj_w is None else fn(b.proj_w),
        )
        for b in model.blocks
    ]
    return TdcnnModel(arch=model.arch, blocks=blocks, head_w=fn(model.head_w), head_b=fn(model.head_b))


def clone_model(model: TdcnnModel) -> TdcnnModel:
    return _map_model(model, np.copy)


def zeros_like_model(model: TdcnnModel) -> TdcnnModel:
    return _map_model(model, np.zeros_like)


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


def _causal_conv(x: np.ndarray, w: np.ndarray, b: np.ndarray, dilation: int) -> np.ndarray:
    """Causal dilated convolution of (batch, in, time) input.

    ``y[:, :, t] = b + sum_j w[:, :, j] @ x[:, :, t - lag_j]`` with
    ``lag_j = (k - 1 - j) * dilation`` and x read as zero before time 0 (the
    left zero padding of a causal convolution). Each tap is one
    (out, in) @ (in, time) matmul per batch row over the time steps it
    reaches, added into the output shifted by its lag; neither a padded nor a
    k-fold shifted copy of the input is built.
    """
    t = x.shape[2]
    (j0, _), *taps = _tap_lags(w.shape[2], dilation, t)
    y = b[:, None] + np.matmul(w[:, :, j0], x)
    for j, lag in taps:
        y[:, :, lag:] += np.matmul(w[:, :, j], x[:, :, : t - lag])
    return y


def _causal_conv_backward(
    dy: np.ndarray, x: np.ndarray, w: np.ndarray, dilation: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (dx, dw, db) of the causal dilated convolution."""
    t = dy.shape[2]
    dx = np.zeros_like(x)
    dw = np.zeros_like(w)
    for j, lag in _tap_lags(w.shape[2], dilation, t):
        dx[:, :, : t - lag] += np.matmul(w[:, :, j].T, dy[:, :, lag:])
        dw[:, :, j] = np.tensordot(dy[:, :, lag:], x[:, :, : t - lag], axes=([0, 2], [0, 2]))
    db = dy.sum(axis=(0, 2))
    return dx, dw, db


def _norm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Standardize each time step across channels, then scale/shift per channel."""
    xc = x - x.mean(axis=1, keepdims=True)
    var = (xc * xc).mean(axis=1, keepdims=True)
    s = np.sqrt(var + _NORM_EPS)
    xhat = xc / s
    y = gamma[None, :, None] * xhat + beta[None, :, None]
    return y, xhat, s


def _norm_backward(
    dy: np.ndarray, xhat: np.ndarray, s: np.ndarray, gamma: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    dgamma = np.einsum("bct,bct->c", dy, xhat)
    dbeta = dy.sum(axis=(0, 2))
    dxhat = dy * gamma[None, :, None]
    m1 = dxhat.mean(axis=1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
    dx = (dxhat - m1 - xhat * m2) / s
    return dx, dgamma, dbeta


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


def _forward_batch(
    model: TdcnnModel,
    x: np.ndarray,
    train_mode: bool = False,
    seed: int = 0,
    keep_cache: bool = False,
):
    """Run the stack on (batch, 1, time) input; optionally keep per-block caches.

    With ``train_mode`` on, spatial dropout masks are drawn from ``seed``.
    With ``keep_cache`` it returns ``(probs, pooled, caches, h)``: each block's
    cache starts with that block's input, and ``h`` is the last block's output.
    """
    arch = model.arch
    p = arch.dropout_rate
    rng = np.random.default_rng(seed) if train_mode else None
    h = x
    caches = []
    for blk, dilation in zip(model.blocks, arch.dilation_schedule):
        inp = h
        conv = _causal_conv(inp, blk.conv_w, blk.conv_b, dilation)
        norm, xhat, s = _norm_forward(conv, blk.gamma, blk.beta)
        act = np.maximum(norm, 0.0)
        mask = None
        if train_mode and p > 0.0:
            mask = (rng.random((x.shape[0], arch.channels)) >= p) / (1.0 - p)
            branch = act * mask[:, :, None]
        else:
            branch = act
        if blk.proj_w is None:
            res = inp
        else:
            res = np.matmul(blk.proj_w, inp)
        h = branch + res
        if keep_cache:
            caches.append((inp, norm, xhat, s, mask))
    pooled = h.mean(axis=2)
    # one (1, channels) @ (channels, classes) product per row: ``pooled @
    # head_w.T`` lets BLAS pick its kernel by batch size, and a row's scores
    # would then depend on how many rows share its forward pass
    logits = np.matmul(pooled[:, None, :], model.head_w.T)[:, 0, :] + model.head_b
    probs = _softmax_rows(logits)
    if keep_cache:
        return probs, pooled, caches, h
    return probs


def _pattern_rows(patterns) -> np.ndarray:
    """Stack 1-D pattern vectors into a (rows, time) array: ``PatternSignal``s
    or the rows of a ``pattern_rows`` matrix."""
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
    return _forward_batch(model, _pattern_rows([pattern])[:, None, :], train_mode, seed)[0]


def block_activations(model: TdcnnModel, pattern: PatternSignal) -> list[np.ndarray]:
    """Pre-pooling output of every block (eval mode), each (channels, time)."""
    _, _, caches, h = _forward_batch(model, _pattern_rows([pattern])[:, None, :], keep_cache=True)
    # a block's output is the next block's input
    outs = [cache[0] for cache in caches[1:]] + [h]
    return [out[0] for out in outs]


def _loss_and_grad_arrays(
    model: TdcnnModel,
    x: np.ndarray,
    y: np.ndarray,
    train_mode: bool = False,
    seed: int = 0,
) -> tuple[float, TdcnnModel]:
    probs, pooled, caches, h = _forward_batch(model, x, train_mode, seed, keep_cache=True)
    loss, dlogits = _cross_entropy(probs, y)
    grads = zeros_like_model(model)
    grads.head_w += dlogits.T @ pooled
    grads.head_b += dlogits.sum(axis=0)
    dpooled = dlogits @ model.head_w
    t_len = h.shape[2]
    dh = np.repeat(dpooled[:, :, None], t_len, axis=2) / t_len

    for blk, gblk, dilation, cache in zip(
        reversed(model.blocks),
        reversed(grads.blocks),
        reversed(model.arch.dilation_schedule),
        reversed(caches),
    ):
        inp, norm, xhat, s, mask = cache
        d_out = dh
        if blk.proj_w is None:
            d_inp_res = d_out
        else:
            gblk.proj_w += np.tensordot(d_out, inp, axes=([0, 2], [0, 2]))
            d_inp_res = np.matmul(blk.proj_w.T, d_out)
        d_branch = d_out if mask is None else d_out * mask[:, :, None]
        d_norm = d_branch * (norm > 0)
        d_conv, dgamma, dbeta = _norm_backward(d_norm, xhat, s, blk.gamma)
        gblk.gamma += dgamma
        gblk.beta += dbeta
        d_inp_conv, dw, db = _causal_conv_backward(d_conv, inp, blk.conv_w, dilation)
        gblk.conv_w += dw
        gblk.conv_b += db
        dh = d_inp_conv + d_inp_res

    return loss, grads


def _batch_to_arrays(batch: list[tuple[PatternSignal, Label]]) -> tuple[np.ndarray, np.ndarray]:
    if not batch:
        raise ValueError("batch must not be empty")
    x = _pattern_rows([p for p, _ in batch])[:, None, :]
    try:
        y = np.array([LABEL_INDEX[label] for _, label in batch], dtype=np.int64)
    except KeyError as exc:
        raise ValueError(f"unknown class label: {exc.args[0]!r}") from exc
    return x, y


def loss_and_grad(
    model: TdcnnModel,
    batch: list[tuple[PatternSignal, Label]],
    train_mode: bool = False,
    seed: int = 0,
) -> tuple[float, TdcnnModel]:
    """Mean cross-entropy over the batch plus gradients for every parameter.

    The returned gradient container mirrors the model structure. Backprop
    runs through the softmax head, pooling, residual adds, dropout masks,
    ReLU, normalization (including its mean/variance dependence) and the
    dilated convolutions.
    """
    x, y = _batch_to_arrays(batch)
    return _loss_and_grad_arrays(model, x, y, train_mode=train_mode, seed=seed)


def split_indices(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded 80/20 shuffle split shared by the CNN and the MLP baseline."""
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(n * 0.8)
    return perm[:n_train], perm[n_train:]


def _adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    m: list[np.ndarray],
    v: list[np.ndarray],
    t: int,
    hp: TrainParams,
) -> None:
    for p, g, mp, vp in zip(params, grads, m, v):
        if hp.weight_decay:
            g = g + hp.weight_decay * p
        mp *= hp.beta1
        mp += (1 - hp.beta1) * g
        vp *= hp.beta2
        vp += (1 - hp.beta2) * g * g
        m_hat = mp / (1 - hp.beta1**t)
        v_hat = vp / (1 - hp.beta2**t)
        p -= hp.lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


def _val_accuracy(model, dataset: PatternDataset, seed: int):
    """Callback: ``model``'s accuracy on the validation rows of the seeded split."""
    _, val_idx = split_indices(len(dataset), seed)
    x_val = dataset.values[val_idx]
    y_val = dataset.labels[val_idx]
    return lambda: float(np.mean(_verdict(predict_wakeful_scores(model, x_val)) == y_val))


def _adam_train(
    arrays: list[np.ndarray],
    loss_grad,
    val_accuracy,
    dataset: PatternDataset,
    params: TrainParams,
    rng: np.random.Generator,
    best_acc: float | None,
) -> tuple[float, list[tuple[int, float, float]]]:
    """Seeded Adam on the training rows of the 80/20 split, for both classifiers.

    Each epoch shuffles the rows with ``rng``, steps ``arrays`` in place on
    ``loss_grad(rows)`` (the batch loss and one gradient per array), then
    scores them with ``val_accuracy()``. A snapshot is kept whenever it beats
    ``best_acc`` (``None``: the untrained arrays' accuracy) and is written back
    into ``arrays`` at the end. Returns its accuracy and the history rows
    (epoch, mean train loss, validation accuracy).
    """
    counts = dataset.class_counts()
    if any(c == 0 for c in counts.values()):
        raise ValueError(f"training needs both classes, got counts {counts}")
    # scored only now: a dataset without both classes is refused before any scoring
    if best_acc is None:
        best_acc = val_accuracy()
    # both classes present means n >= 2, which leaves at least one row on
    # each side of the split
    train_idx, _ = split_indices(len(dataset), params.seed)
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    best = [a.copy() for a in arrays]
    history: list[tuple[int, float, float]] = []
    t_step = 0
    for epoch in range(params.epochs):
        order = rng.permutation(train_idx.size)
        losses = []
        for start in range(0, train_idx.size, params.batch_size):
            loss, grads = loss_grad(train_idx[order[start : start + params.batch_size]])
            t_step += 1
            _adam_step(arrays, grads, m, v, t_step, params)
            losses.append(loss)
        val_acc = val_accuracy()
        history.append((epoch, float(np.mean(losses)), val_acc))
        if val_acc > best_acc:
            best_acc = val_acc
            best = [a.copy() for a in arrays]
    for a, b in zip(arrays, best):
        a[...] = b
    return best_acc, history


def train(
    model: TdcnnModel, dataset: PatternDataset, params: TrainParams
) -> tuple[TdcnnModel, list[tuple[int, float, float]]]:
    """Adam-train on an 80/20 seeded split; return the best-validation snapshot.

    History rows are (epoch, mean train loss, validation accuracy). The
    input model is never mutated; with ``epochs=0`` the returned model is an
    identical copy. Fully deterministic given ``params.seed``.
    """
    rng = np.random.default_rng([params.seed, 3])
    work = clone_model(model)

    def loss_grad(rows: np.ndarray) -> tuple[float, list[np.ndarray]]:
        # drawn after the epoch's permutation, from the same generator
        dropout_seed = int(rng.integers(0, 2**62))
        loss, grads = _loss_and_grad_arrays(
            work, dataset.values[rows][:, None, :], dataset.labels[rows],
            train_mode=True, seed=dropout_seed,
        )
        return loss, model_arrays(grads)

    val_accuracy = _val_accuracy(work, dataset, params.seed)
    # -1 makes the first epoch's model the first snapshot
    _, history = _adam_train(model_arrays(work), loss_grad, val_accuracy, dataset, params, rng, -1.0)
    return work, history


def assess(model: TdcnnModel, pattern: PatternSignal) -> Assessment:
    """Map the wakefulness probability onto the binary decision rule."""
    return assess_window(model, [pattern])


def assess_window(model: TdcnnModel, patterns) -> Assessment:
    """Average the per-pattern scores of a window, then apply the same rule.

    ``patterns`` are ``PatternSignal``s or the rows of a ``pattern_rows``
    matrix; all of them go through one row-blocked inference call.
    """
    if len(patterns) == 0:
        raise ValueError("assess_window needs at least one pattern")
    score = float(np.mean(predict_wakeful_scores(model, _pattern_rows(patterns))))
    return Assessment(score=score, label=INDEX_LABEL[_verdict(score)])


# ---------------------------------------------------------------------------
# MLP baseline (qualitative reference point below the CNN)
# ---------------------------------------------------------------------------

_MLP_HIDDEN = 32


@dataclass
class MlpModel:
    w1: np.ndarray  # (hidden, in_dim)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (n_classes, hidden)
    b2: np.ndarray  # (n_classes,)


def _mlp_forward(model: MlpModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations and class probabilities of (rows, in_dim) input."""
    hidden = np.maximum(x @ model.w1.T + model.b1[None, :], 0.0)
    return hidden, _softmax_rows(hidden @ model.w2.T + model.b2[None, :])


def _mlp_loss_grad(model: MlpModel, x: np.ndarray, y: np.ndarray) -> tuple[float, list[np.ndarray]]:
    hidden, probs = _mlp_forward(model, x)
    loss, dlogits = _cross_entropy(probs, y)
    dhidden = (dlogits @ model.w2) * (hidden > 0)
    return loss, [dhidden.T @ x, dhidden.sum(axis=0), dlogits.T @ hidden, dlogits.sum(axis=0)]


def train_baseline_mlp(
    dataset: PatternDataset, params: TrainParams
) -> tuple[MlpModel, float]:
    """Single-hidden-layer softmax baseline on the same split and optimizer.

    Returns the best-validation snapshot and its validation accuracy; with
    ``epochs=0`` that is simply the untrained model's accuracy.
    """
    in_dim = dataset.n_channels
    n_classes = len(INDEX_LABEL)
    init_rng = np.random.default_rng([params.seed, 1])
    model = MlpModel(
        w1=_glorot(init_rng, (_MLP_HIDDEN, in_dim), in_dim, _MLP_HIDDEN),
        b1=np.zeros(_MLP_HIDDEN),
        w2=_glorot(init_rng, (n_classes, _MLP_HIDDEN), _MLP_HIDDEN, n_classes),
        b2=np.zeros(n_classes),
    )

    def loss_grad(rows: np.ndarray) -> tuple[float, list[np.ndarray]]:
        return _mlp_loss_grad(model, dataset.values[rows], dataset.labels[rows])

    val_accuracy = _val_accuracy(model, dataset, params.seed)
    arrays = [model.w1, model.b1, model.w2, model.b2]
    rng = np.random.default_rng([params.seed, 2])
    best_acc, _ = _adam_train(arrays, loss_grad, val_accuracy, dataset, params, rng, None)
    return model, best_acc


def predict_wakeful_scores(model, values: np.ndarray) -> np.ndarray:
    """Wakefulness probability per row for either classifier kind.

    The TDCNN scores rows in blocks of ``_INFER_ROWS``; a row's score is
    bitwise the same whatever block it falls in.
    """
    values = np.asarray(values, dtype=np.float64)
    wakeful = LABEL_INDEX[Label.WAKEFUL]
    if isinstance(model, MlpModel):
        return _mlp_forward(model, values)[1][:, wakeful]
    if isinstance(model, TdcnnModel):
        scores = np.empty(values.shape[0])
        for start in range(0, values.shape[0], _INFER_ROWS):
            block = values[start : start + _INFER_ROWS]
            scores[start : start + block.shape[0]] = _forward_batch(model, block[:, None, :])[:, wakeful]
        return scores
    raise TypeError(f"unsupported model type: {type(model).__name__}")
