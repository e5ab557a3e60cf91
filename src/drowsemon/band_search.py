"""Tabular Q-learning over hyper-filter band layouts.

The search space is the set of layer edge pairs on a fixed frequency grid;
an action moves one edge by one grid step. The reward of a layout is the
mean Fisher discriminant ratio of the pattern rows it produces for a
labeled signal set, so better layouts separate the classes more. A reward
holds one class's pattern rows at a time: each class matrix is reduced to
its per-column moments, in place, before the next is built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .filterbank import PPG_BAND, HyperFilterConfig, _max_taps, build_dataset
from .signal_gen import INDEX_LABEL, Label, PpgSignal

__all__ = [
    "SearchSpace",
    "RlParams",
    "SpaceTooLargeError",
    "fisher_score",
    "reward",
    "q_learn",
    "enumerate_best",
]

_FISHER_EPS = 1e-9
_GRID_TOL = 1e-9
_ENUMERATION_GUARD = 100_000

IndexConfig = tuple[tuple[int, int], ...]


class SpaceTooLargeError(ValueError):
    """Exhaustive enumeration refused above the configuration-count guard."""


@dataclass(frozen=True)
class SearchSpace:
    """Grid-quantized space of layer edge pairs within ``PPG_BAND``.

    Every representable layer is (lo, hi) with both edges on the grid,
    ``hi - lo >= min_width_hz``, inside the band. ``bands_per_layer`` is
    carried along so that each point of the space is a complete
    HyperFilterConfig.
    """

    grid_hz: float = 0.5
    min_width_hz: float = 1.0
    n_layers: int = 1
    bands_per_layer: int = 11

    def __post_init__(self) -> None:
        # finite before any step arithmetic, which would overflow or fail on NaN
        if not 0 < self.grid_hz < math.inf:
            raise ValueError(f"grid_hz must be finite and > 0, got {self.grid_hz}")
        if not self.grid_hz <= self.min_width_hz < math.inf:
            raise ValueError(f"min_width_hz must be finite and >= grid_hz, got {self.min_width_hz}")
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        # step counts are compared as floats: one that overflows has no int form
        band = f"{PPG_BAND[0]}-{PPG_BAND[1]} Hz band"
        if (PPG_BAND[1] - PPG_BAND[0]) / self.grid_hz == math.inf:
            raise ValueError(
                f"grid_hz={self.grid_hz} is too fine: the {band} has more steps than a float can hold"
            )
        # ceil(w) > n exactly when w > n, for an integer n
        if self.min_width_hz / self.grid_hz - _GRID_TOL > self.n_steps:
            raise ValueError(
                f"no layer of min_width_hz={self.min_width_hz} fits the {band} on a {self.grid_hz} Hz grid"
            )
        pairs = self._pair_count()
        if pairs > _ENUMERATION_GUARD:
            raise ValueError(
                f"grid_hz={self.grid_hz} with min_width_hz={self.min_width_hz} gives "
                f"{pairs} layer pairs, more than {_ENUMERATION_GUARD}"
            )

    @property
    def n_steps(self) -> int:
        return int(math.floor((PPG_BAND[1] - PPG_BAND[0]) / self.grid_hz + _GRID_TOL))

    def edge_value(self, i: int) -> float:
        return PPG_BAND[0] + i * self.grid_hz

    def _min_width_steps(self) -> int:
        return int(math.ceil(self.min_width_hz / self.grid_hz - _GRID_TOL))

    def _pair_count(self) -> int:
        """Size of ``layer_pairs()``: (lo, hi) pairs ``w`` or more steps apart
        among ``n + 1`` edges number m(m+1)/2, with m = n - w + 1."""
        m = self.n_steps - self._min_width_steps() + 1
        return m * (m + 1) // 2

    def layer_pairs(self) -> list[tuple[int, int]]:
        """All representable (lo, hi) index pairs of one layer, ascending."""
        w = self._min_width_steps()
        n = self.n_steps
        return [(i, j) for i in range(n + 1) for j in range(i + w, n + 1)]

    def size(self) -> int:
        return self._pair_count() ** self.n_layers

    def config_from_indices(self, idx: IndexConfig) -> HyperFilterConfig:
        layers = tuple((self.edge_value(i), self.edge_value(j)) for i, j in idx)
        return HyperFilterConfig(layers, bands_per_layer=self.bands_per_layer)

    def neighbor_indices(self, idx: IndexConfig) -> list[IndexConfig]:
        """Single-edge moves by one grid step, in (layer, lo-, lo+, hi-, hi+) order."""
        w = self._min_width_steps()
        n = self.n_steps
        out: list[IndexConfig] = []
        for layer_pos, (i, j) in enumerate(idx):
            candidates = ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1))
            for ci, cj in candidates:
                if 0 <= ci and cj <= n and cj - ci >= w:
                    moved = list(idx)
                    moved[layer_pos] = (ci, cj)
                    out.append(tuple(moved))
        return out

    def random_indices(self, rng: np.random.Generator) -> IndexConfig:
        pairs = self.layer_pairs()
        return tuple(pairs[int(rng.integers(len(pairs)))] for _ in range(self.n_layers))

    def all_indices(self):
        """Lexicographic iteration over every representable configuration."""
        return itertools.product(self.layer_pairs(), repeat=self.n_layers)


@dataclass(frozen=True)
class RlParams:
    episodes: int = 200
    steps_per_episode: int = 8
    epsilon: float = 0.2
    alpha: float = 0.5
    gamma: float = 0.9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.episodes < 0 or self.steps_per_episode < 0:
            raise ValueError("episodes and steps_per_episode must be >= 0")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")


def _moments(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and population variance of ``rows``, bitwise
    ``rows.mean(axis=0)`` and ``rows.var(axis=0)``.

    The variance takes numpy's own steps (subtract the mean, square, sum over
    the rows, divide by their count), but inside ``rows``: this overwrites its
    argument, so the deviations need no second matrix.
    """
    mean = rows.mean(axis=0)
    np.subtract(rows, mean, out=rows)
    np.square(rows, out=rows)
    var = rows.sum(axis=0)
    var /= rows.shape[0]
    return mean, var


def _ratio(moments_a, moments_b) -> float:
    """Mean over dimensions of (mu_a - mu_b)^2 / (var_a + var_b + eps)."""
    (mean_a, var_a), (mean_b, var_b) = moments_a, moments_b
    return float(np.mean((mean_a - mean_b) ** 2 / (var_a + var_b + _FISHER_EPS)))


def fisher_score(class_a: np.ndarray, class_b: np.ndarray) -> float:
    """Mean per-dimension Fisher ratio (mu_a - mu_b)^2 / (var_a + var_b + eps).

    Scale-invariant: rescaling both classes by a common factor squares both
    the numerator and the denominator variances identically. The moments are
    taken on float64 copies in the inputs' memory order (C, Fortran or a
    strided view's), so the callers' arrays are never written and each copy
    reduces in the same order as its input would.
    """
    a = np.array(class_a, dtype=np.float64, ndmin=2)
    b = np.array(class_b, dtype=np.float64, ndmin=2)
    if a.shape[1] != b.shape[1]:
        raise ValueError("class matrices must share the feature dimension")
    if not a.shape[1]:
        raise ValueError("class matrices need at least one feature column, got 0")
    if not (a.shape[0] and b.shape[0]):
        raise ValueError(f"each class needs at least one row, got {a.shape[0]} and {b.shape[0]}")
    return _ratio(_moments(a), _moments(b))


def reward(config: HyperFilterConfig, labeled_signals: list[PpgSignal]) -> float:
    """Class separability of the pattern rows a band layout produces: the
    Fisher score of the Drowsy signals' rows against the Wakeful signals'.

    Each class's rows are built on their own, in signal order: bitwise the
    class's rows of ``build_dataset`` over every signal. One class's matrix
    is held at a time: it is reduced to its moments, in place, and dropped
    before the other class is built.
    """
    by_class: dict[Label, list[PpgSignal]] = {label: [] for label in INDEX_LABEL}
    for i, sig in enumerate(labeled_signals):
        if sig.label is None:
            raise ValueError(f"signal {i} is unlabeled: every signal needs a class label")
        by_class[sig.label].append(sig)
    if not all(by_class.values()):
        counts = {label.value: len(group) for label, group in by_class.items()}
        raise ValueError(f"the reward needs signals of both classes, got signal counts {counts}")
    drowsy, wakeful = (_moments(build_dataset(by_class[label], config, 1).values) for label in INDEX_LABEL)
    return _ratio(drowsy, wakeful)


def _fitted(space: SearchSpace, data: list[PpgSignal]) -> SearchSpace:
    """``space`` with its minimum layer width raised to the narrowest grid
    width whose kernels fit every signal in ``data``.

    A layer's kernels only get shorter as it widens, so every wider layer
    fits too, and a space whose layouts all fit comes back with the same
    layer pairs.
    """
    for steps in range(space._min_width_steps(), space.n_steps + 1):
        layer = HyperFilterConfig(((PPG_BAND[0], space.edge_value(steps)),), space.bands_per_layer)
        if all(_max_taps(layer, s.fs) <= s.samples.size for s in data):
            return replace(space, min_width_hz=steps * space.grid_hz)
    shortest = min((s.samples.size for s in data), default=0)
    raise ValueError(f"no band layout of the search space fits signals of {shortest} samples")


def q_learn(
    space: SearchSpace, data: list[PpgSignal], params: RlParams
) -> tuple[HyperFilterConfig, list[tuple[int, float]]]:
    """Epsilon-greedy tabular Q-learning over the band-layout space.

    Actions move to a neighboring layout; the immediate reward is the
    Fisher separability of the layout moved to. Episodes restart from a
    random layout. Returns the best layout ever visited plus the per-episode
    best-so-far reward history (monotone non-decreasing); of layouts with
    equal rewards the one visited first wins. Deterministic given
    ``params.seed``; rewards are memoized, so each distinct layout is
    evaluated once per call. Layers too narrow for their kernels to fit every
    signal are left out of the space.
    """
    space = _fitted(space, data)

    rng = np.random.default_rng(params.seed)
    # first-visit order, so that max() keeps the first of equal rewards
    cache: dict[IndexConfig, float] = {}

    def evaluate(idx: IndexConfig) -> float:
        if idx not in cache:
            cache[idx] = reward(space.config_from_indices(idx), data)
        return cache[idx]

    q: dict[tuple[IndexConfig, IndexConfig], float] = {}
    state = space.random_indices(rng)
    evaluate(state)
    history: list[tuple[int, float]] = []

    for episode in range(params.episodes):
        if episode > 0:
            state = space.random_indices(rng)
            evaluate(state)
        for _ in range(params.steps_per_episode):
            moves = space.neighbor_indices(state)
            if not moves:
                break
            if rng.random() < params.epsilon:
                nxt = moves[int(rng.integers(len(moves)))]
            else:
                nxt = max(moves, key=lambda m: q.get((state, m), 0.0))
            r = evaluate(nxt)
            future = max(
                (q.get((nxt, m), 0.0) for m in space.neighbor_indices(nxt)), default=0.0
            )
            old = q.get((state, nxt), 0.0)
            q[(state, nxt)] = old + params.alpha * (r + params.gamma * future - old)
            state = nxt
        history.append((episode, max(cache.values())))

    return space.config_from_indices(max(cache, key=cache.get)), history


def enumerate_best(space: SearchSpace, data: list[PpgSignal]) -> HyperFilterConfig:
    """Exhaustive argmax of the reward; of equal rewards the lexicographically
    smallest edge tuple wins. Layers too narrow for their kernels to fit every
    signal are left out; refuses spaces above the enumeration guard."""
    space = _fitted(space, data)
    total = space.size()
    if total > _ENUMERATION_GUARD:
        raise SpaceTooLargeError(
            f"space holds {total} configurations, guard is {_ENUMERATION_GUARD}"
        )
    best = max(space.all_indices(), key=lambda idx: reward(space.config_from_indices(idx), data))
    return space.config_from_indices(best)
