"""Tabular Q-learning over hyper-filter band layouts.

The search space is the set of layer edge pairs on a fixed frequency grid;
an action moves one edge by one grid step. The reward of a layout is the
mean Fisher discriminant ratio of the pattern rows it produces for a
labeled signal set, so better layouts separate the classes more.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .filterbank import PPG_BAND, HyperFilterConfig, PatternDataset, _max_taps, build_dataset
from .signal_gen import LABEL_INDEX, Label, PpgSignal

__all__ = [
    "SearchSpace",
    "RlParams",
    "SpaceTooLargeError",
    "fisher_score",
    "dataset_reward",
    "reward",
    "neighbors",
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
        if not self.grid_hz > 0:
            raise ValueError(f"grid_hz must be > 0, got {self.grid_hz}")
        if self.min_width_hz < self.grid_hz:
            raise ValueError("min_width_hz must be >= grid_hz")
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")

    @property
    def n_steps(self) -> int:
        return int(math.floor((PPG_BAND[1] - PPG_BAND[0]) / self.grid_hz + _GRID_TOL))

    def edge_value(self, i: int) -> float:
        return PPG_BAND[0] + i * self.grid_hz

    def _min_width_steps(self) -> int:
        return int(math.ceil(self.min_width_hz / self.grid_hz - _GRID_TOL))

    def layer_pairs(self) -> list[tuple[int, int]]:
        """All representable (lo, hi) index pairs of one layer, ascending."""
        w = self._min_width_steps()
        n = self.n_steps
        return [(i, j) for i in range(n + 1) for j in range(i + w, n + 1)]

    def size(self) -> int:
        return len(self.layer_pairs()) ** self.n_layers

    def config_from_indices(self, idx: IndexConfig) -> HyperFilterConfig:
        layers = tuple((self.edge_value(i), self.edge_value(j)) for i, j in idx)
        return HyperFilterConfig(layers, bands_per_layer=self.bands_per_layer)

    def indices_from_config(self, config: HyperFilterConfig) -> IndexConfig:
        """Map a config onto grid indices; reject off-grid or out-of-space configs."""
        if len(config.layers) != self.n_layers:
            raise ValueError(
                f"config has {len(config.layers)} layers, space expects {self.n_layers}"
            )
        out = []
        w = self._min_width_steps()
        for lo, hi in config.layers:
            ij = []
            for edge in (lo, hi):
                steps = (edge - PPG_BAND[0]) / self.grid_hz
                i = round(steps)
                if abs(steps - i) > 1e-6 or not 0 <= i <= self.n_steps:
                    raise ValueError(f"edge {edge} Hz is not on the search grid")
                ij.append(i)
            if ij[1] - ij[0] < w:
                raise ValueError(f"layer ({lo}, {hi}) is narrower than min_width_hz")
            out.append((ij[0], ij[1]))
        return tuple(out)

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


def fisher_score(class_a: np.ndarray, class_b: np.ndarray) -> float:
    """Mean per-dimension Fisher ratio (mu_a - mu_b)^2 / (var_a + var_b + eps).

    Scale-invariant: rescaling both classes by a common factor squares both
    the numerator and the denominator variances identically.
    """
    a = np.atleast_2d(np.asarray(class_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(class_b, dtype=np.float64))
    if a.shape[1] != b.shape[1]:
        raise ValueError("class matrices must share the feature dimension")
    num = (a.mean(axis=0) - b.mean(axis=0)) ** 2
    den = a.var(axis=0) + b.var(axis=0) + _FISHER_EPS
    return float(np.mean(num / den))


def dataset_reward(dataset: PatternDataset) -> float:
    """Class separability of a dataset: the Fisher score of its Drowsy rows
    against its Wakeful rows."""
    if 0 in dataset.class_counts().values():
        raise ValueError("reward requires signals from both classes")
    drowsy = dataset.labels == LABEL_INDEX[Label.DROWSY]
    class_a, class_b = dataset.values[drowsy], dataset.values[~drowsy]
    # the class matrices copy every row: when the caller keeps no reference,
    # this frees the whole one before scoring
    del dataset
    return fisher_score(class_a, class_b)


def reward(config: HyperFilterConfig, labeled_signals: list[PpgSignal]) -> float:
    """Class separability of the pattern rows a band layout produces."""
    # passed on unbound, so that dataset_reward holds its only reference
    return dataset_reward(build_dataset(labeled_signals, config, 1))


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


def neighbors(config: HyperFilterConfig, space: SearchSpace) -> list[HyperFilterConfig]:
    """Configs reachable by moving exactly one layer edge one grid step."""
    idx = space.indices_from_config(config)
    return [space.config_from_indices(m) for m in space.neighbor_indices(idx)]


def q_learn(
    space: SearchSpace, data: list[PpgSignal], params: RlParams
) -> tuple[HyperFilterConfig, list[tuple[int, float]]]:
    """Epsilon-greedy tabular Q-learning over the band-layout space.

    Actions move to a neighboring layout; the immediate reward is the
    Fisher separability of the layout moved to. Episodes restart from a
    random layout. Returns the best layout ever visited plus the per-episode
    best-so-far reward history (monotone non-decreasing). Deterministic
    given ``params.seed``; rewards are memoized, so each distinct layout is
    evaluated once per call. Layers too narrow for their kernels to fit every
    signal are left out of the space.
    """
    labels = {s.label for s in data}
    if not {Label.DROWSY, Label.WAKEFUL} <= labels:
        raise ValueError("q_learn requires signals from both classes")
    space = _fitted(space, data)

    rng = np.random.default_rng(params.seed)
    cache: dict[IndexConfig, float] = {}

    def evaluate(idx: IndexConfig) -> float:
        if idx not in cache:
            cache[idx] = reward(space.config_from_indices(idx), data)
        return cache[idx]

    q: dict[tuple[IndexConfig, IndexConfig], float] = {}
    state = space.random_indices(rng)
    best_idx, best_reward = state, evaluate(state)
    history: list[tuple[int, float]] = []

    for episode in range(params.episodes):
        if episode > 0:
            state = space.random_indices(rng)
            r0 = evaluate(state)
            if r0 > best_reward:
                best_idx, best_reward = state, r0
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
            if r > best_reward:
                best_idx, best_reward = nxt, r
            state = nxt
        history.append((episode, best_reward))

    return space.config_from_indices(best_idx), history


def enumerate_best(space: SearchSpace, data: list[PpgSignal]) -> HyperFilterConfig:
    """Exhaustive argmax of the reward; ties keep the lexicographically
    smallest edge tuple. Layers too narrow for their kernels to fit every
    signal are left out; refuses spaces above the enumeration guard."""
    space = _fitted(space, data)
    total = space.size()
    if total > _ENUMERATION_GUARD:
        raise SpaceTooLargeError(
            f"space holds {total} configurations, guard is {_ENUMERATION_GUARD}"
        )
    best_idx: IndexConfig | None = None
    best_reward = -math.inf
    for idx in space.all_indices():
        r = reward(space.config_from_indices(idx), data)
        if r > best_reward:
            best_idx, best_reward = idx, r
    if best_idx is None:
        raise ValueError("space contains no representable configuration")
    return space.config_from_indices(best_idx)
