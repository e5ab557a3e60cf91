"""End-to-end experiment orchestration with per-stage artifacts.

A run executes generate -> band layout (fixed or searched) -> dataset ->
train -> evaluate, writes every stage's artifacts under the output
directory and finishes with a manifest. All stage seeds derive from the
single config seed, so reruns with the same config produce byte-identical
metrics files.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

from .band_search import RlParams, SearchSpace, fisher_score, q_learn
from .filterbank import HyperFilterConfig, PatternDataset, build_dataset
from .persist import (
    dataclass_from_dict,
    dataclass_to_dict,
    dump_json,
    save_dataset_csv,
    save_hyper_config,
    save_model,
    save_signal_csv,
)
from .plots import svg_line_chart, write_series_csv
from .signal_gen import (
    DROWSY_PRESET,
    INDEX_LABEL,
    WAKEFUL_PRESET,
    AnsState,
    Label,
    NoiseSpec,
    PpgSignal,
    add_noise,
    generate_ppg,
)
from .tdcnn import (
    ArchSpec,
    TdcnnModel,
    TrainParams,
    _verdict,
    init_model,
    predict_wakeful_scores,
    split_indices,
    train,
    train_baseline_mlp,
)

__all__ = [
    "GenerationConfig",
    "SearchConfig",
    "PipelineConfig",
    "RunManifest",
    "PipelineError",
    "default_config",
    "config_to_dict",
    "config_from_dict",
    "config_hash",
    "derive_seed",
    "eval_report",
    "ArtifactWriter",
    "synth_stage",
    "search_stage",
    "dataset_stage",
    "train_stage",
    "run_pipeline",
]

DEFAULT_LAYERS = ((1.0, 10.0), (1.0, 5.5), (5.5, 10.0))


class PipelineError(RuntimeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, cause: Exception | str):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage


@dataclass(frozen=True)
class GenerationConfig:
    duration_s: float = 24.0
    fs: float = 100.0
    n_per_class: int = 16
    drowsy: AnsState = DROWSY_PRESET
    wakeful: AnsState = WAKEFUL_PRESET
    noise: NoiseSpec = NoiseSpec()

    def __post_init__(self) -> None:
        if self.n_per_class < 0:
            raise ValueError("n_per_class must be >= 0")
        for name, label in (("drowsy", Label.DROWSY), ("wakeful", Label.WAKEFUL)):
            state = getattr(self, name)
            if state.label is not label:
                raise ValueError(
                    f"{name}: preset must be labelled {label.value}, got {state.label.value}"
                )


@dataclass(frozen=True)
class SearchConfig:
    """Band-search settings. Checked when the config is built, by mapping
    them onto a ``SearchSpace`` and ``RlParams``, whether or not search is
    enabled."""

    enabled: bool = False
    grid_hz: float = 0.5
    min_width_hz: float = 1.0
    episodes: int = 40
    steps_per_episode: int = 8
    epsilon: float = 0.2
    alpha: float = 0.5
    gamma: float = 0.9

    def __post_init__(self) -> None:
        # the space's checks do not depend on the layout it is given
        self.space(HyperFilterConfig(DEFAULT_LAYERS))
        self.rl_params(seed=0)

    def space(self, bands: HyperFilterConfig) -> SearchSpace:
        """The space of layouts with the layer count and bands of ``bands``."""
        return SearchSpace(self.grid_hz, self.min_width_hz, len(bands.layers), bands.bands_per_layer)

    def rl_params(self, seed: int) -> RlParams:
        return RlParams(
            self.episodes, self.steps_per_episode, self.epsilon, self.alpha, self.gamma, seed
        )


@dataclass(frozen=True)
class PipelineConfig:
    schema_version: ClassVar[int] = 1
    seed: int = 7
    out_dir: str = "runs/default"
    generation: GenerationConfig = GenerationConfig()
    bands: HyperFilterConfig = HyperFilterConfig(DEFAULT_LAYERS)
    search: SearchConfig = SearchConfig()
    pattern_stride: int = 8
    arch: ArchSpec = ArchSpec()
    train: TrainParams = TrainParams(epochs=25)

    def __post_init__(self) -> None:
        if self.pattern_stride < 1:
            raise ValueError(f"pattern_stride must be >= 1, got {self.pattern_stride}")


@dataclass
class RunManifest:
    schema_version: ClassVar[int] = 1
    config_hash: str
    status: str
    artifacts: list[str]
    metrics: dict
    timings: dict[str, float]
    failed_stage: str | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        return dataclass_to_dict(self)


def default_config(out_dir: str = "runs/default", seed: int = 7) -> PipelineConfig:
    return PipelineConfig(seed=seed, out_dir=out_dir)


def derive_seed(*parts) -> int:
    """Stable sub-seed derivation from labeled parts (sha256-based)."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") % (2**62)


def config_to_dict(config: PipelineConfig) -> dict:
    return dataclass_to_dict(config)


def config_from_dict(obj: dict, where: str = "config") -> PipelineConfig:
    """Config from its document; an object left out, or a field left out of
    a partial object, keeps the value of ``default_config()``."""
    return dataclass_from_dict(PipelineConfig, obj, where, base=default_config())


def config_hash(config: PipelineConfig) -> str:
    """Hash of the canonical config document, output directory excluded."""
    doc = config_to_dict(config)
    doc.pop("out_dir", None)
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def eval_report(model, dataset: PatternDataset) -> dict:
    """Per-class accuracies, overall accuracy and the confusion matrix.

    Confusion rows are ground truth (Drowsy, Wakeful), columns predictions.
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    pred = _verdict(predict_wakeful_scores(model, dataset.values))
    labels = dataset.labels
    confusion = [
        [int(np.sum((labels == g) & (pred == p))) for p in (0, 1)] for g in (0, 1)
    ]
    # a class's accuracy is the diagonal share of its confusion row
    per_class = {
        lab.value: row[i] / sum(row) if sum(row) else None
        for i, (lab, row) in enumerate(zip(INDEX_LABEL, confusion))
    }
    return {
        "per_class_accuracy": per_class,
        "overall_accuracy": float(np.mean(pred == labels)),
        "confusion_matrix": confusion,
        "n_rows": int(len(dataset)),
    }


def generate_signals(config: PipelineConfig) -> list[PpgSignal]:
    """Seeded noisy signals for both presets, drowsy first then wakeful."""
    gen = config.generation
    if gen.n_per_class == 0:
        raise ValueError("config generates zero signals (n_per_class=0)")
    signals = []
    for class_idx, state in enumerate((gen.drowsy, gen.wakeful)):
        for i in range(gen.n_per_class):
            clean = generate_ppg(
                state, gen.duration_s, gen.fs, derive_seed("synth", config.seed, class_idx, i)
            )
            signals.append(
                add_noise(clean, gen.noise, derive_seed("noise", config.seed, class_idx, i))
            )
    return signals


def _emit_series(emit, csv_rel, svg_rel, header, x, series, title, x_label, y_label) -> None:
    """Write the named ``series`` over ``x`` as a CSV (columns ``header``,
    values as ``repr`` of floats) and as an SVG line chart."""
    rows = [[xv, *(repr(float(v)) for v in vs)] for xv, *vs in zip(x, *series.values())]
    emit(csv_rel, write_series_csv, header, rows)
    emit(svg_rel, svg_line_chart, x, series, title, x_label, y_label)


class ArtifactWriter:
    """The ``emit`` that stages write through: ``emit(rel, writer, *args)``
    calls ``writer(out / rel, *args)`` after creating the file's directory
    and records ``rel`` in ``written``."""

    def __init__(self, out: str | Path):
        self.out = Path(out)
        self.written: list[str] = []

    def __call__(self, rel: str, writer, *args) -> None:
        path = self.out / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        writer(path, *args)
        self.written.append(rel)


def synth_stage(config: PipelineConfig, emit: ArtifactWriter) -> list[PpgSignal]:
    """Generate the signals; writes one CSV per signal and ``signals/index.json``."""
    signals = generate_signals(config)
    names = []
    for i, sig in enumerate(signals):
        rel = f"signals/{sig.label.value.lower()}_{i:03d}.csv"
        emit(rel, save_signal_csv, sig)
        names.append(rel)
    emit("signals/index.json", dump_json, {"n_signals": len(names), "files": names})
    return signals


def search_stage(
    config: PipelineConfig, signals: list[PpgSignal], emit: ArtifactWriter
) -> tuple[HyperFilterConfig, float | None]:
    """Q-learning search for a band layout with the config's layer count;
    writes ``search.json`` and the reward history. Returns the best layout
    and its reward (None when the search runs no episode)."""
    rl = config.search.rl_params(derive_seed("search", config.seed))
    bands, history = q_learn(config.search.space(config.bands), signals, rl)
    best_reward = history[-1][1] if history else None
    emit(
        "search.json",
        dump_json,
        {
            "best_config": dataclass_to_dict(bands),
            "best_reward": best_reward,
            "history": [[ep, r] for ep, r in history],
        },
    )
    if history:
        _emit_series(
            emit, "reward_history.csv", "reward_history.svg", ["episode", "best_reward"],
            [ep for ep, _ in history], {"best reward": [r for _, r in history]},
            "Band-layout search", "episode", "best reward",
        )
    return bands, best_reward


def dataset_stage(
    config: PipelineConfig, signals: list[PpgSignal], bands: HyperFilterConfig, emit: ArtifactWriter
) -> PatternDataset:
    """Pattern rows of every signal under ``bands``; writes ``dataset.csv``."""
    dataset = build_dataset(signals, bands, config.pattern_stride)
    dataset.require_both_classes()
    emit("dataset.csv", save_dataset_csv, dataset)
    return dataset


def _train_params(config: PipelineConfig) -> TrainParams:
    return replace(config.train, seed=derive_seed("train", config.seed))


def train_stage(
    config: PipelineConfig, dataset: PatternDataset, emit: ArtifactWriter
) -> tuple[TdcnnModel, list[tuple[int, float, float]], PatternDataset]:
    """Train the TDCNN from its seeded initialisation; writes ``model.json``
    and the loss history. Returns the model, the per-epoch history and the
    validation split that training held out."""
    tparams = _train_params(config)
    model0 = init_model(config.arch, derive_seed("init", config.seed))
    model, history = train(model0, dataset, tparams)
    emit("model.json", save_model, model)
    if history:
        _emit_series(
            emit, "loss_history.csv", "loss_curve.svg", ["epoch", "train_loss", "val_accuracy"],
            [ep for ep, _, _ in history],
            {"train loss": [l for _, l, _ in history], "val accuracy": [a for _, _, a in history]},
            "Training history", "epoch", "value",
        )
    _, val_idx = split_indices(len(dataset), tparams.seed)
    return model, history, PatternDataset(dataset.values[val_idx], dataset.labels[val_idx])


def run_pipeline(config: PipelineConfig) -> RunManifest:
    """Execute every stage, writing artifacts and a manifest under out_dir.

    A stage failure still writes the manifest (status "failed" with the
    stage name) before raising PipelineError. Reruns with an identical
    config produce byte-identical artifacts apart from the timing section
    of the manifest.
    """
    emit = ArtifactWriter(config.out_dir)
    timings: dict[str, float] = {}
    metrics: dict = {}
    chash = config_hash(config)

    def finish(status: str, failed_stage: str | None = None, error: str | None = None) -> RunManifest:
        manifest = RunManifest(
            config_hash=chash,
            status=status,
            artifacts=sorted(emit.written),
            metrics=metrics,
            timings=timings,
            failed_stage=failed_stage,
            error=error,
        )
        dump_json(emit.out / "manifest.json", manifest.to_dict())
        return manifest

    @contextmanager
    def stage(name: str):
        """Time the stage; on failure write the failed manifest and raise."""
        started = time.perf_counter()
        try:
            yield
        except Exception as exc:
            finish("failed", failed_stage=name, error=str(exc))
            raise PipelineError(name, exc) from exc
        timings[name] = time.perf_counter() - started

    emit("config.json", dump_json, config_to_dict(config))

    with stage("synth"):
        signals = synth_stage(config, emit)
        first = signals[0]
        _emit_series(
            emit, "signal_trace.csv", "signal_trace.svg", ["t_s", "value"],
            [i / first.fs for i in range(first.samples.size)],
            {first.label.value: list(first.samples)},
            "Generated PPG trace", "time [s]", "amplitude",
        )

    with stage("bands"):
        bands = config.bands
        if config.search.enabled:
            bands, metrics["search_best_reward"] = search_stage(config, signals, emit)
        emit("bands.json", save_hyper_config, bands)

    with stage("dataset"):
        dataset = dataset_stage(config, signals, bands, emit)
        values, labels = dataset.values, dataset.labels
        metrics["reward"] = fisher_score(values[labels == 0], values[labels == 1])

    with stage("train"):
        model, history, val_ds = train_stage(config, dataset, emit)
        mlp_model, mlp_acc = train_baseline_mlp(dataset, _train_params(config))
        metrics["best_val_accuracy"] = max((a for _, _, a in history), default=None)

    with stage("eval"):
        metrics["tdcnn"] = eval_report(model, val_ds)
        metrics["baseline_mlp"] = eval_report(mlp_model, val_ds)
        metrics["baseline_mlp"]["best_val_accuracy"] = float(mlp_acc)
        emit("metrics.json", dump_json, metrics)

    return finish("ok")
