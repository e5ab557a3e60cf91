"""The benchmark's three workloads: ``pipeline``, ``search`` and ``assess``.

Every workload builds its inputs from the workload seed, then yields a
deterministic stream of operations. ``run_op`` runs one operation through the
program's own entry point; ``run_traced`` runs the same operation as a
composition of the program's public calls with a span around each, so the
per-layer numbers need no change to the program. Output checks run outside
the timed region and raise ``CheckFailed``. ``SignalTooShortError`` is the
only exception an operation may end with; it marks the operation failed.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from drowsemon import persist, plots
from drowsemon.band_search import fisher_score, reward
from drowsemon.filterbank import (
    PPG_BAND,
    HyperFilterConfig,
    PatternDataset,
    PatternSignal,
    SignalTooShortError,
    design_bandpass,
    hyper_filter,
    pattern_signals,
    subband_edges,
)
from drowsemon.pipeline import (
    RunManifest,
    build_dataset,
    config_hash,
    config_to_dict,
    default_config,
    derive_seed,
    eval_report,
    run_pipeline,
)
from drowsemon.signal_gen import (
    DROWSY_PRESET,
    INDEX_LABEL,
    WAKEFUL_PRESET,
    Label,
    PpgSignal,
    add_noise,
    generate_ppg,
)
from drowsemon.tdcnn import (
    ArchSpec,
    assess_window,
    init_model,
    loss_and_grad,
    predict_wakeful_scores,
    split_indices,
    train,
    train_baseline_mlp,
)

from .spans import NULL, duration
from .stats import NotEnoughSamples, fail_ratio, median, percentile

# The filterbank's kernel design rule (see ``hyper_filter``): each sub-band
# kernel uses a transition of min(0.5 Hz, band width / 2). The benchmark
# restates it to predict independently which inputs must be refused.
MAX_TRANSITION_HZ = 0.5
# assess cuts each recording into back-to-back windows of these lengths; the
# 10 s window is shorter than the default layout's longest kernel.
WINDOW_CYCLE_S = (20.0, 20.0, 20.0, 10.0)
SCORE_TOL = 1e-9
# search times only layouts whose layers are at least this wide: the narrowest
# width whose kernels fit the 24 s default signal (2,075 taps of 2,400 samples
# at 3.5 Hz, 2,421 at 3.0 Hz). The rest of the space is refused before any
# filtering, so it is counted by ``SearchWorkload.probe`` instead of timed.
MIN_STREAM_WIDTH_HZ = 3.5
# Uniform draws from the whole default space per run, for the infeasible share.
SPACE_DRAWS = 64


class CheckFailed(AssertionError):
    """The program returned a wrong output for a benchmark input."""


@dataclass(frozen=True)
class Sizes:
    """How much work one run does. ``FULL`` is the benchmark; ``SMALL`` is
    used for the cross-workload probes of a traced run and by the tests."""

    epochs: int = 1  # pipeline: training epochs per run_pipeline call
    n_per_class: int = 16  # pipeline and search: signals per class
    min_runs: int = 3  # pipeline: fewest run_pipeline calls per sweep
    min_layouts: int = 24  # search: fewest layouts per sweep; counters cover these
    recording_cycles: int = 4  # assess: window cycles per recording
    min_windows: int = 32  # assess: fewest windows per sweep; counters cover these
    lag_batches: int = 8  # pipeline traced: loss_and_grad calls timed per run


FULL = Sizes()
SMALL = Sizes(n_per_class=2, min_runs=1, min_layouts=1, recording_cycles=1,
              min_windows=4, lag_batches=2)


def bench_seed(*parts) -> int:
    """Sub-seed for the benchmark's own inputs, derived from the workload seed."""
    digest = hashlib.sha256(repr(("perfbench",) + parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") % (2**62)


def layout_max_taps(bands: HyperFilterConfig, fs: float) -> int:
    """Longest kernel a band layout needs, by the filterbank's design rule."""
    return max(
        design_bandpass(lo, hi, fs, min(MAX_TRANSITION_HZ, (hi - lo) / 2)).taps.size
        for layer in bands.layers
        for lo, hi in subband_edges(layer, bands.bands_per_layer)
    )


def make_signals(config, t=NULL) -> list[PpgSignal]:
    """``pipeline.generate_signals`` as public calls, one span per signal."""
    gen = config.generation
    signals = []
    for class_idx, state in enumerate((gen.drowsy, gen.wakeful)):
        for i in range(gen.n_per_class):
            with t.span("signal_gen.generate", seconds=gen.duration_s):
                clean = generate_ppg(
                    state, gen.duration_s, gen.fs, derive_seed("synth", config.seed, class_idx, i)
                )
                signals.append(
                    add_noise(clean, gen.noise, derive_seed("noise", config.seed, class_idx, i))
                )
    return signals


def filter_signal(signal: PpgSignal, bands: HyperFilterConfig, t=NULL):
    with t.span("filterbank.hyper_filter", samples=signal.samples.size) as attrs:
        stack = hyper_filter(signal, bands)
    attrs["macs"] = stack.n_samples * sum(m.taps for m in stack.channel_meta)
    return stack


def extract_patterns(stack, t=NULL):
    with t.span("filterbank.pattern_signals", samples=stack.n_samples) as attrs:
        patterns = pattern_signals(stack)
    attrs["kept"] = len(patterns)
    return patterns


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: Sizes, work_dir: Path):
        self.seed = seed
        self.sizes = sizes
        self.work_dir = Path(work_dir)
        self.min_ops = 1

    def setup(self, t=NULL) -> None:
        """Build the inputs from the seed (timed as set-up)."""
        raise NotImplementedError

    def ops(self):
        """Deterministic, unbounded stream of operations."""
        raise NotImplementedError

    def run_op(self, op):
        raise NotImplementedError

    def run_traced(self, op, t):
        raise NotImplementedError

    def check(self, op, out) -> None:
        raise NotImplementedError

    def check_refusal(self, op) -> None:
        raise NotImplementedError

    def check_traced(self, op, out) -> None:
        self.check(op, out)

    def attribute(self, op, out, op_span: dict, t) -> None:
        """Traced runs only: extra public calls on the operation's inputs that
        split its time between layers. They run outside the operation's span."""

    def probe(self, t) -> None:
        """Traced runs only: untimed calls that count what the operation
        stream leaves out."""

    def counters(self, records) -> dict:
        """Deterministic counts over the first ``min_ops`` operations."""
        raise NotImplementedError

    def report(self, records) -> dict:
        """The workload's own user-facing figures, for the detailed result."""
        raise NotImplementedError


def _completed_s(records) -> list[float]:
    return [r.seconds for r in records if r.ok]


class PipelineWorkload(Workload):
    """``run_pipeline`` on the default config with only the epochs lowered."""

    name = "pipeline"

    def __init__(self, seed, sizes, work_dir):
        super().__init__(seed, sizes, work_dir)
        self.min_ops = sizes.min_runs
        self._digest = None

    def setup(self, t=NULL):
        base = default_config(seed=self.seed)
        self.config = replace(
            base,
            out_dir=str(self.work_dir / "run"),
            generation=replace(base.generation, n_per_class=self.sizes.n_per_class),
            train=replace(base.train, epochs=self.sizes.epochs),
        )
        held = replace(self.config, seed=bench_seed(self.seed, "heldout"))
        self.heldout_signals = make_signals(held, t)
        self.heldout = build_dataset(self.heldout_signals, held.bands, held.pattern_stride)

    def ops(self):
        return itertools.repeat(self.config)

    def run_op(self, config):
        return run_pipeline(config)

    def check(self, config, manifest):
        out = Path(config.out_dir)
        if manifest.status != "ok":
            raise CheckFailed(f"manifest status is {manifest.status!r}")
        missing = [a for a in manifest.artifacts if not (out / a).is_file()]
        if missing:
            raise CheckFailed(f"manifest lists missing artifacts: {missing[:3]}")
        digest = _digest(out, ("model.json", "metrics.json", "dataset.csv"))
        if self._digest is None:
            self._digest = digest
        elif digest != self._digest:
            raise CheckFailed("a rerun of the same config wrote different artifacts")

    def run_traced(self, config, t):
        return _pipeline_replica(config, self.work_dir / "replica", t)

    def check_traced(self, config, out):
        names = ("model.json", "metrics.json", "dataset.csv")
        if _digest(out["dir"], names) != _digest(Path(config.out_dir), names):
            raise CheckFailed("the traced stage calls wrote other artifacts than run_pipeline")

    def attribute(self, config, out, op_span, t):
        dataset, tparams = out["dataset"], out["tparams"]
        train_idx, val_idx = split_indices(len(dataset), tparams.seed)
        batch_size = tparams.batch_size
        for b in range(self.sizes.lag_batches):
            rows = train_idx[b * batch_size : (b + 1) * batch_size]
            batch = [
                (PatternSignal(dataset.values[i], INDEX_LABEL[dataset.labels[i]]),
                 INDEX_LABEL[dataset.labels[i]])
                for i in rows
            ]
            with t.span("tdcnn.loss_and_grad", rows=len(batch)):
                loss_and_grad(out["model0"], batch, train_mode=True, seed=b)
        x_val = dataset.values[val_idx]
        with t.span("tdcnn.predict_wakeful_scores", rows=len(x_val), role="validation"):
            predict_wakeful_scores(out["model"], x_val)
        with t.span("persist.load_model"):
            persist.load_model(out["dir"] / "model.json")

    def counters(self, records):
        out = Path(self.config.out_dir)
        stack = hyper_filter(self.heldout_signals[0], self.config.bands)
        kept = len(pattern_signals(stack))
        with open(out / "dataset.csv") as fh:
            rows = sum(1 for _ in fh) - 1
        tparams = replace(self.config.train, seed=derive_seed("train", self.config.seed))
        train_rows = len(split_indices(rows, tparams.seed)[0])
        report = eval_report(persist.load_model(out / "model.json"), self.heldout)
        return {
            "signal_samples": stack.n_samples,
            "patterns_kept_per_signal": kept,
            "patterns_dropped_per_signal": stack.n_samples - kept,
            "dataset_rows": rows,
            "train_rows": train_rows,
            "batches_per_epoch": math.ceil(train_rows / tparams.batch_size),
            "heldout_rows": report["n_rows"],
            "heldout_acc": report["overall_accuracy"],
        }

    def report(self, records):
        return {"pipeline_s": median(_completed_s(records)), "runs": len(records)}


def _digest(out: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update((out / name).read_bytes())
    return h.hexdigest()


def _pipeline_replica(config, out: Path, t) -> dict:
    """``run_pipeline``'s stages as the public calls it makes, in its order,
    writing the same artifacts under ``out``; search stays off."""
    out.mkdir(parents=True, exist_ok=True)
    artifacts: list[str] = []

    def emit(rel, writer, *args):
        layer = writer.__module__.rsplit(".", 1)[-1]
        with t.span(f"{layer}.{writer.__name__}") as attrs:
            writer(out / rel, *args)
        attrs["bytes"] = (out / rel).stat().st_size
        artifacts.append(rel)

    emit("config.json", persist.dump_json, config_to_dict(config))
    with t.span("pipeline.synth"):
        signals = make_signals(config, t)
        (out / "signals").mkdir(exist_ok=True)
        names = []
        for i, sig in enumerate(signals):
            rel = f"signals/{sig.label.value.lower()}_{i:03d}.csv"
            emit(rel, persist.save_signal_csv, sig)
            names.append(rel)
        emit("signals/index.json", persist.dump_json, {"n_signals": len(names), "files": names})
        first = signals[0]
        t_axis = [i / first.fs for i in range(first.samples.size)]
        emit("signal_trace.csv", plots.write_series_csv, ["t_s", "value"],
             [[x, repr(float(v))] for x, v in zip(t_axis, first.samples)])
        emit("signal_trace.svg", plots.svg_line_chart, t_axis,
             {first.label.value: list(first.samples)}, "Generated PPG trace", "time [s]",
             "amplitude")
    with t.span("pipeline.bands"):
        emit("bands.json", persist.save_hyper_config, config.bands)
    metrics: dict = {}
    with t.span("pipeline.dataset") as attrs:
        patterns = []
        for sig in signals:
            stack = filter_signal(sig, config.bands, t)
            patterns.extend(extract_patterns(stack, t)[:: config.pattern_stride])
        dataset = PatternDataset.from_patterns(patterns)
        attrs["rows"] = len(dataset)
        emit("dataset.csv", persist.save_dataset_csv, dataset)
        with t.span("band_search.fisher_score"):
            metrics["reward"] = fisher_score(
                dataset.values[dataset.labels == 0], dataset.values[dataset.labels == 1]
            )
    with t.span("pipeline.train"):
        tparams = replace(config.train, seed=derive_seed("train", config.seed))
        model0 = init_model(config.arch, derive_seed("init", config.seed))
        train_idx, _ = split_indices(len(dataset), tparams.seed)
        with t.span("tdcnn.train", epochs=tparams.epochs, train_rows=train_idx.size,
                    batches=math.ceil(train_idx.size / tparams.batch_size)):
            model, history = train(model0, dataset, tparams)
        emit("model.json", persist.save_model, model)
        emit("loss_history.csv", plots.write_series_csv, ["epoch", "train_loss", "val_accuracy"],
             [[ep, repr(float(l)), repr(float(a))] for ep, l, a in history])
        emit("loss_curve.svg", plots.svg_line_chart, [ep for ep, _, _ in history],
             {"train loss": [l for _, l, _ in history], "val accuracy": [a for _, _, a in history]},
             "Training history", "epoch", "value")
        with t.span("tdcnn.train_baseline_mlp"):
            mlp_model, mlp_acc = train_baseline_mlp(dataset, tparams)
        metrics["best_val_accuracy"] = max((a for _, _, a in history), default=None)
    with t.span("pipeline.eval"):
        _, val_idx = split_indices(len(dataset), tparams.seed)
        val_ds = PatternDataset(dataset.values[val_idx], dataset.labels[val_idx])
        metrics["tdcnn"] = eval_report(model, val_ds)
        metrics["baseline_mlp"] = eval_report(mlp_model, val_ds)
        metrics["baseline_mlp"]["best_val_accuracy"] = float(mlp_acc)
        emit("metrics.json", persist.dump_json, metrics)
    manifest = RunManifest(config_hash(config), "ok", sorted(artifacts), metrics, {})
    with t.span("persist.dump_json") as attrs:
        persist.dump_json(out / "manifest.json", manifest.to_dict())
    attrs["bytes"] = (out / "manifest.json").stat().st_size
    return {"dir": out, "dataset": dataset, "tparams": tparams, "model0": model0, "model": model}


class SearchWorkload(Workload):
    """``band_search.reward`` on the 32 default signals for a seeded stream of
    layouts drawn uniformly from the feasible part of the default search space
    (every layer at least ``MIN_STREAM_WIDTH_HZ`` wide)."""

    name = "search"

    def __init__(self, seed, sizes, work_dir):
        super().__init__(seed, sizes, work_dir)
        self.min_ops = sizes.min_layouts

    def setup(self, t=NULL):
        base = default_config(seed=self.seed)
        config = replace(
            base, generation=replace(base.generation, n_per_class=self.sizes.n_per_class)
        )
        self.signals = make_signals(config, t)
        self.fs = config.generation.fs
        self.n_samples = self.signals[0].samples.size
        self.bands_per_layer = config.bands.bands_per_layer
        self.n_layers = len(config.bands.layers)
        # The search space of SearchConfig's defaults: edges on a grid over
        # the PPG band, every layer at least min_width_hz wide.
        grid, width = config.search.grid_hz, config.search.min_width_hz
        n = round((PPG_BAND[1] - PPG_BAND[0]) / grid)
        w = round(width / grid)
        self.edges = [PPG_BAND[0] + i * grid for i in range(n + 1)]
        self.pairs = [(i, j) for i in range(n + 1) for j in range(i + w, n + 1)]
        stream_w = round(MIN_STREAM_WIDTH_HZ / grid)
        self.stream_pairs = [(i, j) for i, j in self.pairs if j - i >= stream_w]

    def _draw(self, rng_widths, rng_places, pairs) -> HyperFilterConfig:
        layers = []
        for k in rng_widths.integers(len(pairs), size=self.n_layers):
            width = pairs[k][1] - pairs[k][0]
            lo = int(rng_places.integers(len(self.edges) - width))
            layers.append((self.edges[lo], self.edges[lo + width]))
        return HyperFilterConfig(tuple(layers), bands_per_layer=self.bands_per_layer)

    def ops(self):
        """Each layer is uniform over the feasible (lo, hi) pairs. The widths
        come from a stream shared by every seed and the seed places each
        layer, so every run filters with the same kernel lengths: a layout's
        cost and feasibility depend on its widths only."""
        widths = np.random.default_rng(bench_seed("layout-widths"))
        places = np.random.default_rng(bench_seed(self.seed, "layouts"))
        while True:
            yield self._draw(widths, places, self.stream_pairs)

    def space_draws(self) -> list[HyperFilterConfig]:
        """``SPACE_DRAWS`` layouts drawn uniformly from the whole default space."""
        rng = np.random.default_rng(bench_seed(self.seed, "space"))
        return [self._draw(rng, rng, self.pairs) for _ in range(SPACE_DRAWS)]

    def infeasible(self, layout) -> bool:
        return layout_max_taps(layout, self.fs) > self.n_samples

    def run_op(self, layout):
        return reward(layout, self.signals)

    def run_traced(self, layout, t):
        with t.span("band_search.reward"):
            return reward(layout, self.signals)

    def check(self, layout, value):
        if not math.isfinite(value):
            raise CheckFailed(f"reward of {layout.layers} is {value}")
        if self.infeasible(layout):
            raise CheckFailed(f"{layout.layers} needs a kernel longer than the signal yet scored")

    def check_refusal(self, layout):
        if not self.infeasible(layout):
            raise CheckFailed(f"{layout.layers} fits the signal yet was refused")

    def probe(self, t):
        """Calls ``reward`` on every draw from the whole space that the design
        rule predicts infeasible and checks that it is refused; predicted
        feasible draws are what the operation stream times."""
        with t.span("band_search.space_probe") as attrs:
            refused = 0
            for layout in self.space_draws():
                if not self.infeasible(layout):
                    continue
                try:
                    value = reward(layout, self.signals)
                except SignalTooShortError:
                    refused += 1
                else:
                    raise CheckFailed(f"{layout.layers} needs a kernel longer than the signal "
                                      f"yet scored {value}")
            attrs.update(drawn=SPACE_DRAWS, refused=refused)

    def attribute(self, layout, value, op_span, t):
        with t.span("band_search.reward_parts", op=op_span["id"]):
            mats: dict[Label, list[np.ndarray]] = {Label.DROWSY: [], Label.WAKEFUL: []}
            for sig in self.signals:
                try:
                    stack = filter_signal(sig, layout, t)
                except SignalTooShortError:
                    return  # reward stops at the first signal as well
                mats[sig.label].append(np.stack([p.values for p in extract_patterns(stack, t)]))
            drowsy, wakeful = np.concatenate(mats[Label.DROWSY]), np.concatenate(mats[Label.WAKEFUL])
            with t.span("band_search.fisher_score"):
                parts = fisher_score(drowsy, wakeful)
        if parts != value:
            raise CheckFailed(f"reward {value} differs from its parts {parts}")

    def counters(self, records):
        prefix = records[: self.min_ops]
        return {
            "n_signals": len(self.signals),
            "signal_samples": self.n_samples,
            "layouts_attempted": len(prefix),
            "layouts_infeasible": sum(not r.ok for r in prefix),
            "space_layouts_drawn": SPACE_DRAWS,
            "space_layouts_infeasible": sum(map(self.infeasible, self.space_draws())),
        }

    def report(self, records):
        done = _completed_s(records)
        return {
            "search_layouts_per_s": len(done) / sum(r.seconds for r in records),
            "reward_p50_ms": 1000 * median(done),
            "layouts": len(records),
        }


@dataclass(frozen=True)
class Window:
    recording: PpgSignal
    start: int
    n: int


class AssessWorkload(Workload):
    """Closed-loop assessment of back-to-back windows of long recordings with
    a seeded, untrained TDCNN: hyper_filter -> pattern_signals -> assess_window."""

    name = "assess"

    def __init__(self, seed, sizes, work_dir):
        super().__init__(seed, sizes, work_dir)
        self.min_ops = sizes.min_windows

    def setup(self, t=NULL):
        base = default_config(seed=self.seed)
        self.bands = base.bands
        self.fs = base.generation.fs
        self.noise = base.generation.noise
        self.max_taps = layout_max_taps(self.bands, self.fs)
        self.model = init_model(ArchSpec(), bench_seed(self.seed, "model"))
        self.first = [self.recording(k, t) for k in range(2)]

    def recording(self, k: int, t=NULL) -> PpgSignal:
        """Recording ``k``: drowsy for even k, wakeful for odd k."""
        seconds = sum(WINDOW_CYCLE_S) * self.sizes.recording_cycles
        with t.span("signal_gen.generate", seconds=seconds):
            clean = generate_ppg((DROWSY_PRESET, WAKEFUL_PRESET)[k % 2], seconds, self.fs,
                                 bench_seed(self.seed, "ppg", k))
            return add_noise(clean, self.noise, bench_seed(self.seed, "noise", k))

    def ops(self):
        for k in itertools.count():
            rec = self.first[k] if k < len(self.first) else self.recording(k)
            start = 0
            for window_s in WINDOW_CYCLE_S * self.sizes.recording_cycles:
                n = round(window_s * self.fs)
                yield Window(rec, start, n)
                start += n

    def run_traced(self, win, t):
        chunk = PpgSignal(win.recording.samples[win.start : win.start + win.n],
                          win.recording.fs, win.recording.label)
        patterns = extract_patterns(filter_signal(chunk, self.bands, t), t)
        with t.span("tdcnn.assess_window", patterns=len(patterns)):
            verdict = assess_window(self.model, patterns)
        return verdict, patterns

    def run_op(self, win):
        return self.run_traced(win, NULL)

    def check(self, win, out):
        verdict, patterns = out
        if len(patterns) != win.n - self.max_taps + 1:
            raise CheckFailed(f"{len(patterns)} patterns from a {win.n}-sample window")
        scores = predict_wakeful_scores(self.model, np.stack([p.values for p in patterns]))
        if abs(verdict.score - float(np.mean(scores))) > SCORE_TOL:
            raise CheckFailed(f"window score {verdict.score} is not the mean pattern score")
        if verdict.label is not (Label.DROWSY if verdict.score <= 0.5 else Label.WAKEFUL):
            raise CheckFailed(f"label {verdict.label} contradicts score {verdict.score}")

    def check_refusal(self, win):
        if win.n >= self.max_taps:
            raise CheckFailed(f"a {win.n}-sample window was refused")

    def attribute(self, win, out, op_span, t):
        if out is None:
            return
        x = np.stack([p.values for p in out[1]])
        with t.span("tdcnn.predict_wakeful_scores", rows=len(x)):
            predict_wakeful_scores(self.model, x)

    def counters(self, records):
        prefix = records[: self.min_ops]
        full = round(WINDOW_CYCLE_S[0] * self.fs)
        return {
            "max_kernel_taps": self.max_taps,
            "windows_completed": sum(r.ok for r in prefix),
            "windows_failed": sum(not r.ok for r in prefix),
            "patterns_per_20s_window": full - self.max_taps + 1,
        }

    def report(self, records):
        done = _completed_s(records)
        try:
            p90 = 1000 * percentile(done, 0.9)
        except NotEnoughSamples as exc:
            p90 = f"refused: {exc}"
        signal_s = sum(r.op.n for r in records if r.ok) / self.fs
        return {
            "assess_p50_ms": 1000 * median(done),
            "assess_p90_ms": p90,
            "assess_realtime_x": signal_s / sum(r.seconds for r in records),
            "windows": len(records),
        }


WORKLOADS = {w.name: w for w in (PipelineWorkload, SearchWorkload, AssessWorkload)}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics computable from one tracer's spans."""
    by = defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)

    def ok(name):
        return [s for s in by[name] if "error" not in s["attrs"]]

    def med_ms(items):
        return 1000 * median(duration(s) for s in items)

    def total(items, key):
        return sum(s["attrs"][key] for s in items)

    m: dict[str, float] = {}
    if by["signal_gen.generate"]:
        m["signal_gen.ms_per_signal_min"] = 1000 * min(map(duration, by["signal_gen.generate"]))
    hf, hf_ok = by["filterbank.hyper_filter"], ok("filterbank.hyper_filter")
    if hf:
        m["filterbank.failed_ratio"] = fail_ratio(len(hf), len(hf) - len(hf_ok))
    if hf_ok:
        m["filterbank.hyper_filter_ms"] = med_ms(hf_ok)
        m["filterbank.hyper_filter_mmac_per_s"] = (
            total(hf_ok, "macs") / sum(map(duration, hf_ok)) / 1e6
        )
    ps = by["filterbank.pattern_signals"]
    if ps:
        m["filterbank.pattern_signals_ms"] = med_ms(ps)
        m["filterbank.patterns_kept_ratio"] = total(ps, "kept") / total(ps, "samples")
    probes = by["band_search.space_probe"]
    if probes:
        m["band_search.layouts_attempted"] = total(probes, "drawn")
        m["band_search.layouts_infeasible"] = total(probes, "refused")
    if ok("band_search.reward"):
        m["band_search.reward_ms"] = med_ms(ok("band_search.reward"))
    if by["band_search.fisher_score"]:
        m["band_search.fisher_score_ms"] = med_ms(by["band_search.fisher_score"])
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    others = []
    for parts in by["band_search.reward_parts"]:
        (rew,) = [c for c in children[parts["attrs"]["op"]] if c["name"] == "band_search.reward"]
        inner = [c for c in children[parts["id"]] if c["name"] != "band_search.reward_parts"]
        if "error" not in rew["attrs"] and not any("error" in c["attrs"] for c in inner):
            others.append(duration(rew) - sum(map(duration, inner)))
    if others:
        m["band_search.reward_other_ms"] = 1000 * median(others)

    trains = ok("tdcnn.train")
    if trains:
        attrs = trains[0]["attrs"]
        m["tdcnn.train_s"] = median(map(duration, trains))
        m["tdcnn.epoch_s"] = m["tdcnn.train_s"] / attrs["epochs"]
        m["tdcnn.train_rows"] = attrs["train_rows"]
        m["tdcnn.batches"] = attrs["batches"]
    lag = by["tdcnn.loss_and_grad"]
    if lag:
        m["tdcnn.loss_and_grad_ms"] = med_ms(lag)
    preds = by["tdcnn.predict_wakeful_scores"]
    if preds:
        m["tdcnn.predict_us_per_row"] = 1e6 * sum(map(duration, preds)) / total(preds, "rows")
    val = [s for s in preds if s["attrs"].get("role") == "validation"]
    if trains and lag and val:
        covered = attrs["epochs"] * (
            attrs["batches"] * m["tdcnn.loss_and_grad_ms"] / 1000 + median(map(duration, val))
        )
        m["tdcnn.train_other_share"] = 1 - covered / m["tdcnn.train_s"]
    windows = by["tdcnn.assess_window"]
    if windows:
        m["tdcnn.assess_window_ms"] = med_ms(windows)
        m["tdcnn.assess_us_per_pattern"] = (
            1e6 * sum(map(duration, windows)) / total(windows, "patterns")
        )
    if by["tdcnn.train_baseline_mlp"]:
        m["tdcnn.train_baseline_mlp_s"] = median(map(duration, by["tdcnn.train_baseline_mlp"]))

    for stage in ("synth", "dataset", "train", "eval"):
        if by[f"pipeline.{stage}"]:
            m[f"pipeline.{stage}_s"] = median(map(duration, by[f"pipeline.{stage}"]))
    if by["pipeline.dataset"]:
        m["pipeline.dataset_rows"] = by["pipeline.dataset"][0]["attrs"]["rows"]
    per_op = defaultdict(lambda: defaultdict(float))
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        if layer in ("persist", "plots") and s["name"] != "persist.load_model":
            per_op[s["root"]][layer] += duration(s)
            per_op[s["root"]]["bytes"] += s["attrs"].get("bytes", 0) if layer == "persist" else 0
    if per_op:
        m["persist.write_s"] = median(o["persist"] for o in per_op.values())
        m["persist.bytes_written"] = int(next(iter(per_op.values()))["bytes"])
        m["plots.write_s"] = median(o["plots"] for o in per_op.values())
    if by["persist.load_model"]:
        m["persist.load_model_ms"] = med_ms(by["persist.load_model"])
    return m
