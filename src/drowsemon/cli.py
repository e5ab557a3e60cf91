"""Command-line front end.

Each ``_cmd_*`` handler validates its inputs before writing any output file
and returns the JSON object it reports. ``main`` alone writes output: it
prints that object, saves a result command's copy under ``--out``, and maps
a refused input to exit code 1 with a one-line JSON error object on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import persist
from .filterbank import HyperFilterConfig, hyper_filter, pattern_rows
from .pipeline import (
    ArtifactWriter,
    PipelineConfig,
    PipelineError,
    config_from_dict,
    dataset_stage,
    default_config,
    eval_report,
    generate_signals,
    run_pipeline,
    search_stage,
    synth_stage,
    train_stage,
)
from .signal_gen import PpgSignal
from .tdcnn import Assessment, assess_window
from .vision import (
    cc_attention,
    filter_salient,
    init_rcca_weights,
    iou_per_class,
    miou,
    rcca,
    salient_thresholds_for_frame,
)


def _load_config(args) -> PipelineConfig:
    if getattr(args, "config", None):
        config = config_from_dict(persist.load_json(args.config), where=str(args.config))
    else:
        config = default_config()
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    if getattr(args, "out", None):
        config = replace(config, out_dir=str(args.out))
    return config


def _cmd_run(args) -> dict:
    config = _load_config(args)
    return {"status": run_pipeline(config).status, "out_dir": config.out_dir}


def _cmd_synth(args) -> dict:
    config = _load_config(args)
    emit = ArtifactWriter(config.out_dir)
    return {"n_signals": len(synth_stage(config, emit)), "out_dir": str(emit.out)}


def _bands_from_args(args) -> HyperFilterConfig:
    if getattr(args, "bands", None):
        return persist.load_hyper_config(args.bands)
    return _load_config(args).bands


def _cmd_filter(args) -> dict:
    signal = persist.load_signal_csv(args.signal)
    bands = _bands_from_args(args)
    stack = hyper_filter(signal, bands)
    emit = ArtifactWriter(args.out)
    emit("stack.csv", persist.save_stack_csv, stack)
    emit("bands.json", persist.save_hyper_config, bands)
    return {"n_channels": stack.n_channels, "n_samples": stack.n_samples, "out_dir": str(emit.out)}


def _cmd_search_bands(args) -> dict:
    config = _load_config(args)
    emit = ArtifactWriter(config.out_dir)
    _, best_reward = search_stage(config, generate_signals(config), emit)
    return {"best_reward": best_reward, "out_dir": str(emit.out)}


def _cmd_build_dataset(args) -> dict:
    config = _load_config(args)
    emit = ArtifactWriter(config.out_dir)
    dataset = dataset_stage(config, generate_signals(config), config.bands, emit)
    return {"n_rows": len(dataset), "n_channels": dataset.n_channels, "out_dir": str(emit.out)}


def _cmd_train(args) -> dict:
    config = _load_config(args)
    dataset = persist.load_dataset_csv(args.dataset)
    emit = ArtifactWriter(config.out_dir)
    model, _, val_ds = train_stage(config, dataset, emit)
    report = eval_report(model, val_ds)
    emit("metrics.json", persist.dump_json, report)
    return {"val_accuracy": report["overall_accuracy"], "out_dir": str(emit.out)}


def _cmd_eval(args) -> dict:
    model = persist.load_model(args.model)
    return eval_report(model, persist.load_dataset_csv(args.dataset))


def _cmd_assess(args) -> dict:
    model = persist.load_model(args.model)
    signal = persist.load_signal_csv(args.signal)
    bands = _bands_from_args(args)
    n = signal.samples.size
    if not n:
        raise ValueError(f"signal {args.signal} holds 0 samples")
    if args.window_s is not None:
        if not math.isfinite(args.window_s * signal.fs):
            raise ValueError(f"window of {args.window_s}s is not a finite number of samples at fs={signal.fs}")
        window = round(args.window_s * signal.fs)
        if window < 1:
            raise ValueError(f"window of {args.window_s}s holds no samples at fs={signal.fs}")
    else:
        window = n
    windows = []
    for start in range(0, n - window + 1, window):
        chunk = PpgSignal(signal.samples[start : start + window], signal.fs, signal.label)
        patterns = pattern_rows(hyper_filter(chunk, bands))
        verdict = assess_window(model, patterns)
        windows.append(
            {
                "start_s": start / signal.fs,
                "end_s": (start + window) / signal.fs,
                "score": verdict.score,
                "label": verdict.label.value,
                "n_patterns": len(patterns),
            }
        )
    if not windows:
        raise ValueError(f"signal of {n} samples is shorter than one {window}-sample window")
    overall = float(np.mean([w["score"] for w in windows]))
    return {
        "windows": windows,
        "overall": {
            "score": overall,
            "label": Assessment(overall).label.value,
        },
    }


def _cmd_salient(args) -> dict:
    boxes = persist.load_boxes(args.boxes)
    # exactly one complete pair of flags
    flags = (args.min_height, args.min_width, args.frame_height, args.frame_width)
    given = [v is not None for v in flags]
    if given == [True, True, False, False]:
        min_h, min_w = args.min_height, args.min_width
    elif given == [False, False, True, True]:
        min_h, min_w = salient_thresholds_for_frame(args.frame_height, args.frame_width)
    else:
        raise ValueError(
            "give either --min-height and --min-width, or --frame-height and --frame-width"
        )
    kept = filter_salient(boxes, min_h, min_w)
    return {
        "min_height": min_h,
        "min_width": min_w,
        "n_input": len(boxes),
        "n_salient": len(kept),
        "boxes": [persist.dataclass_to_dict(b) for b in kept],
    }


def _cmd_miou(args) -> dict:
    pred = persist.load_mask_pgm(args.pred)
    gt = persist.load_mask_pgm(args.gt)
    return {
        "miou": miou(pred, gt, args.classes),
        "per_class": {str(k): v for k, v in iou_per_class(pred, gt, args.classes).items()},
    }


def _cmd_rcca_check(args) -> dict:
    h, w, c = args.height, args.width, args.channels
    rng = np.random.default_rng(args.seed)
    x = rng.normal(size=(h, w, c))
    weights = init_rcca_weights(c, seed=args.seed + 1)
    base1 = cc_attention(x, weights)
    base2 = rcca(x, weights, steps=2)
    tol = 1e-9
    delta = 1e-3
    off_cross_max = 0.0
    double_ok = True
    for ph in range(h):
        for pw in range(w):
            bumped = x.copy()
            bumped[ph, pw, 0] += delta
            d1 = np.abs(cc_attention(bumped, weights) - base1).max(axis=2)
            d2 = np.abs(rcca(bumped, weights, steps=2) - base2).max(axis=2)
            cross = np.zeros((h, w), dtype=bool)
            cross[ph, :] = True
            cross[:, pw] = True
            off = float(d1[~cross].max()) if (~cross).any() else 0.0
            off_cross_max = max(off_cross_max, off)
            if not np.all(d2 > 0):
                double_ok = False
    return {
        "height": h,
        "width": w,
        "channels": c,
        "single_pass_cross_only": off_cross_max <= tol,
        "single_pass_max_off_cross_influence": off_cross_max,
        "double_pass_full_context": double_ok,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drowsemon",
        description="Drowsiness-monitoring experiments on synthetic PPG, plus scene utilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=False):
        p.add_argument("--config", type=Path, help="pipeline config JSON")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", type=Path, required=out_required, help="output directory")

    p = sub.add_parser("run", help="execute the full pipeline and write a manifest")
    common(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("synth", help="generate labeled noisy PPG signals")
    common(p)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("filter", help="hyper-filter one signal into sub-band channels")
    common(p, out_required=True)
    p.add_argument("--signal", type=Path, required=True, help="input signal CSV")
    p.add_argument("--bands", type=Path, help="band layout JSON (defaults to config)")
    p.set_defaults(fn=_cmd_filter)

    p = sub.add_parser("search-bands", help="Q-learning search for a band layout")
    common(p)
    p.set_defaults(fn=_cmd_search_bands)

    p = sub.add_parser("build-dataset", help="generate signals and emit pattern rows")
    common(p)
    p.set_defaults(fn=_cmd_build_dataset)

    p = sub.add_parser("train", help="train the temporal CNN on a dataset CSV")
    common(p)
    p.add_argument("--dataset", type=Path, required=True, help="dataset CSV")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a model checkpoint on a dataset CSV")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--dataset", type=Path, required=True)
    p.add_argument("--out", type=Path, help="optional output directory")
    p.set_defaults(fn=_cmd_eval, result="metrics.json")

    p = sub.add_parser("assess", help="streaming window assessment of a signal file")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--signal", type=Path, required=True)
    p.add_argument("--config", type=Path, help="pipeline config JSON (for the band layout)")
    p.add_argument("--bands", type=Path, help="band layout JSON")
    p.add_argument("--window-s", type=float, help="window length in seconds (default: whole signal)")
    p.add_argument("--out", type=Path, help="optional output directory")
    p.set_defaults(fn=_cmd_assess, result="assessment.json")

    p = sub.add_parser("salient", help="keep boxes exceeding a size threshold")
    p.add_argument("--boxes", type=Path, required=True, help="boxes JSON")
    p.add_argument("--min-height", type=float, help="height threshold in pixels")
    p.add_argument("--min-width", type=float, help="width threshold in pixels")
    p.add_argument("--frame-height", type=int, help="derive thresholds from the frame size")
    p.add_argument("--frame-width", type=int)
    p.add_argument("--out", type=Path, help="optional output directory")
    p.set_defaults(fn=_cmd_salient, result="salient.json")

    p = sub.add_parser("miou", help="mean IoU between two PGM label masks")
    p.add_argument("--pred", type=Path, required=True)
    p.add_argument("--gt", type=Path, required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--out", type=Path, help="optional output directory")
    p.set_defaults(fn=_cmd_miou, result="miou.json")

    p = sub.add_parser("rcca-check", help="verify the attention influence pattern")
    p.add_argument("--height", type=int, default=4)
    p.add_argument("--width", type=int, default=5)
    p.add_argument("--channels", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, help="optional output directory")
    p.set_defaults(fn=_cmd_rcca_check, result="rcca_check.json")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # a result command prints its document indented and saves a copy under --out
    result_name = getattr(args, "result", None)
    try:
        if getattr(args, "out", None) and args.out.exists() and not args.out.is_dir():
            raise NotADirectoryError(f"--out {args.out} exists and is not a directory")
        obj = args.fn(args)
        print(json.dumps(obj, sort_keys=True, indent=2 if result_name else None))
        if result_name and args.out:
            ArtifactWriter(args.out)(result_name, persist.dump_json, obj)
    except (PipelineError, ValueError, OSError) as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, PipelineError):
            error["stage"] = exc.stage
        print(json.dumps({"error": error}, sort_keys=True), file=sys.stderr)
        return 1
    return 0


def entrypoint() -> None:
    sys.exit(main())
