"""Command-line front end.

Every subcommand validates its inputs before writing any output file and
exits nonzero with a machine-readable JSON error object on stderr when
something goes wrong.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import persist
from .filterbank import HyperFilterConfig, hyper_filter, pattern_rows
from .pipeline import (
    DEFAULT_LAYERS,
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
from .signal_gen import INDEX_LABEL, PpgSignal
from .tdcnn import _verdict, assess_window
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


def _write_result(args, name: str, obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))
    if getattr(args, "out", None):
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        persist.dump_json(out / name, obj)


def _cmd_run(args) -> int:
    config = _load_config(args)
    manifest = run_pipeline(config)
    print(json.dumps({"status": manifest.status, "out_dir": config.out_dir}, sort_keys=True))
    return 0


def _require_signals(config: PipelineConfig) -> None:
    if config.generation.n_per_class == 0:
        raise ValueError("config generates zero signals (n_per_class=0)")


def _cmd_synth(args) -> int:
    config = _load_config(args)
    _require_signals(config)
    emit = ArtifactWriter(config.out_dir)
    signals = synth_stage(config, emit)
    print(json.dumps({"n_signals": len(signals), "out_dir": str(emit.out)}, sort_keys=True))
    return 0


def _bands_from_args(args) -> HyperFilterConfig:
    if getattr(args, "bands", None):
        return persist.load_hyper_config(args.bands)
    if getattr(args, "config", None):
        return _load_config(args).bands
    return HyperFilterConfig(DEFAULT_LAYERS)


def _cmd_filter(args) -> int:
    signal = persist.load_signal_csv(args.signal)
    bands = _bands_from_args(args)
    stack = hyper_filter(signal, bands)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    persist.save_stack_csv(out / "stack.csv", stack)
    persist.save_hyper_config(out / "bands.json", bands)
    print(
        json.dumps(
            {"n_channels": stack.n_channels, "n_samples": stack.n_samples, "out_dir": str(out)},
            sort_keys=True,
        )
    )
    return 0


def _cmd_search_bands(args) -> int:
    config = _load_config(args)
    _require_signals(config)
    emit = ArtifactWriter(config.out_dir)
    _, best_reward = search_stage(config, generate_signals(config), emit)
    print(json.dumps({"best_reward": best_reward, "out_dir": str(emit.out)}, sort_keys=True))
    return 0


def _cmd_build_dataset(args) -> int:
    config = _load_config(args)
    emit = ArtifactWriter(config.out_dir)
    dataset = dataset_stage(config, generate_signals(config), config.bands, emit)
    print(
        json.dumps(
            {"n_rows": len(dataset), "n_channels": dataset.n_channels, "out_dir": str(emit.out)},
            sort_keys=True,
        )
    )
    return 0


def _cmd_train(args) -> int:
    config = _load_config(args)
    dataset = persist.load_dataset_csv(args.dataset)
    emit = ArtifactWriter(config.out_dir)
    model, _, val_ds = train_stage(config, dataset, emit)
    report = eval_report(model, val_ds)
    emit("metrics.json", persist.dump_json, report)
    print(json.dumps({"val_accuracy": report["overall_accuracy"], "out_dir": str(emit.out)}, sort_keys=True))
    return 0


def _cmd_eval(args) -> int:
    model = persist.load_model(args.model)
    dataset = persist.load_dataset_csv(args.dataset)
    report = eval_report(model, dataset)
    _write_result(args, "metrics.json", report)
    return 0


def _cmd_assess(args) -> int:
    model = persist.load_model(args.model)
    signal = persist.load_signal_csv(args.signal)
    bands = _bands_from_args(args)
    n = signal.samples.size
    if args.window_s is not None:
        window = int(args.window_s * signal.fs)
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
    result = {
        "windows": windows,
        "overall": {
            "score": overall,
            "label": INDEX_LABEL[_verdict(overall)].value,
        },
    }
    _write_result(args, "assessment.json", result)
    return 0


def _cmd_salient(args) -> int:
    boxes = persist.load_boxes(args.boxes)
    if args.min_height is not None and args.min_width is not None:
        min_h, min_w = args.min_height, args.min_width
    elif args.frame_height is not None and args.frame_width is not None:
        min_h, min_w = salient_thresholds_for_frame(args.frame_height, args.frame_width)
    else:
        raise ValueError(
            "give either --min-height and --min-width, or --frame-height and --frame-width"
        )
    kept = filter_salient(boxes, min_h, min_w)
    result = {
        "min_height": min_h,
        "min_width": min_w,
        "n_input": len(boxes),
        "n_salient": len(kept),
        "boxes": [persist.dataclass_to_dict(b) for b in kept],
    }
    _write_result(args, "salient.json", result)
    return 0


def _cmd_miou(args) -> int:
    pred = persist.load_mask_pgm(args.pred)
    gt = persist.load_mask_pgm(args.gt)
    result = {
        "miou": miou(pred, gt, args.classes),
        "per_class": {str(k): v for k, v in iou_per_class(pred, gt, args.classes).items()},
    }
    _write_result(args, "miou.json", result)
    return 0


def _cmd_rcca_check(args) -> int:
    h, w, c = args.height, args.width, args.channels
    rng = np.random.default_rng(args.seed)
    x = rng.normal(size=(h, w, c))
    weights = init_rcca_weights(c, seed=args.seed + 1)
    base1 = cc_attention(x, weights)
    base2 = rcca(x, weights, steps=2)
    tol = 1e-9
    delta = 1e-3
    off_cross_max = 0.0
    single_ok = True
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
            if off > tol:
                single_ok = False
            if not np.all(d2 > 0):
                double_ok = False
    result = {
        "height": h,
        "width": w,
        "channels": c,
        "single_pass_cross_only": single_ok,
        "single_pass_max_off_cross_influence": off_cross_max,
        "double_pass_full_context": double_ok,
    }
    _write_result(args, "rcca_check.json", result)
    return 0


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
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("assess", help="streaming window assessment of a signal file")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--signal", type=Path, required=True)
    p.add_argument("--config", type=Path, help="pipeline config JSON (for the band layout)")
    p.add_argument("--bands", type=Path, help="band layout JSON")
    p.add_argument("--window-s", type=float, help="window length in seconds (default: whole signal)")
    p.add_argument("--out", type=Path, help="optional output directory")
    p.set_defaults(fn=_cmd_assess)

    p = sub.add_parser("salient", help="keep boxes exceeding a size threshold")
    p.add_argument("--boxes", type=Path, required=True, help="boxes JSON")
    p.add_argument("--min-height", type=float, help="height threshold in pixels")
    p.add_argument("--min-width", type=float, help="width threshold in pixels")
    p.add_argument("--frame-height", type=int, help="derive thresholds from the frame size")
    p.add_argument("--frame-width", type=int)
    p.add_argument("--out", type=Path, help="optional output directory")
    p.set_defaults(fn=_cmd_salient)

    p = sub.add_parser("miou", help="mean IoU between two PGM label masks")
    p.add_argument("--pred", type=Path, required=True)
    p.add_argument("--gt", type=Path, required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--out", type=Path, help="optional output directory")
    p.set_defaults(fn=_cmd_miou)

    p = sub.add_parser("rcca-check", help="verify the attention influence pattern")
    p.add_argument("--height", type=int, default=4)
    p.add_argument("--width", type=int, default=5)
    p.add_argument("--channels", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, help="optional output directory")
    p.set_defaults(fn=_cmd_rcca_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PipelineError as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc), "stage": exc.stage}}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
