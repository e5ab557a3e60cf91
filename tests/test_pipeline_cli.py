import argparse
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from drowsemon.band_search import dataset_reward
from drowsemon.cli import build_parser, main
from drowsemon.filterbank import HyperFilterConfig, PatternDataset, hyper_filter, pattern_signals
from drowsemon.persist import (
    FormatError,
    dump_json,
    load_dataset_csv,
    load_hyper_config,
    load_json,
    load_model,
    load_signal_csv,
    load_stack_csv,
    save_boxes,
    save_dataset_csv,
    save_mask_pgm,
    save_model,
    save_signal_csv,
)
from drowsemon.pipeline import (
    GenerationConfig,
    PipelineConfig,
    PipelineError,
    SearchConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    default_config,
    derive_seed,
    eval_report,
    run_pipeline,
)
from drowsemon.signal_gen import DROWSY_PRESET, WAKEFUL_PRESET, NoiseSpec, PpgSignal, generate_ppg
from drowsemon.tdcnn import (
    ArchSpec,
    MlpModel,
    TrainParams,
    assess_window,
    init_model,
    predict_wakeful_scores,
)
from drowsemon.vision import BoundingBox


def tiny_config(out_dir, seed=3) -> PipelineConfig:
    """Small, fast pipeline configuration used across the CLI tests."""
    return PipelineConfig(
        seed=seed,
        out_dir=str(out_dir),
        generation=GenerationConfig(duration_s=8.0, fs=100.0, n_per_class=3),
        bands=HyperFilterConfig(((1.0, 10.0),), bands_per_layer=3),
        search=SearchConfig(enabled=False),
        pattern_stride=20,
        arch=ArchSpec(
            n_blocks=4,
            kernel_size=3,
            channels=6,
            dilation_schedule=(2, 4, 8, 16),
            dropout_rate=0.1,
        ),
        train=TrainParams(epochs=4, batch_size=16),
    )


def threshold_mlp(in_dim=1):
    """Predicts Wakeful for positive inputs, Drowsy otherwise."""
    w1 = np.zeros((32, in_dim))
    w1[0, 0] = 1.0
    w2 = np.zeros((2, 32))
    w2[1, 0] = 50.0
    return MlpModel(w1=w1, b1=np.zeros(32), w2=w2, b2=np.zeros(2))


class TestEvalReport:
    def test_all_correct(self):
        dataset = PatternDataset(np.array([[-1.0], [-2.0], [1.0], [2.0]]), np.array([0, 0, 1, 1]))
        report = eval_report(threshold_mlp(), dataset)
        assert report["per_class_accuracy"] == {"Drowsy": 1.0, "Wakeful": 1.0}
        assert report["overall_accuracy"] == 1.0

    def test_all_flipped(self):
        dataset = PatternDataset(np.array([[1.0], [2.0], [-1.0], [-2.0]]), np.array([0, 0, 1, 1]))
        report = eval_report(threshold_mlp(), dataset)
        assert report["per_class_accuracy"] == {"Drowsy": 0.0, "Wakeful": 0.0}
        assert report["overall_accuracy"] == 0.0

    def test_hand_counted_case(self):
        # 3 drowsy rows with 1 predicted correctly, 2 wakeful both correct
        values = np.array([[1.0], [1.0], [-1.0], [1.0], [2.0]])
        labels = np.array([0, 0, 0, 1, 1])
        report = eval_report(threshold_mlp(), PatternDataset(values, labels))
        assert report["per_class_accuracy"]["Drowsy"] == pytest.approx(1 / 3)
        assert report["per_class_accuracy"]["Wakeful"] == 1.0
        assert report["confusion_matrix"] == [[1, 2], [0, 2]]

    def test_score_of_exactly_half_reads_drowsy(self):
        # zero input: equal logits, so the wakeful probability is exactly 0.5
        dataset = PatternDataset(np.zeros((2, 1)), np.array([0, 1]))
        assert np.all(predict_wakeful_scores(threshold_mlp(), dataset.values) == 0.5)
        report = eval_report(threshold_mlp(), dataset)
        assert report["confusion_matrix"] == [[1, 0], [1, 0]]
        assert report["per_class_accuracy"] == {"Drowsy": 1.0, "Wakeful": 0.0}

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            eval_report(threshold_mlp(), PatternDataset(np.zeros((0, 1)), np.zeros(0, dtype=int)))


class TestConfig:
    def test_round_trip(self):
        config = tiny_config("/tmp/x", seed=11)
        assert config_from_dict(config_to_dict(config)) == config

    def test_default_round_trip(self):
        config = default_config()
        assert config_from_dict(config_to_dict(config)) == config

    def test_hash_ignores_out_dir(self):
        a = tiny_config("/tmp/a")
        b = tiny_config("/tmp/b")
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(replace(a, seed=99))

    def test_unsupported_schema_rejected(self):
        doc = config_to_dict(default_config())
        doc["schema_version"] = 99
        with pytest.raises(Exception, match="schema_version"):
            config_from_dict(doc)

    def test_hash_pinned(self):
        assert config_hash(default_config()) == (
            "f92656dffb3a391a19a6a4855b2947cb5970befab5376d1b574d7c620249364d"
        )
        assert config_hash(tiny_config("/tmp/x", seed=11)) == (
            "290529163347a47742ca025eb4a91ed1399255fa4e9a60cefc76bd2625d3d89c"
        )

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"train": {"epoch": 3}}, "config: train: unknown field 'epoch'"),
            ({"generaton": {"n_per_class": 2}}, "config: unknown field 'generaton'"),
            (
                {"generation": {"noise": {"snr_db": 3.0}}},
                "config: generation: noise: unknown field 'snr_db'",
            ),
            (
                {"bands": {"layers": [{"f_lo": 1.0, "f_hi": 4.0, "f_mid": 2.0}]}},
                r"config: bands: layers\[0\]: unknown field 'f_mid'",
            ),
        ],
    )
    def test_unknown_field_rejected(self, doc, message):
        with pytest.raises(FormatError, match=message):
            config_from_dict({"schema_version": 1, **doc})

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"search": {"enabled": "false"}}, "config: search: enabled: expected bool, got str"),
            ({"train": {"epochs": 2.9}}, "config: train: epochs: expected int, got float"),
            ({"train": {"lr": "1e-3"}}, "config: train: lr: expected float, got str"),
            ({"seed": True}, "config: seed: expected int, got bool"),
        ],
    )
    def test_mistyped_values_rejected(self, doc, message):
        with pytest.raises(FormatError, match=message):
            config_from_dict({"schema_version": 1, **doc})
        # a JSON integer is still a valid float
        config = config_from_dict({"schema_version": 1, "train": {"lr": 1}})
        assert config.train.lr == 1.0 and isinstance(config.train.lr, float)

    def test_non_object_document_rejected(self):
        with pytest.raises(FormatError, match="config: expected an object, got list"):
            config_from_dict([1, 2])

    def test_misspelt_fields_not_ignored(self):
        doc = {"schema_version": 1, "train": {"epoch": 3}, "generaton": {"n_per_class": 2}}
        with pytest.raises(FormatError, match="unknown field"):
            config_from_dict(doc)

    def test_partial_objects_keep_defaults_but_arch_is_whole(self):
        config = config_from_dict({"schema_version": 1, "train": {"epochs": 3}})
        assert config == replace(default_config(), train=replace(default_config().train, epochs=3))
        with pytest.raises(FormatError, match="config: arch: missing field 'kernel_size'"):
            config_from_dict({"schema_version": 1, "arch": {"n_blocks": 12}})

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed("synth", 7, 0, 1) == derive_seed("synth", 7, 0, 1)
        assert derive_seed("synth", 7, 0, 1) != derive_seed("synth", 7, 0, 2)
        assert derive_seed("train", 7) != derive_seed("init", 7)


class TestRunPipeline:
    def test_zero_signals_fails_at_dataset_stage(self, tmp_path):
        config = replace(
            tiny_config(tmp_path / "run"),
            generation=GenerationConfig(duration_s=8.0, fs=100.0, n_per_class=0),
        )
        with pytest.raises(PipelineError, match="dataset"):
            run_pipeline(config)
        manifest = load_json(tmp_path / "run" / "manifest.json")
        assert manifest["status"] == "failed"
        assert manifest["failed_stage"] == "dataset"
        assert manifest["error"]

    def test_full_run_writes_manifest_and_metrics(self, tmp_path):
        config = tiny_config(tmp_path / "run")
        manifest = run_pipeline(config)
        assert manifest.status == "ok"
        out = tmp_path / "run"
        for rel in manifest.artifacts:
            assert (out / rel).exists(), rel
        metrics = load_json(out / "metrics.json")
        assert set(metrics["tdcnn"]["per_class_accuracy"]) == {"Drowsy", "Wakeful"}
        assert "baseline_mlp" in metrics and "reward" in metrics
        model = load_model(out / "model.json")
        assert model.arch == config.arch

    def test_reward_is_the_dataset_reward_of_dataset_csv(self, tmp_path):
        manifest = run_pipeline(tiny_config(tmp_path / "run"))
        dataset = load_dataset_csv(tmp_path / "run" / "dataset.csv")
        assert manifest.metrics["reward"] == dataset_reward(dataset)

    def test_default_config_with_search_completes(self, tmp_path):
        base = default_config(out_dir=str(tmp_path / "run"))
        config = replace(
            base,
            generation=replace(base.generation, n_per_class=1),
            search=SearchConfig(enabled=True, episodes=1, steps_per_episode=2),
            train=replace(base.train, epochs=1),
        )
        assert run_pipeline(config).status == "ok"
        # 24 s signals fit no layer narrower than 3.5 Hz
        for lo, hi in load_hyper_config(tmp_path / "run" / "bands.json").layers:
            assert hi - lo >= 3.5

    def test_rerun_metrics_byte_identical(self, tmp_path):
        config_a = tiny_config(tmp_path / "a")
        config_b = replace(config_a, out_dir=str(tmp_path / "b"))
        run_pipeline(config_a)
        run_pipeline(config_b)
        skip = {"manifest.json", "config.json"}
        files_a = sorted(
            p.relative_to(tmp_path / "a").as_posix()
            for p in (tmp_path / "a").rglob("*")
            if p.is_file() and p.name not in skip
        )
        files_b = sorted(
            p.relative_to(tmp_path / "b").as_posix()
            for p in (tmp_path / "b").rglob("*")
            if p.is_file() and p.name not in skip
        )
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel

    def test_stage_commands_write_the_run_bytes(self, tmp_path, capsys):
        search = SearchConfig(enabled=True, grid_hz=3.0, min_width_hz=6.0, episodes=6,
                              steps_per_episode=3)
        config = replace(tiny_config(tmp_path / "run"), search=search)
        manifest = run_pipeline(config)
        run_dir, cli_dir = tmp_path / "run", tmp_path / "cli"

        cfg_path = tmp_path / "cli.json"
        dump_json(cfg_path, config_to_dict(replace(config, out_dir=str(cli_dir))))
        assert main(["synth", "--config", str(cfg_path)]) == 0
        assert main(["search-bands", "--config", str(cfg_path)]) == 0
        doc = load_json(cfg_path)
        doc["bands"] = load_json(cli_dir / "search.json")["best_config"]
        dump_json(cfg_path, doc)
        assert main(["build-dataset", "--config", str(cfg_path)]) == 0
        assert main(["train", "--config", str(cfg_path), "--dataset", str(cli_dir / "dataset.csv")]) == 0

        def files(root):
            return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

        index = load_json(cli_dir / "signals" / "index.json")
        assert files(cli_dir) == set(index["files"]) | {
            "signals/index.json", "search.json", "reward_history.csv", "reward_history.svg",
            "dataset.csv", "model.json", "loss_history.csv", "loss_curve.svg", "metrics.json",
        }
        shared = files(cli_dir) - {"metrics.json"}
        assert shared < files(run_dir)
        for rel in sorted(shared):
            assert (cli_dir / rel).read_bytes() == (run_dir / rel).read_bytes(), rel
        assert load_json(cli_dir / "metrics.json") == manifest.metrics["tdcnn"]

    def test_search_stage_artifacts(self, tmp_path):
        config = replace(
            tiny_config(tmp_path / "run"),
            search=SearchConfig(enabled=True, grid_hz=3.0, min_width_hz=6.0, episodes=6,
                                steps_per_episode=3),
        )
        manifest = run_pipeline(config)
        assert manifest.status == "ok"
        search = load_json(tmp_path / "run" / "search.json")
        assert "best_config" in search and len(search["history"]) == 6


class TestCliCommands:
    def write_config(self, tmp_path, **overrides):
        config = tiny_config(tmp_path / "out")
        if overrides:
            config = replace(config, **overrides)
        path = tmp_path / "config.json"
        dump_json(path, config_to_dict(config))
        return path, config

    def test_cli_surface(self):
        sub = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        surface = {
            name: [opt for action in p._actions for opt in action.option_strings]
            for name, p in sub.choices.items()
        }
        common = ["-h", "--help", "--config", "--seed", "--out"]
        assert surface == {
            "run": common,
            "synth": common,
            "filter": common + ["--signal", "--bands"],
            "search-bands": common,
            "build-dataset": common,
            "train": common + ["--dataset"],
            "eval": ["-h", "--help", "--model", "--dataset", "--out"],
            "assess": ["-h", "--help", "--model", "--signal", "--config", "--bands",
                       "--window-s", "--out"],
            "salient": ["-h", "--help", "--boxes", "--min-height", "--min-width",
                        "--frame-height", "--frame-width", "--out"],
            "miou": ["-h", "--help", "--pred", "--gt", "--classes", "--out"],
            "rcca-check": ["-h", "--help", "--height", "--width", "--channels", "--seed",
                           "--out"],
        }

    def test_synth_writes_signals(self, tmp_path, capsys):
        cfg_path, config = self.write_config(tmp_path)
        assert main(["synth", "--config", str(cfg_path)]) == 0
        index = load_json(tmp_path / "out" / "signals" / "index.json")
        assert index["n_signals"] == 6
        sig = load_signal_csv(tmp_path / "out" / index["files"][0])
        assert sig.samples.size == 800

    def test_filter_roundtrip(self, tmp_path):
        sig = generate_ppg(DROWSY_PRESET, 8.0, 100, seed=0)
        sig_path = tmp_path / "sig.csv"
        save_signal_csv(sig_path, sig)
        cfg_path, _ = self.write_config(tmp_path)
        out = tmp_path / "filtered"
        assert main(["filter", "--signal", str(sig_path), "--config", str(cfg_path), "--out", str(out)]) == 0
        stack = load_stack_csv(out / "stack.csv")
        assert stack.n_channels == 3
        assert stack.n_samples == 800

    def test_build_dataset_then_train_then_eval(self, tmp_path, capsys):
        cfg_path, config = self.write_config(tmp_path)
        assert main(["build-dataset", "--config", str(cfg_path)]) == 0
        dataset_path = tmp_path / "out" / "dataset.csv"
        dataset = load_dataset_csv(dataset_path)
        assert dataset.n_channels == 3

        assert main(["train", "--config", str(cfg_path), "--dataset", str(dataset_path)]) == 0
        model_path = tmp_path / "out" / "model.json"
        assert model_path.exists()
        capsys.readouterr()

        assert main(["eval", "--model", str(model_path), "--dataset", str(dataset_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.0 <= report["overall_accuracy"] <= 1.0

    def test_assess_windows(self, tmp_path, capsys):
        cfg_path, config = self.write_config(tmp_path)
        assert main(["build-dataset", "--config", str(cfg_path)]) == 0
        assert main(["train", "--config", str(cfg_path), "--dataset", str(tmp_path / "out" / "dataset.csv")]) == 0
        sig = generate_ppg(WAKEFUL_PRESET, 16.0, 100, seed=5)
        sig_path = tmp_path / "sig.csv"
        save_signal_csv(sig_path, sig)
        capsys.readouterr()
        rc = main(
            [
                "assess",
                "--model", str(tmp_path / "out" / "model.json"),
                "--signal", str(sig_path),
                "--config", str(cfg_path),
                "--window-s", "8",
            ]
        )
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert len(result["windows"]) == 2
        assert result["overall"]["label"] in ("Drowsy", "Wakeful")

    def test_assess_window_scores_are_the_library_verdicts(self, tmp_path, capsys):
        cfg_path, config = self.write_config(tmp_path)
        save_model(tmp_path / "model.json", init_model(config.arch, seed=1))
        save_signal_csv(tmp_path / "sig.csv", generate_ppg(WAKEFUL_PRESET, 16.0, 100, seed=5))
        assert main(["assess", "--model", str(tmp_path / "model.json"), "--signal",
                     str(tmp_path / "sig.csv"), "--config", str(cfg_path), "--window-s", "8"]) == 0
        windows = json.loads(capsys.readouterr().out)["windows"]
        assert len(windows) == 2
        model, sig = load_model(tmp_path / "model.json"), load_signal_csv(tmp_path / "sig.csv")
        for w in windows:
            chunk = sig.samples[round(w["start_s"] * sig.fs) : round(w["end_s"] * sig.fs)]
            stack = hyper_filter(PpgSignal(chunk, sig.fs, sig.label), config.bands)
            verdict = assess_window(model, pattern_signals(stack))
            assert (w["score"], w["label"]) == (verdict.score, verdict.label.value)

    def test_salient_cli(self, tmp_path, capsys):
        boxes_path = tmp_path / "boxes.json"
        save_boxes(boxes_path, [BoundingBox(0, 0, 5, 10), BoundingBox(0, 0, 3, 3)])
        rc = main(["salient", "--boxes", str(boxes_path), "--min-height", "8", "--min-width", "8"])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert result["n_salient"] == 1
        assert result["boxes"][0]["h"] == 10

    def test_miou_cli(self, tmp_path, capsys):
        gt = np.zeros((10, 15), dtype=int)
        gt[:, :10] = 1
        pred = np.zeros((10, 15), dtype=int)
        pred[:5, :10] = 1
        save_mask_pgm(tmp_path / "gt.pgm", gt)
        save_mask_pgm(tmp_path / "pred.pgm", pred)
        rc = main(["miou", "--pred", str(tmp_path / "pred.pgm"), "--gt", str(tmp_path / "gt.pgm"), "--classes", "2"])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert result["miou"] == 0.5

    def test_rcca_check_cli(self, capsys):
        rc = main(["rcca-check", "--height", "3", "--width", "4", "--channels", "4", "--seed", "0"])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert result["single_pass_cross_only"] is True
        assert result["double_pass_full_context"] is True

    def test_missing_file_gives_json_error(self, tmp_path, capsys):
        rc = main(["eval", "--model", str(tmp_path / "nope.json"), "--dataset", str(tmp_path / "nope.csv")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and err["error"]["message"]

    def test_pipeline_error_reports_stage(self, tmp_path, capsys):
        cfg_path, _ = self.write_config(
            tmp_path, generation=GenerationConfig(duration_s=8.0, fs=100.0, n_per_class=0)
        )
        rc = main(["run", "--config", str(cfg_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["stage"] == "dataset"

    def test_run_then_rerun_same_bytes(self, tmp_path, capsys):
        cfg_path, config = self.write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path)]) == 0
        first = (tmp_path / "out" / "metrics.json").read_bytes()
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "metrics.json").read_bytes() == first

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg_path, config = self.write_config(tmp_path)
        assert main(["synth", "--config", str(cfg_path), "--seed", "99", "--out", str(tmp_path / "o99")]) == 0
        assert main(["synth", "--config", str(cfg_path), "--seed", "99", "--out", str(tmp_path / "o99b")]) == 0
        a = load_signal_csv(tmp_path / "o99" / "signals" / "drowsy_000.csv")
        b = load_signal_csv(tmp_path / "o99b" / "signals" / "drowsy_000.csv")
        assert np.array_equal(a.samples, b.samples)
        base = load_signal_csv(tmp_path / "o99" / "signals" / "drowsy_000.csv")
        assert main(["synth", "--config", str(cfg_path), "--seed", "100", "--out", str(tmp_path / "o100")]) == 0
        other = load_signal_csv(tmp_path / "o100" / "signals" / "drowsy_000.csv")
        assert not np.array_equal(base.samples, other.samples)
