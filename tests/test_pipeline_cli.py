import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from drowsemon.band_search import fisher_score
from drowsemon.cli import build_parser, entrypoint, main
from drowsemon.filterbank import (
    HyperFilterConfig,
    PatternDataset,
    hyper_filter,
    pattern_signals,
)
from drowsemon.persist import (
    FormatError,
    dump_json,
    load_dataset_csv,
    load_hyper_config,
    load_json,
    load_model,
    load_signal_csv,
    save_boxes,
    save_dataset_csv,
    save_hyper_config,
    save_mask_pgm,
    save_model,
    save_signal_csv,
)
from drowsemon.pipeline import (
    GenerationConfig,
    PipelineConfig,
    PipelineError,
    RunManifest,
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
from drowsemon.vision import BoundingBox, cc_attention


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

    def test_missing_schema_version_rejected(self):
        doc = config_to_dict(default_config())
        del doc["schema_version"]
        with pytest.raises(FormatError) as info:
            config_from_dict(doc)
        assert str(info.value) == "config: missing field 'schema_version'"

    @pytest.mark.parametrize(
        "version, message",
        [
            ("1", "config: schema_version: expected int, got str '1'"),
            (True, "config: schema_version: expected int, got bool True"),
        ],
    )
    def test_schema_version_must_be_an_integer(self, version, message):
        with pytest.raises(FormatError) as info:
            config_from_dict({"schema_version": version})
        assert str(info.value) == message

    def test_documents_carry_schema_version(self):
        assert config_to_dict(default_config())["schema_version"] == 1
        manifest = RunManifest(config_hash="h", status="ok", artifacts=[], metrics={}, timings={})
        assert manifest.to_dict()["schema_version"] == 1

    @pytest.mark.parametrize(
        "swapped, message",
        [
            (("drowsy", "wakeful"), "drowsy: preset must be labelled Drowsy, got Wakeful"),
            (("wakeful",), "wakeful: preset must be labelled Wakeful, got Drowsy"),
        ],
    )
    def test_swapped_preset_labels_rejected(self, swapped, message):
        generation = config_to_dict(default_config())["generation"]
        flip = {"Drowsy": "Wakeful", "Wakeful": "Drowsy"}
        doc = {name: {**generation[name], "label": flip[generation[name]["label"]]} for name in swapped}
        with pytest.raises(FormatError) as info:
            config_from_dict({"schema_version": 1, "generation": doc})
        assert str(info.value) == f"config: generation: {message}"

    def test_class_count_must_match_the_labels(self):
        doc = config_to_dict(default_config())
        doc["arch"]["n_classes"] = 3
        with pytest.raises(FormatError) as info:
            config_from_dict(doc)
        assert str(info.value) == "config: arch: n_classes must be 2 (Drowsy and Wakeful), got 3"

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

    def test_search_values_refused_at_load_even_when_disabled(self):
        doc = {"enabled": False, "epsilon": 5, "grid_hz": -1, "episodes": -3}
        with pytest.raises(FormatError, match=r"^config: search: grid_hz must be finite and > 0, got -1\.0$"):
            config_from_dict({"schema_version": 1, "search": doc})

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

    def test_negative_signal_count_refused_by_the_generation_config(self):
        with pytest.raises(ValueError, match=r"^n_per_class must be >= 0$"):
            GenerationConfig(n_per_class=-1)

    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed("synth", 7, 0, 1) == derive_seed("synth", 7, 0, 1)
        assert derive_seed("synth", 7, 0, 1) != derive_seed("synth", 7, 0, 2)
        assert derive_seed("train", 7) != derive_seed("init", 7)


class TestRunPipeline:
    def test_zero_signals_fails_at_synth_stage(self, tmp_path):
        config = replace(
            tiny_config(tmp_path / "run"),
            generation=GenerationConfig(duration_s=8.0, fs=100.0, n_per_class=0),
        )
        with pytest.raises(PipelineError, match="synth"):
            run_pipeline(config)
        manifest = load_json(tmp_path / "run" / "manifest.json")
        assert manifest["status"] == "failed"
        assert manifest["failed_stage"] == "synth"
        assert manifest["error"] == "config generates zero signals (n_per_class=0)"
        assert manifest["artifacts"] == ["config.json"]
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["config.json", "manifest.json"]

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
        values, labels = dataset.values, dataset.labels
        assert manifest.metrics["reward"] == fisher_score(values[labels == 0], values[labels == 1])

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
        values = np.loadtxt(out / "stack.csv", delimiter=",", comments="#")
        assert values.shape == (800, 3)

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

    def test_assess_minimum_window_on_default_layout(self, tmp_path, capsys):
        # 16.15 s is the shortest window the default layout's longest kernel
        # fits; 16.15 * 100 is 1614.999..., which must still give 1615 samples
        save_model(tmp_path / "model.json", init_model(ArchSpec(), seed=1))
        save_signal_csv(tmp_path / "sig.csv", generate_ppg(DROWSY_PRESET, 33.0, 100, seed=2))
        assert main(["assess", "--model", str(tmp_path / "model.json"), "--signal",
                     str(tmp_path / "sig.csv"), "--window-s", "16.15"]) == 0
        windows = json.loads(capsys.readouterr().out)["windows"]
        assert [(w["start_s"], w["end_s"]) for w in windows] == [(0.0, 16.15), (16.15, 32.3)]
        assert all(w["n_patterns"] >= 1 for w in windows)

    @pytest.mark.parametrize("window_s", ["inf", "nan", "1e307"])
    def test_assess_refuses_a_window_of_no_finite_length(self, tmp_path, capsys, window_s):
        save_model(tmp_path / "model.json", init_model(ArchSpec(), seed=1))
        save_signal_csv(tmp_path / "sig.csv", generate_ppg(DROWSY_PRESET, 8.0, 100, seed=2))
        assert main(["assess", "--model", str(tmp_path / "model.json"), "--signal",
                     str(tmp_path / "sig.csv"), "--window-s", window_s]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": {
                "message": f"window of {float(window_s)}s is not a finite number of samples at fs=100.0",
                "type": "ValueError",
            }
        }

    @pytest.mark.parametrize("window", [[], ["--window-s", "8"]], ids=["whole-signal", "window-s"])
    def test_assess_refuses_an_empty_signal(self, tmp_path, capsys, window):
        save_model(tmp_path / "model.json", init_model(ArchSpec(), seed=1))
        sig_path = tmp_path / "sig.csv"
        sig_path.write_text("# fs=100.0,label=\n")
        out = tmp_path / "out"
        assert main(["assess", "--model", str(tmp_path / "model.json"), "--signal", str(sig_path),
                     *window, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": {"message": f"signal {sig_path} holds 0 samples", "type": "ValueError"}
        }
        assert not out.exists()

    def test_assess_refuses_a_signal_shorter_than_one_window(self, tmp_path, capsys):
        save_model(tmp_path / "model.json", init_model(ArchSpec(), seed=1))
        save_signal_csv(tmp_path / "sig.csv", generate_ppg(DROWSY_PRESET, 8.0, 100, seed=2))
        out = tmp_path / "out"
        assert main(["assess", "--model", str(tmp_path / "model.json"), "--signal",
                     str(tmp_path / "sig.csv"), "--window-s", "20", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": {
                "message": "signal of 800 samples is shorter than one 2000-sample window",
                "type": "ValueError",
            }
        }
        assert not (out / "assessment.json").exists()

    def test_bands_file_drives_filter_and_assess(self, tmp_path, capsys):
        bands = HyperFilterConfig(((1.0, 10.0), (2.0, 8.0)), bands_per_layer=2)
        save_hyper_config(tmp_path / "bands.json", bands)
        sig = generate_ppg(WAKEFUL_PRESET, 16.0, 100, seed=5)
        save_signal_csv(tmp_path / "sig.csv", sig)
        n_channels = hyper_filter(sig, bands).n_channels
        assert bands != default_config().bands
        common = ["--signal", str(tmp_path / "sig.csv"), "--bands", str(tmp_path / "bands.json")]

        assert main(["filter", *common, "--out", str(tmp_path / "filtered")]) == 0
        assert json.loads(capsys.readouterr().out)["n_channels"] == n_channels
        stack = np.loadtxt(tmp_path / "filtered" / "stack.csv", delimiter=",", comments="#")
        assert stack.shape == (sig.samples.size, n_channels)
        assert load_hyper_config(tmp_path / "filtered" / "bands.json") == bands

        model = init_model(tiny_config(tmp_path).arch, seed=1)
        save_model(tmp_path / "model.json", model)
        assert main(["assess", "--model", str(tmp_path / "model.json"), *common, "--window-s", "8"]) == 0
        windows = json.loads(capsys.readouterr().out)["windows"]
        assert len(windows) == 2
        for w in windows:
            chunk = sig.samples[round(w["start_s"] * sig.fs) : round(w["end_s"] * sig.fs)]
            patterns = hyper_filter(PpgSignal(chunk, sig.fs, sig.label), bands).rows
            assert patterns.shape[1] == n_channels
            verdict = assess_window(model, patterns)
            assert (w["score"], w["label"], w["n_patterns"]) == (
                verdict.score, verdict.label.value, len(patterns)
            )

    def test_dataset_with_no_channel_column_is_refused(self, tmp_path, capsys):
        cfg_path, config = self.write_config(tmp_path)
        save_model(tmp_path / "model.json", init_model(config.arch, seed=1))
        ds = tmp_path / "ds.csv"
        ds.write_text("label\nDrowsy\nWakeful\n")
        runs = [
            ["eval", "--model", str(tmp_path / "model.json"), "--dataset", str(ds),
             "--out", str(tmp_path / "eval")],
            ["train", "--config", str(cfg_path), "--dataset", str(ds)],
        ]
        for argv in runs:
            assert main(argv) == 1, argv[0]
            captured = capsys.readouterr()
            assert captured.out == "", argv[0]
            assert json.loads(captured.err) == {
                "error": {"message": f"{ds}:1: header names no channel column", "type": "FormatError"}
            }, argv[0]
        assert not (tmp_path / "eval").exists() and not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, doc, error",
        [
            (
                "synth",
                {"generation": {"duration_s": 1e307}},
                ("ValueError", "duration_s * fs must be finite, got 1e+307 * 100.0"),
            ),
            ("run", {"train": {"lr": math.inf}}, ("FormatError", "{}: train: lr must be finite, got inf")),
            (
                "run",
                {"arch": {**config_to_dict(default_config())["arch"], "n_classes": 3}},
                ("FormatError", "{}: arch: n_classes must be 2 (Drowsy and Wakeful), got 3"),
            ),
            (
                "run",
                {"search": {"enabled": True, "epsilon": 5}},
                ("FormatError", "{}: search: epsilon must be in [0, 1], got 5.0"),
            ),
            (
                "search-bands",
                {"search": {"min_width_hz": math.inf}},
                ("FormatError", "{}: search: min_width_hz must be finite and >= grid_hz, got inf"),
            ),
            (
                "search-bands",
                {"search": {"min_width_hz": math.nan}},
                ("FormatError", "{}: search: min_width_hz must be finite and >= grid_hz, got nan"),
            ),
            (
                "search-bands",
                {"search": {"min_width_hz": 1e308}},
                ("FormatError",
                 "{}: search: no layer of min_width_hz=1e+308 fits the 1.0-10.0 Hz band on a 0.5 Hz grid"),
            ),
            (
                "search-bands",
                {"search": {"grid_hz": 5e-324}},
                ("FormatError",
                 "{}: search: grid_hz=5e-324 is too fine: the 1.0-10.0 Hz band has more steps than a float can hold"),
            ),
            (
                "synth",
                {"generation": {"n_per_class": 0}},
                ("ValueError", "config generates zero signals (n_per_class=0)"),
            ),
            (
                "search-bands",
                {"generation": {"n_per_class": 0}},
                ("ValueError", "config generates zero signals (n_per_class=0)"),
            ),
            (
                "run",
                {"generation": {"n_per_class": -1}},
                ("FormatError", "{}: generation: n_per_class must be >= 0"),
            ),
            ("run", {"pattern_stride": 0}, ("FormatError", "{}: pattern_stride must be >= 1, got 0")),
            ("run", {"train": {"lr": 0}}, ("FormatError", "{}: train: lr must be > 0, got 0.0")),
            ("run", {"train": {"beta2": 1.0}}, ("FormatError", "{}: train: betas must be in [0, 1)")),
            (
                "run",
                {"train": {"batch_size": 0}},
                ("FormatError", "{}: train: batch_size must be >= 1 and epochs >= 0"),
            ),
            (
                "run",
                {"train": {"weight_decay": -0.5}},
                ("FormatError", "{}: train: weight_decay must be >= 0"),
            ),
            (
                "run",
                {"generation": {"noise": {"baseline_wander_freq": -1.0}}},
                ("FormatError",
                 "{}: generation: noise: NoiseSpec.baseline_wander_freq must be finite and >= 0"),
            ),
            ("run", {"bands": {"layers": 3}}, ("FormatError", "{}: bands: layers: expected a list, got int")),
            (
                "run",
                {"generation": {"drowsy": {"label": "Sleepy"}}},
                ("FormatError", "{}: generation: drowsy: label: 'Sleepy' is not a valid Label"),
            ),
            (
                "build-dataset",
                {"generation": {"n_per_class": 0}},
                ("ValueError", "config generates zero signals (n_per_class=0)"),
            ),
        ],
    )
    def test_unusable_config_values_give_json_error(self, tmp_path, capsys, command, doc, error):
        # json.dumps writes math.inf as Infinity and math.nan as NaN, which json.loads reads back
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"schema_version": 1, **doc}))
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": {"message": error[1].format(cfg_path), "type": error[0]}}
        assert not (tmp_path / "out").exists()

    @staticmethod
    def input_files(tmp_path) -> dict[str, str]:
        """One file of each kind the file-reading commands take, good or bad."""
        files = {name: tmp_path / name for name in
                 ["model.json", "sig.csv", "empty.csv", "neg_fs.csv", "zero_fs.csv", "x_header.csv",
                  "boxes.json", "mask.pgm", "empty.pgm", "short.pgm", "x.pgm"]}
        save_model(files["model.json"], init_model(tiny_config(tmp_path).arch, seed=1))
        save_signal_csv(files["sig.csv"], generate_ppg(DROWSY_PRESET, 8.0, 100, seed=2))
        files["empty.csv"].write_text("")
        files["neg_fs.csv"].write_text("# fs=-5,label=Drowsy\n1.0\n")
        files["zero_fs.csv"].write_text("# fs=0,label=Drowsy\n1.0\n")
        files["x_header.csv"].write_text("x,c0\nDrowsy,1.0\n")
        save_boxes(files["boxes.json"], [BoundingBox(0, 0, 5, 10)])
        save_mask_pgm(files["mask.pgm"], np.eye(3, dtype=int))
        save_mask_pgm(files["empty.pgm"], np.zeros((0, 0), dtype=int))
        files["short.pgm"].write_text("P2\n4")
        files["x.pgm"].write_text("P2\n2 2\n1\n0 x\n1 0\n")
        return {name.replace(".", "_"): str(path) for name, path in files.items()}

    @pytest.mark.parametrize(
        "argv, error",
        [
            (
                ["assess", "--model", "{model_json}", "--signal", "{sig_csv}", "--window-s", "0.001"],
                ("ValueError", "window of 0.001s holds no samples at fs=100.0"),
            ),
            (
                ["assess", "--model", "{model_json}", "--signal", "{empty_csv}"],
                ("FormatError", "{empty_csv}:1: empty signal file"),
            ),
            (
                ["assess", "--model", "{model_json}", "--signal", "{neg_fs_csv}"],
                ("FormatError", "{neg_fs_csv}:1: expected a positive fs, got '-5'"),
            ),
            (
                ["assess", "--model", "{model_json}", "--signal", "{zero_fs_csv}"],
                ("FormatError", "{zero_fs_csv}:1: expected a positive fs, got '0'"),
            ),
            (
                ["eval", "--model", "{model_json}", "--dataset", "{empty_csv}"],
                ("FormatError", "{empty_csv}:1: empty dataset file"),
            ),
            (
                ["eval", "--model", "{model_json}", "--dataset", "{x_header_csv}"],
                ("FormatError", "{x_header_csv}:1: header must start with 'label'"),
            ),
            (
                ["salient", "--boxes", "{boxes_json}", "--min-height", "-1", "--min-width", "1"],
                ("ValueError", "thresholds must be >= 0"),
            ),
            (
                ["salient", "--boxes", "{boxes_json}", "--frame-height", "0", "--frame-width", "10"],
                ("ValueError", "frame dimensions must be >= 1"),
            ),
            (
                ["miou", "--pred", "{mask_pgm}", "--gt", "{mask_pgm}", "--classes", "0"],
                ("ValueError", "n_classes must be >= 1, got 0"),
            ),
            (
                ["miou", "--pred", "{empty_pgm}", "--gt", "{empty_pgm}", "--classes", "2"],
                ("ValueError", "masks contain no class to score"),
            ),
            (
                ["miou", "--pred", "{short_pgm}", "--gt", "{mask_pgm}", "--classes", "2"],
                ("FormatError", "{short_pgm}: truncated PGM header"),
            ),
            (
                ["miou", "--pred", "{x_pgm}", "--gt", "{mask_pgm}", "--classes", "2"],
                ("FormatError",
                 "{x_pgm}: non-integer PGM token (invalid literal for int() with base 10: 'x')"),
            ),
            (["rcca-check", "--channels", "0"], ("ValueError", "channels must be >= 1, got 0")),
            (
                ["rcca-check", "--height", "0"],
                ("ValueError", "feature map must be (H, W, C) with all dims >= 1, got (0, 5, 4)"),
            ),
        ],
    )
    def test_refused_inputs_give_one_line_json_error(self, tmp_path, capsys, argv, error):
        files = self.input_files(tmp_path)
        out = tmp_path / "out"
        assert main([arg.format(**files) for arg in argv] + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert json.loads(captured.err) == {
            "error": {"message": error[1].format(**files), "type": error[0]}
        }
        assert not out.exists()

    def test_salient_cli(self, tmp_path, capsys):
        boxes_path = tmp_path / "boxes.json"
        save_boxes(boxes_path, [BoundingBox(0, 0, 5, 10), BoundingBox(0, 0, 3, 3)])
        rc = main(["salient", "--boxes", str(boxes_path), "--min-height", "8", "--min-width", "8"])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert result["n_salient"] == 1
        assert result["boxes"][0]["h"] == 10

    def test_salient_cli_derives_thresholds_from_the_frame(self, tmp_path, capsys):
        boxes_path = tmp_path / "boxes.json"
        # the third box only reaches the 15 x 10 thresholds, which must be exceeded
        boxes = [BoundingBox(0, 0, 5, 20), BoundingBox(0, 0, 12, 3), BoundingBox(0, 0, 10, 15),
                 BoundingBox(0, 0, 4, 4)]
        save_boxes(boxes_path, boxes)
        assert main(["salient", "--boxes", str(boxes_path), "--frame-height", "100",
                     "--frame-width", "200"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert (result["min_height"], result["min_width"]) == (15.0, 10.0)
        assert (result["n_input"], result["n_salient"]) == (4, 2)
        assert result["boxes"] == [{"x": 0, "y": 0, "w": 5, "h": 20}, {"x": 0, "y": 0, "w": 12, "h": 3}]

    @pytest.mark.parametrize(
        "flags",
        [
            ["--min-height", "60", "--frame-height", "100", "--frame-width", "100"],
            ["--min-height", "8", "--min-width", "8", "--frame-width", "100"],
            ["--min-height", "8"],
            [],
        ],
    )
    def test_salient_refuses_anything_but_one_complete_pair(self, tmp_path, capsys, flags):
        boxes_path = tmp_path / "boxes.json"
        save_boxes(boxes_path, [BoundingBox(0, 0, 5, 10)])
        assert main(["salient", "--boxes", str(boxes_path), *flags]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": {
                "message": "give either --min-height and --min-width, "
                "or --frame-height and --frame-width",
                "type": "ValueError",
            }
        }

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

    def test_rcca_check_reports_a_failing_pass(self, capsys, monkeypatch):
        argv = ["rcca-check", "--height", "3", "--width", "4", "--channels", "4"]
        # a pass that adds the map's global mean lets every position reach every other
        leaky = lambda x, weights: cc_attention(x, weights) + x.mean()  # noqa: E731
        monkeypatch.setattr("drowsemon.cli.cc_attention", leaky)
        assert main(argv) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["single_pass_cross_only"] is False
        assert result["single_pass_max_off_cross_influence"] > 0
        assert result["double_pass_full_context"] is True
        monkeypatch.undo()
        # two passes that change nothing leave a bump at its own position only
        monkeypatch.setattr("drowsemon.cli.rcca", lambda x, weights, steps: x)
        assert main(argv) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["single_pass_cross_only"] is True
        assert result["double_pass_full_context"] is False

    def test_result_commands_print_the_document_they_save(self, tmp_path, capsys):
        cfg_path, config = self.write_config(tmp_path)
        save_model(tmp_path / "model.json", init_model(config.arch, seed=1))
        save_signal_csv(tmp_path / "sig.csv", generate_ppg(WAKEFUL_PRESET, 8.0, 100, seed=5))
        values = np.random.default_rng(0).normal(size=(6, 3))
        save_dataset_csv(tmp_path / "ds.csv", PatternDataset(values, np.array([0, 1] * 3)))
        save_boxes(tmp_path / "boxes.json", [BoundingBox(0, 0, 5, 10), BoundingBox(0, 0, 3, 3)])
        save_mask_pgm(tmp_path / "mask.pgm", np.eye(4, dtype=int))
        commands = {
            "metrics.json": ["eval", "--model", str(tmp_path / "model.json"),
                             "--dataset", str(tmp_path / "ds.csv")],
            "assessment.json": ["assess", "--model", str(tmp_path / "model.json"),
                                "--signal", str(tmp_path / "sig.csv"), "--config", str(cfg_path)],
            "salient.json": ["salient", "--boxes", str(tmp_path / "boxes.json"),
                             "--min-height", "8", "--min-width", "4"],
            "miou.json": ["miou", "--pred", str(tmp_path / "mask.pgm"), "--gt", str(tmp_path / "mask.pgm"),
                          "--classes", "2"],
            "rcca_check.json": ["rcca-check", "--height", "2", "--width", "3", "--channels", "2"],
        }
        for name, argv in commands.items():
            out = tmp_path / name.removesuffix(".json")
            assert main([*argv, "--out", str(out)]) == 0, name
            printed = capsys.readouterr().out
            assert printed.startswith("{\n  "), name
            assert json.loads(printed) == load_json(out / name), name
            assert [p.name for p in out.iterdir()] == [name]

    def test_summary_commands_print_one_line(self, tmp_path, capsys):
        search = SearchConfig(grid_hz=3.0, min_width_hz=6.0, episodes=2, steps_per_episode=2)
        cfg_path, _ = self.write_config(tmp_path, search=search)
        out = tmp_path / "out"
        runs = [
            ["synth", "--config", str(cfg_path)],
            ["filter", "--signal", str(out / "signals" / "drowsy_000.csv"), "--config", str(cfg_path),
             "--out", str(tmp_path / "filtered")],
            ["search-bands", "--config", str(cfg_path)],
            ["build-dataset", "--config", str(cfg_path)],
            ["train", "--config", str(cfg_path), "--dataset", str(out / "dataset.csv")],
            ["run", "--config", str(cfg_path), "--out", str(tmp_path / "run")],
        ]
        for argv in runs:
            assert main(argv) == 0, argv[0]
            printed = capsys.readouterr().out
            assert printed.endswith("}\n") and printed.count("\n") == 1, argv[0]
            assert "out_dir" in json.loads(printed)

    def test_entrypoint_exits_with_mains_code(self, tmp_path, capsys, monkeypatch):
        save_boxes(tmp_path / "boxes.json", [BoundingBox(0, 0, 5, 10)])
        for flags, code in ((["--min-height", "8", "--min-width", "4"], 0), (["--min-height", "8"], 1)):
            argv = ["drowsemon", "salient", "--boxes", str(tmp_path / "boxes.json"), *flags]
            monkeypatch.setattr(sys, "argv", argv)
            with pytest.raises(SystemExit) as info:
                entrypoint()
            assert info.value.code == code
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "ValueError"

    def test_missing_file_gives_json_error(self, tmp_path, capsys):
        rc = main(["eval", "--model", str(tmp_path / "nope.json"), "--dataset", str(tmp_path / "nope.csv")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and err["error"]["message"]

    def test_out_naming_a_file_is_refused_before_the_handler_runs(self, tmp_path, capsys, monkeypatch):
        cfg_path, config = self.write_config(tmp_path)
        save_model(tmp_path / "model.json", init_model(config.arch, seed=1))
        save_signal_csv(tmp_path / "sig.csv", generate_ppg(DROWSY_PRESET, 8.0, 100, seed=0))
        save_dataset_csv(tmp_path / "ds.csv", PatternDataset(np.zeros((2, 3)), np.array([0, 1])))
        calls = []
        monkeypatch.setattr("drowsemon.cli.hyper_filter", lambda *a: calls.append(a))
        taken = tmp_path / "taken.txt"
        taken.write_text("keep me\n")
        runs = [
            ["eval", "--model", str(tmp_path / "model.json"), "--dataset", str(tmp_path / "ds.csv")],
            ["filter", "--signal", str(tmp_path / "sig.csv"), "--config", str(cfg_path)],
        ]
        for argv in runs:
            assert main([*argv, "--out", str(taken)]) == 1, argv[0]
            captured = capsys.readouterr()
            assert captured.out == "", argv[0]
            assert captured.err.count("\n") == 1, argv[0]
            assert json.loads(captured.err) == {
                "error": {
                    "type": "NotADirectoryError",
                    "message": f"--out {taken} exists and is not a directory",
                }
            }, argv[0]
        assert calls == []
        assert taken.read_text() == "keep me\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "ds.csv", "model.json", "sig.csv", "taken.txt"
        ]

    def test_pipeline_error_reports_stage(self, tmp_path, capsys):
        cfg_path, _ = self.write_config(
            tmp_path, generation=GenerationConfig(duration_s=8.0, fs=100.0, n_per_class=0)
        )
        rc = main(["run", "--config", str(cfg_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {
            "error": {
                "message": "stage 'synth' failed: config generates zero signals (n_per_class=0)",
                "stage": "synth",
                "type": "PipelineError",
            }
        }

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
