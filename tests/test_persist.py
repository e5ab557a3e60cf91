import json

import numpy as np
import pytest

from drowsemon.filterbank import (
    HyperFilterConfig,
    PatternDataset,
    hyper_filter,
    pattern_signals,
)
from drowsemon.persist import (
    FormatError,
    load_boxes,
    load_dataset_csv,
    load_hyper_config,
    load_mask_pgm,
    load_model,
    load_signal_csv,
    save_boxes,
    save_dataset_csv,
    save_hyper_config,
    save_mask_pgm,
    save_model,
    save_signal_csv,
    save_stack_csv,
)
from drowsemon.signal_gen import DROWSY_PRESET, INDEX_LABEL, Label, PpgSignal, generate_ppg
from drowsemon.tdcnn import ArchSpec, forward, init_model, model_arrays
from drowsemon.filterbank import PatternSignal
from drowsemon.vision import BoundingBox


@pytest.fixture
def signal():
    return generate_ppg(DROWSY_PRESET, 8.0, 100, seed=1)


class TestSignalRoundTrip:
    def test_csv_bitwise(self, tmp_path, signal):
        path = tmp_path / "sig.csv"
        save_signal_csv(path, signal)
        loaded = load_signal_csv(path)
        assert np.array_equal(loaded.samples, signal.samples)
        assert loaded.fs == signal.fs and loaded.label is signal.label

    def test_csv_unlabeled(self, tmp_path):
        sig = PpgSignal(np.array([1.5, -2.25, 0.1]), fs=50.0)
        path = tmp_path / "sig.csv"
        save_signal_csv(path, sig)
        loaded = load_signal_csv(path)
        assert loaded.label is None
        assert np.array_equal(loaded.samples, sig.samples)

    def test_bad_header_reports_line(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("fs=100\n1.0\n")
        with pytest.raises(FormatError, match=r"sig\.csv:1"):
            load_signal_csv(path)

    def test_bad_sample_reports_line(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("# fs=100.0,label=\n1.0\nnot-a-number\n")
        with pytest.raises(FormatError, match=r"sig\.csv:3"):
            load_signal_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# fs=abc,label=Drowsy\n1.0\n", "sig.csv:1: expected a number, got 'abc'"),
            ("# fs=100.0,label=Sleepy\n1.0\n", "sig.csv:1: unknown label 'Sleepy'"),
            ("# fs=100.0,label=Drowsy\n1.0\n\nx\n", "sig.csv:4: expected a number, got 'x'"),
            # a sample's line counts the blank lines before it
            ("# fs=100.0,label=Drowsy\n\n1.0\n\n\n2.0\n \ny\n3.0\n",
             "sig.csv:8: expected a number, got 'y'"),
            # a non-finite sample is refused where it is read, not by PpgSignal
            ("# fs=100.0,label=\n1.0\nnan\n2.0\n", "sig.csv:3: expected a finite number, got 'nan'"),
            ("# fs=inf,label=\n1.0\n", "sig.csv:1: expected a finite number, got 'inf'"),
            # so is a sampling rate of zero or below
            ("# fs=-5,label=Drowsy\n1.0\n", "sig.csv:1: expected a positive fs, got '-5'"),
            ("# fs=0,label=Drowsy\n1.0\n", "sig.csv:1: expected a positive fs, got '0'"),
        ],
    )
    def test_error_message_exact(self, tmp_path, text, message):
        path = tmp_path / "sig.csv"
        path.write_text(text)
        with pytest.raises(FormatError) as info:
            load_signal_csv(path)
        assert str(info.value) == f"{tmp_path}/{message}"


class TestHyperConfigRoundTrip:
    def test_round_trip(self, tmp_path):
        config = HyperFilterConfig(((1.0, 10.0), (2.5, 7.5)), bands_per_layer=5)
        path = tmp_path / "bands.json"
        save_hyper_config(path, config)
        assert load_hyper_config(path) == config

    def test_documented_shape(self, tmp_path):
        path = tmp_path / "bands.json"
        save_hyper_config(path, HyperFilterConfig(((1.0, 10.0),)))
        text = path.read_text()
        assert '"bands_per_layer": 11' in text
        assert '"f_lo": 1.0' in text

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bands.json"
        path.write_text('{"layers": [{"f_lo": 1.0}]}\n')
        with pytest.raises(FormatError, match="f_hi"):
            load_hyper_config(path)


class TestStackRoundTrip:
    def test_values_exact(self, tmp_path, signal):
        stack = hyper_filter(signal, HyperFilterConfig(((1.0, 10.0),), bands_per_layer=3))
        path = tmp_path / "stack.csv"
        save_stack_csv(path, stack)
        lines = path.read_text().splitlines()
        assert lines[0] == "# fs=100.0,label=Drowsy"
        assert lines[1 : 1 + stack.n_channels] == [
            f"# channel={i},layer={m.layer},band={m.band},f_lo={m.f_lo!r},f_hi={m.f_hi!r},taps={m.taps}"
            for i, m in enumerate(stack.channel_meta)
        ]
        values = np.loadtxt(path, delimiter=",", comments="#")
        assert np.array_equal(values, stack.channels.T)  # repr round-trip is exact


class TestWrittenValueText:
    # negative zero, the smallest subnormal, a large exponent and ordinary values
    VALUES = [-0.0, 5e-324, 1e300, 0.1, -2.5, 1.0, 123456.789]

    def expected(self):
        return [repr(float(v)) for v in self.VALUES]

    def test_signal_csv(self, tmp_path):
        path = tmp_path / "signal.csv"
        save_signal_csv(path, PpgSignal(np.array(self.VALUES), fs=100.0, label=Label.DROWSY))
        assert path.read_text().splitlines()[1:] == self.expected()

    def test_stack_csv(self, tmp_path, signal):
        stack = hyper_filter(signal, HyperFilterConfig(((1.0, 10.0),), bands_per_layer=3))
        stack.channels = np.tile(self.VALUES, (stack.n_channels, 1))
        path = tmp_path / "stack.csv"
        save_stack_csv(path, stack)
        rows = path.read_text().splitlines()[1 + stack.n_channels :]
        assert rows == [",".join([v] * stack.n_channels) for v in self.expected()]

    def test_dataset_csv(self, tmp_path):
        path = tmp_path / "dataset.csv"
        save_dataset_csv(path, PatternDataset(np.array([self.VALUES]), np.array([0])))
        assert path.read_text().splitlines()[1] == ",".join([INDEX_LABEL[0].value, *self.expected()])


class TestDatasetRoundTrip:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        dataset = PatternDataset(rng.normal(size=(12, 5)), rng.integers(0, 2, size=12))
        # negative zero, the smallest subnormal and the largest exponents
        dataset.values[3, 1:] = [-0.0, 5e-324, 1e308, -1e308]
        path = tmp_path / "dataset.csv"
        save_dataset_csv(path, dataset)
        loaded = load_dataset_csv(path)
        assert np.array_equal(loaded.values, dataset.values)
        assert np.array_equal(loaded.labels, dataset.labels)
        assert loaded.values.tobytes() == dataset.values.tobytes()  # the sign of zero too

    def test_unknown_label_reports_line(self, tmp_path):
        path = tmp_path / "dataset.csv"
        path.write_text("label,c0\nDrowsy,1.0\nNapping,2.0\n")
        with pytest.raises(FormatError, match=r"dataset\.csv:3"):
            load_dataset_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("label,c0\nDrowsy,1.0\nSleepy,2.0\n", "dataset.csv:3: unknown label 'Sleepy'"),
            ("label,c0\nDrowsy,1.0\n,2.0\n", "dataset.csv:3: dataset rows need a class label"),
            ("label,c0,c1\nDrowsy,1.0,2.0\nWakeful,1.0,zz\n",
             "dataset.csv:3: expected a number, got 'zz'"),
            ("label,c0,c1\nDrowsy,1.0\n", "dataset.csv:2: row has 2 fields, expected 3"),
            ("label,c0,c1\nDrowsy,1.0,2.0\n\nWakeful,3.0,4.0\nDrowsy,5.0,bad\n",
             "dataset.csv:5: expected a number, got 'bad'"),
            ("label\nDrowsy\n", "dataset.csv:1: header names no channel column"),
            ("label,c0,c1\nWakeful,1.0,-inf\n", "dataset.csv:2: expected a finite number, got '-inf'"),
        ],
    )
    def test_error_message_exact(self, tmp_path, text, message):
        path = tmp_path / "dataset.csv"
        path.write_text(text)
        with pytest.raises(FormatError) as info:
            load_dataset_csv(path)
        assert str(info.value) == f"{tmp_path}/{message}"

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "dataset.csv"
        path.write_text("label,c0\n")
        with pytest.raises(FormatError, match="no rows"):
            load_dataset_csv(path)


class TestModelRoundTrip:
    def test_forward_bitwise_after_reload(self, tmp_path):
        arch = ArchSpec(n_blocks=2, kernel_size=3, channels=4, dilation_schedule=(2, 4))
        model = init_model(arch, seed=9)
        path = tmp_path / "model.json"
        save_model(path, model)
        loaded = load_model(path)
        for a, b in zip(model_arrays(model), model_arrays(loaded)):
            assert np.array_equal(a, b)
        pattern = PatternSignal(np.random.default_rng(2).normal(size=16))
        assert np.array_equal(forward(model, pattern), forward(loaded, pattern))

    def test_truncated_file_is_parse_error(self, tmp_path):
        arch = ArchSpec(n_blocks=2, kernel_size=3, channels=4, dilation_schedule=(2, 4))
        path = tmp_path / "model.json"
        save_model(path, init_model(arch, seed=0))
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(FormatError, match="JSON"):
            load_model(path)

    def test_weight_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, init_model(ArchSpec(), seed=0))
        obj = json.loads(path.read_text())
        obj["weights"] = obj["weights"][:-1]
        path.write_text(json.dumps(obj))
        with pytest.raises(FormatError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: expected 9122 weights, got 9121"

    @pytest.mark.parametrize("index, text", [(0, "nan"), (9121, "inf")])
    def test_non_finite_weight_refused(self, tmp_path, index, text):
        # a nan weight would score every row nan, which reads as Drowsy
        path = tmp_path / "model.json"
        save_model(path, init_model(ArchSpec(), seed=0))  # 9,122 weights
        obj = json.loads(path.read_text())
        obj["weights"][index] = text
        path.write_text(json.dumps(obj))
        with pytest.raises(FormatError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: weights[{index}]: expected a finite number, got {text!r}"

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda obj: obj.update(optimizer="adam"), "unknown field 'optimizer'"),
            (lambda obj: obj.update(schema_version=2), "unsupported schema_version 2"),
            (lambda obj: obj.pop("schema_version"), "missing field 'schema_version'"),
            (lambda obj: obj.update(weights=[float(w) for w in obj["weights"]]),
             r"weights\[0\]: expected str, got float"),
            (lambda obj: obj["weights"].__setitem__(7, 0.5),
             r"weights\[7\]: expected str, got float 0\.5$"),
            (lambda obj: obj["weights"].__setitem__(5, "abc"),
             r"weights\[5\]: expected a number, got 'abc'$"),
            (lambda obj: obj["weights"].__setitem__(-1, "1.0.0"),
             r"weights\[9121\]: expected a number, got '1\.0\.0'$"),
            (lambda obj: obj["weights"].__setitem__(5, None),
             r"weights\[5\]: expected str, got NoneType None$"),
            (lambda obj: obj.update(schema_version="1"),
             r"schema_version: expected int, got str '1'$"),
        ],
        ids=["unknown-key", "schema-version-2", "no-schema-version", "numeric-weights",
             "one-numeric-weight", "unparsable-weight", "unparsable-last-weight", "null-weight",
             "string-schema-version"],
    )
    def test_lenient_checkpoint_refused(self, tmp_path, change, message):
        path = tmp_path / "model.json"
        save_model(path, init_model(ArchSpec(), seed=0))  # 9,122 weights
        obj = json.loads(path.read_text())
        change(obj)
        path.write_text(json.dumps(obj))
        with pytest.raises(FormatError, match=rf"model\.json: {message}"):
            load_model(path)


class TestBoxesAndMasks:
    def test_boxes_round_trip(self, tmp_path):
        boxes = [BoundingBox(0, 1, 5.5, 9.25), BoundingBox(3, 4, 1, 1)]
        path = tmp_path / "boxes.json"
        save_boxes(path, boxes)
        assert load_boxes(path) == boxes

    def test_invalid_box_rejected(self, tmp_path):
        path = tmp_path / "boxes.json"
        path.write_text('{"boxes": [{"x": 0, "y": 0, "w": 0, "h": 3}]}\n')
        with pytest.raises(FormatError, match=r"boxes\[0\]"):
            load_boxes(path)

    def test_mistyped_box_rejected(self, tmp_path):
        path = tmp_path / "boxes.json"
        path.write_text('{"boxes": [{"x": 0, "y": 0, "w": "2", "h": 3}]}\n')
        with pytest.raises(FormatError, match=r"boxes\[0\]: w: expected float, got str"):
            load_boxes(path)

    def test_mistyped_box_named_by_index(self, tmp_path):
        path = tmp_path / "boxes.json"
        path.write_text('{"boxes": [{"x": 0, "y": 0, "w": 1, "h": 1}, {"x": 0, "y": 0, "w": "2", "h": 3}]}\n')
        with pytest.raises(FormatError) as info:
            load_boxes(path)
        assert str(info.value) == f"{path}: boxes[1]: w: expected float, got str '2'"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "boxes.json"
        save_boxes(path, [BoundingBox(0, 1, 5.5, 9.25)])
        obj = json.loads(path.read_text())
        obj["frame"] = [480, 640]
        path.write_text(json.dumps(obj))
        with pytest.raises(FormatError, match=r"boxes\.json: unknown field 'frame'"):
            load_boxes(path)

    def test_mask_round_trip(self, tmp_path):
        mask = np.array([[0, 1, 2], [2, 1, 0]])
        path = tmp_path / "mask.pgm"
        save_mask_pgm(path, mask)
        assert np.array_equal(load_mask_pgm(path), mask)

    def test_truncated_mask_rejected(self, tmp_path):
        path = tmp_path / "mask.pgm"
        path.write_text("P2\n3 2\n2\n0 1 2 2\n")
        with pytest.raises(FormatError, match="expected 6 pixels"):
            load_mask_pgm(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "mask.pgm"
        path.write_text("P5\n2 2\n1\n0 0 0 0\n")
        with pytest.raises(FormatError, match="P2"):
            load_mask_pgm(path)
