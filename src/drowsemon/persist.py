"""File formats for every persistent value type.

All reals are written as shortest round-trip decimal strings (``repr``),
so load(save(x)) reproduces bit-identical doubles. JSON documents are
emitted with sorted keys and a trailing newline, which makes artifact
files byte-stable across runs.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import MISSING, astuple, dataclass, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .filterbank import ChannelMeta, FilteredStack, HyperFilterConfig, PatternDataset
from .signal_gen import INDEX_LABEL, LABEL_INDEX, Label, PpgSignal
from .tdcnn import ArchSpec, TdcnnModel, TrainParams, init_model, model_arrays
from .vision import BoundingBox

__all__ = [
    "FormatError",
    "dump_json",
    "load_json",
    "dataclass_to_dict",
    "dataclass_from_dict",
    "save_signal_csv",
    "load_signal_csv",
    "save_hyper_config",
    "load_hyper_config",
    "save_stack_csv",
    "load_stack_csv",
    "save_dataset_csv",
    "load_dataset_csv",
    "save_model",
    "load_model",
    "save_boxes",
    "load_boxes",
    "save_mask_pgm",
    "load_mask_pgm",
]


class FormatError(ValueError):
    """Malformed persistent file; the message carries file and position."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _parse_float(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise FormatError(f"{where}: expected a number, got {text!r}") from exc


def _parse_label(text: str, where: str) -> Label | None:
    if text == "":
        return None
    try:
        return Label(text)
    except ValueError as exc:
        raise FormatError(f"{where}: unknown label {text!r}") from exc


def dump_json(path: str | Path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def load_json(path: str | Path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise FormatError(f"{where}: missing field {key!r}")
    return obj[key]


# ---------------------------------------------------------------------------
# Dataclass documents
# ---------------------------------------------------------------------------

# An architecture is stated in full wherever it is stored: a default filled
# in silently would build a network that the stored weights do not fit.
_WHOLE = (ArchSpec,)
# The pipeline derives the training seed from the config seed, so documents
# leave it out and decoding keeps the dataclass default.
_DERIVED = (TrainParams, "seed")
# Band layers are (f_lo, f_hi) pairs in code and {"f_lo", "f_hi"} objects in
# documents.
_LAYERS = (HyperFilterConfig, "layers")


# The JSON values each scalar field type accepts; str and enum fields accept
# strings. An integer is a valid float and nothing else is converted: a string
# is truthy and int() truncates, so a mistyped value would run a different
# experiment. Python's bool is an int, so bools are told apart by type.
_JSON_TYPES = {bool: bool, int: int, float: (int, float)}


@dataclass(frozen=True)
class _Layer:
    f_lo: float
    f_hi: float


def dataclass_to_dict(value):
    """JSON form of a value: a dataclass becomes an object with one key per
    field, an enum its value, a tuple a list; anything else is kept."""
    if is_dataclass(value):
        doc = {}
        for f in fields(value):
            key = (type(value), f.name)
            if key == _DERIVED:
                continue
            item = getattr(value, f.name)
            if key == _LAYERS:
                item = tuple(_Layer(*pair) for pair in item)
            doc[f.name] = dataclass_to_dict(item)
        return doc
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [dataclass_to_dict(v) for v in value]
    return value


def dataclass_from_dict(cls, doc, where: str, base=None):
    """Build dataclass ``cls`` from its JSON form, converting each field to
    its annotated type.

    A field missing from ``doc`` takes its value from ``base`` or, without
    one, its default. A field with no default, and every field of an
    architecture, must be present. A key that names no field is refused.
    """
    if not isinstance(doc, dict):
        raise FormatError(f"{where}: expected an object, got {type(doc).__name__}")
    known = [f for f in fields(cls) if (cls, f.name) != _DERIVED]
    names = {f.name for f in known}
    for key in doc:
        if key not in names:
            raise FormatError(f"{where}: unknown field {key!r}")
    hints = get_type_hints(cls)
    values = {}
    for f in known:
        at = f"{where}: {f.name}"
        if f.name in doc and (cls, f.name) == _LAYERS:
            layers = _from_json(doc[f.name], tuple[_Layer, ...], at, None)
            values[f.name] = tuple(astuple(layer) for layer in layers)
        elif f.name in doc:
            inner = getattr(base, f.name) if base is not None else None
            values[f.name] = _from_json(doc[f.name], hints[f.name], at, inner)
        elif f.default is MISSING or cls in _WHOLE:
            raise FormatError(f"{where}: missing field {f.name!r}")
        elif base is not None:
            values[f.name] = getattr(base, f.name)
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{where}: {exc}") from exc


def _from_json(value, hint, where: str, base):
    if is_dataclass(hint):
        return dataclass_from_dict(hint, value, where, base)
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise FormatError(f"{where}: expected a list, got {type(value).__name__}")
        item = get_args(hint)[0]
        return tuple(_from_json(v, item, f"{where}[{i}]", None) for i, v in enumerate(value))
    accepted = _JSON_TYPES.get(hint, str)
    if isinstance(value, bool) != (hint is bool) or not isinstance(value, accepted):
        raise FormatError(f"{where}: expected {hint.__name__}, got {type(value).__name__} {value!r}")
    try:
        return hint(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# Signals
# ---------------------------------------------------------------------------


def _sample_header(fs: float, label: Label | None) -> str:
    """First line of a signal or stack CSV: '# fs=<hz>,label=<name>'."""
    return f"# fs={_fmt(fs)},label={label.value if label is not None else ''}"


def _read_sample_header(path, lines: list[str], kind: str) -> tuple[float, Label | None]:
    """``fs`` and label from the first of ``lines`` of a ``kind`` file."""
    if not lines:
        raise FormatError(f"{path}:1: empty {kind} file")
    match = re.fullmatch(r"#\s*fs=([^,]+),label=(.*)", lines[0].strip())
    if not match:
        raise FormatError(f"{path}:1: expected header '# fs=<hz>,label=<name>'")
    return _parse_float(match.group(1), f"{path}:1"), _parse_label(match.group(2), f"{path}:1")


def save_signal_csv(path: str | Path, signal: PpgSignal) -> None:
    """Header comment line '# fs=<hz>,label=<name>' then one sample per row."""
    lines = [_sample_header(signal.fs, signal.label)]
    lines.extend(_fmt(v) for v in signal.samples)
    Path(path).write_text("\n".join(lines) + "\n")


def load_signal_csv(path: str | Path) -> PpgSignal:
    lines = Path(path).read_text().splitlines()
    fs, label = _read_sample_header(path, lines, "signal")
    samples = []
    for lineno, line in enumerate(lines[1:], start=2):
        text = line.strip()
        if not text:
            continue
        samples.append(_parse_float(text, f"{path}:{lineno}"))
    return PpgSignal(np.array(samples), fs=fs, label=label)


# ---------------------------------------------------------------------------
# Hyper-filter configuration
# ---------------------------------------------------------------------------


def save_hyper_config(path: str | Path, config: HyperFilterConfig) -> None:
    dump_json(path, dataclass_to_dict(config))


def load_hyper_config(path: str | Path) -> HyperFilterConfig:
    return dataclass_from_dict(HyperFilterConfig, load_json(path), str(path))


# ---------------------------------------------------------------------------
# Filtered stacks
# ---------------------------------------------------------------------------


def save_stack_csv(path: str | Path, stack: FilteredStack) -> None:
    """Comment lines carry fs/label and per-channel band metadata; data rows
    hold one sample per row with one column per channel."""
    lines = [_sample_header(stack.fs, stack.label)]
    for i, m in enumerate(stack.channel_meta):
        lines.append(
            f"# channel={i},layer={m.layer},band={m.band},"
            f"f_lo={_fmt(m.f_lo)},f_hi={_fmt(m.f_hi)},taps={m.taps}"
        )
    for row in stack.channels.T:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_stack_csv(path: str | Path) -> FilteredStack:
    lines = Path(path).read_text().splitlines()
    fs, label = _read_sample_header(path, lines, "stack")

    meta: list[ChannelMeta] = []
    rows: list[list[float]] = []
    meta_re = re.compile(
        r"#\s*channel=(\d+),layer=(\d+),band=(\d+),f_lo=([^,]+),f_hi=([^,]+),taps=(\d+)"
    )
    for lineno, line in enumerate(lines[1:], start=2):
        text = line.strip()
        if not text:
            continue
        if text.startswith("#"):
            m = meta_re.fullmatch(text)
            if not m:
                raise FormatError(f"{path}:{lineno}: malformed channel metadata line")
            meta.append(
                ChannelMeta(
                    layer=int(m.group(2)),
                    band=int(m.group(3)),
                    f_lo=_parse_float(m.group(4), f"{path}:{lineno}"),
                    f_hi=_parse_float(m.group(5), f"{path}:{lineno}"),
                    taps=int(m.group(6)),
                )
            )
            continue
        values = [_parse_float(v, f"{path}:{lineno}") for v in text.split(",")]
        if len(values) != len(meta):
            raise FormatError(
                f"{path}:{lineno}: row has {len(values)} columns, expected {len(meta)}"
            )
        rows.append(values)
    if not meta or not rows:
        raise FormatError(f"{path}: stack file holds no channels or no samples")
    return FilteredStack(np.array(rows).T, meta, fs=fs, label=label)


# ---------------------------------------------------------------------------
# Pattern datasets
# ---------------------------------------------------------------------------


def save_dataset_csv(path: str | Path, dataset: PatternDataset) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["label"] + [f"c{i}" for i in range(dataset.n_channels)])
        for row, label in zip(dataset.values, dataset.labels):
            writer.writerow([INDEX_LABEL[int(label)].value] + [_fmt(v) for v in row])


def load_dataset_csv(path: str | Path) -> PatternDataset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}:1: empty dataset file") from None
        if not header or header[0] != "label":
            raise FormatError(f"{path}:1: header must start with 'label'")
        n_channels = len(header) - 1
        values, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n_channels + 1:
                raise FormatError(
                    f"{path}:{lineno}: row has {len(row)} fields, expected {n_channels + 1}"
                )
            label = _parse_label(row[0], f"{path}:{lineno}")
            if label is None:
                raise FormatError(f"{path}:{lineno}: dataset rows need a class label")
            labels.append(LABEL_INDEX[label])
            values.append([_parse_float(v, f"{path}:{lineno}") for v in row[1:]])
    if not values:
        raise FormatError(f"{path}: dataset holds no rows")
    return PatternDataset(np.array(values), np.array(labels))


# ---------------------------------------------------------------------------
# Model checkpoints
# ---------------------------------------------------------------------------


def save_model(path: str | Path, model: TdcnnModel) -> None:
    """Arch descriptor plus flat weights (block-major, then head), every real
    encoded as a round-trip decimal string."""
    flat: list[str] = []
    for arr in model_arrays(model):
        flat.extend(_fmt(v) for v in arr.ravel())
    dump_json(
        path,
        {"schema_version": 1, "arch": dataclass_to_dict(model.arch), "weights": flat},
    )


def load_model(path: str | Path) -> TdcnnModel:
    obj = load_json(path)
    where = str(path)
    arch = dataclass_from_dict(ArchSpec, _require(obj, "arch", where), f"{where}: arch")
    raw = _require(obj, "weights", where)
    flat = np.array([_parse_float(v, f"{where}: weights[{i}]") for i, v in enumerate(raw)])
    model = init_model(arch, seed=0)
    expected = sum(a.size for a in model_arrays(model))
    if flat.size != expected:
        raise FormatError(f"{where}: expected {expected} weights, got {flat.size}")
    pos = 0
    for arr in model_arrays(model):
        arr[...] = flat[pos : pos + arr.size].reshape(arr.shape)
        pos += arr.size
    return model


# ---------------------------------------------------------------------------
# Boxes and masks
# ---------------------------------------------------------------------------


def save_boxes(path: str | Path, boxes: list[BoundingBox]) -> None:
    dump_json(path, {"boxes": [dataclass_to_dict(b) for b in boxes]})


def load_boxes(path: str | Path) -> list[BoundingBox]:
    where = str(path)
    raw = _require(load_json(path), "boxes", where)
    return list(_from_json(raw, tuple[BoundingBox, ...], f"{where}: boxes", None))


def save_mask_pgm(path: str | Path, mask: np.ndarray) -> None:
    """Plain (P2) PGM grid of integer class labels."""
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ValueError("mask must be 2-D")
    h, w = mask.shape
    maxval = max(1, int(mask.max()) if mask.size else 1)
    lines = ["P2", f"{w} {h}", str(maxval)]
    lines.extend(" ".join(str(int(v)) for v in row) for row in mask)
    Path(path).write_text("\n".join(lines) + "\n")


def load_mask_pgm(path: str | Path) -> np.ndarray:
    tokens: list[str] = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            tokens.extend(body.split())
    if not tokens or tokens[0] != "P2":
        raise FormatError(f"{path}:1: expected a plain PGM ('P2') mask file")
    if len(tokens) < 4:
        raise FormatError(f"{path}: truncated PGM header")
    try:
        w, h, _maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
        values = [int(t) for t in tokens[4:]]
    except ValueError as exc:
        raise FormatError(f"{path}: non-integer PGM token ({exc})") from exc
    if len(values) != w * h:
        raise FormatError(f"{path}: expected {w * h} pixels, got {len(values)}")
    return np.array(values, dtype=np.int64).reshape(h, w)
