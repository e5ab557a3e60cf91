"""File formats for every persistent value type.

Reals are written as the ``repr`` of Python floats, an array as
``map(repr, array.tolist())`` and a header scalar by ``_fmt``, and read by
``_parse_floats``, one ``float`` pass that names the line or element of the
first non-number or non-finite number; so load(save(x)) reproduces
bit-identical doubles. JSON documents are emitted with sorted keys and a
trailing newline, which makes artifact files byte-stable across runs.
"""

from __future__ import annotations

import csv
import json
import re
from collections.abc import Callable, Sequence
from dataclasses import MISSING, astuple, dataclass, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import ClassVar, get_args, get_origin, get_type_hints

import numpy as np

from .filterbank import FilteredStack, HyperFilterConfig, PatternDataset
from .signal_gen import INDEX_LABEL, LABEL_INDEX, Label, PpgSignal
from .tdcnn import ArchSpec, TdcnnModel, TrainParams
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


# The parsers call ``where(i)`` for the location of their i-th text only to
# raise, so a reader formats no location for the values that parse.
def _parse_floats(texts: Sequence[str], where: Callable[[int], str]) -> np.ndarray:
    """float64 array of ``texts``; the first non-number, or the first ``nan``
    or infinity, is refused at ``where(i)``."""
    try:
        values = np.array(list(map(float, texts)))
    except ValueError:
        for i, text in enumerate(texts):
            try:
                float(text)
            except ValueError as exc:
                raise FormatError(f"{where(i)}: expected a number, got {text!r}") from exc
        raise
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise FormatError(f"{where(i)}: expected a finite number, got {texts[i]!r}")
    return values


def _parse_label(text: str, where: Callable[[int], str]) -> Label | None:
    if text == "":
        return None
    try:
        return Label(text)
    except ValueError as exc:
        raise FormatError(f"{where(0)}: unknown label {text!r}") from exc


def dump_json(path: str | Path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def load_json(path: str | Path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc


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
    field (and ``schema_version`` when its class declares one), an enum its
    value, a tuple a list; anything else is kept."""
    if is_dataclass(value):
        doc = {}
        version = getattr(value, "schema_version", None)
        if version is not None:
            doc["schema_version"] = version
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
    architecture, must be present. A key that names no field is refused. A
    class that declares a ``schema_version`` requires exactly that version.
    """
    if not isinstance(doc, dict):
        raise FormatError(f"{where}: expected an object, got {type(doc).__name__}")
    known = [f for f in fields(cls) if (cls, f.name) != _DERIVED]
    names = {f.name for f in known}
    version = getattr(cls, "schema_version", None)
    if version is not None:
        if "schema_version" not in doc:
            raise FormatError(f"{where}: missing field 'schema_version'")
        found = _from_json(doc["schema_version"], int, f"{where}: schema_version", None)
        if found != version:
            raise FormatError(f"{where}: unsupported schema_version {found!r}")
        names.add("schema_version")
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
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{where}: {exc}") from exc


def _from_json(value, hint, where: str, base=None):
    if is_dataclass(hint):
        return dataclass_from_dict(hint, value, where, base)
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise FormatError(f"{where}: expected a list, got {type(value).__name__}")
        item = get_args(hint)[0]
        # the element decoder is chosen once: a checkpoint holds thousands of scalars
        decode = _from_json if is_dataclass(item) or get_origin(item) is tuple else _scalar_from_json
        try:
            return tuple([decode(v, item, where) for v in value])
        except FormatError:
            # decode again naming each element, which raises at the first bad one
            for i, v in enumerate(value):
                decode(v, item, f"{where}[{i}]")
            raise
    return _scalar_from_json(value, hint, where)


def _scalar_from_json(value, hint, where: str):
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


def _read_sample_header(path, lines: list[str]) -> tuple[float, Label | None]:
    """``fs`` and label from the first of ``lines`` of a signal file."""
    if not lines:
        raise FormatError(f"{path}:1: empty signal file")
    match = re.fullmatch(r"#\s*fs=([^,]+),label=(.*)", lines[0].strip())
    if not match:
        raise FormatError(f"{path}:1: expected header '# fs=<hz>,label=<name>'")
    at = lambda _: f"{path}:1"
    fs = _parse_floats([match.group(1)], at).item()
    if fs <= 0:
        raise FormatError(f"{path}:1: expected a positive fs, got {match.group(1)!r}")
    return fs, _parse_label(match.group(2), at)


def save_signal_csv(path: str | Path, signal: PpgSignal) -> None:
    """Header comment line '# fs=<hz>,label=<name>' then one sample per row."""
    lines = [_sample_header(signal.fs, signal.label)]
    lines.extend(map(repr, signal.samples.tolist()))
    Path(path).write_text("\n".join(lines) + "\n")


def load_signal_csv(path: str | Path) -> PpgSignal:
    lines = Path(path).read_text().splitlines()
    fs, label = _read_sample_header(path, lines)
    texts = [line.strip() for line in lines[1:]]
    # blank lines hold no sample, so the i-th sample's line is counted on error
    at = lambda i: f"{path}:{[n for n, text in enumerate(texts, start=2) if text][i]}"
    return PpgSignal(_parse_floats(list(filter(None, texts)), at), fs=fs, label=label)


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
    lines.extend(",".join(map(repr, row.tolist())) for row in stack.channels.T)
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Pattern datasets
# ---------------------------------------------------------------------------


def save_dataset_csv(path: str | Path, dataset: PatternDataset) -> None:
    # no field holds a comma, quote or line break, so rows need no CSV quoting
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["label", *(f"c{i}" for i in range(dataset.n_channels))]) + "\n")
        for row, label in zip(dataset.values, dataset.labels.tolist()):
            fh.write(",".join([INDEX_LABEL[label].value, *map(repr, row.tolist())]) + "\n")


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
        if not n_channels:
            raise FormatError(f"{path}:1: header names no channel column")
        values, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n_channels + 1:
                raise FormatError(
                    f"{path}:{lineno}: row has {len(row)} fields, expected {n_channels + 1}"
                )
            at = lambda _: f"{path}:{lineno}"
            label = _parse_label(row[0], at)
            if label is None:
                raise FormatError(f"{path}:{lineno}: dataset rows need a class label")
            labels.append(LABEL_INDEX[label])
            values.append(_parse_floats(row[1:], at))
    if not values:
        raise FormatError(f"{path}: dataset holds no rows")
    return PatternDataset(np.array(values), np.array(labels))


# ---------------------------------------------------------------------------
# Model checkpoints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Checkpoint:
    schema_version: ClassVar[int] = 1
    arch: ArchSpec
    weights: tuple[str, ...]


def save_model(path: str | Path, model: TdcnnModel) -> None:
    """Arch descriptor plus the weight vector ``model.params`` (block-major,
    then head), every real encoded as a round-trip decimal string."""
    dump_json(path, dataclass_to_dict(_Checkpoint(model.arch, tuple(map(repr, model.params.tolist())))))


def load_model(path: str | Path) -> TdcnnModel:
    where = str(path)
    doc = dataclass_from_dict(_Checkpoint, load_json(path), where)
    flat = _parse_floats(doc.weights, lambda i: f"{where}: weights[{i}]")
    try:
        return TdcnnModel(doc.arch, flat)
    except ValueError as exc:  # a weight count that does not fit the architecture
        raise FormatError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# Boxes and masks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _BoxFile:
    boxes: tuple[BoundingBox, ...]


def save_boxes(path: str | Path, boxes: list[BoundingBox]) -> None:
    dump_json(path, dataclass_to_dict(_BoxFile(tuple(boxes))))


def load_boxes(path: str | Path) -> list[BoundingBox]:
    return list(dataclass_from_dict(_BoxFile, load_json(path), str(path)).boxes)


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
