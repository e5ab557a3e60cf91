import copy
import importlib
import pkgutil

import numpy as np
import pytest

import drowsemon
from drowsemon.filterbank import (
    FilterKernel,
    HyperFilterConfig,
    PatternDataset,
    PatternSignal,
    hyper_filter,
)
from drowsemon.pipeline import DEFAULT_LAYERS
from drowsemon.signal_gen import Label, PpgSignal
from drowsemon.tdcnn import ArchSpec, MlpModel, init_model
from drowsemon.vision import init_rcca_weights

# every module but __main__, which runs the CLI when imported
MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(drowsemon.__path__) if name != "__main__"
)

TINY_ARCH = ArchSpec(n_blocks=2, kernel_size=3, channels=4, dilation_schedule=(2, 4))

# one instance of every dataclass that holds an ndarray
ARRAY_TYPES = {
    "PpgSignal": lambda: PpgSignal(np.arange(5.0), 100.0, Label.DROWSY),
    "FilterKernel": lambda: FilterKernel(np.ones(3)),
    "FilteredStack": lambda: hyper_filter(
        PpgSignal(np.sin(np.arange(700.0)), 100.0, Label.DROWSY), HyperFilterConfig(((1.0, 10.0),), bands_per_layer=1)
    ),
    "PatternSignal": lambda: PatternSignal(np.ones(3), Label.WAKEFUL),
    "PatternDataset": lambda: PatternDataset(np.zeros((2, 3)), np.array([0, 1])),
    "BlockWeights": lambda: init_model(TINY_ARCH, seed=1).blocks[0],
    "TdcnnModel": lambda: init_model(TINY_ARCH, seed=1),
    "MlpModel": lambda: MlpModel(np.ones((2, 3)), np.ones(2), np.ones((2, 2)), np.ones(2)),
    "RccaWeights": lambda: init_rcca_weights(4, seed=0),
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"drowsemon.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", ARRAY_TYPES)
def test_array_dataclasses_compare_by_identity(name):
    a = ARRAY_TYPES[name]()
    twin = copy.deepcopy(a)
    assert type(a).__name__ == name
    arrays = [(v, vars(twin)[k]) for k, v in vars(a).items() if isinstance(v, np.ndarray)]
    assert arrays and all(np.array_equal(x, y) and x is not y for x, y in arrays)
    # a field-by-field __eq__ would raise on the array fields
    assert (a == a) is True
    assert (a == twin) is False and (a != twin) is True


def test_config_types_compare_by_value():
    assert HyperFilterConfig(DEFAULT_LAYERS) == HyperFilterConfig([list(layer) for layer in DEFAULT_LAYERS])
    assert hash(HyperFilterConfig(DEFAULT_LAYERS)) == hash(HyperFilterConfig(DEFAULT_LAYERS))
    assert HyperFilterConfig(DEFAULT_LAYERS) != HyperFilterConfig(DEFAULT_LAYERS, bands_per_layer=3)
    assert ArchSpec() == ArchSpec(dilation_schedule=[2, 4, 8, 16] * 3)
    assert ArchSpec() != TINY_ARCH
