import importlib
import pkgutil

import pytest

import drowsemon

# every module but __main__, which runs the CLI when imported
MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(drowsemon.__path__) if name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"drowsemon.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
