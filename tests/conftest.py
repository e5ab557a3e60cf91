import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True, scope="session")
def checkout_on_subprocess_path():
    """Let ``python -m drowsemon`` subprocesses import this checkout's sources.

    ``pythonpath`` in pyproject.toml puts ``src`` on the test process's own
    import path only; the CLI tests start fresh interpreters.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        yield
