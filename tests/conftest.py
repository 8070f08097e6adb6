import os

import pytest

import monoball


@pytest.fixture
def package_env():
    """Environment for a child interpreter that must import this monoball,
    installed or not."""
    src = os.path.dirname(os.path.dirname(monoball.__file__))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
