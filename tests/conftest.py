import pathlib
import sys

import pytest

from helmbie import formulations

TESTS_DIR = pathlib.Path(__file__).parent
sys.path.insert(0, str(TESTS_DIR))


@pytest.fixture(scope="session")
def data_dir():
    return TESTS_DIR / "data"


@pytest.fixture(autouse=True)
def empty_system_slot():
    """Every test starts without a reusable system, whatever ran before it."""
    formulations.empty_slot()
