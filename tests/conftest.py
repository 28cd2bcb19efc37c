import pathlib
import sys
import time
import weakref

import pytest

from helmbie import formulations
from helmbie.harness import VERIFICATION_SUITES
from helmbie.kernels import KernelFactors

TESTS_DIR = pathlib.Path(__file__).parent
sys.path.insert(0, str(TESTS_DIR))


@pytest.fixture(scope="session")
def data_dir():
    return TESTS_DIR / "data"


@pytest.fixture(autouse=True)
def empty_system_slot():
    """Every test starts without a reusable system, whatever ran before it."""
    formulations.empty_slot()


@pytest.fixture
def factor_sets(monkeypatch):
    """Weak references to every ``KernelFactors`` sampled during the test."""
    refs = []
    init = KernelFactors.__init__

    def tracked(self, *args):
        refs.append(weakref.ref(self))
        init(self, *args)

    monkeypatch.setattr(KernelFactors, "__init__", tracked)
    return refs


@pytest.fixture(scope="session")
def suite_seconds():
    """Wall time of each verification suite, filled by ``verification_reports``."""
    return {}


@pytest.fixture(scope="session")
def verification_reports(suite_seconds):
    """Every ``helmbie verify`` suite, run once per session: {name: report}."""
    formulations.empty_slot()
    reports = {}
    for name, suite in VERIFICATION_SUITES.items():
        t0 = time.perf_counter()
        reports[name] = suite()
        suite_seconds[name] = time.perf_counter() - t0
    return reports
