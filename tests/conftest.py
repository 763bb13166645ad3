import numpy as np
import pytest

from tfsamp import (
    build_localization_operator,
    disk_region,
    eigendecompose,
    make_gaussian_window,
)
from tfsamp.locop import EigenSystem
from tfsamp.tfcore import TFPoint


class System:
    """One fully built (region, window, operator, eigensystem) bundle."""

    def __init__(self, L, radius):
        self.L = L
        self.region = disk_region(L, TFPoint(L // 2, L // 2), radius)
        self.window = make_gaussian_window(L)
        self.H = build_localization_operator(self.region, self.window)
        self.eigs = eigendecompose(self.H, 0.5)


def dense_eigensystem(eigenvalues, V, N, gamma, region, window):
    """An EigenSystem of one dense (L, L) eigenvector matrix V: one block, identity
    order, no modulation and unit phases, so columns(slice(None)) is V itself."""
    L = V.shape[1]
    return EigenSystem(eigenvalues, [V], N, gamma, region, window, [None], np.arange(L), None,
                       np.ones(L))


@pytest.fixture(scope="session")
def sys16():
    return System(16, 4)


@pytest.fixture(scope="session")
def sys32():
    return System(32, 8)


@pytest.fixture(scope="session")
def sys64():
    return System(64, 16)


@pytest.fixture(scope="session")
def sys120():
    return System(120, 30)


@pytest.fixture(scope="session")
def sys480():
    # the experiment scale: one dense eigensolve shared by everything below
    return System(480, 120)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260816)


# -------------------------------------------------- acceptance reporting
# test_acceptance.py records one line per criterion through this registry;
# the terminal summary prints them whether or not capture is on.

ACCEPTANCE_LINES = []


def record_acceptance(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"[{status}] {criterion}: {detail}")
    return ok


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
