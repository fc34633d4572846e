import pathlib
from dataclasses import dataclass

import numpy as np
import pytest

from kishnn.ring import ParameterError, RingParams, select_ring_params

DATA_DIR = pathlib.Path(__file__).parent / "data"
WDBC_PATH = DATA_DIR / "wdbc.csv"

# Filled by the acceptance tests; replayed after the run so the per-
# criterion verdict lines survive pytest's output capture.
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def wdbc_path():
    return str(WDBC_PATH)


@pytest.fixture(scope="session")
def small_ring() -> RingParams:
    # grid 6, dim 2 -> dist_bound 10 -> modulus 23
    return select_ring_params(6, dim=2, n=20)


@pytest.fixture(scope="session")
def mid_ring() -> RingParams:
    # grid 24, dim 2 -> dist_bound 46 -> modulus 97
    return select_ring_params(24, dim=2, n=50)


@pytest.fixture
def trapdoor(monkeypatch):
    monkeypatch.setenv("KISHNN_TEST_TRAPDOOR", "1")


def two_cluster_db(n_per: int, grid: int, gap: int, seed: int = 0):
    """Two well-separated diagonal clusters; labels by cluster."""
    rng = np.random.default_rng(seed)
    spread = max(grid // 10, 1)
    a = rng.integers(0, spread, size=(n_per, 2))
    b = rng.integers(grid - spread - 1, grid - 1, size=(n_per, 2)) if gap \
        else rng.integers(0, spread, size=(n_per, 2))
    pts = np.vstack([a, b])
    labels = np.array([0] * n_per + [1] * n_per, dtype=np.int64)
    return pts, labels


@dataclass(frozen=True)
class DigitPair:
    """Base-p digits of a value v < coord_bound**2: v = high*p + low."""

    low: int
    high: int


def base_p_decompose(v: int, params: RingParams) -> DigitPair:
    """Split v < coord_bound**2 into (v mod p, v div p) digits; the tests'
    oracle for the circuit's base-p digit couples."""
    p = params.coord_bound
    if not 0 <= v < p * p:
        raise ParameterError(f"value {v} outside [0, {p * p})")
    return DigitPair(low=v % p, high=v // p)
