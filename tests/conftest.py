"""Shared fixtures and hypothesis settings for the test suite."""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro._util.rng import default_rng

# One moderate profile for CI-style runs: deterministic, bounded time.
settings.register_profile(
    "repro",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture(scope="session", autouse=True)
def no_pool_outlives_the_session():
    """Shut every worker pool down at session end and require that no
    child process is left running."""
    yield
    from repro.engine.backends import shutdown_pools

    shutdown_pools()
    leftover = multiprocessing.active_children()
    assert not leftover, f"child processes outlived the test session: {leftover}"


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG, fresh per test."""
    return default_rng(0xC0FFEE)


def random_bits(rng: np.random.Generator, n: int, k: int | None = None) -> np.ndarray:
    """Random valid-bit vector; exactly k ones when k is given."""
    out = np.zeros(n, dtype=bool)
    if k is None:
        out[:] = rng.random(n) < rng.random()
    elif k > 0:
        out[rng.choice(n, size=k, replace=False)] = True
    return out
