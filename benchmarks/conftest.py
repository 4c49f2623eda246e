"""Shared helpers for the benchmark harness.

Every bench regenerates one paper artifact (table/figure/theorem-level
claim), asserts the *shape* agreement recorded in EXPERIMENTS.md, and
prints a paper-vs-measured report to the terminal (visible in
``bench_output.txt``).  pytest-benchmark times the underlying
computation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._util.rng import default_rng


@pytest.fixture
def rng() -> np.random.Generator:
    return default_rng(0x1987)


@pytest.fixture
def report(capsys):
    """Print a report section to the real terminal (bypassing capture)
    so it lands in bench_output.txt."""

    def _report(title: str, body: str) -> None:
        with capsys.disabled():
            print(f"\n{'=' * 72}\n{title}\n{'=' * 72}\n{body}")

    return _report


def random_bits(rng: np.random.Generator, n: int, k: int | None = None) -> np.ndarray:
    out = np.zeros(n, dtype=bool)
    if k is None:
        out[:] = rng.random(n) < rng.random()
    elif k > 0:
        out[rng.choice(n, size=k, replace=False)] = True
    return out
