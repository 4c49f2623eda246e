"""Host speed probe: rescale measured seconds to an undisturbed host.

On a shared host the same pass can take 1.8x longer while a neighbour
loads the core, for tens of seconds at a time, which no number of
passes in one run averages away.  A fixed reference kernel that uses
nothing from the program probes the current speed; a timed step's
seconds are multiplied by ``REF_SECONDS`` over the kernel's time around
the step.  So ``setup_s`` and ``wall_s`` are seconds at the reference
host speed, not the program's measured seconds; the benchmark prints
the raw seconds, their medians and the factors with every result.  The
probe runs on one core, while certify's pool workers run on others.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Seconds :func:`reference_kernel` took on an uncontended core of a
#: 2-vCPU Intel Xeon host (Python 3.11, numpy); rescaled times are at that
#: speed, so they compare only between runs with the same value here.
REF_SECONDS = 0.03


def reference_kernel() -> float:
    """Seconds a fixed mix of interpreter and numpy work takes now."""
    start = perf_counter()
    table: dict[int, int] = {}
    for i in range(250_000):
        key = i % 977
        table[key] = table.get(key, 0) + i
    values = np.arange(4096)
    for _ in range(150):
        np.sort(values[::-1] ^ 5)
    return perf_counter() - start


class HostSpeed:
    """Probes before the first and after every timed step; a step is
    rescaled by the mean of the two probes around it."""

    def __init__(self) -> None:
        self.last = reference_kernel()
        self.factors: list[float] = []

    def rescale(self, seconds: float) -> float:
        after = reference_kernel()
        self.factors.append(REF_SECONDS / ((self.last + after) / 2))
        self.last = after
        return seconds * self.factors[-1]
