"""Synthetic workload generators.

Each generator produces, per round, the set of input wires that carry a
valid message (and the message payloads).  These play the role of the
parallel computer's traffic that the paper's switches would see.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro._util.rng import default_rng
from repro.errors import ConfigurationError
from repro.messages.message import Message


class TrafficGenerator(ABC):
    """Produces one round of traffic at a time.

    :meth:`draw` is the array form the simulators consume: the active
    input indices (in :meth:`active_inputs` order) and their payload
    integers, drawn in one ``integers(0, 2**payload_bits, size=k)``
    call, with no draw at all when ``payload_bits`` is 0.
    :meth:`next_round` wraps the same draw as a length-n list of
    :class:`Message`/None, so both forms consume the generator's RNG
    identically.  ``payload_bits`` is at most 63 so a payload fits a
    numpy int64.
    """

    def __init__(self, n: int, payload_bits: int = 8, seed: int | None = None):
        if n < 1:
            raise ConfigurationError(f"n must be positive, got {n}")
        if not 0 <= payload_bits <= 63:
            raise ConfigurationError(
                f"payload_bits must be in [0, 63], got {payload_bits}"
            )
        self.n = n
        self.payload_bits = payload_bits
        self.rng = default_rng(seed)

    @abstractmethod
    def active_inputs(self) -> np.ndarray:
        """Distinct indices of inputs carrying a valid message this
        round."""

    def draw(self) -> tuple[np.ndarray, np.ndarray]:
        """One round as arrays: ``(inputs, values)``, the active input
        indices and their payload integers."""
        inputs = np.asarray(self.active_inputs(), dtype=np.intp)
        if self.payload_bits:
            values = self.rng.integers(0, 1 << self.payload_bits, size=inputs.size)
        else:
            values = np.zeros(inputs.size, dtype=np.int64)
        return inputs, values

    def next_round(self) -> list[Message | None]:
        """One round as a length-n list of :class:`Message`/None."""
        messages: list[Message | None] = [None] * self.n
        inputs, values = self.draw()
        for i, value in zip(inputs.tolist(), values.tolist()):
            messages[i] = Message.from_int(value, self.payload_bits)
        return messages


class BernoulliTraffic(TrafficGenerator):
    """Each input independently carries a message with probability
    ``p`` (the offered load per wire)."""

    def __init__(self, n: int, p: float, payload_bits: int = 8, seed: int | None = None):
        super().__init__(n, payload_bits, seed)
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError(f"p must be in [0, 1], got {p}")
        self.p = p

    def active_inputs(self) -> np.ndarray:
        return np.flatnonzero(self.rng.random(self.n) < self.p)


class FixedKTraffic(TrafficGenerator):
    """Exactly ``k`` uniformly chosen inputs carry messages — the load
    model of the paper's k-message analyses."""

    def __init__(self, n: int, k: int, payload_bits: int = 8, seed: int | None = None):
        super().__init__(n, payload_bits, seed)
        if not 0 <= k <= n:
            raise ConfigurationError(f"k={k} out of range for n={n}")
        self.k = k

    def active_inputs(self) -> np.ndarray:
        return self.rng.choice(self.n, size=self.k, replace=False)


class HotSpotTraffic(TrafficGenerator):
    """A contiguous band of inputs is hot (per-wire probability
    ``p_hot``) while the rest stay at ``p_cold`` — stresses the switch
    with spatially clustered valid bits, the adversarial pattern for
    mesh-based nearsorters."""

    def __init__(
        self,
        n: int,
        hot_fraction: float = 0.25,
        p_hot: float = 0.9,
        p_cold: float = 0.05,
        payload_bits: int = 8,
        seed: int | None = None,
    ):
        super().__init__(n, payload_bits, seed)
        if not 0.0 < hot_fraction <= 1.0:
            raise ConfigurationError("hot_fraction must be in (0, 1]")
        for name, p in (("p_hot", p_hot), ("p_cold", p_cold)):
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {p}")
        self.hot_count = max(1, int(round(hot_fraction * n)))
        self.p_hot = p_hot
        self.p_cold = p_cold

    def active_inputs(self) -> np.ndarray:
        start = int(self.rng.integers(0, self.n))
        hot = (np.arange(self.hot_count) + start) % self.n
        mask = np.zeros(self.n, dtype=bool)
        mask[hot] = self.rng.random(self.hot_count) < self.p_hot
        cold = np.setdiff1d(np.arange(self.n), hot, assume_unique=False)
        mask[cold] = self.rng.random(cold.size) < self.p_cold
        return np.flatnonzero(mask)
